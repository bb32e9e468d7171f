"""The semantic index: anchoring source data in the domain map.

"As part of registering a source's CM with the mediator, the wrapper
creates a 'semantic index' of its data into the domain map" (abstract).
The index records, per DM concept, which source classes hang off it
(schema-level anchors).  The mediator consults it to
*select relevant sources* during query processing (step 2 of the
Section 5 plan).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from ..errors import UnknownConceptError
from .graphops import ancestors, descendants


class Anchor:
    """A schema-level anchor: source class -> DM concept.

    `context` optionally names the attribute/method whose values carry
    the anchor (the paper's anchor/context attributes).
    """

    __slots__ = ("source", "class_name", "concept", "context")

    def __init__(self, source, class_name, concept, context=None):
        self.source = source
        self.class_name = class_name
        self.concept = concept
        self.context = context

    def as_tuple(self):
        return (self.source, self.class_name, self.concept, self.context)

    def __eq__(self, other):
        return isinstance(other, Anchor) and self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(("Anchor",) + self.as_tuple())

    def __repr__(self):
        return "Anchor(%r, %r -> %r)" % (self.source, self.class_name, self.concept)


class SemanticIndex:
    """Concept-to-source index over a fixed domain map."""

    def __init__(self, dm):
        self.dm = dm
        self._anchors: Set[Anchor] = set()
        self._by_concept: Dict[str, Set[Anchor]] = {}

    # -- registration ------------------------------------------------------

    def add_anchor(self, source, class_name, concept, context=None):
        """Anchor a source class at a DM concept."""
        self.dm.require_concept(concept)
        anchor = Anchor(source, class_name, concept, context)
        self._anchors.add(anchor)
        self._by_concept.setdefault(concept, set()).add(anchor)
        return anchor

    def remove_source(self, source):
        """Drop every anchor contributed by a source (deregistration)."""
        self._anchors = {a for a in self._anchors if a.source != source}
        self._by_concept = {}
        for anchor in self._anchors:
            self._by_concept.setdefault(anchor.concept, set()).add(anchor)
        return self

    # -- lookup ---------------------------------------------------------------

    def concepts_of_source(self, source):
        """All concepts a source anchors data at."""
        return sorted({a.concept for a in self._anchors if a.source == source})

    def concepts_of_class(self, source, class_name):
        """The concepts one exported class of a source anchors data at
        — the invalidation coordinates of that class's cached
        answers."""
        return sorted(
            {
                a.concept
                for a in self._anchors
                if a.source == source and a.class_name == class_name
            }
        )

    def anchors_at(self, concept):
        """Anchors at a concept, including its isa-descendants: data
        anchored at `Purkinje_Cell` *is* `Neuron` data."""
        self.dm.require_concept(concept)
        targets = {concept} | descendants(self.dm, concept)
        found: Set[Anchor] = set()
        for target in targets:
            found |= self._by_concept.get(target, set())
        return sorted(found, key=lambda a: (a.source, a.class_name, a.concept))

    def sources_for(self, concept):
        """Which sources can supply data for a concept (source selection,
        step 2 of the Section 5 query plan)."""
        return sorted({a.source for a in self.anchors_at(concept)})

    def sources_for_any(self, concepts):
        """Sources anchored at *at least one* of the given concepts."""
        found: Set[str] = set()
        for concept in concepts:
            found |= set(self.sources_for(concept))
        return sorted(found)

    def coverage(self):
        """Concept -> sorted sources map (for reports / Figure 2 bench)."""
        return {
            concept: sorted({a.source for a in anchors})
            for concept, anchors in sorted(self._by_concept.items())
        }

    def __len__(self):
        return len(self._anchors)
