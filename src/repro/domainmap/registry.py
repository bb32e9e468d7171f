"""Registering new knowledge into a domain map (Figure 3).

A source may *change* the mediator's domain map (or its local copy) "by
adding and refining DM concepts": Figure 3 shows the map after
registering::

    MyDendrite = Dendrite & exists exp.Dopamine_R
    MyNeuron   < Medium_Spiny_Neuron
               & exists proj.Globus_Pallidus_External
               & all has.MyDendrite

:class:`ConceptRegistration` validates that a refinement only *extends*
the map — the referenced concepts/roles must already exist (or be among
the newly introduced ones) and existing axioms are never removed — then
applies it and reports the edges that became derivable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import DomainMapError, UnknownConceptError, UnknownRoleError
from .dl import Axiom, Conj, Disj, Eqv, Exists, Forall, Named, Sub, parse_axioms
from .graphops import ancestors, deductive_closure, isa_closure
from .model import DomainMap


class RegistrationResult:
    """What a registration added: concepts, axioms, and derived facts."""

    def __init__(self, new_concepts, new_axioms, new_isa, new_role_links):
        self.new_concepts = sorted(new_concepts)
        self.new_axioms = list(new_axioms)
        self.new_isa = sorted(new_isa)
        self.new_role_links = sorted(new_role_links)

    def __repr__(self):
        return (
            "RegistrationResult(concepts=%r, axioms=%d, isa+=%d, roles+=%d)"
            % (
                self.new_concepts,
                len(self.new_axioms),
                len(self.new_isa),
                len(self.new_role_links),
            )
        )

    def touched_concepts(self):
        """Every concept this refinement introduced or (re)connected:
        the new concepts plus both endpoints of every new isa pair and
        role link.  This is the seed set medcache's domain-map-aware
        invalidation starts its upward closure from — note a
        refinement adding *only* role links (no new concepts) still
        seeds it."""
        touched = set(self.new_concepts)
        for sub, sup in self.new_isa:
            touched.add(sub)
            touched.add(sup)
        for src, _role, dst in self.new_role_links:
            touched.add(src)
            touched.add(dst)
        return touched

    def describe(self):
        lines = ["registered %d new concept(s):" % len(self.new_concepts)]
        for concept in self.new_concepts:
            lines.append("  %s" % concept)
        for axiom in self.new_axioms:
            lines.append("  axiom: %s" % axiom)
        lines.append("derived isa edges: %d" % len(self.new_isa))
        lines.append("derived role links: %d" % len(self.new_role_links))
        return "\n".join(lines)


def defined_concepts(axioms):
    """The concepts the DL `axioms` define: their named left-hand
    sides."""
    return {axiom.lhs.name for axiom in axioms if isinstance(axiom.lhs, Named)}


def register_concepts(dm, axioms, allow_new_roles=False):
    """Refine `dm` with DL axioms introducing new concepts.

    Args:
        dm: the domain map to extend (mutated in place).
        axioms: axiom text (one per line) or an iterable of Axioms.
        allow_new_roles: whether axioms may mention undeclared roles.

    Returns a :class:`RegistrationResult` summarizing the extension,
    including the isa edges and deductive role links that became
    derivable (e.g. `MyNeuron`'s inherited projections in Figure 3).

    Raises :class:`UnknownConceptError` when an axiom references a
    concept that neither exists in the map nor is defined by the
    registration itself — refinements must attach to the existing map.
    """
    if isinstance(axioms, str):
        axioms = parse_axioms(axioms)
    axioms = list(axioms)
    if not axioms:
        raise DomainMapError("registration contains no axioms")

    defined = defined_concepts(axioms)

    # Validate references: everything mentioned on the rhs (or a complex
    # lhs) must already exist or be defined by this registration.
    for axiom in axioms:
        mentioned = set(axiom.rhs.named_concepts())
        if not isinstance(axiom.lhs, Named):
            mentioned |= set(axiom.lhs.named_concepts())
        for concept in mentioned:
            if concept not in dm.concepts and concept not in defined:
                raise UnknownConceptError(
                    "registration references unknown concept %r" % concept
                )
        roles = set(axiom.rhs.roles()) | set(axiom.lhs.roles())
        if not allow_new_roles:
            for role in roles:
                if role not in dm.roles:
                    raise UnknownRoleError(
                        "registration references unknown role %r" % role
                    )

    before_isa = isa_closure(dm, reflexive=False)
    before_roles = {
        role: deductive_closure(dm, role) for role in sorted(dm.roles)
    }

    new_concepts = defined - dm.concepts
    for axiom in axioms:
        dm.add_axiom(axiom)

    after_isa = isa_closure(dm, reflexive=False)
    new_isa = after_isa - before_isa
    new_role_links: Set[Tuple[str, str, str]] = set()
    for role in sorted(dm.roles):
        after = deductive_closure(dm, role)
        before = before_roles.get(role, set())
        for src, dst in after - before:
            new_role_links.add((src, role, dst))

    return RegistrationResult(new_concepts, axioms, new_isa, new_role_links)


def definite_projections(dm, concept, role="proj"):
    """The targets `concept` *definitely* relates to via `role`, following
    the deductive closure (Figure 3: with the new knowledge, MyNeuron
    definitely projects to Globus_Pallidus_External)."""
    dm.require_concept(concept)
    return sorted(
        dst for src, dst in deductive_closure(dm, role) if src == concept
    )
