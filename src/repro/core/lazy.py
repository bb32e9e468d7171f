"""Navigation-driven (lazy) query evaluation.

Eager registration loads every source's data into the mediator; real
mediators fetch on demand (cf. the paper's companion work on
navigation-driven evaluation of virtual mediated views [LPV00]).
:func:`ask_lazy` answers an F-logic query against a mediator whose
sources registered with ``eager=False``:

1. parse the query and collect the **referenced classes**: molecule
   tags naming source classes, DM concepts (resolved to anchored
   source classes through the semantic index), and classes reachable
   through view definitions (`depends_on`);
2. for each (source, class), derive **pushable selections** from the
   query's ground frame values, validated against the source's binding
   patterns (unsupported selections are simply evaluated mediator-side
   after a scan);
3. fetch + lift exactly those rows and answer the query by continuing
   the mediator's per-revision model with them.

The result is answer-equivalent to eager evaluation (tested) while
contacting only relevant sources and pushing selections down.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..datalog.terms import Const, Var
from ..errors import MediatorError
from ..flogic.ast import FLAggregate, FLNegation, FLPredicate, Molecule
from ..flogic.parser import parse_fl_body, parse_fl_program
from ..sources.wrapper import SourceQuery
from .views import DistributionView, IntegratedView


def _collect_molecules(items):
    for item in items:
        if isinstance(item, Molecule):
            yield item
        elif isinstance(item, FLNegation):
            yield from _collect_molecules(item.items)
        elif isinstance(item, FLAggregate):
            yield from _collect_molecules(item.body)


def referenced_class_names(fl_items):
    """Constant class names used as `:` tags in the query."""
    names: Set[str] = set()
    for molecule in _collect_molecules(fl_items):
        if molecule.tag_kind == ":" and isinstance(molecule.tag, Const):
            value = molecule.tag.value
            if isinstance(value, str):
                names.add(value)
    return names


def ground_selections(fl_items, class_name):
    """attr -> value selections derivable from the query's frames on
    molecules tagged with `class_name`."""
    selections: Dict[str, object] = {}
    for molecule in _collect_molecules(fl_items):
        if not (
            molecule.tag_kind == ":"
            and isinstance(molecule.tag, Const)
            and molecule.tag.value == class_name
        ):
            continue
        for spec in molecule.specs:
            if spec.arrow not in ("->", "->>"):
                continue
            if not isinstance(spec.method, Const):
                continue
            ground_values = [v for v in spec.values if isinstance(v, Const)]
            if len(ground_values) == 1 and len(spec.values) == 1:
                selections[str(spec.method.value)] = ground_values[0].value
    return selections


def _expand_through_views(mediator, names):
    """Add classes reachable through view definitions."""
    expanded = set(names)
    changed = True
    while changed:
        changed = False
        for view_name in mediator.view_names():
            view = mediator.view(view_name)
            if view_name not in expanded:
                continue
            deps: Set[str] = set()
            if isinstance(view, IntegratedView):
                deps |= set(view.depends_on)
                for rule in parse_fl_program(view.fl_rules):
                    deps |= referenced_class_names(rule.body)
            elif isinstance(view, DistributionView):
                deps.add(view.source_class)
            new = deps - expanded
            if new:
                expanded |= new
                changed = True
    return expanded


def plan_fetches(mediator, fl_items):
    """Which (source, class, selections) to fetch for a query."""
    names = _expand_through_views(mediator, referenced_class_names(fl_items))
    fetches: List[Tuple[str, str, Dict]] = []
    seen: Set[Tuple[str, str]] = set()

    def add(source, class_name):
        if (source, class_name) in seen:
            return
        seen.add((source, class_name))
        selections = ground_selections(fl_items, class_name)
        capability = mediator.capabilities(source).get(class_name)
        pushable = {}
        if capability is not None:
            for attr, value in selections.items():
                if attr in capability.attributes and capability.answerable(
                    {attr: value}
                ):
                    pushable[attr] = value
        fetches.append((source, class_name, pushable))

    for name in sorted(names):
        # direct source classes
        for source in mediator.source_names():
            if name in mediator.capabilities(source):
                add(source, name)
        # DM concepts: anchored source classes
        if mediator.dm.has_concept(name):
            for anchor in mediator.index.anchors_at(name):
                if anchor.class_name in mediator.capabilities(anchor.source):
                    add(anchor.source, anchor.class_name)
    return fetches


def ask_lazy(mediator, fl_query):
    """Answer `fl_query` by fetching only the data it references.

    Returns (answers, fetches) where `fetches` lists the
    (source, class, pushed-selections) triples that were contacted.
    """
    fl_items = parse_fl_body(fl_query)
    fetches = plan_fetches(mediator, fl_items)
    facts = []
    for source, class_name, selections in fetches:
        wrapper = mediator.wrapper(source)
        rows = mediator.source_query(source, SourceQuery(class_name, selections))
        facts.extend(wrapper.lift_rows(class_name, rows))
    # continue the mediator's cached model with the fetched rows
    answers = mediator.engine().ask(fl_query, extra_rules=facts)
    return answers, fetches
