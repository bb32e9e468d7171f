"""The mediator's recursive `aggregate` function (Example 4).

"The function aggregate recursively traverses a binary relation R
(here: has_a_star) starting from node P, and computes the aggregate of
the specified attribute at each level of the relation."

Given the mediated object base (an evaluated fact store), a domain map
and a root concept, :func:`aggregate_over_dm` walks the direct
`has_a_star` links below the root and, per concept, combines

* the *direct* values: ``method_val(obj, value_attr, V)`` of objects
  anchored at that concept (optionally filtered by a grouping value,
  e.g. one protein name), and
* the aggregates of its children,

into a cumulative value.  The result is a :class:`Distribution` — the
paper's ``protein_distribution`` payload: one row per region reachable
from the distribution root.

Aggregation through recursion is not expressible in stratified Datalog
(and the paper's FLORA treats `aggregate` as a builtin), so this is a
mediator-side builtin here too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import MediatorError
from ..datalog.terms import Const
from ..domainmap.graphops import part_tree
from ..graph import reachable

AGG_FUNCS: Dict[str, Callable] = {
    "sum": sum,
    "count": len,
    "min": min,
    "max": max,
    "avg": lambda values: sum(values) / len(values),
}


class DistributionRow:
    """One region of a distribution."""

    __slots__ = ("concept", "depth", "direct_values", "direct", "cumulative")

    def __init__(self, concept, depth, direct_values, direct, cumulative):
        self.concept = concept
        self.depth = depth
        self.direct_values = tuple(direct_values)
        self.direct = direct
        self.cumulative = cumulative

    def __repr__(self):
        return "DistributionRow(%r, depth=%d, direct=%r, cumulative=%r)" % (
            self.concept,
            self.depth,
            self.direct,
            self.cumulative,
        )


class Distribution:
    """A per-region aggregate below a distribution root."""

    def __init__(self, root, role, func, rows):
        self.root = root
        self.role = role
        self.func = func
        self.rows: List[DistributionRow] = rows

    def row(self, concept):
        for row in self.rows:
            if row.concept == concept:
                return row
        return None

    def nonzero_rows(self):
        return [row for row in self.rows if row.direct_values or row.cumulative]

    def total(self):
        """The cumulative value at the root."""
        root_row = self.row(self.root)
        return root_row.cumulative if root_row else None

    def as_table(self):
        """(concept, depth, direct, cumulative) tuples, root first,
        then breadth-first by depth and name."""
        return [
            (row.concept, row.depth, row.direct, row.cumulative)
            for row in self.rows
        ]

    def __len__(self):
        return len(self.rows)

    def __str__(self):
        lines = [
            "distribution of %s below %s (via %s)" % (self.func, self.root, self.role)
        ]
        for row in self.rows:
            lines.append(
                "  %s%-32s direct=%s cumulative=%s"
                % ("  " * row.depth, row.concept, row.direct, row.cumulative)
            )
        return "\n".join(lines)


def direct_values_at(store, concept, value_attr, filters=None):
    """Values of `value_attr` on objects *anchored* at `concept`.

    Reads the stated ``anchor(obj, concept)`` relation (emitted by
    wrapper lifting), not the subclass-closed `instance` relation: an
    object counts exactly once, at its semantic coordinates — otherwise
    every measurement would be re-counted at each superconcept.

    `filters` restricts contributing objects to those whose attributes
    hold the given values (e.g. one protein name, one organism).
    """
    concept_const = Const(concept)
    objects = {
        args[0] for args in store.rows(("anchor", 2)) if args[1] == concept_const
    }
    if not objects:
        return []
    method_rows = store.rows(("method_val", 3))
    for filter_attr, filter_value in (filters or {}).items():
        attr_const, value_const = Const(filter_attr), Const(filter_value)
        objects &= {
            row[0]
            for row in method_rows
            if row[1] == attr_const and row[2] == value_const
        }
        if not objects:
            return []
    attr_const = Const(value_attr)
    values = [
        row[2].value
        for row in method_rows
        if row[1] == attr_const and row[0] in objects and isinstance(row[2], Const)
    ]
    return sorted(values, key=repr)


def aggregate_over_dm(
    dm,
    store,
    root,
    value_attr,
    role="has",
    func="sum",
    group_attr=None,
    group_value=None,
    filters=None,
):
    """Example 4's ``aggregate(Y, attr, R, P, D)`` builtin.

    Args:
        dm: the domain map supplying `has_a_star`.
        store: the evaluated mediated object base (with `instance` and
            `method_val` facts, e.g. from :meth:`Mediator.evaluate`).
        root: distribution root concept P.
        value_attr: the attribute whose values are aggregated.
        role: the binary relation R to traverse (default has_a_star).
        func: sum / count / min / max / avg.
        group_attr, group_value: optional filter (the Y of Example 4,
            e.g. protein_name = "Ryanodine Receptor").
        filters: further attribute filters (e.g. organism = "rat" — the
            Z of Example 4).

    Returns a :class:`Distribution` whose cumulative values combine each
    region's direct values with all its sub-regions' values; regions
    with no values anywhere below them report ``direct=None,
    cumulative=None`` rather than a fabricated zero.
    """
    if func not in AGG_FUNCS:
        raise MediatorError("unknown aggregate function %r" % func)
    tree = part_tree(dm, root, role)
    # breadth-first: a region's depth is its shortest distance from root
    depths = {root: 0}
    level = [root]
    while level:
        following = []
        for node in level:
            for child in tree[node]:
                if child not in depths:
                    depths[child] = depths[node] + 1
                    following.append(child)
        level = following

    combined_filters = dict(filters or {})
    if group_attr is not None:
        combined_filters[group_attr] = group_value
    direct: Dict[str, List] = {}
    for concept in tree:
        direct[concept] = direct_values_at(
            store, concept, value_attr, combined_filters
        )

    # Cumulative = direct values over the region itself plus all regions
    # below it.  Working with the *set* of contributing concepts (rather
    # than concatenating child lists) keeps diamonds in the part DAG
    # from double-counting shared sub-regions.
    rows = []
    bfs_nodes = sorted(tree, key=lambda n: (depths.get(n, 10**6), n))
    for concept in bfs_nodes:
        direct_vals = direct.get(concept, [])
        region = {concept} | reachable(tree, [concept])
        all_vals = [
            value for member in sorted(region) for value in direct.get(member, [])
        ]
        agg = AGG_FUNCS[func]
        rows.append(
            DistributionRow(
                concept,
                depths.get(concept, 0),
                direct_vals,
                agg(direct_vals) if direct_vals else None,
                agg(all_vals) if all_vals else None,
            )
        )
    return Distribution(root, role, func, rows)
