"""Graph operations on domain maps (Section 4 / Section 5).

The operations the paper "executes" during view definition and query
processing:

* :func:`isa_closure` — (reflexive-)transitive closure of isa,
* :func:`deductive_closure` — the paper's ``dc(R)``: role links
  propagated along the isa chains (down from the source, up to the
  target),
* :func:`has_a_star` — all inferable *direct* role links (``dc`` of a
  whole/part role w.r.t. isa),
* :func:`lub` / :func:`least_upper_bounds` — the least upper bound used
  in step 4 of the Section 5 query plan to pick a distribution root,
* :func:`downward_closure` / :func:`part_tree` — recursive traversal of
  the direct links below a root (what the mediator's `aggregate`
  function walks),
* :func:`region_of_correspondence` — the DM segment between the lub and
  a set of anchor concepts (the "region of correspondence" between
  sources).

Every derivation that depends on the map alone is memoized on
:attr:`DomainMap.revision <repro.domainmap.model.DomainMap.revision>`
(see :meth:`DomainMap.derived
<repro.domainmap.model.DomainMap.derived>`): :func:`isa_closure`,
:func:`deductive_closure`, :func:`navigation_graph` and its reverse, and
:func:`part_tree` run once per revision and return read-only values
(frozensets and ``MappingProxyType`` adjacency), so a correlate over an
unchanged map re-derives nothing.  A memo hit opens no ``dm.*`` span,
so a trace shows the derivations actually run.  :func:`lub` stays per
call, because its concepts vary.

Two backends are provided: the default in-memory graph algorithms, and
:func:`closure_rules`, the paper's own Datalog program for ``tc``/``dc``
— the test-suite proves them equivalent.

Fidelity notes: the paper's ``dc`` rules are written with ``tc(isa)``;
read literally (irreflexive tc) they would exclude every base ``R``
link from ``has_a_star``, contradicting the intended use ("derives all
inferable direct has_a links").  We therefore use the reflexive closure
``rtc`` and additionally allow propagation at both ends simultaneously
(``rtc . R . rtc``), a superset of the literal two-rule version that
contains exactly the links justified by the DL semantics.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from .. import obs
from ..errors import NoUpperBoundError
from ..datalog.ast import Program, Rule
from ..datalog.parser import parse_program
from ..graph import add_edge, reachable, read_only, reverse, subgraph


def transitive_closure(pairs):
    """Transitive (not reflexive) closure of a set of pairs.

    A node on a cycle reaches itself, so (n, n) pairs appear for cyclic
    inputs even though the closure is not reflexive in general.
    """
    graph = {}
    for a, b in pairs:
        add_edge(graph, a, b)
    return {(node, other) for node in graph for other in reachable(graph, [node])}


def _concept_graph(dm):
    """An adjacency dict with no edges yet, one node per concept."""
    # tuple() copies the set in one step: a concurrent add_concept
    # cannot change it while the comprehension iterates
    graph: Dict[str, Dict[str, str]] = {
        concept: {} for concept in tuple(dm.concepts)
    }
    return graph


def isa_graph(dm):
    """The direct isa digraph over concepts (eqv as mutual isa), as an
    adjacency dict ``{sub: {sup: "isa"}}``."""
    graph = _concept_graph(dm)
    for sub, sup in dm.isa_pairs():
        add_edge(graph, sub, sup, "isa")
    for a, b in dm.eqv_pairs():
        add_edge(graph, a, b, "isa")
        add_edge(graph, b, a, "isa")
    return graph


def isa_closure(dm, reflexive=True):
    """(Reflexive-)transitive closure of isa over the concepts, as a
    frozenset derived once per revision of `dm`."""
    return dm.derived(("tc", reflexive), lambda: _isa_closure(dm, reflexive))


def _isa_closure(dm, reflexive):
    with obs.span(
        "dm.tc", concepts=len(dm.concepts), reflexive=reflexive
    ) as span:
        graph = isa_graph(dm)
        closure = transitive_closure(
            (sub, sup) for sub, sups in graph.items() for sup in sups
        )
        if reflexive:
            closure |= {(c, c) for c in tuple(dm.concepts)}
        if span.enabled:
            span.set(pairs=len(closure))
            obs.count("dm.graphops", op="tc")
        return frozenset(closure)


def role_graph(dm, role):
    """Direct (ex) edges of one role as an adjacency dict over concepts
    (edges labelled with the role)."""
    graph = _concept_graph(dm)
    for src, edge_role, dst in dm.role_triples():
        if edge_role == role:
            add_edge(graph, src, dst, role)
    return graph


def deductive_closure(dm, role, mode="full"):
    """The paper's ``dc(R)``: R links propagated along isa chains.

    Modes:

    * ``"full"`` (default) — ``rtc(isa) . R . rtc(isa)``: every link
      justified by combining downward source specialization and upward
      target generalization (what `has_a_star` queries should see).
    * ``"paper"`` — the literal two-rule reading over rtc: only one end
      moves per link.
    * ``"down"`` — source specialization only: subconcepts inherit
      their superconcept's links, targets stay put.  This is the right
      relation for *traversal*: generalizing targets upward (to, say,
      `Neuron`) and then descending isa again would leak into sibling
      regions of the map.

    The links are a frozenset derived once per revision of `dm`.
    """
    return dm.derived(
        ("dc", role, mode), lambda: _deductive_closure(dm, role, mode)
    )


def _deductive_closure(dm, role, mode):
    with obs.span("dm.dc", role=role, mode=mode) as span:
        links = frozenset(_role_links(dm, role, mode))
        if span.enabled:
            span.set(links=len(links))
            obs.count("dm.graphops", op="dc")
        return links


def _role_links(dm, role, mode):
    rtc = isa_closure(dm, reflexive=True)
    below: Dict[str, Set[str]] = {}
    above: Dict[str, Set[str]] = {}
    for sub, sup in rtc:
        below.setdefault(sup, set()).add(sub)
        above.setdefault(sub, set()).add(sup)
    links: Set[Tuple[str, str]] = set()
    for src, edge_role, dst in dm.role_triples():
        if edge_role != role:
            continue
        if mode == "full":
            for x in below.get(src, {src}):
                for y in above.get(dst, {dst}):
                    links.add((x, y))
        elif mode == "paper":
            for x in below.get(src, {src}):
                links.add((x, dst))
            for y in above.get(dst, {dst}):
                links.add((src, y))
        elif mode == "down":
            for x in below.get(src, {src}):
                links.add((x, dst))
        else:
            raise ValueError("unknown dc mode %r" % mode)
    return links


def has_a_star(dm, role="has"):
    """All inferable direct `role` links (``has_a_star`` of Section 4).

    Like the paper's relation, the result is *not* transitively closed:
    "it would be wasteful to compute the much larger tc(has_a_star) ...
    a recursive traversal of the direct links is sufficient".
    """
    return deductive_closure(dm, role)


def navigation_graph(dm, order="isa"):
    """The downward-navigation digraph for an ordering of the DM, as an
    adjacency dict whose edges are labelled ``"isa"`` or ``"role"``.

    With ``order="isa"`` the edges run general -> specific (``sup ->
    sub``).  With a role name (e.g. ``"has"``) the edges are the
    source-down deductive closure of the role (subconcepts inherit
    their superconcept's parts) plus the isa specializations, because
    containment knowledge attaches at different granularities
    ("dendrites have branches; *shafts* (a kind of branch) have
    spines": reaching Spine from Dendrite navigates has, isa-down,
    has).  Target-up generalization is deliberately excluded from
    navigation: it would climb to generic concepts (`Neuron`) and
    descend into sibling regions.

    The graph is read-only and derived once per revision of `dm`.
    """
    return dm.derived(
        ("nav", order), lambda: read_only(_navigation_graph(dm, order))
    )


def _navigation_graph(dm, order):
    graph = _concept_graph(dm)
    if order != "isa":
        _add_role_links(graph, dm, order)
    for sub, sup in dm.isa_pairs():
        add_edge(graph, sup, sub, "isa")
    for a, b in dm.eqv_pairs():
        add_edge(graph, a, b, "isa")
        add_edge(graph, b, a, "isa")
    return graph


def _navigation_up(dm, order):
    """The reverse of :func:`navigation_graph` (specific -> general),
    read-only and derived once per revision of `dm`."""
    return dm.derived(
        ("nav_up", order), lambda: read_only(reverse(navigation_graph(dm, order)))
    )


def _add_role_links(graph, dm, role):
    # Redundant-edge elimination: an inherited generic link (X has
    # Compartment) is dropped when a strictly more specific link (X has
    # Parallel_Fiber, Parallel_Fiber v Compartment) exists — the
    # generic one is implied and descending isa from it would wander
    # into sibling regions.
    links = deductive_closure(dm, role, mode="down")
    strict_isa = isa_closure(dm, reflexive=False)
    by_source: Dict[str, Set[str]] = {}
    for x, d in links:
        by_source.setdefault(x, set()).add(d)
    for x, targets in by_source.items():
        for d in targets:
            if any(
                other != d and (other, d) in strict_isa for other in targets
            ):
                continue
            add_edge(graph, x, d, "role")


def role_containers(dm, concept, role):
    """Concepts that *contain* `concept` under a role order.

    W contains X when some navigation path W -> ... -> X crosses at
    least one role edge — pure isa-generalization chains (Compartment
    "reaching" Purkinje_Dendrite) do not make a container.  Reflexive:
    every concept contains itself.
    """
    nav = navigation_graph(dm, role)
    if concept not in nav:
        return {concept}
    up = _navigation_up(dm, role)
    reach = reachable(up, [concept]) | {concept}
    holders = {
        u
        for u, succs in nav.items()
        for v, kind in succs.items()
        if kind == "role" and v in reach
    }
    return {concept} | holders | reachable(up, holders)


def ancestors(dm, concept, order="isa"):
    """All strict ancestors of a concept in the given order
    (isa-ancestors by default; containers for a role order)."""
    return reachable(_navigation_up(dm, order), [concept]) - {concept}


def descendants(dm, concept, order="isa"):
    """All strict descendants of a concept in the given order."""
    graph = navigation_graph(dm, order)
    return reachable(graph, [concept]) - {concept}


def upper_bounds(dm, concepts, order="isa"):
    """Common ancestors (reflexive) of all the given concepts.

    For a role order, "ancestor" means *container*: the path must use
    at least one role edge (see :func:`role_containers`).
    """
    concepts = list(concepts)
    if not concepts:
        raise NoUpperBoundError("lub of an empty concept set is undefined")
    for concept in concepts:
        dm.require_concept(concept)
    up = _navigation_up(dm, order)
    common: Optional[Set[str]] = None
    for concept in concepts:
        if order == "isa":
            ups = reachable(up, [concept]) | {concept}
        else:
            ups = role_containers(dm, concept, order)
        common = ups if common is None else (common & ups)
    return common or set()


def least_upper_bounds(dm, concepts, order="isa"):
    """The minimal elements of the common upper bounds (sorted).

    In a DAG the lub need not be unique; all minimal common ancestors
    are returned, ordered by name for determinism.
    """
    concepts = list(concepts)
    with obs.span("dm.lub", concepts=len(concepts), order=order) as span:
        bounds = upper_bounds(dm, concepts, order)
        if not bounds:
            raise NoUpperBoundError(
                "concepts %s have no common %s-ancestor"
                % (sorted(concepts), order)
            )
        up = _navigation_up(dm, order)
        above = {o: reachable(up, [o]) for o in bounds}
        minimal = {
            b for b in bounds if not any(o != b and b in above[o] for o in bounds)
        }
        result = sorted(minimal)
        if span.enabled:
            span.set(bounds=len(result))
            obs.count("dm.graphops", op="lub")
        return result


def lub(dm, concepts, order="isa"):
    """The least upper bound; ties are broken by name (documented and
    deterministic) so the Section 5 query plan always has one root.
    Step 4 of the Section 5 plan uses the containment order:
    ``lub(dm, locations, order="has")``."""
    return least_upper_bounds(dm, concepts, order)[0]


def part_graph(dm, role="has"):
    """Adjacency dict of the direct inferable `role` links (has_a_star),
    plus isa specializations for navigation (see
    :func:`navigation_graph`)."""
    return navigation_graph(dm, role)


def part_tree(dm, root, role="has"):
    """The subgraph (an adjacency mapping) of direct `role` links
    reachable from `root` — what the mediator's recursive `aggregate`
    traverses (Example 4).  The tree is read-only and derived once per
    revision of `dm`."""
    dm.require_concept(root)
    return dm.derived(
        ("part_tree", root, role), lambda: _part_tree(dm, root, role)
    )


def _part_tree(dm, root, role):
    with obs.span("dm.part_tree", root=root, role=role) as span:
        graph = part_graph(dm, role)
        tree = read_only(subgraph(graph, {root} | reachable(graph, [root])))
        if span.enabled:
            span.set(nodes=len(tree))
            obs.count("dm.graphops", op="part_tree")
        return tree


def downward_closure(dm, root, role="has"):
    """All concepts reachable from `root` along direct `role` links."""
    return set(part_tree(dm, root, role))


def region_of_correspondence(dm, anchors, role="has"):
    """The DM segment relating a set of anchor concepts (Section 5).

    Computes the lub of the anchors and returns the sub-DAG of direct
    `role`/isa links lying on paths from the lub down to each anchor —
    "a segment in the domain map as the region of correspondence
    between the two information sources" — as an adjacency dict.
    """
    anchors = list(anchors)
    root = lub(dm, anchors, order=role)
    nav = navigation_graph(dm, role)
    up = _navigation_up(dm, role)
    region: Set[str] = {root}
    below_root = {root} | reachable(nav, [root])
    for anchor in anchors:
        if anchor in nav:
            region |= below_root & ({anchor} | reachable(up, [anchor]))
    return subgraph(nav, region)


# ---------------------------------------------------------------------------
# Datalog backend (the paper's own rules)
# ---------------------------------------------------------------------------

CLOSURE_RULES = """
% Section 4, verbatim modulo naming: tc_/dc_/star_ prefixes replace the
% higher-order tc(R)/dc(R) notation.
tc_isa(X, Y) :- isa(X, Y).
tc_isa(X, Y) :- tc_isa(X, Z), tc_isa(Z, Y).
rtc_isa(X, X) :- concept(X).
rtc_isa(X, Y) :- tc_isa(X, Y).

dc_role(R, X, Y) :- rtc_isa(X, Z), role_edge(R, Z, Y).
dc_role(R, X, Y) :- role_edge(R, X, Z), rtc_isa(Z, Y).
dc_role(R, X, Y) :- rtc_isa(X, Z), role_edge(R, Z, W), rtc_isa(W, Y).

has_a_star(X, Y) :- dc_role(has, X, Y).
"""


def closure_program(dm):
    """Facts + the paper's closure rules as a Datalog program.

    Relations: ``concept/1``, ``isa/2``, ``role_edge/3`` (role, src,
    dst); derived: ``tc_isa/2``, ``rtc_isa/2``, ``dc_role/3``,
    ``has_a_star/2``.
    """
    program = Program()
    for concept in sorted(dm.concepts):
        program.add_fact("concept", concept)
    for sub, sup in sorted(dm.isa_pairs()):
        program.add_fact("isa", sub, sup)
    for a, b in sorted(dm.eqv_pairs()):
        program.add_fact("isa", a, b)
        program.add_fact("isa", b, a)
    for src, role, dst in sorted(dm.role_triples()):
        program.add_fact("role_edge", role, src, dst)
    program.extend(parse_program(CLOSURE_RULES))
    return program


def closure_rules():
    """Just the rule part (for embedding into mediator programs)."""
    return list(parse_program(CLOSURE_RULES))
