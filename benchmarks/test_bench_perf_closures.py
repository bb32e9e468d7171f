"""PERF-CLO — closure operations on growing domain maps.

Characterizes the Section 4 graph operations (isa closure, deductive
closure / has_a_star, lub) as the map grows, and compares the two
backends: in-memory graph algorithms vs. the paper's own Datalog rules.
Shape expectation: both backends compute identical relations; the graph
backend wins by a large factor (it exploits adjacency directly), which
is why the mediator uses it while keeping the Datalog program as the
executable specification.
"""

import time

import pytest

from conftest import report
from repro.datalog import evaluate
from repro.domainmap import (
    DomainMap,
    closure_program,
    deductive_closure,
    has_a_star,
    isa_closure,
    lub,
)


def synthetic_dm(levels, fanout=2):
    """A part/isa lattice: `levels` tiers of regions, each with parts
    one tier down and a specialization hierarchy per tier."""
    dm = DomainMap("synthetic_%d" % levels)
    previous = ["root"]
    for level in range(1, levels + 1):
        current = []
        for parent_index, parent in enumerate(previous):
            for child_index in range(fanout):
                node = "n_%d_%d_%d" % (level, parent_index, child_index)
                dm.ex(parent, "has", node)
                current.append(node)
            # one specialization per parent
            special = "s_%d_%d" % (level, parent_index)
            dm.isa(special, parent)
            current.append(special)
        previous = current
    return dm


def backend_equivalence(dm):
    graph_star = has_a_star(dm, "has")
    result = evaluate(closure_program(dm))
    datalog_star = {
        (a.args[0].value, a.args[1].value)
        for a in result.store.iter_atoms("has_a_star")
    }
    return graph_star, datalog_star


def test_backends_equivalent_and_scaling(benchmark):
    rows = []
    for levels in (3, 4, 5):
        dm = synthetic_dm(levels)

        start = time.perf_counter()
        graph_star = has_a_star(dm, "has")
        graph_seconds = time.perf_counter() - start

        start = time.perf_counter()
        result = evaluate(closure_program(dm))
        datalog_seconds = time.perf_counter() - start
        datalog_star = {
            (a.args[0].value, a.args[1].value)
            for a in result.store.iter_atoms("has_a_star")
        }

        assert graph_star == datalog_star
        rows.append(
            (
                levels,
                len(dm.concepts),
                len(graph_star),
                graph_seconds,
                datalog_seconds,
            )
        )

    # the graph backend must win, increasingly so on the largest map
    assert all(g < d for _l, _c, _e, g, d in rows)

    lines = [
        "levels  concepts  has_a_star  graph(s)   datalog(s)  speedup",
    ]
    for levels, concepts, edges, g, d in rows:
        lines.append(
            "%6d  %8d  %10d  %8.4f   %9.4f  %6.1fx"
            % (levels, concepts, edges, g, d, d / g)
        )
    report("PERF-CLO: closure backends on growing maps", lines)

    big = synthetic_dm(5)

    def kernel():
        # a copy starts with an empty revision memo, so the closures run
        fresh = big.copy()
        isa_closure(fresh)
        star = has_a_star(fresh, "has")
        deductive_closure(fresh, "has", mode="down")
        return star

    benchmark(kernel)


def test_lub_cost(benchmark):
    dm = synthetic_dm(5)
    leaves = sorted(c for c in dm.concepts if c.startswith("n_5_"))[:4]
    root = lub(dm, leaves, order="has")
    assert root in dm.concepts
    # the lub contains every leaf
    from repro.domainmap import downward_closure

    assert set(leaves) <= downward_closure(dm, root, "has")
    benchmark(lambda: lub(dm, leaves, order="has"))
