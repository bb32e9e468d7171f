"""ABLATIONS — design choices called out in DESIGN.md.

* **Magic sets vs. full evaluation** — the Datalog-tier analogue of the
  paper's "pushing down selections": a selective goal over a long chain
  should be answered orders of magnitude faster by the rewritten
  program (which derives only the relevant suffix) than by full
  materialization.
* **Semi-naive vs. naive fixpoint** — the evaluator's delta restriction
  must beat re-firing every rule on the full store each round.
* **Traversal precision** — redundant-edge elimination and source-down
  (vs. full) deductive closure keep sibling anatomical regions out of a
  distribution's region; switching them off (full dc as navigation)
  demonstrably leaks.
"""

import time

import pytest

from conftest import report
from repro.datalog import Const, Program, evaluate, fact, parse_atom, parse_program
from repro.datalog.magic import magic_query, magic_transform
from repro.datalog.engine import match_atom

TC_RULES = "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y)."


def chain(n):
    program = Program()
    for i in range(n):
        program.add(fact("edge", Const("a%d" % i), Const("a%d" % (i + 1))))
    program.extend(parse_program(TC_RULES))
    return program


def test_magic_sets_vs_full(benchmark):
    rows = []
    for n in (100, 200, 400):
        program = chain(n)
        goal = parse_atom("tc(a%d, X)" % (n - 10))

        start = time.perf_counter()
        result_full = evaluate(program)
        full_answers = match_atom(result_full.store, goal)
        full_seconds = time.perf_counter() - start

        start = time.perf_counter()
        magic_answers = magic_query(program, goal)
        magic_seconds = time.perf_counter() - start

        assert magic_answers == full_answers
        assert len(magic_answers) == 10
        rows.append((n, full_seconds, magic_seconds))

    # magic must win decisively on every size and increasingly so
    assert all(m < f for _n, f, m in rows)
    assert rows[-1][1] / rows[-1][2] > 10

    lines = ["chain n  full-eval(s)  magic(s)   speedup"]
    for n, full_seconds, magic_seconds in rows:
        lines.append(
            "%7d  %12.4f  %8.4f  %7.1fx"
            % (n, full_seconds, magic_seconds, full_seconds / magic_seconds)
        )
    report("ABLATION: magic sets vs. full evaluation (goal tc(a_{n-10}, X))", lines)

    program = chain(300)
    goal = parse_atom("tc(a290, X)")
    benchmark(lambda: magic_query(program, goal))


def test_seminaive_vs_naive(benchmark):
    rows = []
    for n in (30, 60, 120):
        program = chain(n)

        start = time.perf_counter()
        semi = evaluate(program)
        semi_seconds = time.perf_counter() - start

        start = time.perf_counter()
        naive = evaluate(program, strategy="naive")
        naive_seconds = time.perf_counter() - start

        assert semi.store.same_facts(naive.store)
        rows.append((n, semi_seconds, naive_seconds))

    assert all(s < nv for _n, s, nv in rows)

    lines = ["chain n  seminaive(s)  naive(s)   speedup"]
    for n, semi_seconds, naive_seconds in rows:
        lines.append(
            "%7d  %12.4f  %8.4f  %7.1fx"
            % (n, semi_seconds, naive_seconds, naive_seconds / semi_seconds)
        )
    report("ABLATION: semi-naive vs. naive fixpoint (transitive closure)", lines)

    program = chain(60)
    benchmark(lambda: evaluate(program))


def test_traversal_precision(benchmark):
    """Full-dc navigation would leak sibling regions; the shipped
    traversal (source-down dc + redundant-edge elimination) does not."""
    import networkx as nx

    from repro.domainmap import deductive_closure, part_tree
    from repro.neuro import build_anatom

    dm = build_anatom()

    precise = set(part_tree(dm, "Cerebellum", "has"))
    assert "Pyramidal_Cell" not in precise
    assert "Hippocampus" not in precise

    # the leaky variant: navigate the full dc plus isa-down directly
    leaky_graph = nx.DiGraph()
    leaky_graph.add_edges_from(deductive_closure(dm, "has", mode="full"))
    for sub, sup in dm.isa_pairs():
        leaky_graph.add_edge(sup, sub)
    leaky = {"Cerebellum"} | nx.descendants(leaky_graph, "Cerebellum")
    assert "Pyramidal_Cell" in leaky  # the leak the design avoids

    report(
        "ABLATION: traversal precision below Cerebellum",
        [
            "precise region size: %d (no hippocampal concepts)" % len(precise),
            "leaky   region size: %d (contains Pyramidal_Cell: %s)"
            % (len(leaky), "Pyramidal_Cell" in leaky),
        ],
    )

    # a copy starts with an empty revision memo, so the traversal runs
    benchmark(lambda: part_tree(dm.copy(), "Cerebellum", "has"))
