"""Concurrent readers of one domain map share its revision memo.

The graph operations (closures, navigation graphs, part trees) are
derived once per ``DomainMap.revision`` and shared by every caller.
These tests run ``correlate()`` from several threads over a cold memo,
and mutate a map while threads read it: every answer must equal the
sequential one, and no read may return a derivation of a revision older
than the last finished mutation.
"""

import itertools
import sys
import threading

from repro.domainmap import (
    DomainMap,
    isa_closure,
    navigation_graph,
    part_tree,
    register_concepts,
)
from repro.neuro import build_scenario, ncmir, section5_query, senselab

#: a Figure 3 style refinement: it bumps the revision, so the memo of
#: the map's navigation graphs and part trees starts cold
REFINEMENT = "Memo_Probe_Dendrite < Purkinje_Dendrite"


def section5_variants():
    """The Section 5 query over every organism, transmitting compartment
    and bound ion of the scenario."""
    compartments = sorted({pathway[1] for pathway in senselab.PATHWAYS})
    ions = sorted({ion for ion, _profile in ncmir.PROTEIN_PROFILES.values()})
    queries = []
    for organism, compartment, ion in itertools.product(
        senselab.ORGANISMS, compartments, ions
    ):
        query = section5_query()
        query.seed_selections = {
            "organism": organism,
            "transmitting_compartment": compartment,
        }
        query.target_filters = {"ion_bound": ion, "organism": organism}
        queries.append(query)
    return queries


def answer(mediator, query):
    result = mediator.correlate(query)
    return [
        (group, distribution.root, distribution.as_table())
        for group, distribution in result.answers
    ]


def refined_mediator():
    mediator = build_scenario(eager=False).mediator
    register_concepts(mediator.dm, REFINEMENT)
    return mediator


def run_threads(target, count):
    workers = [
        threading.Thread(target=target, args=(index,)) for index in range(count)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)


class TestConcurrentCorrelate:
    def test_threads_over_a_cold_memo_answer_as_one_thread(self):
        queries = section5_variants()
        sequential = refined_mediator()
        expected = [answer(sequential, query) for query in queries]
        assert any(expected)  # some variants have an answer

        mediator = refined_mediator()
        threads = 4
        barrier = threading.Barrier(threads)
        answers = [None] * threads
        errors = []

        def run(index):
            # each thread walks the variants from its own offset
            order = list(range(len(queries)))
            order = order[index * 5:] + order[:index * 5]
            barrier.wait()
            try:
                got = {i: answer(mediator, queries[i]) for i in order}
                answers[index] = [got[i] for i in range(len(queries))]
            except Exception as error:  # reported below
                errors.append(error)

        run_threads(run, threads)
        assert errors == []
        assert answers == [expected] * threads


class TestReadsDuringMutation:
    ROOT = "Root"
    MUTATIONS = 150

    def test_no_read_returns_an_older_revision(self):
        dm = DomainMap("mutated")
        dm.add_concept(self.ROOT)
        dm.add_role("has")
        finished = []  # concepts whose mutation has returned, in order
        stop = threading.Event()
        failures = []
        errors = []
        reads = []

        def mutate():
            for index in range(self.MUTATIONS):
                part = "Part_%d" % index
                if index % 2:
                    dm.ex(self.ROOT, "has", part)
                else:
                    dm.isa(part, self.ROOT)
                finished.append(part)
            stop.set()

        def read(_index):
            try:
                while not stop.is_set():
                    done = list(finished)
                    below = set(part_tree(dm, self.ROOT, "has"))
                    closure = isa_closure(dm)
                    nav = navigation_graph(dm, "has")
                    reads.append(len(done))
                    for position, part in enumerate(done):
                        missing = (
                            part not in below
                            or part not in nav
                            or (position % 2 == 0 and (part, self.ROOT) not in closure)
                        )
                        if missing:
                            failures.append((part, len(done)))
                            return
            except Exception as error:  # reported below
                errors.append(error)

        readers = 3

        def run(index):
            if index == readers:
                mutate()
            else:
                read(index)

        run_threads(run, readers + 1)
        assert errors == []
        assert failures == []
        assert reads  # the readers ran while the map changed
        assert set(part_tree(dm, self.ROOT, "has")) == {self.ROOT} | set(finished)
