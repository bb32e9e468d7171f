"""The benchmark's workloads: deployments, seeded inputs and oracles.

Each workload class does four things:

* ``build()`` sets a deployment up and ``warm_up(deployment)`` runs one
  fixed operation on it (both are part of the timed set-up);
* ``prepare(seed)`` turns the seed into the operation stream and the
  oracle data, outside the timed set-up; the stream is made of rounds
  of ``round_ops`` operations that hold the same mix.  What it sets on
  the workload must pickle: the worker prepares in a forked child;
* ``run(deployment, op)`` performs one operation (the timed part);
* ``check(deployment, op, result)`` compares the result with an oracle
  that shares no state with the measured deployment.

An operation is a ``(kind, index)`` pair: `kind` names the per-kind
latency it feeds (``correlate``, ``ask``, ``explain``, ``write``,
``source_call``) and `index` points into the workload's prepared
inputs.  The deployment code only ever sees the generated inputs, never
the seed.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from types import SimpleNamespace

from repro.cache import AnswerCache, LRUStore
from repro.core.mediator import Mediator
from repro.datalog.ast import Atom
from repro.datalog.terms import Const
from repro.errors import ReproError
from repro.flogic.engine import FLogicEngine
from repro.neuro import analysis, ncmir, senselab
from repro.neuro.anatom import build_anatom
from repro.neuro.ncmir import build_ncmir
from repro.neuro.scenario import build_scenario, section5_query
from repro.neuro.senselab import build_senselab
from repro.neuro.synapse import build_synapse
from repro.resilience import FaultInjectingWrapper, FaultSchedule, ResiliencePolicy
from repro.resilience.faults import KIND_ERROR, KIND_MALFORMED, KIND_TRANSPORT
from repro.sources import AnchorSpec, Column, RelStore, SourceQuery, Wrapper


def same(expected, actual):
    """Structural equality that tolerates last-digit float differences
    (an engine may sum the same values in another order)."""
    if isinstance(expected, float) or isinstance(actual, float):
        return (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12)
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(same(expected[k], actual[k]) for k in expected)
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(actual, (list, tuple))
            and len(expected) == len(actual)
            and all(same(e, a) for e, a in zip(expected, actual))
        )
    return expected == actual


# ---------------------------------------------------------------------------
# section5: repeated correlate over the Section 5 query and its variants
# ---------------------------------------------------------------------------


def section5_variants():
    """The Section 5 query first, then every organism x transmitting
    compartment x bound ion variant drawn from the scenario's own
    vocabularies (SENSELAB organisms and pathways, NCMIR ions)."""
    canonical = section5_query()
    queries = [canonical]
    compartments = sorted({pathway[1] for pathway in senselab.PATHWAYS})
    ions = sorted({ion for ion, _profile in ncmir.PROTEIN_PROFILES.values()})
    for organism, compartment, ion in itertools.product(
        senselab.ORGANISMS, compartments, ions
    ):
        selections = {"organism": organism, "transmitting_compartment": compartment}
        filters = {"ion_bound": ion, "organism": organism}
        if (
            selections == canonical.seed_selections
            and filters == canonical.target_filters
        ):
            continue
        query = section5_query()
        query.seed_selections = selections
        query.target_filters = filters
        queries.append(query)
    return queries


def correlation_answer(result):
    """A comparable form of a correlate() answer: per group, the
    distribution's root and its (concept, depth, direct, cumulative)
    table."""
    return [
        (group, distribution.root, distribution.as_table())
        for group, distribution in result.answers
    ]


class Section5:
    """Warm ``Mediator.correlate`` at scale 4 over the XML dialogue,
    with no cache, guard or medpar."""

    name = "section5"
    kinds = ("correlate",)
    #: operations of the fixed traced pass
    trace_ops = 24
    #: length of the generated stream (a run cycles through it)
    stream_ops = 4000

    @staticmethod
    def deploy(dialogue_via_xml=True):
        return build_scenario(
            scale=4, eager=False, dialogue_via_xml=dialogue_via_xml
        ).mediator

    def build(self):
        return SimpleNamespace(mediator=self.deploy())

    def warm_up(self, deployment):
        deployment.mediator.correlate(section5_query())

    def prepare(self, seed):
        """Every variant is answered once, from scratch, by a fresh
        deployment using the direct (non-XML) dialogue; a variant that
        fails there is dropped now, never during the run."""
        self.queries = []
        self.expected = []
        for query in section5_variants():
            try:
                result = self.deploy(dialogue_via_xml=False).correlate(query)
            except ReproError:
                continue
            self.queries.append(query)
            self.expected.append(correlation_answer(result))
        # whole rounds over every variant, each round in seeded order:
        # the mix of cheap and costly variants is the same for any seed
        self.round_ops = len(self.queries)
        rng = random.Random(seed)
        ops = []
        while len(ops) < self.stream_ops:
            round_ = list(range(len(self.queries)))
            rng.shuffle(round_)
            ops.extend(("correlate", index) for index in round_)
        return ops

    def install(self, deployment):
        pass

    def run(self, deployment, op):
        return deployment.mediator.correlate(self.queries[op[1]])

    def check(self, deployment, op, result):
        return same(self.expected[op[1]], correlation_answer(result))


# ---------------------------------------------------------------------------
# kb_mixed: ask / explain over an eager KB beside register/deregister writes
# ---------------------------------------------------------------------------


class FreshKB:
    """The ask oracle: a fresh FLogicEngine over a rule list, quacking
    like a mediator for the ``neuro.analysis`` helpers."""

    def __init__(self, rules):
        self.engine = FLogicEngine()
        self.engine.tell_rules(rules)

    def ask(self, fl_query):
        return self.engine.ask(fl_query)


def membership(kb, class_name):
    return kb.ask("X : '%s'" % class_name)


#: the neuro/analysis.py aggregates, one ask operation each
ANALYSES = [
    ("spine_length_by_condition", analysis.spine_length_by_condition),
    ("spine_length_by_species_age", analysis.spine_length_by_species_age),
    ("correlate_worlds", analysis.correlate_worlds),
] + [
    (
        "protein_amount_by_compartment(%s)" % ion,
        functools.partial(analysis.protein_amount_by_compartment, ion=ion),
    )
    for ion in ("calcium", "chloride", "potassium")
]

#: objects of these sources are explained (decoys come and go)
BASE_SOURCES = ("ANATOM", "NCMIR", "SENSELAB", "SYNAPSE")


def decoy_source(name, seed):
    """A small NCMIR-shaped source of seeded protein measurements."""
    rng = random.Random("%s/%s" % (seed, name))
    rows = rng.sample(ncmir.generate_rows(seed=rng.randrange(1 << 30)), 6)
    store = RelStore(name)
    table = store.create_table(
        "protein_amount",
        [
            Column("id", "int"),
            Column("protein", "str"),
            Column("ion", "str"),
            Column("location", "str"),
            Column("amount", "float"),
            Column("organism", "str"),
        ],
        key="id",
    )
    for row_id, row in enumerate(rows, start=1):
        table.insert(dict(row, id=row_id))
    wrapper = Wrapper(name, store)
    wrapper.export_class(
        "protein_amount",
        "protein_amount",
        "id",
        methods={
            "protein_name": "protein",
            "ion_bound": "ion",
            "location": "location",
            "amount": "amount",
            "organism": "organism",
        },
        anchor=AnchorSpec(column="location", mapping=ncmir.LOCATION_CONCEPTS),
        selectable={"location", "protein_name", "organism"},
    )
    return wrapper


class KBMixed:
    """An eager KB at scale 1 with ANATOM registered: about 80% ask,
    10% explain and 10% writes (a decoy's register, later its
    deregister)."""

    name = "kb_mixed"
    kinds = ("ask", "explain", "write")
    #: one block: 16 asks, 2 explains, one register and its deregister
    block = 20
    #: a measured run ends on a block boundary
    round_ops = block
    trace_ops = 20
    stream_blocks = 200
    decoy_name = "DECOY"
    membership_classes = block - len(ANALYSES) - 4
    explained_facts = 8

    @staticmethod
    def deploy():
        return build_scenario(scale=1, include_anatom_source=True).mediator

    def build(self):
        return SimpleNamespace(mediator=self.deploy(), decoy=None)

    def warm_up(self, deployment):
        analysis.spine_length_by_condition(deployment.mediator)

    def prepare(self, seed):
        rng = random.Random(seed)
        kb = self.deploy()
        store = kb.evaluate().store
        members = {}
        for obj, class_const in store.rows(("instance", 2)):
            if not (
                isinstance(obj, Const)
                and isinstance(obj.value, str)
                and obj.value.split(".", 1)[0] in BASE_SOURCES
                and isinstance(class_const, Const)
            ):
                continue
            members.setdefault(class_const.value, []).append(obj.value)
        classes = sorted(members)
        chosen = rng.sample(classes, self.membership_classes)
        self.asks = list(ANALYSES) + [
            (
                "X : '%s'" % class_name,
                functools.partial(membership, class_name=class_name),
            )
            for class_name in chosen
        ]
        self.facts = []
        for _ in range(self.explained_facts):
            class_name = rng.choice(classes)
            obj = rng.choice(sorted(members[class_name]))
            self.facts.append((obj, class_name))
        self.decoy_seed = seed
        #: (registered sources, ask index) -> oracle answer, for the KB
        #: without and with the decoy
        self.oracle = {}
        for with_decoy in (False, True):
            if with_decoy:
                kb.register(
                    decoy_source(self.decoy_name, seed), eager=True, via_xml=True
                )
            fresh = FreshKB(kb.assembled_rules())
            names = tuple(kb.source_names())
            for index, (_label, ask) in enumerate(self.asks):
                self.oracle[(names, index)] = ask(fresh)

        # Every block holds the same mix: each analysis and each chosen
        # membership ask once, two explains, and the decoy's register
        # and later deregister at seeded slots.  A fixed mix keeps the
        # latency percentiles of different seeds comparable; ending
        # each block deregistered lets a run cycle the stream from the
        # start state.
        ops = []
        for _ in range(self.stream_blocks):
            reads = [("ask", index) for index in range(len(self.asks))]
            reads += [("explain", rng.randrange(len(self.facts))) for _ in range(2)]
            rng.shuffle(reads)
            first, second = sorted(rng.sample(range(self.block), 2))
            for slot in range(self.block):
                if slot == first:
                    ops.append(("write", 0))  # register
                elif slot == second:
                    ops.append(("write", 1))  # deregister
                else:
                    ops.append(reads.pop())
        return ops

    def install(self, deployment):
        deployment.decoy = decoy_source(self.decoy_name, self.decoy_seed)

    def run(self, deployment, op):
        kind, index = op
        mediator = deployment.mediator
        if kind == "ask":
            return self.asks[index][1](mediator)
        if kind == "explain":
            return mediator.explain("'%s' : '%s'" % self.facts[index])
        if index == 0:
            return mediator.register(deployment.decoy, eager=True, via_xml=True)
        return mediator.deregister(self.decoy_name)

    def check(self, deployment, op, result):
        kind, index = op
        mediator = deployment.mediator
        if kind == "ask":
            key = (tuple(mediator.source_names()), index)
            return key in self.oracle and same(self.oracle[key], result)
        if kind == "explain":
            # only the root is compared: which proof is picked depends
            # on PYTHONHASHSEED
            obj, class_name = self.facts[index]
            return getattr(result, "atom", None) == Atom(
                "instance", (Const(obj), Const(class_name))
            )
        registered = self.decoy_name in mediator.source_names()
        if index == 0:
            return registered and getattr(result, "source", None) == self.decoy_name
        return not registered


# ---------------------------------------------------------------------------
# source_calls: a Zipf stream of source_query calls through cache and guard
# ---------------------------------------------------------------------------


class SourceCalls:
    """``Mediator.source_query`` at scale 16 over the XML dialogue, with
    an LRU answer cache smaller than the key space and a guard that
    retries seeded transient faults without sleeping."""

    name = "source_calls"
    kinds = ("source_call",)
    #: calls per round: enough for every round to hold many misses
    round_ops = 1000
    scale = 16
    cache_entries = 48
    zipf_exponent = 1.0
    stratum_size = 4
    max_answer_rows = 100
    fault_rate = 0.05
    fault_calls = 50_000
    trace_ops = 3000
    stream_ops = 400_000

    def sources(self):
        """The three KIND sources, seeded as ``build_scenario`` does."""
        return (
            build_synapse(2001, self.scale),
            build_ncmir(2002, self.scale),
            build_senselab(2003, self.scale),
        )

    def build(self):
        mediator = Mediator(
            build_anatom(),
            name="KIND",
            dialogue_via_xml=True,
            cache=AnswerCache(LRUStore(max_entries=self.cache_entries, max_rows=None)),
            resilience=ResiliencePolicy(max_retries=2, backoff_base=0.0),
        )
        faulty = [
            FaultInjectingWrapper(wrapper, FaultSchedule(), mode="xml")
            for wrapper in self.sources()
        ]
        for wrapper in faulty:
            mediator.register(wrapper, eager=False)
        return SimpleNamespace(mediator=mediator, faulty=faulty)

    def warm_up(self, deployment):
        deployment.mediator.source_query(
            "NCMIR", SourceQuery("protein_amount", {"organism": "rat"})
        )

    @staticmethod
    def key_space(wrappers):
        """Every answerable selection on one or two attributes, over
        the values the sources hold: (source, class, selections)."""
        keys = []
        for wrapper in sorted(wrappers, key=lambda w: w.name):
            for class_name, export in sorted(wrapper.exports.items()):
                capability = wrapper.capabilities()[class_name]
                table = wrapper.store.table(export.table_name)
                values = {
                    attribute: sorted(
                        value
                        for value in table.distinct(column)
                        if value is not None
                    )
                    for attribute, column in export.methods.items()
                }
                for size in (1, 2):
                    for combo in itertools.combinations(sorted(values), size):
                        if not capability.answerable(dict.fromkeys(combo)):
                            continue
                        for picked in itertools.product(
                            *(values[attribute] for attribute in combo)
                        ):
                            keys.append(
                                (wrapper.name, class_name, dict(zip(combo, picked)))
                            )
        return keys

    def prepare(self, seed):
        rng = random.Random(seed)
        wrappers = {wrapper.name: wrapper for wrapper in self.sources()}
        # Selective keys only: a few large answers would otherwise
        # dominate the miss time, and how often they happen to miss in
        # a run would set ops_per_s more than the pipeline does.
        sized = []
        for source, class_name, selections in self.key_space(wrappers.values()):
            rows = wrappers[source].query(SourceQuery(class_name, selections))
            if len(rows) <= self.max_answer_rows:
                sized.append((len(rows), (source, class_name, selections), rows))
        sized.sort(key=lambda entry: entry[0])
        self.keys = [key for _size, key, _rows in sized]
        #: key index -> the wrapper's direct rows
        self.direct = [rows for _size, _key, rows in sized]
        # Popularity ranks are dealt from strata of keys with similar
        # answer sizes, in a fixed snake order over the strata; the seed
        # only picks which key of a stratum takes each rank.  Every
        # seed thus gets its own hot keys but the same cost profile
        # over the ranks, so runs with different seeds stay comparable.
        strata = [
            list(range(start, min(start + self.stratum_size, len(self.keys))))
            for start in range(0, len(self.keys), self.stratum_size)
        ]
        for stratum in strata:
            rng.shuffle(stratum)
        ranked = []
        for position in range(self.stratum_size):
            order = strata if position % 2 == 0 else reversed(strata)
            ranked.extend(s[position] for s in order if position < len(s))
        weight = [0.0] * len(self.keys)
        for rank, index in enumerate(ranked):
            weight[index] = 1.0 / (rank + 1) ** self.zipf_exponent
        cumulative = list(itertools.accumulate(weight))
        stream = rng.choices(
            range(len(self.keys)), cum_weights=cumulative, k=self.stream_ops
        )
        self.schedule = FaultSchedule.from_seed(
            seed,
            sorted({source for source, _class, _sel in self.keys}),
            calls=self.fault_calls,
            rate=self.fault_rate,
            kinds=(KIND_ERROR, KIND_TRANSPORT, KIND_MALFORMED),
            max_consecutive=2,
        )
        # one tuple per key, shared by the stream (pickling keeps the
        # sharing), so the stream adds little to peak_rss_mb
        calls = [("source_call", index) for index in range(len(self.keys))]
        return [calls[index] for index in stream]

    def install(self, deployment):
        for wrapper in deployment.faulty:
            wrapper.schedule = self.schedule

    def run(self, deployment, op):
        source, class_name, selections = self.keys[op[1]]
        return deployment.mediator.source_query(
            source, SourceQuery(class_name, selections)
        )

    def check(self, deployment, op, result):
        return result == self.direct[op[1]]


WORKLOADS = {
    workload.name: workload for workload in (Section5, KBMixed, SourceCalls)
}
