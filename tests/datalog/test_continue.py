"""evaluate(..., base=): continuing a model equals evaluating afresh.

The property suite draws random stratified programs (recursion,
negation, count/sum aggregates), random extra facts and random extra
rules over fresh relations, and checks the continued model against a
full evaluation of the combined program: same true facts, same
undefined facts, and the base model untouched.  The remaining tests
pin each fallback reason.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.datalog import (
    Atom,
    Const,
    Rule,
    evaluate,
    parse_program,
)
from repro.flogic import FLogicEngine
from tests.conftest import examples

NODES = ["a", "b", "c", "d", "e"]

#: base rules; every negated or aggregated relation sits in a lower
#: layer, so any subset is stratified
BASE_RULES = [
    "path(X, Y) :- edge(X, Y).",
    "path(X, Z) :- path(X, Y), edge(Y, Z).",
    "reach(Y) :- mark(X), path(X, Y).",
    "node(Y) :- edge(_, Y).",
    "lonely(X) :- node(X), not reach(X).",
    "outdeg(X, N) :- node(X), N = count{Y [X]; edge(X, Y)}.",
    "total(X, S) :- reach(X), S = sum{V [X]; w(X, V)}.",
    "hub(X) :- outdeg(X, N), N > 1.",
    "calm(X) :- node(X), not lonely(X), not hub(X).",
    "conn(X, Y) :- path(X, Y).",
    "conn(X, Y) :- conn(Y, X).",
]

#: extra rules over relations the base never mentions
EXTRA_RULES = [
    "q1(X) :- reach(X), not hub(X).",
    "q2(X, N) :- node(X), N = count{Y [X]; path(X, Y)}.",
    "q3(X, Y) :- edge(X, Y), mark(X).",
    "q3(X, Y) :- q3(X, Z), edge(Z, Y).",
    "q4(X) :- node(X), not q1(X).",
    "q5(X, S) :- q3(X, _), S = sum{V [X]; w(X, V)}.",
]

nodes = st.sampled_from(NODES).map(Const)
edb_facts = st.one_of(
    st.builds(lambda x, y: Rule(Atom("edge", (x, y))), nodes, nodes),
    st.builds(lambda x: Rule(Atom("node", (x,))), nodes),
    st.builds(lambda x: Rule(Atom("mark", (x,))), nodes),
    st.builds(
        lambda x, v: Rule(Atom("w", (x, Const(v)))), nodes, st.integers(1, 5)
    ),
)
rule_subsets = st.lists(
    st.sampled_from(BASE_RULES), unique=True, min_size=1
)
extra_rule_subsets = st.lists(st.sampled_from(EXTRA_RULES), unique=True)


def rules(texts):
    return [rule for text in texts for rule in parse_program(text)]


def fallbacks(tracer):
    return [
        span.attrs.get("fallback")
        for span in tracer.find_spans("datalog.continue")
    ]


def continued_and_fresh(base_program, extra):
    base = evaluate(base_program)
    snapshot = base.store.copy()
    with obs.capture("continue") as tracer:
        continued = evaluate(extra, base=base)
    fresh = evaluate(list(base_program) + list(extra))
    assert base.store.same_facts(snapshot), "the base model changed"
    return continued, fresh, fallbacks(tracer)


class TestContinuedEqualsFresh:
    @settings(max_examples=examples(150), deadline=None)
    @given(
        st.lists(edb_facts, max_size=12),
        rule_subsets,
        st.lists(edb_facts, max_size=6),
        extra_rule_subsets,
    )
    def test_random_stratified_programs(
        self, base_facts, base_rules, extra_facts, extra_rules
    ):
        base_program = base_facts + rules(base_rules)
        extra = extra_facts + rules(extra_rules)
        continued, fresh, _ = continued_and_fresh(base_program, extra)
        assert continued.store.same_facts(fresh.store)
        assert continued.undefined.same_facts(fresh.undefined)

    def test_positive_delta_takes_the_fast_path(self):
        base_program = rules(
            ["edge(a, b). edge(b, c).", BASE_RULES[0], BASE_RULES[1]]
        )
        extra = rules(["edge(c, d).", "q(X) :- path(a, X)."])
        continued, fresh, reasons = continued_and_fresh(base_program, extra)
        assert reasons == [None]
        assert continued.store.same_facts(fresh.store)
        assert continued.is_true(Atom("q", (Const("d"),)))

    def test_extras_without_facts_only_add_their_relations(self):
        base_program = rules(["edge(a, b).", BASE_RULES[0]])
        continued, fresh, reasons = continued_and_fresh(
            base_program, rules(["q(X) :- path(X, b)."])
        )
        assert reasons == [None]
        assert continued.store.same_facts(fresh.store)

    def test_continuing_a_continued_model(self):
        base_program = rules(["edge(a, b).", BASE_RULES[0], BASE_RULES[1]])
        first = evaluate(rules(["edge(b, c)."]), base=evaluate(base_program))
        second = evaluate(rules(["edge(c, d)."]), base=first)
        fresh = evaluate(base_program + rules(["edge(b, c). edge(c, d)."]))
        assert second.store.same_facts(fresh.store)


class TestFallbacks:
    def test_well_founded_base(self):
        base_program = rules(
            ["move(a, b). move(b, a). move(b, c).",
             "win(X) :- move(X, Y), not win(Y)."]
        )
        continued, fresh, reasons = continued_and_fresh(
            base_program, rules(["move(c, d)."])
        )
        assert reasons == ["well-founded"]
        assert continued.used_well_founded
        assert continued.store.same_facts(fresh.store)
        assert continued.undefined.same_facts(fresh.undefined)
        assert len(continued.undefined)

    def test_extra_head_in_base(self):
        base_program = rules(["edge(a, b).", BASE_RULES[0]])
        continued, fresh, reasons = continued_and_fresh(
            base_program, rules(["mark(a).", "path(X, X) :- mark(X)."])
        )
        assert reasons == ["head-in-base"]
        assert continued.store.same_facts(fresh.store)

    def test_extra_head_referenced_by_base(self):
        base_program = rules(["edge(a, b).", BASE_RULES[0], BASE_RULES[2]])
        continued, fresh, reasons = continued_and_fresh(
            base_program, rules(["mark(X) :- edge(X, _)."])
        )
        assert reasons == ["head-in-base"]
        assert continued.store.same_facts(fresh.store)

    def test_unstratified_extras(self):
        base_program = rules(["edge(a, b).", BASE_RULES[3]])
        continued, fresh, reasons = continued_and_fresh(
            base_program,
            rules(["u(X) :- node(X), not v(X).", "v(X) :- node(X), not u(X)."]),
        )
        assert reasons == ["unstratified"]
        assert continued.store.same_facts(fresh.store)
        assert continued.undefined.same_facts(fresh.undefined)
        assert len(continued.undefined)

    def test_new_facts_reaching_negation(self):
        base_program = rules(
            ["edge(a, b). node(a).", BASE_RULES[0], BASE_RULES[2],
             BASE_RULES[3], BASE_RULES[4]]
        )
        continued, fresh, reasons = continued_and_fresh(
            base_program, rules(["mark(a)."])
        )
        assert reasons == ["negation"]
        assert continued.store.same_facts(fresh.store)

    def test_new_facts_reaching_an_aggregate(self):
        base_program = rules(["edge(a, b). node(a).", BASE_RULES[5]])
        continued, fresh, reasons = continued_and_fresh(
            base_program, rules(["edge(a, c)."])
        )
        assert reasons == ["aggregate"]
        assert continued.store.same_facts(fresh.store)

    def test_negated_relation_left_alone_continues(self):
        # reach gains nothing (no mark), so lonely stays sound
        base_program = rules(
            ["edge(a, b). node(a).", BASE_RULES[0], BASE_RULES[2],
             BASE_RULES[3], BASE_RULES[4]]
        )
        continued, fresh, reasons = continued_and_fresh(
            base_program, rules(["edge(b, c)."])
        )
        assert reasons == [None]
        assert continued.store.same_facts(fresh.store)

    def test_first_default_links_value_inheritance(self):
        # the value-inheritance axioms come along as extra rules; their
        # head (method_val) is defined by the core axioms
        engine = FLogicEngine().tell(
            "p1 : employee. employee :: person. p2 : person."
        )
        extra = [
            Rule(Atom("default_val", (Const("person"), Const("legs"), Const(2))))
        ]
        with obs.capture("continue") as tracer:
            continued = engine.evaluate_with(extra)
        assert fallbacks(tracer) == ["head-in-base"]
        fresh = FLogicEngine().tell(
            "p1 : employee. employee :: person. p2 : person."
        ).tell_rules(extra)
        assert continued.store.same_facts(fresh.evaluate().store)
        assert continued.is_true(
            Atom("method_val", (Const("p1"), Const("legs"), Const(2)))
        )


class TestEngineAsk:
    def test_ask_leaves_the_cached_model_alone(self):
        engine = FLogicEngine().tell(
            "p1 : employee. employee :: person. p1[age -> 30]."
        )
        before = engine.evaluate()
        snapshot = before.store.copy()
        assert engine.ask("X : person") == [{"X": "p1"}]
        assert engine.ask("X[age -> A], A > 20") == [{"A": 30, "X": "p1"}]
        assert engine.evaluate() is before
        assert before.store.same_facts(snapshot)

    def test_ask_with_a_negated_conjunction(self):
        text = (
            "p1 : employee. p2 : employee. p1[boss -> p2]. "
            "employee :: person."
        )
        query = "X : person, not (X[boss -> Y], Y : employee)"
        engine = FLogicEngine().tell(text)
        engine.evaluate()
        assert engine.ask(query) == [{"X": "p2"}]
