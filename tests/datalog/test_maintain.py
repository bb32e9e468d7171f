"""evaluate(..., base=, removed=): a maintained model equals a fresh one.

The property suite draws random stratified programs (recursion,
negation, count/sum aggregates, optionally a well-founded game) and a
random sequence of writes, each adding or removing stated facts.  After
every write the maintained model must equal a full evaluation of the
program as it now stands, on true and on undefined facts, and the
model it was maintained from must be untouched.  The remaining tests
pin each fallback reason of a retraction, the deletion counters, and
the store operations retraction relies on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.datalog import Atom, Const, Rule, evaluate, parse_program
from repro.datalog.store import MAX_OVERLAY_DEPTH, FactStore
from repro.flogic import FLogicEngine
from tests.conftest import examples, fl_rules
from tests.datalog.test_continue import BASE_RULES, edb_facts, fallbacks, nodes, rules

#: a game whose win relation needs the well-founded semantics
GAME_RULE = "win(X) :- move(X, Y), not win(Y)."

facts = st.one_of(
    edb_facts, st.builds(lambda x, y: Rule(Atom("move", (x, y))), nodes, nodes)
)
#: (remove?, facts to add, indexes of stated facts to remove)
writes = st.lists(
    st.tuples(
        st.booleans(),
        st.lists(facts, min_size=1, max_size=4),
        st.lists(st.integers(0, 63), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=6,
)


def stated(program):
    return [rule for rule in program if rule.is_fact]


def maintained_and_fresh(program, added=(), removed=()):
    """Maintain ``evaluate(program)`` by the write, and evaluate the
    program after it from scratch."""
    base = evaluate(program)
    with obs.capture("maintain") as tracer:
        model = evaluate(list(added), base=base, removed=list(removed))
    after = list(program)
    for rule in removed:
        if rule in after:
            after.remove(rule)
    fresh = evaluate(after + list(added))
    assert model.store.same_facts(fresh.store)
    assert model.undefined.same_facts(fresh.undefined)
    return model, tracer


class TestMaintainedEqualsFresh:
    @settings(max_examples=examples(150), deadline=None)
    @given(
        st.lists(facts, max_size=12),
        st.lists(st.sampled_from(BASE_RULES), unique=True, min_size=1),
        st.booleans(),
        writes,
    )
    def test_random_writes(self, base_facts, base_rules, game, steps):
        program = base_facts + rules(base_rules + ([GAME_RULE] if game else []))
        model = evaluate(program)
        for remove, added, picks in steps:
            snapshot = model.store.copy()
            if remove and stated(program):
                facts_now = stated(program)
                removed = [facts_now[pick % len(facts_now)] for pick in picks]
                # a fact removed twice must be stated twice
                removed = [
                    rule
                    for index, rule in enumerate(removed)
                    if removed[: index + 1].count(rule) <= facts_now.count(rule)
                ]
                added = []
            else:
                removed = []
            next_model = evaluate(added, base=model, removed=removed)
            for rule in removed:
                program.remove(rule)
            program = program + added
            fresh = evaluate(program)
            assert next_model.store.same_facts(fresh.store)
            assert next_model.undefined.same_facts(fresh.undefined)
            assert model.store.same_facts(snapshot), "the base model changed"
            model = next_model

    def test_a_fact_with_another_proof_stays(self):
        program = rules(["edge(a, b). edge(b, c). edge(a, c).", *BASE_RULES[:2]])
        model, tracer = maintained_and_fresh(program, removed=rules(["edge(a, c)."]))
        assert model.store.contains(Atom("path", (Const("a"), Const("c"))))
        assert not model.store.contains(Atom("edge", (Const("a"), Const("c"))))
        assert fallbacks(tracer) == [None]

    def test_a_fact_stated_twice_stays(self):
        program = rules(["edge(a, b).", "edge(a, b).", BASE_RULES[0]])
        model, _tracer = maintained_and_fresh(program, removed=rules(["edge(a, b)."]))
        assert model.store.contains(Atom("path", (Const("a"), Const("b"))))

    def test_cyclic_support_is_not_a_proof(self):
        # conn(a, b) and conn(b, a) support each other through the
        # symmetry rule; with edge(a, b) gone neither has a proof
        program = rules(["edge(a, b).", BASE_RULES[0], *BASE_RULES[-2:]])
        model, _tracer = maintained_and_fresh(program, removed=rules(["edge(a, b)."]))
        assert not len(model.store)

    def test_remove_then_add_in_one_write(self):
        program = rules(["edge(a, b). edge(b, c).", *BASE_RULES[:2]])
        model, tracer = maintained_and_fresh(
            program, added=rules(["edge(c, d)."]), removed=rules(["edge(a, b)."])
        )
        assert model.store.contains(Atom("path", (Const("b"), Const("d"))))
        assert fallbacks(tracer) == [None]

    def test_removing_an_unstated_fact_changes_nothing(self):
        program = rules(["edge(a, b).", BASE_RULES[0]])
        model, _tracer = maintained_and_fresh(
            program, removed=rules(["path(a, b). edge(b, c)."])
        )
        assert model.store.contains(Atom("path", (Const("a"), Const("b"))))


class TestRetractionFallbacks:
    def test_well_founded_base(self):
        program = rules(["move(a, b). move(b, a). move(b, c).", GAME_RULE])
        model, tracer = maintained_and_fresh(program, removed=rules(["move(b, c)."]))
        assert fallbacks(tracer) == ["well-founded"]
        assert len(model.undefined)

    def test_rule_removed(self):
        program = rules(["edge(a, b).", *BASE_RULES[:2]])
        _model, tracer = maintained_and_fresh(program, removed=rules([BASE_RULES[1]]))
        assert fallbacks(tracer) == ["rule-removed"]

    def test_retracted_facts_leaving_a_negated_relation(self):
        program = rules(
            ["edge(a, b). node(a). mark(a).", BASE_RULES[0], BASE_RULES[2],
             BASE_RULES[3], BASE_RULES[4]]
        )
        _model, tracer = maintained_and_fresh(program, removed=rules(["mark(a)."]))
        assert fallbacks(tracer) == ["negation"]

    def test_retracted_facts_leaving_an_aggregated_relation(self):
        program = rules(["edge(a, b). edge(a, c). node(a).", BASE_RULES[5]])
        _model, tracer = maintained_and_fresh(program, removed=rules(["edge(a, c)."]))
        assert fallbacks(tracer) == ["aggregate"]

    def test_negated_relation_left_whole_retracts(self):
        # reach keeps its facts (b is still reached through c)
        program = rules(
            ["edge(a, b). edge(a, c). edge(c, b). node(a). mark(a).",
             BASE_RULES[0], BASE_RULES[1], BASE_RULES[2], BASE_RULES[3],
             BASE_RULES[4]]
        )
        _model, tracer = maintained_and_fresh(program, removed=rules(["edge(a, b)."]))
        assert fallbacks(tracer) == [None]


class TestValueInheritance:
    TEXT = "p1 : employee. employee :: person."
    DEFAULT = Rule(Atom("default_val", (Const("person"), Const("legs"), Const(2))))

    @staticmethod
    def fallback_reasons(tracer):
        return [
            span.attrs.get("fallback")
            for span in tracer.find_spans("flogic.evaluate")
        ]

    def test_the_first_default_links_it(self):
        engine = FLogicEngine().tell_rules(fl_rules(self.TEXT))
        engine.evaluate()
        with obs.capture("link") as tracer:
            engine.tell_rules([self.DEFAULT])
            model = engine.evaluate()
        assert self.fallback_reasons(tracer) == ["value-inheritance"]
        assert tracer.metrics.counter_total("datalog.fallbacks") == 1
        assert model.store.contains(
            Atom("method_val", (Const("p1"), Const("legs"), Const(2)))
        )

    def test_retracting_the_last_default_unlinks_it(self):
        engine = FLogicEngine().tell_rules(fl_rules(self.TEXT)).tell_rules([self.DEFAULT])
        engine.evaluate()
        with obs.capture("unlink") as tracer:
            model = engine.revised(removed=[self.DEFAULT]).evaluate()
        assert self.fallback_reasons(tracer) == ["value-inheritance"]
        fresh = FLogicEngine().tell_rules(fl_rules(self.TEXT)).evaluate()
        assert model.store.same_facts(fresh.store)

    def test_a_second_default_continues(self):
        engine = FLogicEngine().tell_rules(fl_rules(self.TEXT)).tell_rules([self.DEFAULT])
        engine.evaluate()
        other = Rule(Atom("default_val", (Const("employee"), Const("desk"), Const(1))))
        with obs.capture("second") as tracer:
            engine.tell_rules([other])
            model = engine.evaluate()
        assert self.fallback_reasons(tracer) == []
        fresh = FLogicEngine().tell_rules(fl_rules(self.TEXT)).tell_rules([self.DEFAULT, other])
        assert model.store.same_facts(fresh.evaluate().store)


class TestEngineWrites:
    def test_tell_and_retract_continue_the_model(self):
        engine = FLogicEngine().tell_rules(fl_rules("p1 : employee. employee :: person."))
        engine.evaluate()
        extra = list(parse_program("instance(p2, employee)."))
        with obs.capture("writes") as tracer:
            engine.tell_rules(extra)
            assert engine.ask("X : person") == [{"X": "p1"}, {"X": "p2"}]
            engine = engine.revised(removed=extra)
            assert engine.ask("X : person") == [{"X": "p1"}]
        assert tracer.metrics.counter_total("datalog.evaluations") == 0

    def test_revised_leaves_the_original_alone(self):
        engine = FLogicEngine().tell_rules(fl_rules("p1 : employee. employee :: person."))
        before = engine.evaluate()
        snapshot = before.store.copy()
        revised = engine.revised(
            added=parse_program("instance(p2, employee)."),
            removed=parse_program("instance(p1, employee)."),
        )
        assert revised.ask("X : person") == [{"X": "p2"}]
        assert engine.evaluate() is before
        assert before.store.same_facts(snapshot)
        assert engine.ask("X : person") == [{"X": "p1"}]


class TestDeletionCounters:
    def test_counts_are_recorded_on_the_span_and_counted(self):
        # path(a, c) keeps its proof through b; path(a, d), path(b, d)
        # and path(c, d) lose theirs
        program = rules(
            ["edge(a, b). edge(b, c). edge(a, c). edge(c, d).", *BASE_RULES[:2]]
        )
        _model, tracer = maintained_and_fresh(
            program, removed=rules(["edge(a, c). edge(c, d)."])
        )
        (span,) = tracer.find_spans("datalog.retract")
        counts = tuple(span.attrs[name] for name in ("removed", "checked", "rederived"))
        assert counts == (5, 6, 1)
        counters = tracer.metrics
        assert counters.counter_total("datalog.facts_removed") == 5
        assert counters.counter_total("datalog.facts_checked") == 6
        assert counters.counter_total("datalog.facts_rederived") == 1


class TestFactStoreRemoval:
    def test_remove_keeps_indexes_consistent(self):
        store = FactStore()
        for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
            store.add(Atom("edge", (Const(x), Const(y))))
        pattern = Atom("edge", (Const("a"), Const("c")))
        assert len(store.candidates(Atom("edge", (Const("a"),) * 2), {})) == 2
        assert store.remove_row(("edge", 2), pattern.args)
        assert not store.remove_row(("edge", 2), pattern.args)
        assert [args for args in store.candidates(pattern, {})] == [
            (Const("a"), Const("b"))
        ]
        assert not store.contains(pattern)

    def test_overlay_removal_leaves_the_parent_alone(self):
        parent = FactStore()
        fact = Atom("edge", (Const("a"), Const("b")))
        parent.add(fact)
        parent.candidates(fact, {})  # builds the parent's index
        child = parent.overlay()
        assert child.remove_row(fact.signature, fact.args)
        assert parent.contains(fact) and not child.contains(fact)
        assert list(parent.candidates(fact, {})) == [fact.args]
        assert list(child.candidates(fact, {})) == []

    def test_deep_overlays_fold(self):
        store = FactStore()
        store.add(Atom("edge", (Const("a"), Const("b"))))
        for round_ in range(3 * MAX_OVERLAY_DEPTH):
            store = store.overlay()
            store.add(Atom("edge", (Const("a"), Const(round_))))
            store = store.folded()
            assert store.depth <= MAX_OVERLAY_DEPTH
        assert len(store) == 3 * MAX_OVERLAY_DEPTH + 1


class TestPlanReuse:
    def test_facts_only_writes_share_the_plan(self):
        base = evaluate(rules(["edge(a, b).", *BASE_RULES[:2]]))
        added = evaluate(rules(["edge(b, c)."]), base=base)
        retracted = evaluate([], base=added, removed=rules(["edge(a, b)."]))
        plan = base._plan
        assert added._plan is plan and retracted._plan is plan

    def test_a_new_fact_relation_joins_the_shared_plan(self):
        base = evaluate(rules(["edge(a, b).", *BASE_RULES[:2]]))
        marked = evaluate(rules(["mark(a)."]), base=base)
        assert marked._plan.strata is base._plan.strata
        assert ("mark", 1) in marked._plan.referenced
        assert ("mark", 1) not in base._plan.referenced
        # so a rule deriving mark now has its head in the base
        with obs.capture("head") as tracer:
            evaluate(rules(["mark(X) :- edge(X, _)."]), base=marked)
        assert fallbacks(tracer) == ["head-in-base"]
