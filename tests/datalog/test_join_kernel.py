"""The compiled join kernel against the generic solver it replaced.

Hypothesis draws random stratified programs: literals with constants
and repeated variables, Skolem ``Struct`` heads and body patterns,
comparisons, ``is`` assignments, equations between unbound terms,
negation and aggregates.  Two
properties are checked against an oracle, the substitution-based
solver the engine used before its joins were compiled (copied below
with the semi-naive loop around it):

* every compiled join, from every delta position and with or without
  variables bound on entry, yields the oracle's multiset of solutions;
* a whole evaluation derives the oracle's facts with the same
  ``rule_firings``, per-stratum rounds and ``derived_at``.
"""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.datalog import (
    AggregateLiteral,
    Assignment,
    Atom,
    Comparison,
    Const,
    FactStore,
    Literal,
    Rule,
    Struct,
    Var,
    check_rule_safety,
    evaluate,
    parse_program,
    stratify,
    substitute,
    term_sort_key,
    unify,
    walk,
)
from repro.datalog.builtins import compare_values, evaluate_expression
from repro.datalog.join import _apply_aggregate, _compile, _Stores
from repro.errors import EvaluationError, ReproError
from tests.conftest import examples

# -- the oracle: the generic solver, as it was ----------------------------


def solve_comparison(item, subst):
    left = walk(item.left, subst)
    right = walk(item.right, subst)
    if item.op == "=":
        unified = unify(left, right, subst)
        if unified is not None:
            yield unified
        return
    left = substitute(left, subst)
    right = substitute(right, subst)
    if not left.is_ground() or not right.is_ground():
        raise EvaluationError("comparison %s has unbound arguments" % item)
    left_value = left.value if isinstance(left, Const) else left
    right_value = right.value if isinstance(right, Const) else right
    if compare_values(item.op, left_value, right_value):
        yield subst


def solve_assignment(item, subst):
    value = Const(evaluate_expression(item.expr, subst))
    unified = unify(item.target, value, subst)
    if unified is not None:
        yield unified


def order_body_items(items, bound=()):
    ordered = []
    bound = set(bound)
    remaining = list(items)
    while remaining:
        chosen = None
        for item in remaining:
            if is_ready_filter(item, bound):
                chosen = item
                break
        if chosen is None:
            for item in remaining:
                if isinstance(item, Literal) and item.positive:
                    chosen = item
                    break
        if chosen is None:
            for item in remaining:
                if isinstance(item, (AggregateLiteral, Comparison, Assignment)):
                    chosen = item
                    break
        if chosen is None:
            chosen = remaining[0]
        remaining.remove(chosen)
        ordered.append(chosen)
        bound.update(chosen.variables())
        if isinstance(chosen, AggregateLiteral):
            bound.update(chosen.inner_variables())
    return ordered


def is_ready_filter(item, bound):
    if isinstance(item, Literal) and not item.positive:
        return all(v in bound or v.is_anonymous for v in item.variables())
    if isinstance(item, Comparison):
        if item.op == "=":
            return all(v in bound for v in item.left.variables()) or all(
                v in bound for v in item.right.variables()
            )
        return all(v in bound for v in item.variables())
    if isinstance(item, Assignment):
        return all(v in bound for v in item.expr.variables())
    return False


class Oracle:
    """Semi-naive saturation by the generic solver: every match is a
    unification extending a substitution."""

    def __init__(self, store, negation_store=None, seminaive=True):
        self.store = store
        self.negation_store = negation_store
        self.seminaive = seminaive
        self.rule_firings = 0

    def solve(self, body, index, subst, delta_position, delta):
        if index == len(body):
            yield subst
            return
        item = body[index]
        if isinstance(item, Literal):
            if item.positive:
                source = delta if delta_position == index else self.store
                for args in source.rows(item.atom.signature):
                    new = subst
                    for pattern, ground in zip(item.atom.args, args):
                        new = unify(pattern, ground, new)
                        if new is None:
                            break
                    else:
                        yield from self.solve(body, index + 1, new, delta_position, delta)
            else:
                ground = item.atom.substitute(subst)
                if not ground.is_ground():
                    raise EvaluationError("negated subgoal %s not ground" % ground)
                target = (
                    self.store if self.negation_store is None else self.negation_store
                )
                if not target.contains(ground):
                    yield from self.solve(body, index + 1, subst, delta_position, delta)
        elif isinstance(item, Comparison):
            for new in solve_comparison(item, subst):
                yield from self.solve(body, index + 1, new, delta_position, delta)
        elif isinstance(item, Assignment):
            for new in solve_assignment(item, subst):
                yield from self.solve(body, index + 1, new, delta_position, delta)
        else:
            for new in self.solve_aggregate(item, subst):
                yield from self.solve(body, index + 1, new, delta_position, delta)

    def solve_aggregate(self, agg, subst):
        groups = {}
        inner_body = order_body_items(list(agg.body))
        for inner in self.solve(inner_body, 0, dict(subst), None, None):
            key = tuple(substitute(g, inner) for g in agg.group_by)
            value = substitute(agg.value, inner)
            if not value.is_ground():
                raise EvaluationError("aggregate value %s not ground" % value)
            groups.setdefault(key, []).append(value)
        for key, values in sorted(
            groups.items(), key=lambda kv: tuple(term_sort_key(t) for t in kv[0])
        ):
            new = dict(subst)
            for pattern, ground in zip(agg.group_by, key):
                new = unify(pattern, ground, new)
                if new is None:
                    break
            else:
                new = unify(agg.result, Const(_apply_aggregate(agg.func, values)), new)
                if new is not None:
                    yield new

    def heads(self, rule, body, delta_position=None, delta=None):
        heads = [
            rule.head.substitute(subst)
            for subst in self.solve(body, 0, {}, delta_position, delta)
        ]
        self.rule_firings += len(heads)
        for head in heads:
            if not head.is_ground():
                raise EvaluationError("derived non-ground fact %s" % head)
        return heads

    def saturate(self, rules, stratum_metrics, derived_at):
        stratum = stratum_metrics.index
        delta = FactStore()
        for rule in rules:
            if rule.is_fact and self.store.add(rule.head):
                delta.add(rule.head)
                derived_at.setdefault(rule.head, (stratum, 0))
        proper = [
            (rule, order_body_items(rule.body)) for rule in rules if not rule.is_fact
        ]
        for rule, body in proper:
            for head in self.heads(rule, body):
                if self.store.add(head):
                    delta.add(head)
                    derived_at.setdefault(head, (stratum, 0))
        stratum_metrics.rounds.append(len(delta))
        stratum_metrics.facts_derived += len(delta)
        local = {rule.head.signature for rule in rules}
        recursive = [
            (rule, body)
            for rule, body in proper
            if any(
                isinstance(item, Literal) and item.positive and item.atom.signature in local
                for item in body
            )
        ]
        if self.seminaive and not recursive:
            return
        round_no = 0
        while len(delta):
            round_no += 1
            new_delta = FactStore()
            for rule, body in recursive:
                if not self.seminaive:
                    heads = self.heads(rule, body)
                else:
                    heads = []
                    for position, item in enumerate(body):
                        if (
                            isinstance(item, Literal)
                            and item.positive
                            and item.atom.signature in set(delta.signatures())
                        ):
                            heads += self.heads(rule, body, position, delta)
                for head in heads:
                    if self.store.add(head):
                        new_delta.add(head)
                        derived_at.setdefault(head, (stratum, round_no))
            stratum_metrics.rounds.append(len(new_delta))
            stratum_metrics.facts_derived += len(new_delta)
            delta = new_delta


def oracle_evaluate(program, strategy):
    unique = list(dict.fromkeys(program))
    metrics = obs.EvaluationMetrics()
    oracle = Oracle(FactStore(), seminaive=(strategy == "seminaive"))
    for index, stratum in enumerate(stratify(unique)):
        oracle.saturate(
            [rule for rule in unique if rule.head.signature in stratum],
            metrics.begin_stratum(index, ()),
            metrics.derived_at,
        )
    metrics.rule_firings = oracle.rule_firings
    return oracle.store, metrics


# -- random programs ---------------------------------------------------------

X, Y, Z, W, N = (Var(name) for name in "XYZWN")
#: variables of equations between unbound terms
U, T = Var("U"), Var("T")
VARIABLES = [X, Y, Z]
VALUES = [Const(0), Const(1), Const(2)]
SKOLEMS = [Struct("f", (value,)) for value in VALUES]

#: relation -> arity; every stored value of e, g, t and w is an integer
EDB = {"e": 2, "g": 1, "t": 3, "w": 2}
#: a lower layer of derived relations, the Skolem relation k (second
#: argument f(_)), and an upper layer reading all of them
LOWER = {"p": 2, "q": 1}
UPPER = {"r": 2, "s": 1}
ARITY = {**EDB, **LOWER, "k": 2, **UPPER}

terms = st.one_of(
    st.sampled_from(VARIABLES), st.sampled_from(VARIABLES), st.sampled_from(VALUES)
)


def atom_for(draw, pred):
    args = [draw(terms) for _ in range(ARITY[pred])]
    if pred == "k" and draw(st.integers(0, 3)):
        args[1] = Struct("f", (draw(terms),))  # a Skolem pattern
    return Atom(pred, args)


def bound_in(atoms):
    return list(dict.fromkeys(v for atom in atoms for v in atom.variables()))


@st.composite
def rules(draw, head_pred):
    """A safe rule defining `head_pred`, within its layer."""
    if head_pred in LOWER:
        positive, below = list(EDB) + list(LOWER), list(EDB)
    elif head_pred == "k":
        positive, below = list(EDB) + list(LOWER), list(EDB)
    else:
        # k (Skolem values) is drawn more often
        positive, below = list(ARITY) + ["k"] * 3, list(EDB) + list(LOWER) + ["k"]
    atoms = [
        atom_for(draw, pred)
        for pred in draw(st.lists(st.sampled_from(positive), min_size=1, max_size=3))
    ]
    body = [Literal(atom) for atom in atoms]
    bound = bound_in(atoms)
    assume(bound)
    choose = st.sampled_from(bound)
    if draw(st.booleans()):
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        left = draw(choose)
        right = draw(st.one_of(choose, st.sampled_from(VALUES)))
        body.append(Comparison(op, left, right))
    if draw(st.booleans()):
        # W = V, or W is V + 1 over an integer-only variable
        source = draw(choose)
        integer = all(
            atom.pred in EDB for atom in atoms if source in set(atom.variables())
        )
        if integer and draw(st.booleans()):
            body.append(Assignment(W, Struct("+", (source, Const(1)))))
        else:
            body.append(Comparison("=", W, source))
        bound.append(W)
    if draw(st.integers(0, 3)) == 0:
        # equations between unbound terms: they only have to unify
        body.append(Comparison("=", U, Struct("f", (T,))))
        if draw(st.booleans()):
            body.append(Comparison("=", U, Struct(draw(st.sampled_from("fg")), (Y,))))
    if draw(st.booleans()):
        pred = draw(st.sampled_from(below))
        args = [draw(st.one_of(choose, st.sampled_from(VALUES))) for _ in range(ARITY[pred])]
        body.append(Literal(Atom(pred, args), positive=False))
    if draw(st.booleans()):
        # grouped by a bound variable, or by one the aggregate binds
        group = draw(st.one_of(choose, st.just(Var("G"))))
        value = draw(st.sampled_from([Z, Var("V")]))
        func, inner = draw(
            st.sampled_from(
                [
                    ("count", Atom("e", (group, value))),
                    ("sum", Atom("w", (group, value))),
                    ("max", Atom("w", (group, value))),
                ]
                + ([("count", Atom("p", (group, value)))] if head_pred in UPPER else [])
            )
        )
        body.append(AggregateLiteral(func, N, value, (group,), (Literal(inner),)))
        bound.extend(v for v in (group, N) if v not in bound)
    head_args = [
        draw(st.one_of(st.sampled_from(bound), st.sampled_from(VALUES)))
        for _ in range(ARITY[head_pred])
    ]
    if head_pred == "k":
        head_args[1] = Struct("f", (head_args[1],))
    rule = Rule(Atom(head_pred, head_args), draw(st.permutations(body)))
    check_rule_safety(rule)
    return rule


any_rule = st.sampled_from(list(LOWER) + ["k"] + list(UPPER)).flatmap(rules)


@st.composite
def stores(draw):
    """Random rows for every relation: integers, and f(_) in k."""
    store = FactStore()
    for pred, arity in ARITY.items():
        for _ in range(draw(st.integers(0, 6))):
            args = [draw(st.sampled_from(VALUES)) for _ in range(arity)]
            if pred == "k":
                args[1] = draw(st.sampled_from(SKOLEMS))
            elif pred in UPPER and draw(st.booleans()):
                args[0] = draw(st.sampled_from(SKOLEMS))
            store.add(Atom(pred, args))
    return store


# -- properties --------------------------------------------------------------


def outcome(solutions, variables):
    """The multiset of solutions restricted to `variables` (a variable
    left unbound, or bound to another, maps to None), or the error
    class solving raised."""

    def value(v, subst):
        term = substitute(v, subst)
        return term if term.is_ground() else None

    try:
        return Counter(
            frozenset((v, value(v, subst)) for v in variables)
            for subst in solutions()
        )
    except ReproError as exc:
        return type(exc)


class TestJoinsMatchTheOracle:
    @settings(max_examples=examples(300), deadline=None)
    @given(any_rule, stores(), stores(), st.data())
    def test_every_join_yields_the_oracle_solutions(self, rule, store, other, data):
        delta = FactStore()
        for sig in other.signatures():
            for args in other.rows(sig):
                if data.draw(st.booleans()):
                    delta.add_row(sig, args)
        negation = data.draw(st.sampled_from([None, other]))
        variables = list(dict.fromkeys(rule.variables()))
        entry = data.draw(st.lists(st.sampled_from(variables), unique=True))
        values = [
            data.draw(st.sampled_from(VALUES + SKOLEMS))
            if all(
                not isinstance(item, Assignment) or v not in set(item.expr.variables())
                for item in rule.body
            )
            else data.draw(st.sampled_from(VALUES))
            for v in entry
        ]
        positions = [None] + [
            index
            for index, item in enumerate(rule.body)
            if isinstance(item, Literal) and item.positive
        ]
        for bound in ((), entry):
            start = dict(zip(bound, values))
            for position in positions:
                body = list(rule.body)
                lead = None if position is None else body.pop(position)
                join = _compile(body, lead=lead and lead.atom, bound=bound)
                compiled = outcome(
                    lambda: (
                        join.substitution(slots)
                        for slots in join.run(
                            _Stores(store, negation), delta, values[: len(bound)]
                        )
                    ),
                    variables,
                )
                if lead is None:
                    ordered, at = order_body_items(body, bound), None
                else:
                    ordered = [lead] + order_body_items(
                        body, set(bound) | set(lead.variables())
                    )
                    at = 0
                oracle = Oracle(store, negation)
                expected = outcome(
                    lambda: oracle.solve(ordered, 0, start, at, delta), variables
                )
                assert compiled == expected, (str(rule), position, bound)

    def test_a_repeated_variable_is_an_equality(self):
        store = FactStore()
        for x, y in ((0, 0), (0, 1), (2, 2)):
            store.add(Atom("e", (Const(x), Const(y))))
        join = _compile([Literal(Atom("e", (X, X)))], emit=Atom("h", (X,)))
        assert sorted(join.run(_Stores(store)), key=str) == [(Const(0),), (Const(2),)]

    def test_a_bound_literal_is_a_membership_test(self):
        # X, Y bound by the lead: e(X, Y) needs no index
        store = FactStore()
        store.add(Atom("e", (Const(0), Const(1))))
        join = _compile(
            [Literal(Atom("e", (X, Y)))], emit=Atom("h", (X,)), lead=Atom("q", (X, Y))
        )
        rows = ((Const(0), Const(1)), (Const(1), Const(0)))
        assert join.run(_Stores(store), rows) == [(Const(0),)]
        assert not store._indexes

    def test_equations_between_unbound_terms_only_have_to_unify(self):
        program = parse_program(
            "q(1). p(a) :- q(Z), X = Y.  r(a) :- q(Z), X = f(Y), X = g(W)."
        )
        assert [str(atom) for atom in evaluate(program).facts()] == ["p(a)", "q(1)"]

    def test_a_skolem_pattern_binds_inside_the_struct(self):
        store = FactStore()
        store.add(Atom("k", (Const(0), Struct("f", (Const(1),)))))
        store.add(Atom("k", (Const(0), Const(1))))
        join = _compile(
            [Literal(Atom("k", (X, Struct("f", (Y,)))))], emit=Atom("h", (X, Y))
        )
        assert join.run(_Stores(store)) == [(Const(0), Const(1))]


class TestEvaluationsMatchTheOracle:
    @settings(max_examples=examples(150), deadline=None)
    @given(
        st.lists(any_rule, min_size=1, max_size=6),
        stores(),
        st.sampled_from(["seminaive", "naive"]),
    )
    def test_counters_and_rounds_match(self, program, store, strategy):
        facts = [
            Rule(atom)
            for atom in store.iter_atoms()
            if atom.pred in EDB
        ]
        program = facts + program
        expected_store, expected = oracle_evaluate(program, strategy)
        with obs.capture("kernel"):
            result = evaluate(program, strategy=strategy)
        metrics = result.metrics
        assert result.store.same_facts(expected_store)
        assert metrics.rule_firings == expected.rule_firings
        assert [s.rounds for s in metrics.strata] == [s.rounds for s in expected.strata]
        assert metrics.facts_derived == expected.facts_derived
        assert metrics.derived_at == expected.derived_at
