"""The join kernel: rule bodies compiled into plans over ground rows.

Every caller that joins a rule body against a store goes through
:func:`_compile`: saturation and the semi-naive rounds of
:mod:`.engine` (evaluation and continuation), the retraction's
backward search and forward propagation, and :mod:`.provenance`.

A body is compiled into a chain of steps, each a closure that extends
the solution held in a flat slot list and calls the next step once per
extension; the last step emits.  Every variable gets a slot when the
step that binds it is compiled, so which slots are bound before each
step is known then: a stored row is ground, and matching a literal
against it is a few comparisons and slot writes, with no substitution
to copy and no occurs check.  Each literal's index key (its first
bound argument) is chosen then too, and a literal whose arguments are
all bound is a membership test of its relation.  Constants live in
slots as well (filled when a run starts), so a literal's checks compare
one tuple of row values against one tuple of slot values.  Only a
pattern holding a non-ground Struct (a Skolem term) is matched by
general unification.

A run passes its context through the chain: ``ctx[0]`` is where the
join reads (a :class:`_Stores`), ``ctx[1]`` the list it emits into,
``ctx[2]`` the rows of its lead literal and ``ctx[3:]`` each step's
rows or index, looked up on the step's first call in the run (the
stores do not change during a run).  Steps keep no state between runs,
so a compiled join is shared by every evaluation of its rule.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter

from ..errors import EvaluationError
from .ast import AggregateLiteral, Assignment, Atom, Comparison, Literal
from .builtins import compare_values, evaluate_expression
from .store import FactStore
from .terms import Const, Struct, Var, substitute, term_sort_key, unify


class _Stores:
    """Where a join reads: positive literals from `store`, negated
    ones from `negation` (by default `store` too); aggregate subgoals
    read through :meth:`inner`."""

    __slots__ = ("store", "negation")

    def __init__(self, store, negation=None):
        self.store = store
        self.negation = store if negation is None else negation

    def positive(self, sig):
        return self.store

    def negated(self, sig):
        return self.negation

    def inner(self):
        return self


class _ProofStores:
    """Where the retraction's forward propagation reads: positive
    literals of `affected` relations from the `proved` facts, of other
    relations from the old `model`; negation and aggregate subgoals
    from the old model (their relations lose no facts, or the
    retraction falls back)."""

    __slots__ = ("proved", "model", "affected", "_inner")

    def __init__(self, proved, model, affected):
        self.proved = proved
        self.model = model
        self.affected = affected
        self._inner = _Stores(model)

    def positive(self, sig):
        return self.proved if sig in self.affected else self.model

    def negated(self, sig):
        return self.model

    def inner(self):
        return self._inner


class _CompiledRule:
    """A rule with its joins, each compiled on first use: one per delta
    position (the index of a positive body literal read from a delta,
    or None for a join over the whole store), and two that start from
    a ground head (:meth:`backward`, :meth:`proof`)."""

    __slots__ = ("rule", "sig", "deltas", "_joins")

    def __init__(self, rule):
        self.rule = rule
        self.sig = rule.head.signature
        #: (relation, body index) of each positive body literal
        self.deltas = tuple(
            (item.atom.signature, index)
            for index, item in enumerate(rule.body)
            if isinstance(item, Literal) and item.positive
        )
        self._joins = {}

    def join(self, position=None):
        """The join emitting head argument tuples, with the positive
        literal at body index `position` read first, from the rows a
        run is given."""
        join = self._joins.get(position)
        if join is None:
            body = list(self.rule.body)
            lead = None if position is None else body.pop(position).atom
            join = _compile(body, emit=self.rule.head, lead=lead)
            self._joins[position] = join
        return join

    def backward(self):
        """``(join, relations)``: the join that matches the head against
        the rows a run is given and emits, per solution, the argument
        tuples of the positive body literals (whose relations are
        `relations`, in the same order)."""
        entry = self._joins.get("backward")
        if entry is None:
            positives = [
                item.atom
                for item in self.rule.body
                if isinstance(item, Literal) and item.positive
            ]
            entry = self._joins["backward"] = (
                _compile(self.rule.body, emit=tuple(positives), lead=self.rule.head),
                tuple(atom.signature for atom in positives),
            )
        return entry

    def proof(self):
        """The join that matches the head against the rows a run is
        given and emits each solution's slots, read back with
        :meth:`_Join.substitution`."""
        join = self._joins.get("proof")
        if join is None:
            join = self._joins["proof"] = _compile(self.rule.body, lead=self.rule.head)
        return join


class _Join:
    """A rule body compiled for one lead literal and one set of
    variables bound on entry (see :func:`_compile`)."""

    __slots__ = ("_first", "_initial", "_width", "_lead", "_entry", "_final")

    def __init__(self, first, initial, width, lead, entry, final):
        self._first = first
        self._initial = initial
        self._width = width
        #: (relation, (position, constant) or None) of the lead literal
        self._lead = lead
        self._entry = entry
        self._final = final

    def run(self, stores, lead=None, entry=()):
        """What the join emits for each solution against `stores` (a
        :class:`_Stores`), as a list.  `lead` holds the rows the lead
        literal reads: a :class:`FactStore` (a semi-naive delta) or a
        collection of argument tuples.  `entry` gives the values of the
        variables bound on entry, in order."""
        out = []
        ctx = [stores, out, None]
        ctx.extend([None] * self._width)
        if self._lead is not None:
            sig, key = self._lead
            if isinstance(lead, FactStore):
                if key is None:
                    lead = lead.rows(sig)
                else:
                    lead = lead.index(sig, key[0]).get(key[1], ())
            if not lead:
                return out
            ctx[2] = lead
        slots = self._initial.copy()
        for slot, value in zip(self._entry, entry):
            slots[slot] = value
        self._first(ctx, slots)
        return out

    def substitution(self, slots):
        """A solution emitted as a slot list (by a join compiled without
        an atom to emit), as a substitution of the variables bound at
        the end of the body."""
        return {variable: slots[slot] for variable, slot in self._final.items()}


def _compile(body, emit=None, lead=None, bound=()):
    """Compile the rule body `body` (body items) into a :class:`_Join`.

    `lead`, an :class:`Atom`, is matched first against the rows each
    run is given (a delta position's literal, or a head to derive).
    The variables `bound` are bound on entry.  The other items run in
    one greedy order built from what is bound before each of them:
    builtins and negation as soon as their variables are bound; then
    the positive literal with the most bound arguments (a fully bound
    one first: it is a membership test), ties going to the earliest;
    then aggregates; then anything left.

    The join emits per solution `emit`'s argument tuple (an
    :class:`Atom`), the tuple of their argument tuples (a tuple of
    atoms), or with `emit` None a copy of the slot list (see
    :meth:`_Join.substitution`).  A non-ground atom to emit raises
    :class:`EvaluationError`.
    """
    compiler = _Compiler()
    entry = [compiler.bind((variable,)) for variable in dict.fromkeys(bound)]
    steps = []
    lead_key = None
    if lead is not None:
        lead_key = next(
            ((position, arg) for position, arg in enumerate(lead.args) if arg.is_ground()),
            None,
        )
        steps.append(compiler.positive(lead, lead=True))
    steps.extend(compiler.body(list(body)))
    first = _chain(steps, compiler.emitter(emit))
    final = None
    if emit is None:
        final = {
            variable: slot
            for variable, slot in compiler.slot_of.items()
            if variable in compiler.bound
        }
    return _Join(
        first,
        compiler.initial,
        compiler.width,
        None if lead is None else (lead.signature, lead_key),
        entry,
        final,
    )


def _chain(steps, last):
    """The first of the steps `steps`, ``(make, params)`` pairs, each
    made by ``make(params, next step)``, and ending in `last`."""
    step = last
    for make, params in reversed(steps):
        step = make(params, step)
    return step


def _unique_variables(term):
    return list(dict.fromkeys(term.variables()))


class _Compiler:
    """The state of one :func:`_compile` at the step being compiled:
    the slots and the bound variables.  Each method compiling a body
    item returns its step as a ``(make, params)`` pair (see
    :func:`_chain`)."""

    def __init__(self):
        #: each slot's value when a run starts: a constant, or None
        self.initial = []
        #: variable -> slot of its latest binding
        self.slot_of = {}
        self.bound = set()
        #: step sources in the run context, after its first three
        self.width = 0
        #: aggregate subgoals around the step (their reads go through
        #: _Stores.inner)
        self.depth = 0

    # -- slots and values ---------------------------------------------

    def bind(self, variables):
        """Give `variables` fresh consecutive slots and mark them
        bound; returns the first slot."""
        start = len(self.initial)
        for variable in variables:
            self.slot_of[variable] = len(self.initial)
            self.initial.append(None)
            self.bound.add(variable)
        return start

    def source(self):
        """A fresh run-context index for a step's rows."""
        self.width += 1
        return 2 + self.width

    def is_bound(self, term):
        if isinstance(term, Var):
            return term in self.bound
        if isinstance(term, Const):
            return True
        return all(variable in self.bound for variable in term.variables())

    def slot(self, term):
        """The slot holding `term`'s value (a constant gets one), or
        None for a non-ground Struct or an unbound variable."""
        if isinstance(term, Var):
            return self.slot_of[term] if term in self.bound else None
        if term.is_ground():
            self.initial.append(term)
            return len(self.initial) - 1
        return None

    def term(self, term):
        """``slots -> term`` under the current bindings (an unbound
        variable stays a variable)."""
        if isinstance(term, Var):
            if term in self.bound:
                return itemgetter(self.slot_of[term])
            return lambda slots: term
        if term.is_ground():
            return lambda slots: term
        return partial(
            _build_struct, term.functor, [self.term(arg) for arg in term.args]
        )

    def row(self, terms):
        """``slots -> tuple`` of `terms` under the current bindings."""
        slots = [self.slot(term) for term in terms]
        if None in slots:
            return partial(_build_row, [self.term(term) for term in terms])
        return _slots_row(slots)

    def matcher(self, pattern):
        """``(value, slots) -> bool``: does the ground `value` match
        `pattern`, binding its unbound variables?"""
        if isinstance(pattern, Var) and pattern not in self.bound:
            return partial(_bind_slot, self.bind((pattern,)))
        if isinstance(pattern, Var) or pattern.is_ground():
            return partial(_same_value, self.term(pattern))
        # a Skolem pattern: general unification against the value
        variables = _unique_variables(pattern)
        before = [(v, self.slot_of[v]) for v in variables if v in self.bound]
        fresh = [v for v in variables if v not in self.bound]
        start = self.bind(fresh)
        after = [(v, start + offset) for offset, v in enumerate(fresh)]
        return partial(_unify_pattern, pattern, before, after)

    # -- body order ---------------------------------------------------

    def body(self, items):
        """The steps of `items`, in the greedy order of :func:`_compile`."""
        steps = []
        while items:
            item = self._next(items)
            if isinstance(item, Comparison) and item.op == "=" and not self._ready(item):
                # what is left of a safe body: equations between unbound
                # terms, which bind nothing any other item reads
                equations = [
                    other
                    for other in items
                    if isinstance(other, Comparison) and other.op == "="
                ]
                for other in equations:
                    items.remove(other)
                steps.append(self.equations(equations))
                continue
            items.remove(item)
            steps.append(self.item(item))
        return steps

    def _next(self, items):
        for item in items:
            if self._ready(item):
                return item
        best, best_score = None, None
        for item in items:
            if isinstance(item, Literal) and item.positive:
                args = item.atom.args
                bound = sum(1 for arg in args if self.is_bound(arg))
                score = (bound == len(args), bound)
                if best is None or score > best_score:
                    best, best_score = item, score
        if best is not None:
            return best
        for item in items:
            if isinstance(item, AggregateLiteral):
                return item
        return items[0]

    def _ready(self, item):
        """Is `item` a filter whose variables are bound?"""
        if isinstance(item, Literal):
            if item.positive:
                return False
            return all(
                v in self.bound or v.is_anonymous for v in item.variables()
            )
        if isinstance(item, Comparison):
            if item.op == "=":
                return self.is_bound(item.left) or self.is_bound(item.right)
            return self.is_bound(item)
        if isinstance(item, Assignment):
            return self.is_bound(item.expr)
        return False

    def item(self, item):
        if isinstance(item, Literal):
            if item.positive:
                return self.positive(item.atom)
            return self.negative(item.atom)
        if isinstance(item, Comparison):
            return self.comparison(item)
        if isinstance(item, Assignment):
            return self.assignment(item)
        if isinstance(item, AggregateLiteral):
            return self.aggregate(item)
        raise EvaluationError("unsupported body item %r" % (item,))

    # -- steps --------------------------------------------------------

    def positive(self, atom, lead=False):
        sig = atom.signature
        checks, fresh, repeats, skolems = [], [], [], []
        firsts = set()
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Var) and arg not in self.bound:
                if arg in firsts:
                    repeats.append((position, arg))
                else:
                    firsts.add(arg)
                    fresh.append((position, arg))
            elif isinstance(arg, Var) or arg.is_ground():
                checks.append((position, self.slot(arg)))
            else:
                skolems.append((position, arg))
        key = None
        if lead:
            index, source = 2, None
        else:
            index = self.source()
            if not (fresh or repeats or skolems):
                # every argument is bound: a membership test
                return _member_step, (
                    index,
                    (sig, None, self.depth, False),
                    _slots_row([slot for _position, slot in checks]),
                )
            if checks:
                key_position, key = checks.pop(0)
                source = (sig, key_position, self.depth, False)
            else:
                source = (sig, None, self.depth, False)
        check = None
        if checks:
            check = (
                itemgetter(*[position for position, _slot in checks]),
                itemgetter(*[slot for _position, slot in checks]),
            )
        start = self.bind([variable for _position, variable in fresh])
        positions = [position for position, _variable in fresh]
        extra = tuple(
            (position, self.matcher(term)) for position, term in repeats + skolems
        )
        return _rows_step, (index, source, key, check, start, positions, extra)

    def negative(self, atom):
        args = self.row(atom.args)
        if not self.is_bound(atom):
            return _raise_step, partial(
                _unbound_negation, atom.pred, args
            )
        return _member_step, (
            self.source(), (atom.signature, None, self.depth, True), args
        )

    def comparison(self, item):
        left, right = self.term(item.left), self.term(item.right)
        left_bound, right_bound = self.is_bound(item.left), self.is_bound(item.right)
        if item.op != "=":
            if left_bound and right_bound:
                return _compare_step, (item.op, left, right)
            return _raise_step, partial(_unbound_comparison, item, left, right)
        if left_bound and right_bound:
            return _test_step, (partial(_same_value, right), left)
        if left_bound:
            return _test_step, (self.matcher(item.right), left)
        return _test_step, (self.matcher(item.left), right)

    def equations(self, items):
        """``=`` items with unbound variables on both sides: they hold
        when they unify together; their variables stay unbound."""
        variables = dict.fromkeys(v for item in items for v in item.variables())
        before = [(v, self.slot_of[v]) for v in variables if v in self.bound]
        return _unify_step, (items, before)

    def assignment(self, item):
        inputs = [
            (v, self.slot_of[v])
            for v in _unique_variables(item.expr)
            if v in self.bound
        ]
        return _assign_step, (item.expr, inputs, self.matcher(item.target))

    def aggregate(self, agg):
        found = self.source()
        bound, slot_of = set(self.bound), dict(self.slot_of)
        self.depth += 1
        inner = self.body(list(agg.body))
        self.depth -= 1
        collect = partial(
            _collect,
            found,
            self.row(agg.group_by),
            self.term(agg.value),
            all(self.is_bound(term) for term in agg.group_by),
            self.is_bound(agg.value),
        )
        first = _chain(inner, collect)
        # what the subgoal binds stays inside it
        self.bound, self.slot_of = bound, slot_of
        groups = tuple(self.matcher(term) for term in agg.group_by)
        return _aggregate_step, (
            found, first, agg.func, groups, self.matcher(agg.result)
        )

    def emitter(self, emit):
        if emit is None:
            return _emit_slots
        atoms = (emit,) if isinstance(emit, Atom) else emit
        for atom in atoms:
            if not self.is_bound(atom):
                return partial(_unbound_head, atom.pred, self.row(atom.args))
        if isinstance(emit, Atom):
            return partial(_emit_row, self.row(emit.args))
        return partial(_emit_rows, [self.row(atom.args) for atom in atoms])


# Values under a solution's bindings.  Every value-building function
# takes the slot list last, as a partial's trailing argument.


def _build_struct(functor, parts, slots):
    return Struct(functor, tuple([part(slots) for part in parts]))


def _build_row(parts, slots):
    return tuple([part(slots) for part in parts])


def _slots_row(slots):
    """``slots -> tuple`` of the values in the slots `slots`."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        return partial(_one_row, slots[0])
    return _empty_row


def _one_row(slot, slots):
    return (slots[slot],)


def _empty_row(slots):
    return ()


# Matchers: (value, slots) -> does the ground value match?


def _bind_slot(slot, value, slots):
    slots[slot] = value
    return True


def _same_value(term, value, slots):
    return term(slots) == value


def _unify_pattern(pattern, before, after, value, slots):
    subst = unify(pattern, value, {variable: slots[slot] for variable, slot in before})
    if subst is None:
        return False
    for variable, slot in after:
        slots[slot] = substitute(variable, subst)
    return True


# Steps: each make(params, nxt) returns step(ctx, slots), which calls
# nxt(ctx, slots) once per extension of the solution in `slots`.


def _resolve(stores, source):
    """The rows (or, with a position, the index) a step reads."""
    sig, position, depth, negated = source
    for _ in range(depth):
        stores = stores.inner()
    if negated:
        return stores.negated(sig).rows(sig)
    store = stores.positive(sig)
    return store.rows(sig) if position is None else store.index(sig, position)


def _rows_step(params, nxt):
    """A positive literal: for each row of its relation (of the bucket
    of its index at the value of the `key` slot, when it has a bound
    argument) that agrees with the bound arguments and the `extra`
    matchers, bind the fresh variables' slots and go on."""
    index, source, key, check, start, positions, extra = params
    row_values, slot_values = check if check is not None else (None, None)
    packed = (
        index,
        source,
        key,
        row_values,
        slot_values,
        start,
        start + len(positions),
        itemgetter(*positions) if len(positions) > 1 else None,
        positions[0] if len(positions) == 1 else None,
        extra,
    )

    def step(ctx, slots):
        index, source, key, row_values, slot_values, start, stop, bind, at, extra = (
            packed
        )
        rows = ctx[index]
        if rows is None:
            rows = ctx[index] = _resolve(ctx[0], source)
        if key is not None:
            rows = rows.get(slots[key])
            if rows is None:
                return
        expected = slot_values(slots) if slot_values is not None else None
        for row in rows:
            if row_values is not None and row_values(row) != expected:
                continue
            if bind is not None:
                slots[start:stop] = bind(row)
            elif at is not None:
                slots[start] = row[at]
            if extra and not all(match(row[p], slots) for p, match in extra):
                continue
            nxt(ctx, slots)

    return step


def _member_step(params, nxt):
    """A fully bound literal, positive or negated: a membership test."""
    index, source, args = params
    negated = source[3]

    def step(ctx, slots):
        rows = ctx[index]
        if rows is None:
            rows = ctx[index] = _resolve(ctx[0], source)
        if (args(slots) in rows) is not negated:
            nxt(ctx, slots)

    return step


def _compare_step(params, nxt):
    op, left, right = params

    def step(ctx, slots):
        a, b = left(slots), right(slots)
        if compare_values(
            op,
            a.value if isinstance(a, Const) else a,
            b.value if isinstance(b, Const) else b,
        ):
            nxt(ctx, slots)

    return step


def _test_step(params, nxt):
    """``=`` with a bound side: match the other side against its value."""
    match, value = params

    def step(ctx, slots):
        if match(value(slots), slots):
            nxt(ctx, slots)

    return step


def _unify_step(params, nxt):
    items, before = params

    def step(ctx, slots):
        subst = {variable: slots[slot] for variable, slot in before}
        for item in items:
            subst = unify(item.left, item.right, subst)
            if subst is None:
                return
        nxt(ctx, slots)

    return step


def _assign_step(params, nxt):
    expr, inputs, match = params

    def step(ctx, slots):
        value = evaluate_expression(
            expr, {variable: slots[slot] for variable, slot in inputs}
        )
        if match(Const(value), slots):
            nxt(ctx, slots)

    return step


def _aggregate_step(params, nxt):
    """Run the subgoal, group its (key, value) pairs and, per group in
    key order, bind the grouping terms and the result."""
    found, first, func, groups, result = params

    def step(ctx, slots):
        solutions = ctx[found] = []
        first(ctx, slots)
        grouped = {}
        for key, value in solutions:
            grouped.setdefault(key, []).append(value)
        for key, values in sorted(grouped.items(), key=_group_order):
            total = Const(_apply_aggregate(func, values))
            if all(
                match(term, slots) for match, term in zip(groups, key)
            ) and result(total, slots):
                nxt(ctx, slots)

    return step


def _group_order(item):
    return tuple(term_sort_key(term) for term in item[0])


def _collect(found, key, value, key_bound, value_bound, ctx, slots):
    """The end of an aggregate subgoal: record its key and value."""
    if not value_bound:
        raise EvaluationError("aggregate value %s not ground" % value(slots))
    if not key_bound:
        raise EvaluationError(
            "aggregate grouping %s not ground"
            % ", ".join(str(term) for term in key(slots))
        )
    ctx[found].append((key(slots), value(slots)))


def _raise_step(fail, nxt):
    """A step that cannot run (its variables are not bound): `fail`
    raises when a solution reaches it."""
    return fail


def _unbound_negation(pred, args, ctx, slots):
    raise EvaluationError(
        "negated subgoal %s not ground at evaluation time" % Atom(pred, args(slots))
    )


def _unbound_comparison(item, left, right, ctx, slots):
    raise EvaluationError(
        "comparison %s has unbound arguments (%s, %s)"
        % (item, left(slots), right(slots))
    )


def _unbound_head(pred, args, ctx, slots):
    raise EvaluationError(
        "derived non-ground fact %s" % Atom(pred, args(slots))
    )


def _emit_row(args, ctx, slots):
    ctx[1].append(args(slots))


def _emit_rows(rows, ctx, slots):
    ctx[1].append(tuple([row(slots) for row in rows]))


def _emit_slots(ctx, slots):
    ctx[1].append(slots.copy())


def _apply_aggregate(func, values):
    if func == "count":
        return len(set(values))
    numbers = []
    for v in values:
        if not isinstance(v, Const) or isinstance(v.value, str):
            raise EvaluationError(
                "aggregate %s over non-numeric value %s" % (func, v)
            )
        numbers.append(v.value)
    if not numbers:
        raise EvaluationError("aggregate %s over empty group" % func)
    if func == "sum":
        return _sum(numbers)
    if func == "min":
        return min(numbers)
    if func == "max":
        return max(numbers)
    if func == "avg":
        return _sum(numbers) / len(numbers)
    raise EvaluationError("unknown aggregate %r" % func)


def _sum(numbers):
    """The correctly rounded sum of float values, whatever order the
    store yields them in (a maintained model's rows come in another
    order than a fresh one's); integers add exactly."""
    if any(isinstance(number, float) for number in numbers):
        return math.fsum(numbers)
    return sum(numbers)
