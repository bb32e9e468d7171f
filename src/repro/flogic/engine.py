"""The F-logic engine facade.

:class:`FLogicEngine` is the deductive engine of the reproduction —
the stand-in for FLORA/FLORID in the paper's prototype.  It is told
Datalog rules (F-logic translated by :func:`translate_rules`, or raw
Datalog), keeps them together with the Table 1 axioms, and answers
F-logic queries.

Value-inheritance axioms are only linked in when some ``*->`` default
exists in the knowledge base: they are the one axiom group that can make
programs non-stratifiable (intentionally — the paper resolves such
programs with the well-founded semantics), so keeping them out of
default-free programs preserves cheap stratified evaluation.

The knowledge base is evaluated once; after that, telling rules and
revising the engine (:meth:`FLogicEngine.revised`) maintain the model
instead of recomputing it, and queries and other additions that leave
it unchanged (:meth:`FLogicEngine.evaluate_with`) continue from it
(``evaluate(..., base=, removed=)``, see
:func:`~repro.datalog.engine.evaluate`).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Sequence

from .. import obs
from ..datalog.ast import Atom, Program, Rule
from ..datalog.engine import EvaluationResult, evaluate
from ..datalog.terms import Const, Term, Var, substitute, term_sort_key
from .ast import FLRule
from .axioms import core_axioms, signature_inheritance_axioms, value_inheritance_axioms
from .parser import parse_fl_body
from .translate import PRED_DEFAULT_VAL, translate_body


class FLogicEngine:
    """An incremental F-logic knowledge base over the Datalog engine."""

    def __init__(self):
        # the told rules, in telling order, with how often each was
        # told: a write copies it and adjusts the counts of its rules
        self._told: Dict[Rule, int] = {}
        # does some told rule state a '*->' default?
        self._defaults = False
        self._result: Optional[EvaluationResult] = None
        # what evaluate() maintains while _result is None: (the model
        # or engine it starts from, rules added, rules removed, whether
        # that model has '*->' defaults), or None for a full evaluation
        self._basis = None
        # one evaluation of the knowledge base, however many threads ask
        self._evaluation_lock = threading.Lock()

    # -- loading knowledge ------------------------------------------------

    def tell_rules(self, rules):
        """Add Datalog :class:`Rule` objects directly."""
        rules = list(rules)
        if not rules:
            return self
        with self._evaluation_lock:
            if self._result is not None:
                self._basis = (self._result, [], [], self._defaults)
                self._result = None
            if self._basis is not None:
                self._basis[1].extend(rules)
            self._count_rules(self._told, rules, ())
        return self

    def _count_rules(self, told, added, removed):
        """Make `told`, adjusted by the rules `added` and `removed`,
        this engine's told rules."""
        for rule in removed:
            count = told.get(rule, 0)
            if count > 1:
                told[rule] = count - 1
            elif count:
                del told[rule]
        for rule in added:
            told[rule] = told.get(rule, 0) + 1
        self._told = told
        if _uses_defaults(removed):
            self._defaults = _uses_defaults(told)
        else:
            self._defaults = self._defaults or _uses_defaults(added)

    def revised(self, added=(), removed=()):
        """A new engine over this one's rules without `removed` (one
        occurrence each) and with `added`.  Its model is maintained
        from this engine's, evaluated when first needed, rather than
        recomputed; this engine stays as it is and must not be told
        more afterwards."""
        added, removed = list(added), list(removed)
        engine = FLogicEngine()
        engine._defaults = self._defaults
        engine._count_rules(dict(self._told), added, removed)
        engine._basis = (self, added, removed, self._defaults)
        return engine

    @property
    def evaluated(self):
        """Is the model of the knowledge base computed?"""
        return self._result is not None

    # -- evaluation ---------------------------------------------------------

    @property
    def rules(self):
        return tuple(
            rule for rule, count in self._told.items() for _ in range(count)
        )

    def _assemble(self, extra_rules=()):
        # a list, not a Program: a rule told twice (two sources stating
        # one fact) stays twice, so retracting one copy keeps the other
        program = list(self.rules)
        program.extend(core_axioms())
        program.extend(signature_inheritance_axioms())
        if self._defaults or _uses_defaults(extra_rules):
            program.extend(value_inheritance_axioms())
        program.extend(extra_rules)
        return program

    def program(self, extra_rules=()):
        """The fully assembled Datalog program the engine would run —
        told rules plus core/inheritance axioms — without evaluating
        anything.  Static analysis (``repro lint``) works on this."""
        return Program(self._assemble(extra_rules=extra_rules))

    def evaluate(self):
        """Evaluate the knowledge base once; later tells and retracts
        maintain the cached model.

        Linking the value-inheritance axioms (the first ``*->``
        default) or unlinking them (retracting the last) changes the
        program's axioms; that change is evaluated from scratch, with
        the reason ``value-inheritance`` on the ``flogic.evaluate`` span
        and in the ``datalog.fallbacks`` counter.
        """
        with self._evaluation_lock:
            if self._result is None:
                basis, self._basis = self._basis, None
                if basis is not None and basis[3] == self._defaults:
                    self._result = self._maintain(*basis[:3])
                else:
                    self._result = self._evaluate_all(
                        None if basis is None else "value-inheritance"
                    )
            return self._result

    def _evaluate_all(self, fallback):
        with obs.span("flogic.evaluate", rules=sum(self._told.values())) as span:
            if fallback is not None:
                span.set(fallback=fallback)
                obs.count("datalog.fallbacks", reason=fallback)
            result = evaluate(self._assemble())
            span.set(facts=len(result.store))
        return result

    @staticmethod
    def _maintain(base, added, removed):
        if isinstance(base, FLogicEngine):
            base = base.evaluate()
        result = evaluate(added, base=base, removed=removed)
        # a told model outlives the writes after it: bound its chain
        result.store = result.store.folded()
        return result

    def evaluate_with(self, extra_rules):
        """The model of the knowledge base plus `extra_rules` (Datalog
        :class:`Rule` objects), which are not told: the cached
        :meth:`evaluate` result is continued, not recomputed, and stays
        as it is.  Only `extra_rules` are checked for safety.  See
        :func:`~repro.datalog.engine.evaluate` (its `base`) for when the
        whole program is evaluated instead.
        """
        extra = list(extra_rules)
        base = self.evaluate()
        if not self._defaults and _uses_defaults(extra):
            # the first '*->' default links the value-inheritance axioms
            extra.extend(value_inheritance_axioms())
        return evaluate(extra, base=base)

    @property
    def store(self):
        return self.evaluate().store

    # -- queries ----------------------------------------------------------

    def ask(self, query_text, extra_rules=()):
        """Answer an F-logic query conjunction.

        Returns a deterministically ordered list of bindings (dicts from
        variable name to Python value / term), one per answer.  Example::

            engine.ask("X : neuron[has -> C]")

        `extra_rules` (Datalog :class:`Rule` objects, e.g. lazily
        fetched facts) join this one query without being told, as in
        :meth:`evaluate_with`.
        """
        with obs.span("flogic.ask", query=query_text) as ask_span:
            fl_items = parse_fl_body(query_text)
            body = translate_body(fl_items)
            answer_vars = sorted(
                {
                    v
                    for item in body
                    for v in item.variables()
                    if not v.is_anonymous and not v.name.startswith("_fl")
                },
                key=lambda v: v.name,
            )
            goal = Atom("_query", tuple(answer_vars))
            query_rule = Rule(goal, tuple(body))
            result = self.evaluate_with(
                list(extra_rules) + [query_rule]
            )
            ask_span.set(answers=len(list(result.store.rows(goal.signature))))
        bindings = []
        for args in result.store.rows(goal.signature):
            binding = {}
            for variable, value in zip(answer_vars, args):
                binding[variable.name] = (
                    value.value if isinstance(value, Const) else value
                )
            bindings.append(binding)
        bindings.sort(
            key=lambda b: [
                (name, _sort_key(value)) for name, value in sorted(b.items())
            ]
        )
        return bindings

    def holds(self, query_text):
        """True when the query has at least one answer."""
        return bool(self.ask(query_text))

    def explain(self, query_text):
        """A derivation tree for one ground F-logic fact, or None.

        The query must translate to a single ground atom, e.g.
        ``"p1 : neuron"`` or ``"p1[age -> 12]"``.
        """
        from ..datalog.ast import Literal
        from ..datalog.provenance import explain as datalog_explain

        fl_items = parse_fl_body(query_text)
        body = translate_body(fl_items)
        if len(body) != 1 or not isinstance(body[0], Literal):
            raise ValueError(
                "explain() takes a single positive ground fact, got %r"
                % query_text
            )
        atom = body[0].atom
        if not atom.is_ground():
            raise ValueError("explain() needs a ground fact, got %s" % atom)
        result = self.evaluate()
        return datalog_explain(result.program, atom, result=result)

    # -- introspection ------------------------------------------------------

    def classes(self):
        """All known classes (members of the metaclass)."""
        return sorted(
            {
                args[0].value
                for args in self.store.rows(("class", 1))
                if isinstance(args[0], Const)
            },
            key=str,
        )


def _uses_defaults(rules):
    return any(rule.head.pred == PRED_DEFAULT_VAL for rule in rules)


def _sort_key(value):
    if isinstance(value, Term):
        return term_sort_key(value)
    return (0, type(value).__name__, repr(value))
