"""The F-logic engine facade.

:class:`FLogicEngine` is the deductive engine of the reproduction —
the stand-in for FLORA/FLORID in the paper's prototype.  It accepts
knowledge in F-logic syntax (or raw Datalog), maintains the translated
rule base together with the Table 1 axioms, and answers queries.

Value-inheritance axioms are only linked in when some ``*->`` default
exists in the knowledge base: they are the one axiom group that can make
programs non-stratifiable (intentionally — the paper resolves such
programs with the well-founded semantics), so keeping them out of
default-free programs preserves cheap stratified evaluation.

The knowledge base is evaluated once per `tell`; queries and other
additions that leave it unchanged (:meth:`FLogicEngine.evaluate_with`)
continue from that model (``evaluate(..., base=)``, see
:func:`~repro.datalog.engine.evaluate`).
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Sequence

from .. import obs
from ..datalog.ast import Atom, Program, Rule
from ..datalog.engine import EvaluationResult, evaluate
from ..datalog.parser import parse_program as parse_datalog
from ..datalog.terms import Const, Term, Var, substitute, term_sort_key
from .ast import FLRule
from .axioms import core_axioms, signature_inheritance_axioms, value_inheritance_axioms
from .parser import parse_fl_body, parse_fl_program
from .translate import PRED_DEFAULT_VAL, Translator


class FLogicEngine:
    """An incremental F-logic knowledge base over the Datalog engine."""

    def __init__(self):
        self._rules: List[Rule] = []
        # does some told rule state a '*->' default?
        self._defaults = False
        self._result: Optional[EvaluationResult] = None
        # one evaluation of the knowledge base, however many threads ask
        self._evaluation_lock = threading.Lock()

    # -- loading knowledge ------------------------------------------------

    def tell(self, fl_text):
        """Parse and add F-logic source text."""
        with obs.span("flogic.parse", chars=len(fl_text)) as span:
            fl_rules = parse_fl_program(fl_text)
            span.set(fl_rules=len(fl_rules))
        self.tell_fl_rules(fl_rules)
        return self

    def tell_fl_rules(self, fl_rules):
        """Add already-parsed F-logic rules."""
        fl_rules = list(fl_rules)
        with obs.span("flogic.translate", fl_rules=len(fl_rules)) as span:
            rules = Translator().translate_rules(fl_rules)
            span.set(datalog_rules=len(rules))
        self._add_rules(rules)
        return self

    def tell_datalog(self, text_or_program):
        """Add raw Datalog clauses (text or a Program/rule iterable)."""
        if isinstance(text_or_program, str):
            rules = list(parse_datalog(text_or_program))
        else:
            rules = list(text_or_program)
        self._add_rules(rules)
        return self

    def tell_rules(self, rules):
        """Add Datalog :class:`Rule` objects directly."""
        self._add_rules(list(rules))
        return self

    def add_fact(self, pred, *args):
        """Add one ground Datalog fact."""
        self._add_rules([Rule(Atom(pred, args))])
        return self

    def _add_rules(self, rules):
        if rules:
            self._rules.extend(rules)
            self._defaults = self._defaults or _uses_defaults(rules)
            self._result = None

    # -- evaluation ---------------------------------------------------------

    @property
    def rules(self):
        return tuple(self._rules)

    def _assemble(self, extra_rules=()):
        program = Program()
        program.extend(self._rules)
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
        return self._assemble(extra_rules=extra_rules)

    def evaluate(self):
        """Evaluate the knowledge base; results are cached until the
        next `tell`."""
        with self._evaluation_lock:
            if self._result is None:
                with obs.span("flogic.evaluate", rules=len(self._rules)) as span:
                    self._result = evaluate(self._assemble())
                    span.set(facts=len(self._result.store))
            return self._result

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
            body, aux_rules = Translator().translate_body(fl_items)
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
                list(extra_rules) + list(aux_rules) + [query_rule]
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
        body, aux_rules = Translator().translate_body(fl_items)
        if aux_rules or len(body) != 1 or not isinstance(body[0], Literal):
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

    def instances_of(self, class_name):
        """All direct-or-inherited instances of a class."""
        rows = self.ask("X : '%s'" % class_name)
        return [row["X"] for row in rows]

    def subclasses_of(self, class_name):
        """All subclasses (reflexive-transitive) of a class."""
        rows = self.ask("X :: '%s'" % class_name)
        return [row["X"] for row in rows]


def _uses_defaults(rules):
    return any(rule.head.pred == PRED_DEFAULT_VAL for rule in rules)


def _sort_key(value):
    if isinstance(value, Term):
        return term_sort_key(value)
    return (0, type(value).__name__, repr(value))
