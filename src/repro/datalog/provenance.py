"""Provenance: derivation trees for derived facts.

A mediated answer combines knowledge from several sources, domain-map
axioms and view rules; *why is this fact true?* is the first question a
mediation engineer asks.  :func:`explain` reconstructs a proof tree for
a ground atom from the evaluated model:

* an EDB fact explains itself,
* a derived atom is explained by a rule instance whose positive body
  atoms are recursively explained, whose negative subgoals are justified
  by absence from the model (closed world), and whose builtins are
  checked directly,
* cyclic justifications are rejected (an atom may not support itself),
  so the returned tree is always well-founded.

Reconstruction is top-down over the *already computed* model, so it
never derives anything new; it only arranges existing facts into a
proof.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import EvaluationError
from .ast import AggregateLiteral, Assignment, Atom, Comparison, Literal, Program, Rule
from .engine import evaluate
from .join import _compile, _Stores
from .terms import substitute, term_sort_key


class Derivation:
    """One node of a proof tree.

    `derived_at` is an optional (stratum, round) pair recording when
    the evaluator first derived this atom — filled in from
    :class:`~repro.obs.EvaluationMetrics` when the evaluation ran
    under a tracer (see :func:`explain`'s `metrics` argument).
    """

    def __init__(self, atom, rule=None, children=(), note=None, derived_at=None):
        self.atom = atom
        self.rule = rule
        self.children = list(children)
        self.note = note
        self.derived_at = derived_at

    def annotate(self, metrics):
        """Recursively attach (stratum, round) pairs from an
        :class:`~repro.obs.EvaluationMetrics` record; returns self."""
        if metrics is not None and metrics.derived_at:
            for node in self._walk():
                node.derived_at = metrics.derived_at.get(node.atom)
        return self

    def _walk(self):
        yield self
        for child in self.children:
            yield from child._walk()

    @property
    def is_fact(self):
        return self.rule is not None and self.rule.is_fact

    def depth(self):
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def leaves(self):
        """The EDB facts / builtin checks this proof bottoms out in."""
        if not self.children:
            return [self]
        out = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def format(self, indent=0):
        pad = "  " * indent
        label = str(self.atom)
        if self.note:
            label = "%s   [%s]" % (label, self.note)
        elif self.rule is not None and self.rule.is_fact:
            label += "   [fact]"
        elif self.rule is not None:
            label += "   [rule: %s]" % self.rule
        if self.derived_at is not None:
            label += "   (stratum %d, round %d)" % self.derived_at
        lines = [pad + label]
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "Derivation(%s, children=%d)" % (self.atom, len(self.children))


class _Explainer:
    def __init__(self, program, store):
        self.program = program
        self.store = store
        self.rules_by_sig: Dict[Tuple[str, int], List[Rule]] = {}
        for rule in program:
            self.rules_by_sig.setdefault(rule.head.signature, []).append(rule)
        self.memo: Dict[Atom, Derivation] = {}
        self.stores = _Stores(store)
        #: rule -> its body compiled to start from a ground head
        self.joins = {}

    def explain(self, atom, path):
        if atom in self.memo:
            return self.memo[atom]
        if atom in path:
            return None  # no self-supporting proofs
        if not self.store.contains(atom):
            return None
        path = path | {atom}

        candidates = self.rules_by_sig.get(atom.signature, ())
        # facts first: the shortest possible proof
        for rule in candidates:
            if rule.is_fact and rule.head == atom:
                derivation = Derivation(atom, rule)
                self.memo[atom] = derivation
                return derivation
        for rule in candidates:
            if rule.is_fact:
                continue
            derivation = self._try_rule(atom, rule, path)
            if derivation is not None:
                self.memo[atom] = derivation
                return derivation
        return None

    def _try_rule(self, atom, rule, path):
        """The canonical proof of `atom` by `rule`: the first found when
        the rule's solutions are tried in the order of their ground
        positive body atoms under :func:`term_sort_key` — never in set
        iteration order, so the tree is the same in every process."""
        join = self.joins.get(rule)
        if join is None:
            join = self.joins[rule] = _compile(rule.body, lead=rule.head)
        positives = [
            item.atom for item in rule.body
            if isinstance(item, Literal) and item.positive
        ]

        def ground_key(solution):
            return [
                (literal.pred,
                 [term_sort_key(substitute(arg, solution)) for arg in literal.args])
                for literal in positives
            ]

        # tried in key order, so what the memo records is canonical too
        solutions = sorted(
            (
                join.substitution(slots)
                for slots in join.run(self.stores, (atom.args,))
            ),
            key=ground_key,
        )
        for solution in solutions:
            children = self._explain_body(rule.body, solution, path)
            if children is not None:
                return Derivation(atom, rule, children)
        return None

    def _explain_body(self, body, solution, path):
        children: List[Derivation] = []
        for item in body:
            if isinstance(item, Literal):
                ground = item.atom.substitute(solution)
                if item.positive:
                    child = self.explain(ground, path)
                    if child is None:
                        return None
                    children.append(child)
                else:
                    children.append(
                        Derivation(ground, note="absent (closed world)")
                    )
            elif isinstance(item, Comparison):
                children.append(
                    Derivation(item.substitute(solution), note="builtin")
                )
            elif isinstance(item, Assignment):
                children.append(
                    Derivation(item.substitute(solution), note="arithmetic")
                )
            elif isinstance(item, AggregateLiteral):
                children.append(
                    Derivation(item.substitute(solution), note="aggregate")
                )
        return children


def explain(program, atom, result=None, metrics=None):
    """Build a :class:`Derivation` for a ground atom, or None.

    Args:
        program: the program that was (or will be) evaluated.
        atom: the ground atom to explain.
        result: a prior :class:`EvaluationResult` to reuse; evaluated
            fresh when omitted.
        metrics: an :class:`~repro.obs.EvaluationMetrics` whose
            ``derived_at`` map annotates each proof node with the
            (stratum, round) it was first derived in.  Defaults to
            ``result.metrics`` when the evaluation ran under a tracer.
    """
    if not atom.is_ground():
        raise EvaluationError("can only explain ground atoms, got %s" % atom)
    if result is None:
        result = evaluate(program)
    if metrics is None:
        metrics = getattr(result, "metrics", None)
    explainer = _Explainer(program, result.store)
    derivation = explainer.explain(atom, frozenset())
    if derivation is not None:
        derivation.annotate(metrics)
    return derivation
