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

from typing import Dict, List

from ..errors import EvaluationError
from .ast import AggregateLiteral, Assignment, Atom, Comparison, Literal, Rule
from .engine import _Plan, evaluate
from .join import _Stores
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
    """Proof search over an evaluated model: its stated facts come from
    the model's stated-fact index, its proper rules per relation (in
    program order) and their compiled joins from the model's plan."""

    def __init__(self, result):
        self.store = result.store
        self.stated = result.stated
        self.rules = _Plan.of(result).by_head()
        self.memo: Dict[Atom, Derivation] = {}
        self.stores = _Stores(result.store)

    def explain(self, atom, path):
        if atom in self.memo:
            return self.memo[atom]
        if atom in path:
            return None  # no self-supporting proofs
        if not self.store.contains(atom):
            return None
        path = path | {atom}

        # facts first: the shortest possible proof
        if (atom.signature, atom.args) in self.stated:
            derivation = Derivation(atom, Rule(atom))
            self.memo[atom] = derivation
            return derivation
        for compiled in self.rules.get(atom.signature, ()):
            derivation = self._try_rule(atom, compiled, path)
            if derivation is not None:
                self.memo[atom] = derivation
                return derivation
        return None

    def _try_rule(self, atom, compiled, path):
        """The canonical proof of `atom` by the compiled rule
        `compiled`: the first found when the rule's solutions are tried
        in the order of their ground positive body atoms under
        :func:`term_sort_key` — never in set iteration order, so the
        tree is the same in every process."""
        rule = compiled.rule
        join = compiled.proof()
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
        result: a prior :class:`EvaluationResult` of `program` to reuse
            (its stated facts, rules and compiled joins are read from
            it); evaluated fresh when omitted.
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
    explainer = _Explainer(result)
    derivation = explainer.explain(atom, frozenset())
    if derivation is not None:
        derivation.annotate(metrics)
    return derivation
