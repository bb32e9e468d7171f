"""Parser for the F-logic fragment.

Grammar (informal)::

    program  := (rule)*
    rule     := heads [ ':-' body ] '.'
    heads    := item (',' item)*            -- molecules/predicates only
    body     := bitem (',' bitem)*
    bitem    := 'not' (bitem | '(' body ')')
              | VAR 'is' expr
              | VAR '=' AGG '{' term [groups] ';' body '}'
              | molecule-or-comparison
    molecule := [subject] tag? frame?
    subject  := term
    tag      := (':' | '::') term
    frame    := '[' spec (';' spec)* ']'
    spec     := term ARROW (term | '{' term (',' term)* '}')
    ARROW    := -> | ->> | => | =>> | *->

A molecule with no subject (``: R[A -> X]``) denotes an anonymous
instance; the parser substitutes a fresh variable.  Plain predicates
``p(X, Y)`` are the degenerate molecule whose subject happens to be a
compound term in *predicate position*; the parser distinguishes them by
the absence of tags and frames.

Tokens, terms, ``is`` arithmetic, comparisons and aggregates are the
Datalog grammar's (:class:`~repro.datalog.parser.RuleParser`):
comparisons and assignments parse straight to the Datalog
:class:`~repro.datalog.ast.Comparison` and
:class:`~repro.datalog.ast.Assignment` nodes.
"""

from __future__ import annotations

from ..datalog.parser import RuleParser
from ..datalog.terms import Const, Struct
from ..errors import FLogicParseError
from .ast import (
    FRAME_ARROWS,
    FLAggregate,
    FLPredicate,
    FLRule,
    MethodSpec,
    Molecule,
)


class _Parser(RuleParser):
    error_class = FLogicParseError
    aggregate_class = FLAggregate
    # ask() leaves variables with this prefix out of its answers
    fresh_prefix = "_fl"

    # -- grammar -------------------------------------------------------

    def parse_program(self):
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self):
        heads = [self.parse_head_item()]
        while self.peek().kind == ",":
            self.next()
            heads.append(self.parse_head_item())
        body = ()
        if self.peek().kind == ":-":
            self.next()
            body = self.parse_body(stop_kinds=(".",))
        self.expect(".")
        return FLRule(tuple(heads), body)

    def parse_head_item(self):
        item = self.parse_body_item()
        if not isinstance(item, (Molecule, FLPredicate)):
            self.error("only molecules and predicates may appear in rule heads")
        return item

    def parse_goal(self):
        """A molecule, a predicate or a comparison."""
        # Anonymous molecule ': R[...]'.
        if self.peek().kind == ":":
            self.next()
            tag = self.parse_term()
            return Molecule(self.fresh_var(), ":", tag, self.parse_frame())

        start = self.index
        subject, was_predicate = self.parse_subject()
        token = self.peek()

        if token.kind in (":", "::"):
            kind = self.next().kind
            tag = self.parse_term()
            return Molecule(subject, kind, tag, self.parse_frame())
        if token.kind == "[":
            return Molecule(subject, None, None, self.parse_frame())
        comparison = self.parse_comparison(subject)
        if comparison is not None:
            return comparison
        # Plain predicate (possibly zero-arity) or bare term used as a
        # 0-ary predicate.
        if was_predicate:
            return FLPredicate(subject.functor, subject.args)
        if isinstance(subject, Const) and isinstance(subject.value, str):
            return FLPredicate(subject.value, ())
        self.index = start
        self.error("expected a molecule, predicate or comparison")

    def parse_subject(self):
        """Parse a molecule subject; returns (term, looked_like_predicate)."""
        token = self.peek()
        if token.kind in ("symbol", "string") and self.peek(1).kind == "(":
            self.next()
            self.next()  # '('
            subject = Struct(token.value, self.parse_term_list(")"))
            # f(X)[m -> v] or f(X) : C treat the compound as a term;
            # bare f(X) in body position is a predicate.
            return subject, self.peek().kind not in (":", "::", "[")
        return self.parse_term(), False

    def parse_frame(self):
        """The frame ``[spec; ...]`` if one follows, else ()."""
        if self.peek().kind != "[":
            return ()
        self.next()
        specs = [self.parse_spec()]
        while self.peek().kind == ";":
            self.next()
            specs.append(self.parse_spec())
        self.expect("]")
        return tuple(specs)

    def parse_spec(self):
        method = self.parse_term()
        arrow_token = self.next()
        if arrow_token.kind not in FRAME_ARROWS:
            self.error(
                "expected a frame arrow, found %r" % (arrow_token.value,), arrow_token
            )
        if self.peek().kind == "{":
            self.next()
            values = self.parse_term_list("}")
        else:
            values = (self.parse_term(),)
        return MethodSpec(method, arrow_token.kind, values)


def parse_fl_program(text):
    """Parse F-logic source text into a list of :class:`FLRule`."""
    return _Parser(text).parse_program()


def parse_fl_body(text):
    """Parse a bare conjunction (used for queries)."""
    parser = _Parser(text)
    body = parser.parse_body(stop_kinds=(".", "eof"))
    if parser.peek().kind == ".":
        parser.next()
    parser.expect_end("query")
    return body
