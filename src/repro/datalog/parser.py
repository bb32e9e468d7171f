"""Parser for the textual Datalog dialect, and the rule-language core
the F-logic parser (:mod:`repro.flogic.parser`) builds on.

Grammar (informal)::

    program     := (clause)*
    clause      := atom [ ':-' body ] '.'
    body        := item (',' item)*
    item        := 'not' atom
                 | VAR 'is' expr
                 | term OP term             OP in = != < <= > >=
                 | VAR '=' AGG '{' term ['[' term (',' term)* ']']
                                  ';' body '}'
                 | atom
    atom        := SYMBOL [ '(' term (',' term)* ')' ]
    term        := VAR | NUMBER | STRING | SYMBOL [ '(' term* ')' ]
    expr        := arithmetic over + - * / // mod with parentheses

Comments run from ``%`` to end of line.  Symbols are lowercase
identifiers or single-quoted strings; variables start with an uppercase
letter or underscore.  Double- and single-quoted literals both become
string constants.

Both rule languages share one tokenizer: it also recognizes the F-logic
punctuation ``:``, ``::`` and the frame arrows, which the Datalog
grammar rejects at the offending token.
"""

from __future__ import annotations

import re

from ..errors import ParseError
from .ast import (
    AGGREGATE_FUNCS,
    COMPARISON_OPS,
    AggregateLiteral,
    Assignment,
    Atom,
    Comparison,
    Literal,
    Program,
    Rule,
)
from .terms import Const, Struct, Var

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<dqstring>"(?:[^"\\]|\\.)*")
  | (?P<sqstring>'(?:[^'\\]|\\.)*')
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>:-|::|:|\*->|->>|->|=>>|=>|!=|<=|>=|=|<|>|\(|\)|\{|\}|\[|\]|,|;|\.|\+|-|\*|//|/)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"not", "is", "mod"}

#: punctuation only the F-logic grammar accepts
_FLOGIC_PUNCT = frozenset((":", "::", "->", "->>", "=>", "=>>", "*->"))


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return "_Token(%r, %r, %d)" % (self.kind, self.value, self.pos)


def _unescape(body):
    return body.replace("\\\\", "\\").replace("\\'", "'").replace('\\"', '"')


class RuleParser:
    """The grammar both rule languages share: tokens, terms, bodies,
    ``is`` arithmetic, comparisons and aggregates.

    A language subclass supplies its clauses and its two body-item
    hooks, :meth:`parse_negation` and :meth:`parse_goal`, and sets the
    class attributes below.
    """

    #: the exception every syntax error raises
    error_class = ParseError
    #: node built for ``Var = func{...}``
    aggregate_class = AggregateLiteral
    #: name prefix of the fresh variables standing for ``_``
    fresh_prefix = "_anon"

    def __init__(self, text):
        self.text = text
        self.tokens = self._tokenize(text)
        self.index = 0
        self._fresh_counter = 0

    def _tokenize(self, text):
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise self.error_class(
                    "unexpected character %r" % text[pos], text=text, position=pos
                )
            kind = m.lastgroup
            value = m.group()
            if kind == "ws" or kind == "comment":
                pos = m.end()
                continue
            if kind == "number":
                number = float(value) if "." in value else int(value)
                tokens.append(_Token("number", number, pos))
            elif kind == "dqstring" or kind == "sqstring":
                tokens.append(_Token("string", _unescape(value[1:-1]), pos))
            elif kind == "name":
                if value in _KEYWORDS:
                    tokens.append(_Token(value, value, pos))
                elif value[0].isupper() or value[0] == "_":
                    tokens.append(_Token("var", value, pos))
                else:
                    tokens.append(_Token("symbol", value, pos))
            else:
                tokens.append(_Token(value, value, pos))
            pos = m.end()
        tokens.append(_Token("eof", None, pos))
        return tokens

    # -- token helpers ------------------------------------------------

    def peek(self, offset=0):
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def next(self):
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def expect(self, kind):
        token = self.next()
        if token.kind != kind:
            self.error("expected %r but found %r" % (kind, token.value), token)
        return token

    def error(self, message, token=None):
        """Raise a syntax error at `token` (default: the next one)."""
        if token is None:
            token = self.peek()
        raise self.error_class(message, text=self.text, position=token.pos)

    def expect_end(self, what):
        if self.peek().kind != "eof":
            self.error("trailing input after %s" % what)

    def fresh_var(self):
        self._fresh_counter += 1
        return Var("%s%d" % (self.fresh_prefix, self._fresh_counter))

    # -- bodies -------------------------------------------------------

    def parse_body(self, stop_kinds):
        items = [self.parse_body_item()]
        while self.peek().kind == ",":
            self.next()
            items.append(self.parse_body_item())
        if self.peek().kind not in stop_kinds:
            self.error("expected %s after body" % " or ".join(stop_kinds))
        return tuple(items)

    def parse_body_item(self):
        token = self.peek()
        if token.kind == "not":
            self.next()
            return self.parse_negation()
        if token.kind == "var":
            nxt = self.peek(1)
            if nxt.kind == "is":
                variable = Var(self.next().value)
                self.next()  # 'is'
                return Assignment(variable, self.parse_expression())
            if nxt.kind == "=" and self._peek_aggregate(2):
                variable = Var(self.next().value)
                self.next()  # '='
                return self.parse_aggregate(variable)
        return self.parse_goal()

    def parse_negation(self):
        """The body item after ``not``: F-logic bodies have none."""
        self.error(
            "'not' is not allowed in an F-logic body; "
            "state negation in a Datalog rule",
            self.tokens[self.index - 1],
        )

    def parse_comparison(self, left):
        """``left OP term`` when a comparison operator follows, else
        None (nothing consumed)."""
        if self.peek().kind not in COMPARISON_OPS:
            return None
        op = self.next().kind
        return Comparison(op, left, self.parse_term())

    def _peek_aggregate(self, offset):
        token = self.peek(offset)
        return (
            token.kind == "symbol"
            and token.value in AGGREGATE_FUNCS
            and self.peek(offset + 1).kind == "{"
        )

    def parse_aggregate(self, result_var):
        func = self.expect("symbol").value
        if func not in AGGREGATE_FUNCS:
            self.error("unknown aggregate function %r" % func)
        self.expect("{")
        value = self.parse_term()
        group_by = ()
        if self.peek().kind == "[":
            self.next()
            group_by = self.parse_term_list("]")
        self.expect(";")
        body = self.parse_body(stop_kinds=("}",))
        self.expect("}")
        return self.aggregate_class(func, result_var, value, group_by, body)

    # -- terms --------------------------------------------------------

    def parse_term(self):
        token = self.next()
        if token.kind == "var":
            if token.value == "_":
                return self.fresh_var()
            return Var(token.value)
        if token.kind == "number" or token.kind == "string":
            return Const(token.value)
        if token.kind == "symbol":
            if self.peek().kind == "(":
                self.next()
                return Struct(token.value, self.parse_term_list(")"))
            return Const(token.value)
        self.error("expected a term, found %r" % (token.value,), token)

    def parse_term_list(self, close):
        """``term (',' term)* close``, after the opening bracket."""
        terms = [self.parse_term()]
        while self.peek().kind == ",":
            self.next()
            terms.append(self.parse_term())
        self.expect(close)
        return tuple(terms)

    # -- arithmetic expressions ----------------------------------------

    def parse_expression(self):
        left = self.parse_expr_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            right = self.parse_expr_term()
            left = Struct(op, (left, right))
        return left

    def parse_expr_term(self):
        left = self.parse_expr_factor()
        while self.peek().kind in ("*", "/", "//", "mod"):
            op = self.next().kind
            right = self.parse_expr_factor()
            left = Struct(op, (left, right))
        return left

    def parse_expr_factor(self):
        token = self.peek()
        if token.kind == "(":
            self.next()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if token.kind == "-":
            self.next()
            return Struct("-", (self.parse_expr_factor(),))
        return self.parse_term()


class _Parser(RuleParser):
    def __init__(self, text):
        super().__init__(text)
        for token in self.tokens:
            if token.kind in _FLOGIC_PUNCT:
                self.error("%r is F-logic syntax, not Datalog" % token.value, token)

    def parse_program(self):
        program = Program()
        while self.peek().kind != "eof":
            program.add(self.parse_clause())
        return program

    def parse_clause(self):
        head = self.parse_atom()
        body = ()
        if self.peek().kind == ":-":
            self.next()
            body = self.parse_body(stop_kinds=(".",))
        self.expect(".")
        return Rule(head, body)

    def parse_negation(self):
        return Literal(self.parse_atom(), positive=False)

    def parse_goal(self):
        # Either a comparison or a plain atom: parse a term first.
        start = self.index
        comparison = self.parse_comparison(self.parse_term())
        if comparison is not None:
            return comparison
        # Not a comparison: re-parse from `start` as an atom.
        self.index = start
        return Literal(self.parse_atom())

    def parse_atom(self):
        token = self.next()
        if token.kind not in ("symbol", "string"):
            self.error("expected predicate name, found %r" % (token.value,), token)
        args = ()
        if self.peek().kind == "(":
            self.next()
            args = self.parse_term_list(")")
        return Atom(token.value, args)


def parse_program(text):
    """Parse a full program; returns :class:`Program`."""
    return _Parser(text).parse_program()


def parse_atom(text):
    """Parse a single atom (used for goals/queries)."""
    parser = _Parser(text)
    atom = parser.parse_atom()
    parser.expect_end("atom")
    return atom
