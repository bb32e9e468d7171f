"""Description-logic expressions and axioms for domain maps.

Definition 1 of the paper gives domain maps a DL semantics with six edge
forms.  This module provides the corresponding expression AST:

=========================  ==========================  ===============
edge (Definition 1)        DL form                     here
=========================  ==========================  ===============
``C -> D``                 ``C v D``                   Sub(C, Named D)
``C -r-> D``               ``C v Exists r.D``          Sub(C, Exists(r, D))
``C -ALL:r-> D``           ``C v Forall r.D``          Sub(C, Forall(r, D))
``AND -> {Ci}``            ``C1 u ... u Cn``           Conj([...])
``OR -> {Ci}``             ``C1 t ... t Cn``           Disj([...])
``C -=-> D``               ``C == D``                  Eqv(C, D)
=========================  ==========================  ===============

plus a small concrete syntax so domain maps can be written the way the paper
writes them::

    Spiny_Neuron  = Neuron & exists has.Spine
    Purkinje_Cell < Spiny_Neuron
    Dendrite      < exists has.Branch
    MyNeuron      < Medium_Spiny_Neuron & exists proj.GPE & all has.MyDendrite

(`<` is subsumption ``v``, `=` is equivalence ``==``; names with spaces
are single-quoted.)
"""

from __future__ import annotations

import re
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..errors import DomainMapError, ParseError


class ConceptExpr:
    """Abstract base of concept expressions."""

    __slots__ = ()


class Named(ConceptExpr):
    """A concept name."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def named_concepts(self):
        yield self.name

    def roles(self):
        return iter(())

    def __eq__(self, other):
        return isinstance(other, Named) and self.name == other.name

    def __hash__(self):
        return hash(("Named", self.name))

    def __repr__(self):
        return "Named(%r)" % self.name

    def __str__(self):
        return _quote(self.name)


class Conj(ConceptExpr):
    """Conjunction ``C1 u ... u Cn`` (an AND node in the drawn map)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        flattened: List[ConceptExpr] = []
        for part in parts:
            if isinstance(part, Conj):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if len(flattened) < 2:
            raise DomainMapError("conjunction needs at least two parts")
        self.parts = tuple(flattened)

    def named_concepts(self):
        for part in self.parts:
            yield from part.named_concepts()

    def roles(self):
        for part in self.parts:
            yield from part.roles()

    def __eq__(self, other):
        return isinstance(other, Conj) and self.parts == other.parts

    def __hash__(self):
        return hash(("Conj", self.parts))

    def __repr__(self):
        return "Conj(%r)" % (self.parts,)

    def __str__(self):
        return " & ".join(_paren(p) for p in self.parts)


class Disj(ConceptExpr):
    """Disjunction ``C1 t ... t Cn`` (an OR node in the drawn map)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        flattened: List[ConceptExpr] = []
        for part in parts:
            if isinstance(part, Disj):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if len(flattened) < 2:
            raise DomainMapError("disjunction needs at least two parts")
        self.parts = tuple(flattened)

    def named_concepts(self):
        for part in self.parts:
            yield from part.named_concepts()

    def roles(self):
        for part in self.parts:
            yield from part.roles()

    def __eq__(self, other):
        return isinstance(other, Disj) and self.parts == other.parts

    def __hash__(self):
        return hash(("Disj", self.parts))

    def __repr__(self):
        return "Disj(%r)" % (self.parts,)

    def __str__(self):
        return " | ".join(_paren(p) for p in self.parts)


class Exists(ConceptExpr):
    """Existential restriction ``exists r.C`` (an (ex) edge)."""

    __slots__ = ("role", "concept")

    def __init__(self, role, concept):
        self.role = role
        self.concept = concept if isinstance(concept, ConceptExpr) else Named(concept)

    def named_concepts(self):
        yield from self.concept.named_concepts()

    def roles(self):
        yield self.role
        yield from self.concept.roles()

    def __eq__(self, other):
        return (
            isinstance(other, Exists)
            and self.role == other.role
            and self.concept == other.concept
        )

    def __hash__(self):
        return hash(("Exists", self.role, self.concept))

    def __repr__(self):
        return "Exists(%r, %r)" % (self.role, self.concept)

    def __str__(self):
        return "exists %s.%s" % (_quote(self.role), _paren(self.concept))


class Forall(ConceptExpr):
    """Value restriction ``all r.C`` (an (all) edge)."""

    __slots__ = ("role", "concept")

    def __init__(self, role, concept):
        self.role = role
        self.concept = concept if isinstance(concept, ConceptExpr) else Named(concept)

    def named_concepts(self):
        yield from self.concept.named_concepts()

    def roles(self):
        yield self.role
        yield from self.concept.roles()

    def __eq__(self, other):
        return (
            isinstance(other, Forall)
            and self.role == other.role
            and self.concept == other.concept
        )

    def __hash__(self):
        return hash(("Forall", self.role, self.concept))

    def __repr__(self):
        return "Forall(%r, %r)" % (self.role, self.concept)

    def __str__(self):
        return "all %s.%s" % (_quote(self.role), _paren(self.concept))


class Axiom:
    """Abstract base of DL axioms."""

    __slots__ = ()


class Sub(Axiom):
    """Subsumption ``lhs v rhs``; lhs is usually a Named concept."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs if isinstance(lhs, ConceptExpr) else Named(lhs)
        self.rhs = rhs if isinstance(rhs, ConceptExpr) else Named(rhs)

    def __eq__(self, other):
        return isinstance(other, Sub) and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self):
        return hash(("Sub", self.lhs, self.rhs))

    def __repr__(self):
        return "Sub(%r, %r)" % (self.lhs, self.rhs)

    def __str__(self):
        return "%s < %s" % (self.lhs, self.rhs)


class Eqv(Axiom):
    """Equivalence ``lhs == rhs`` (necessary and sufficient conditions)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs if isinstance(lhs, ConceptExpr) else Named(lhs)
        self.rhs = rhs if isinstance(rhs, ConceptExpr) else Named(rhs)

    def __eq__(self, other):
        return isinstance(other, Eqv) and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self):
        return hash(("Eqv", self.lhs, self.rhs))

    def __repr__(self):
        return "Eqv(%r, %r)" % (self.lhs, self.rhs)

    def __str__(self):
        return "%s = %s" % (self.lhs, self.rhs)


def _quote(name):
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        return name
    return "'%s'" % name.replace("'", "\\'")


def _paren(expr):
    if isinstance(expr, (Conj, Disj)):
        return "(%s)" % expr
    return str(expr)


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------


_DL_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<sqstring>'(?:[^'\\]|\\.)*')
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct><|=|&|\||\.|\(|\))
    """,
    re.VERBOSE,
)

_DL_KEYWORDS = {"exists", "all"}


def _dl_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _DL_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], text=text, position=pos)
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            pos = m.end()
            continue
        value = m.group()
        if kind == "sqstring":
            tokens.append(("name", value[1:-1].replace("\\'", "'"), pos))
        elif kind == "name":
            if value in _DL_KEYWORDS:
                tokens.append((value, value, pos))
            else:
                tokens.append(("name", value, pos))
        else:
            tokens.append((value, value, pos))
        pos = m.end()
    tokens.append(("eof", None, pos))
    return tokens


class _DLParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _dl_tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        token = self.tokens[self.index]
        if token[0] != "eof":
            self.index += 1
        return token

    def expect(self, kind):
        token = self.next()
        if token[0] != kind:
            raise ParseError(
                "expected %r but found %r" % (kind, token[1]),
                text=self.text,
                position=token[2],
            )
        return token

    def parse_axiom(self):
        lhs = self.parse_expr()
        op = self.next()
        if op[0] not in ("<", "="):
            raise ParseError(
                "expected '<' or '=' between concept expressions",
                text=self.text,
                position=op[2],
            )
        rhs = self.parse_expr()
        if self.peek()[0] != "eof":
            raise ParseError(
                "trailing input after axiom",
                text=self.text,
                position=self.peek()[2],
            )
        return Sub(lhs, rhs) if op[0] == "<" else Eqv(lhs, rhs)

    def parse_expr(self):
        first = self.parse_factor()
        if self.peek()[0] == "&":
            parts = [first]
            while self.peek()[0] == "&":
                self.next()
                parts.append(self.parse_factor())
            return Conj(parts)
        if self.peek()[0] == "|":
            parts = [first]
            while self.peek()[0] == "|":
                self.next()
                parts.append(self.parse_factor())
            return Disj(parts)
        return first

    def parse_factor(self):
        token = self.peek()
        if token[0] == "(":
            self.next()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if token[0] in ("exists", "all"):
            quantifier = self.next()[0]
            role = self.expect("name")[1]
            self.expect(".")
            concept = self.parse_factor()
            if quantifier == "exists":
                return Exists(role, concept)
            return Forall(role, concept)
        name = self.expect("name")[1]
        return Named(name)


def parse_axiom(text):
    """Parse one axiom from concrete syntax, e.g.
    ``"Spiny_Neuron = Neuron & exists has.Spine"``."""
    return _DLParser(text).parse_axiom()


def parse_axioms(text):
    """Parse one axiom per non-empty line (``%`` comments allowed)."""
    axioms = []
    for line in text.splitlines():
        stripped = line.split("%")[0].strip()
        if stripped:
            axioms.append(parse_axiom(stripped))
    return axioms


def parse_concept(text):
    """Parse a bare concept expression."""
    parser = _DLParser(text)
    expr = parser.parse_expr()
    if parser.peek()[0] != "eof":
        raise ParseError(
            "trailing input after concept expression",
            text=text,
            position=parser.peek()[2],
        )
    return expr
