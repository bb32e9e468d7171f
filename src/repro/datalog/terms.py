"""Terms of the Datalog dialect: constants, variables, compound terms.

The engine works over three kinds of terms:

* :class:`Const` wraps an arbitrary hashable Python value (strings,
  numbers, tuples, ...).  Constants are interned: ``Const(v)`` is the
  one live constant of ``(type(v), v)``, so constants compare and hash
  by identity, in C.
* :class:`Var` is a named logic variable.  Variables whose name starts
  with ``_`` are anonymous ("don't care") and never join.
* :class:`Struct` is a compound term ``f(t1, ..., tn)``.  Structs give
  the language the object-creating power the paper needs for Skolem
  placeholder objects ``f_{C,r,D}(x)`` (Section 4, assertion-mode domain
  map edges) and for reified relation identifiers.

Substitutions are plain dicts mapping :class:`Var` to terms; the module
functions :func:`walk`, :func:`substitute`, :func:`unify` implement the
usual triangular-substitution machinery.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref
from typing import Dict, Iterator, Optional, Tuple, Union


class Term:
    """Abstract base class for Datalog terms."""

    __slots__ = ()


#: ``(type(value), value)`` -> a weak reference to the one live
#: :class:`Const` of that key.  A hit reads it without a lock; an entry
#: is made, or a dead one replaced, under :data:`_intern_lock`.
_interned = {}
_intern_lock = threading.Lock()


def _forget(ref, _table=_interned, _remove=_remove_dead_weakref):
    """Drop the entry of the dead constant `ref` referred to.  This
    runs in whichever thread dropped the constant, even one holding
    :data:`_intern_lock`, so it takes no lock and removes the entry only
    while it is still dead: never a live constant that replaced it.
    (The table is bound at definition, as module globals may be gone
    when a constant dies at interpreter exit.)"""
    _remove(_table, ref.key)


class Const(Term):
    """An atomic constant wrapping a hashable Python value.

    ``Const(v)`` returns the one live constant of ``(type(v), v)``, so
    equality and hash are identity's.  They are typed: ``1``, ``1.0``
    and ``True`` are three constants, although Python compares them
    equal.  ``-0.0`` and ``0.0`` are one constant; a NaN is never
    interned, so it equals no other constant.  The table holds
    constants weakly: a constant nothing refers to leaves it.
    """

    __slots__ = ("value", "__weakref__")

    def __new__(cls, value):
        key = (type(value), value)
        ref = _interned.get(key)
        if ref is not None:
            const = ref()
            if const is not None:
                return const
        const = object.__new__(cls)
        const.value = value
        if value != value:  # NaN
            return const
        with _intern_lock:
            ref = _interned.get(key)
            if ref is not None:
                live = ref()
                if live is not None:
                    return live
            _interned[key] = weakref.KeyedRef(const, _forget, key)
        return const

    def __reduce__(self):
        # re-interned on load: pickle and copy return the live constant
        return (Const, (self.value,))

    def is_ground(self):
        return True

    def variables(self):
        return iter(())

    def __repr__(self):
        return "Const(%r)" % (self.value,)

    def __str__(self):
        if isinstance(self.value, str):
            return _quote_symbol(self.value)
        return str(self.value)


class Var(Term):
    """A named logic variable.

    Names beginning with ``_`` denote anonymous variables: each textual
    occurrence of ``_`` in the parser is renamed apart, and safety
    analysis treats them as ordinary variables.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name):
        self.name = name
        self._hash = hash(("Var", name))

    def is_ground(self):
        return False

    def variables(self):
        yield self

    @property
    def is_anonymous(self):
        return self.name.startswith("_")

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Var(%r)" % (self.name,)

    def __str__(self):
        return self.name


class Struct(Term):
    """A compound term ``functor(arg1, ..., argn)``.

    Used for Skolem functions (placeholder objects of assertion-mode
    domain-map edges) and any other constructed identifiers.  Structs
    compare structurally and may be nested.
    """

    __slots__ = ("functor", "args", "_hash", "_ground")

    def __init__(self, functor, args=()):
        self.functor = functor
        self.args = tuple(args)
        self._hash = hash(("Struct", functor, self.args))
        # groundness is computed eagerly: children already cached theirs,
        # so this is O(arity) and keeps deep Skolem chains from blowing
        # the recursion limit on is_ground()
        self._ground = all(arg.is_ground() for arg in self.args)

    def is_ground(self):
        return self._ground

    def variables(self):
        for arg in self.args:
            yield from arg.variables()

    def __eq__(self, other):
        return (
            isinstance(other, Struct)
            and self.functor == other.functor
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Struct(%r, %r)" % (self.functor, self.args)

    def __str__(self):
        if not self.args:
            return _quote_symbol(self.functor)
        return "%s(%s)" % (
            _quote_symbol(self.functor),
            ", ".join(str(a) for a in self.args),
        )


Subst = Dict[Var, Term]

_SYMBOL_SAFE_FIRST = "abcdefghijklmnopqrstuvwxyz"
_SYMBOL_SAFE_REST = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


def _quote_symbol(name):
    """Render a symbol, quoting it when it is not a plain lowercase atom."""
    if (
        name
        and name[0] in _SYMBOL_SAFE_FIRST
        and all(ch in _SYMBOL_SAFE_REST for ch in name)
    ):
        return name
    return "'%s'" % name.replace("\\", "\\\\").replace("'", "\\'")


def coerce_term(value):
    """Lift a Python value to a :class:`Term`.

    Terms pass through unchanged; anything else is wrapped in a
    :class:`Const`.  This keeps user-facing APIs ergonomic: callers can
    pass plain strings and numbers wherever terms are expected.
    """
    if isinstance(value, Term):
        return value
    return Const(value)


def walk(term, subst):
    """Follow variable bindings in `subst` until a non-variable or an
    unbound variable is reached."""
    while isinstance(term, Var):
        bound = subst.get(term)
        if bound is None:
            return term
        term = bound
    return term


def substitute(term, subst):
    """Apply `subst` to `term`, resolving bindings recursively."""
    term = walk(term, subst)
    if isinstance(term, Struct) and not term.is_ground():
        return Struct(term.functor, tuple(substitute(a, subst) for a in term.args))
    return term


def occurs_in(variable, term, subst):
    """Occurs check: does `variable` occur in `term` under `subst`?"""
    term = walk(term, subst)
    if term == variable:
        return True
    if isinstance(term, Struct) and not term.is_ground():
        return any(occurs_in(variable, arg, subst) for arg in term.args)
    return False


def unify(left, right, subst=None):
    """Unify two terms, returning an extended substitution or None.

    The input substitution is never mutated; a (possibly shared) dict is
    returned on success.  The occurs check is always on: Skolem terms
    make cyclic bindings reachable in principle.
    """
    if subst is None:
        subst = {}
    left = walk(left, subst)
    right = walk(right, subst)
    if left == right:
        return subst
    if isinstance(left, Var):
        if occurs_in(left, right, subst):
            return None
        new = dict(subst)
        new[left] = right
        return new
    if isinstance(right, Var):
        if occurs_in(right, left, subst):
            return None
        new = dict(subst)
        new[right] = left
        return new
    if isinstance(left, Struct) and isinstance(right, Struct):
        if left.functor != right.functor or len(left.args) != len(right.args):
            return None
        for l_arg, r_arg in zip(left.args, right.args):
            subst = unify(l_arg, r_arg, subst)
            if subst is None:
                return None
        return subst
    return None


def term_sort_key(term):
    """A total order over ground terms, used for deterministic output.

    Orders by term kind first, then by value; mixed-type constants are
    ordered by (type name, repr) so sorting never raises.
    """
    if isinstance(term, Const):
        value = term.value
        return (0, type(value).__name__, repr(value))
    if isinstance(term, Struct):
        return (1, term.functor, tuple(term_sort_key(a) for a in term.args))
    if isinstance(term, Var):
        return (2, term.name)
    raise TypeError("not a term: %r" % (term,))
