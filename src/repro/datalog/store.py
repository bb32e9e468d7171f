"""Indexed ground-fact storage for bottom-up evaluation.

:class:`FactStore` maps relation signatures ``(pred, arity)`` to sets of
ground argument tuples, with lazily built hash indexes per argument
position.  The evaluator asks for facts matching a partially bound atom;
the store answers from the most selective available index.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from .ast import Atom
from .terms import Const, Struct, Term, Var, term_sort_key, walk

Signature = Tuple[str, int]
FactArgs = Tuple[Term, ...]


class FactStore:
    """A mutable set of ground facts with per-position indexes."""

    def __init__(self):
        self._facts: Dict[Signature, Set[FactArgs]] = defaultdict(set)
        # _indexes[sig][position][ground term] -> set of fact tuples
        self._indexes: Dict[Signature, Dict[int, Dict[Term, Set[FactArgs]]]] = {}
        # copy-on-write children (see overlay()): relations still read
        # from the parent store, and that parent
        self._shared: Set[Signature] = set()
        self._parent: Optional[FactStore] = None

    def __len__(self):
        return sum(len(rows) for rows in self._facts.values())

    def count(self, pred, arity):
        return len(self._facts.get((pred, arity), ()))

    def signatures(self):
        return [sig for sig, rows in self._facts.items() if rows]

    def add(self, atom):
        """Insert a ground atom; returns True if it was new."""
        if not atom.is_ground():
            raise ValueError("cannot store non-ground fact: %s" % atom)
        return self.add_row(atom.signature, atom.args)

    def add_row(self, sig, args):
        """Insert a ground argument tuple under `sig`; True if new."""
        rows = self._facts[sig]
        if args in rows:
            return False
        if sig in self._shared:
            rows = self._unshare(sig)
        rows.add(args)
        indexes = self._indexes.get(sig)
        if indexes:
            for position, index in indexes.items():
                index.setdefault(args[position], set()).add(args)
        return True

    def contains(self, atom):
        """Membership test for a ground atom."""
        return atom.args in self._facts.get(atom.signature, ())

    def rows(self, sig):
        """All argument tuples stored under `sig` (a live set: do not
        mutate while iterating)."""
        return self._facts.get(sig, frozenset())

    def overlay(self):
        """A copy-on-write child of this store.

        The child starts with this store's facts without copying them:
        it reads each relation (and its indexes, built lazily here) from
        this store until its first insertion into that relation, which
        copies the relation's rows.  This store must not change while
        the child is in use; the child's insertions never reach it.
        """
        child = FactStore()
        child._facts.update((sig, rows) for sig, rows in self._facts.items() if rows)
        child._shared = set(child._facts)
        child._parent = self
        return child

    def _unshare(self, sig):
        self._shared.discard(sig)
        rows = self._facts[sig] = set(self._facts[sig])
        return rows

    def _index_for(self, sig, position):
        if sig in self._shared:
            return self._parent._index_for(sig, position)
        indexes = self._indexes.setdefault(sig, {})
        index = indexes.get(position)
        if index is None:
            index = {}
            for args in self._facts.get(sig, ()):
                index.setdefault(args[position], set()).add(args)
            indexes[position] = index
        return index

    def candidates(self, atom, subst):
        """Rows possibly matching `atom` under `subst`.

        Uses the first argument position that is bound to a :class:`Const`
        or ground :class:`Struct` as an index key; falls back to a full
        scan of the relation when no position is bound.
        """
        sig = atom.signature
        rows = self._facts.get(sig)
        if not rows:
            return ()
        for position, arg in enumerate(atom.args):
            bound = walk(arg, subst)
            if bound.is_ground() and not isinstance(bound, Var):
                index = self._index_for(sig, position)
                return index.get(bound, ())
        return rows

    def iter_atoms(self, pred=None):
        """Iterate stored facts as :class:`Atom` objects.

        With `pred` given, restricts to relations with that predicate
        name (any arity).
        """
        for (name, _arity), rows in self._facts.items():
            if pred is not None and name != pred:
                continue
            for args in rows:
                yield Atom(name, args)

    def sorted_atoms(self, pred=None):
        """Deterministically ordered facts, for reporting and tests."""
        atoms = list(self.iter_atoms(pred))
        atoms.sort(key=lambda a: (a.pred, tuple(term_sort_key(t) for t in a.args)))
        return atoms

    def copy(self):
        clone = FactStore()
        for sig, rows in self._facts.items():
            if rows:
                clone._facts[sig] = set(rows)
        return clone

    def merge(self, other):
        """In-place union with another store; returns self."""
        for sig, rows in other._facts.items():
            for args in rows:
                self.add_row(sig, args)
        return self

    def difference_count(self, other):
        """Number of facts in self that are not in other."""
        missing = 0
        for sig, rows in self._facts.items():
            other_rows = other._facts.get(sig, ())
            missing += sum(1 for args in rows if args not in other_rows)
        return missing

    def same_facts(self, other):
        mine = {sig: rows for sig, rows in self._facts.items() if rows}
        theirs = {sig: rows for sig, rows in other._facts.items() if rows}
        return mine == theirs
