"""Indexed ground-fact storage for bottom-up evaluation.

:class:`FactStore` maps relation signatures ``(pred, arity)`` to sets of
ground argument tuples, with lazily built hash indexes per argument
position.  The evaluator's compiled joins read a relation's rows (a
scan, or a membership test of a fully bound literal) or one position's
index (a literal with a bound argument).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, Set, Tuple

from .ast import Atom
from .terms import Term, term_sort_key, walk

Signature = Tuple[str, int]
FactArgs = Tuple[Term, ...]

#: the index of a relation without rows
_NO_INDEX = {}

#: how many :meth:`FactStore.overlay` generations a maintained model
#: may stack before it is folded into one flat store (see
#: :meth:`FactStore.folded`): an ancestor stays alive, stale rows
#: included, while it owns a relation the model still shares
MAX_OVERLAY_DEPTH = 8


class FactStore:
    """A mutable set of ground facts with per-position indexes."""

    def __init__(self):
        self._facts: Dict[Signature, Set[FactArgs]] = defaultdict(set)
        # _indexes[sig][position][ground term] -> set of fact tuples
        self._indexes: Dict[Signature, Dict[int, Dict[Term, Set[FactArgs]]]] = {}
        # copy-on-write children (see overlay()): the store each
        # relation still shared with an ancestor is read from (the one
        # that owns its rows)
        self._owners: Dict[Signature, FactStore] = {}
        #: overlay generations above the nearest flat store
        self.depth = 0

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
        if sig in self._owners:
            rows = self._unshare(sig)
        rows.add(args)
        indexes = self._indexes.get(sig)
        if indexes:
            for position, index in indexes.items():
                index.setdefault(args[position], set()).add(args)
        return True

    def remove_row(self, sig, args):
        """Delete a ground argument tuple from `sig`, keeping the
        relation's indexes consistent; True if it was stored."""
        rows = self._facts.get(sig)
        if not rows or args not in rows:
            return False
        if sig in self._owners:
            rows = self._unshare(sig)
        rows.discard(args)
        for position, index in self._indexes.get(sig, {}).items():
            bucket = index.get(args[position])
            if bucket is not None:
                bucket.discard(args)
                if not bucket:
                    del index[args[position]]
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
        it reads each relation (and its indexes, built lazily there)
        from the store that owns the relation's rows until its first
        change to that relation, which copies the rows and indexes.
        This store must not change while the child is in use; the
        child's changes never reach it.  A child only refers to the
        owners of the relations it shares, so a chain of overlays
        keeps alive just the stores still owning some relation.
        """
        child = FactStore()
        child._facts.update((sig, rows) for sig, rows in self._facts.items() if rows)
        owners = self._owners
        child._owners = {sig: owners.get(sig, self) for sig in child._facts}
        child.depth = self.depth + 1
        return child

    def folded(self):
        """This store, or a flat copy of it once its overlay chain is
        deeper than :data:`MAX_OVERLAY_DEPTH`."""
        return self.copy() if self.depth > MAX_OVERLAY_DEPTH else self

    def _unshare(self, sig):
        # the owner's indexes are copied, not rebuilt row by row
        owner_indexes = self._owners.pop(sig)._indexes.get(sig, {})
        rows = self._facts[sig] = set(self._facts[sig])
        self._indexes[sig] = {
            position: {key: set(bucket) for key, bucket in index.items()}
            for position, index in owner_indexes.items()
        }
        return rows

    def index(self, sig, position):
        """The hash index of `sig` on argument `position`: each ground
        term there maps to the set of rows holding it (live: do not
        mutate; built on first use)."""
        if not self._facts.get(sig):
            return _NO_INDEX
        return self._index_for(sig, position)

    def _index_for(self, sig, position):
        owner = self._owners.get(sig)
        if owner is not None:
            return owner._index_for(sig, position)
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
        for position, arg in enumerate(atom.args):
            bound = walk(arg, subst)
            if bound.is_ground():
                return self.index(sig, position).get(bound, ())
        return self.rows(sig)

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
