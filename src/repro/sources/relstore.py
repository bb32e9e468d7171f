"""An in-memory relational store: the "raw data" behind wrappers.

The paper's sources are lab databases (relational/object systems).  The
reproduction substitutes this small relational engine: typed columns,
primary keys, equality-indexed selection with projection, and callable
row predicates.  Wrappers sit on top and lift the rows to conceptual
models.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import RelStoreError

#: permitted dtype tags (None means untyped)
DTYPES = ("str", "int", "float", "bool")


class Column:
    """A named, optionally typed column."""

    __slots__ = ("name", "dtype")

    def __init__(self, name, dtype=None):
        if dtype is not None and dtype not in DTYPES:
            raise RelStoreError("unknown dtype %r for column %r" % (dtype, name))
        self.name = name
        self.dtype = dtype

    def check(self, value):
        if value is None or self.dtype is None:
            return value
        expected = {"str": str, "int": int, "float": (int, float), "bool": bool}[
            self.dtype
        ]
        if self.dtype == "int" and isinstance(value, bool):
            raise RelStoreError(
                "column %r expects int, got bool %r" % (self.name, value)
            )
        if not isinstance(value, expected):
            raise RelStoreError(
                "column %r expects %s, got %r" % (self.name, self.dtype, value)
            )
        if self.dtype == "float":
            return float(value)
        return value

    def __repr__(self):
        return "Column(%r, %r)" % (self.name, self.dtype)


class Table:
    """A table with ordered columns, optional primary key, and lazy
    per-column hash indexes."""

    def __init__(self, name, columns, key=None):
        self.name = name
        self.columns: List[Column] = [
            column if isinstance(column, Column) else Column(column)
            for column in columns
        ]
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise RelStoreError("table %r has duplicate column names" % name)
        self._position = {c.name: i for i, c in enumerate(self.columns)}
        if key is not None and key not in self._position:
            raise RelStoreError(
                "key column %r not in table %r" % (key, name)
            )
        self.key = key
        self._rows: List[Tuple] = []
        self._key_index: Dict[object, int] = {}
        self._indexes: Dict[str, Dict[object, List[int]]] = {}

    @property
    def column_names(self):
        return [c.name for c in self.columns]

    def __len__(self):
        return len(self._rows)

    def _column(self, name):
        position = self._position.get(name)
        if position is None:
            raise RelStoreError(
                "table %r has no column %r" % (self.name, name)
            )
        return position

    def insert(self, row):
        """Insert a row (dict keyed by column name, or a sequence)."""
        if isinstance(row, dict):
            unknown = set(row) - set(self._position)
            if unknown:
                raise RelStoreError(
                    "table %r has no column(s) %s" % (self.name, sorted(unknown))
                )
            values = tuple(
                column.check(row.get(column.name)) for column in self.columns
            )
        else:
            values = tuple(row)
            if len(values) != len(self.columns):
                raise RelStoreError(
                    "table %r expects %d values, got %d"
                    % (self.name, len(self.columns), len(values))
                )
            values = tuple(
                column.check(value) for column, value in zip(self.columns, values)
            )
        if self.key is not None:
            key_value = values[self._position[self.key]]
            if key_value in self._key_index:
                raise RelStoreError(
                    "duplicate key %r in table %r" % (key_value, self.name)
                )
            self._key_index[key_value] = len(self._rows)
        row_id = len(self._rows)
        self._rows.append(values)
        for column_name, index in self._indexes.items():
            index.setdefault(values[self._position[column_name]], []).append(row_id)
        return row_id

    def insert_many(self, rows):
        for row in rows:
            self.insert(row)
        return self

    def _index_for(self, column_name):
        index = self._indexes.get(column_name)
        if index is None:
            position = self._column(column_name)
            index = {}
            for row_id, values in enumerate(self._rows):
                index.setdefault(values[position], []).append(row_id)
            self._indexes[column_name] = index
        return index

    def select(self, where=None, columns=None, predicate=None):
        """Select rows as dicts.

        Args:
            where: equality filter {column: value}.
            columns: projection (list of column names); None = all.
            predicate: optional callable(row_dict) -> bool, applied after
                the equality filter.
        """
        where = dict(where or {})
        for column_name in where:
            self._column(column_name)
        if columns is not None:
            for column_name in columns:
                self._column(column_name)

        if where:
            # use the most selective index
            best_column = min(
                where,
                key=lambda column_name: len(
                    self._index_for(column_name).get(where[column_name], ())
                ),
            )
            candidate_ids = self._index_for(best_column).get(where[best_column], [])
        else:
            candidate_ids = range(len(self._rows))

        results = []
        for row_id in candidate_ids:
            values = self._rows[row_id]
            if all(
                values[self._position[column_name]] == expected
                for column_name, expected in where.items()
            ):
                row = self._row_dict(values)
                if predicate is None or predicate(row):
                    if columns is not None:
                        row = {name: row[name] for name in columns}
                    results.append(row)
        return results

    def distinct(self, column_name):
        """Sorted distinct values of one column."""
        position = self._column(column_name)
        return sorted({values[position] for values in self._rows}, key=repr)

    def _row_dict(self, values):
        return {column.name: value for column, value in zip(self.columns, values)}

    def __repr__(self):
        return "Table(%r, %d rows)" % (self.name, len(self._rows))


class RelStore:
    """A named collection of tables."""

    def __init__(self, name="store"):
        self.name = name
        self._tables: Dict[str, Table] = {}

    def create_table(self, name, columns, key=None):
        if name in self._tables:
            raise RelStoreError("table %r already exists" % name)
        table = Table(name, columns, key=key)
        self._tables[name] = table
        return table

    def table(self, name):
        table = self._tables.get(name)
        if table is None:
            raise RelStoreError("no table %r in store %r" % (name, self.name))
        return table

    def select(self, table_name, where=None, columns=None, predicate=None):
        return self.table(table_name).select(where, columns, predicate)

    def __len__(self):
        return len(self._tables)

    def __repr__(self):
        return "RelStore(%r, tables=%r)" % (self.name, sorted(self._tables))
