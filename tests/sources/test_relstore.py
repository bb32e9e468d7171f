"""Tests for the in-memory relational store."""

import pytest

from repro.errors import RelStoreError
from repro.sources import Column, RelStore, Table


@pytest.fixture
def store():
    store = RelStore("lab")
    table = store.create_table(
        "spines",
        [
            Column("id", "int"),
            Column("region", "str"),
            Column("len_um", "float"),
        ],
        key="id",
    )
    table.insert_many(
        [
            {"id": 1, "region": "hippocampus", "len_um": 1.2},
            {"id": 2, "region": "hippocampus", "len_um": 0.7},
            {"id": 3, "region": "cerebellum", "len_um": 2.4},
        ]
    )
    return store


class TestTable:
    def test_insert_dict_and_sequence(self, store):
        table = store.table("spines")
        table.insert((4, "cortex", 0.5))
        assert len(table) == 4
        assert table.select({"id": 4})[0]["region"] == "cortex"

    def test_duplicate_key_rejected(self, store):
        with pytest.raises(RelStoreError):
            store.table("spines").insert({"id": 1, "region": "x", "len_um": 0.0})

    def test_type_checked(self, store):
        with pytest.raises(RelStoreError):
            store.table("spines").insert({"id": 9, "region": 5, "len_um": 0.0})

    def test_int_column_rejects_bool(self):
        table = Table("t", [Column("n", "int")])
        with pytest.raises(RelStoreError):
            table.insert({"n": True})

    def test_float_column_accepts_int(self):
        table = Table("t", [Column("x", "float")])
        table.insert({"x": 2})
        assert table.select()[0]["x"] == 2.0

    def test_unknown_column_rejected(self, store):
        with pytest.raises(RelStoreError):
            store.table("spines").insert({"id": 9, "nope": 1})

    def test_arity_mismatch_rejected(self, store):
        with pytest.raises(RelStoreError):
            store.table("spines").insert((1, 2))

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(RelStoreError):
            Table("t", ["a", "a"])

    def test_bad_key_column_rejected(self):
        with pytest.raises(RelStoreError):
            Table("t", ["a"], key="b")

    def test_unknown_dtype_rejected(self):
        with pytest.raises(RelStoreError):
            Column("a", "decimal")

    def test_nullable_values(self):
        table = Table("t", [Column("a", "int"), Column("b", "str")])
        table.insert({"a": 1})
        assert table.select()[0]["b"] is None


class TestSelect:
    def test_select_all(self, store):
        assert len(store.select("spines")) == 3

    def test_equality_filter(self, store):
        rows = store.select("spines", where={"region": "hippocampus"})
        assert {row["id"] for row in rows} == {1, 2}

    def test_multi_column_filter(self, store):
        rows = store.select(
            "spines", where={"region": "hippocampus", "len_um": 0.7}
        )
        assert [row["id"] for row in rows] == [2]

    def test_projection(self, store):
        rows = store.select("spines", where={"id": 1}, columns=["region"])
        assert rows == [{"region": "hippocampus"}]

    def test_predicate(self, store):
        rows = store.select("spines", predicate=lambda r: r["len_um"] > 1)
        assert {row["id"] for row in rows} == {1, 3}

    def test_filter_then_predicate(self, store):
        rows = store.select(
            "spines",
            where={"region": "hippocampus"},
            predicate=lambda r: r["len_um"] > 1,
        )
        assert [row["id"] for row in rows] == [1]

    def test_unknown_where_column(self, store):
        with pytest.raises(RelStoreError):
            store.select("spines", where={"nope": 1})

    def test_unknown_projection_column(self, store):
        with pytest.raises(RelStoreError):
            store.select("spines", columns=["nope"])

    def test_index_consistency_after_inserts(self, store):
        table = store.table("spines")
        # build the index, then insert more, then re-query
        assert len(table.select(where={"region": "cerebellum"})) == 1
        table.insert({"id": 10, "region": "cerebellum", "len_um": 3.3})
        assert len(table.select(where={"region": "cerebellum"})) == 2

    def test_distinct(self, store):
        assert store.table("spines").distinct("region") == [
            "cerebellum",
            "hippocampus",
        ]


class TestStore:
    def test_duplicate_table_rejected(self, store):
        with pytest.raises(RelStoreError):
            store.create_table("spines", ["a"])

    def test_unknown_table_rejected(self, store):
        with pytest.raises(RelStoreError):
            store.table("nope")
        with pytest.raises(RelStoreError):
            store.select("nope")
