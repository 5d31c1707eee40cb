"""Versioned heap storage and data-directory persistence tests."""

import re

import pytest

from repro.db.storage import DataDirectory, HeapTable, read_table_file
from repro.db.types import Column, Schema, SQLType
from repro.errors import CatalogError, ExecutionError, IntegrityError, TypeError_

SCHEMA = Schema([
    Column("id", SQLType.INTEGER, primary_key=True, not_null=True),
    Column("name", SQLType.TEXT),
    Column("price", SQLType.FLOAT),
])


def make_table():
    table = HeapTable("items", SCHEMA)
    table.insert((1, "apple", 1.5), tick=10)
    table.insert((2, "pear", 2.0), tick=10)
    return table


class TestHeapTable:
    def test_insert_assigns_sequential_rowids(self):
        table = make_table()
        assert [rowid for rowid, _ in table.scan()] == [1, 2]

    def test_insert_stamps_version(self):
        table = make_table()
        assert table.version_of(1) == 10

    def test_update_bumps_version(self):
        table = make_table()
        table.update(1, (1, "apple", 9.9), tick=20)
        assert table.version_of(1) == 20
        assert table.get(1)[2] == 9.9

    def test_delete_removes_row(self):
        table = make_table()
        table.delete(1)
        assert table.row_count == 1
        with pytest.raises(ExecutionError):
            table.get(1)

    def test_delete_unknown_rowid_raises(self):
        with pytest.raises(ExecutionError):
            make_table().delete(99)

    def test_primary_key_rejects_duplicates(self):
        table = make_table()
        with pytest.raises(IntegrityError):
            table.insert((1, "dup", 0.0), tick=11)

    def test_primary_key_allows_reuse_after_delete(self):
        table = make_table()
        table.delete(1)
        table.insert((1, "again", 0.0), tick=12)
        assert table.row_count == 2

    def test_update_to_conflicting_pk_raises(self):
        table = make_table()
        with pytest.raises(IntegrityError):
            table.update(1, (2, "x", 0.0), tick=13)

    def test_update_pk_change_reindexes(self):
        table = make_table()
        table.update(1, (5, "apple", 1.5), tick=13)
        table.insert((1, "new", 0.0), tick=14)  # old key free again
        assert table.row_count == 3

    def test_not_null_enforced(self):
        table = make_table()
        with pytest.raises(TypeError_):
            table.insert((None, "x", 1.0), tick=15)

    def test_type_coercion_on_insert(self):
        table = make_table()
        rowid = table.insert((3, "kiwi", 2), tick=16)  # int -> float
        assert table.get(rowid)[2] == 2.0
        assert isinstance(table.get(rowid)[2], float)

    def test_arity_mismatch_raises(self):
        with pytest.raises(TypeError_):
            make_table().insert((1, "x"), tick=17)

    def test_truncate_keeps_rowid_counter(self):
        table = make_table()
        table.truncate()
        assert table.row_count == 0
        assert table.insert((9, "z", 0.0), tick=18) == 3

    def test_invalid_table_name_rejected(self):
        with pytest.raises(CatalogError):
            HeapTable("bad name", SCHEMA)

    def test_replace_swaps_keys_and_drops_rows(self):
        table = make_table()
        table.insert((3, "fig", 3.0), tick=10)
        table.create_index("ix_name", "name")
        table.replace({1: ((2, "apple", 1.5), 20),
                       2: ((1, "pear", 2.0), 20),
                       3: None, 7: None})
        assert sorted(table.scan_versions()) == [
            (1, (2, "apple", 1.5), 20), (2, (1, "pear", 2.0), 20)]
        assert table._pk_index == {(2,): 1, (1,): 2}
        assert table.indexes["ix_name"].buckets == {
            "apple": {1}, "pear": {2}}
        assert table.next_rowid == 8

    def test_replace_refuses_a_key_held_twice_at_the_end(self):
        table = make_table()
        with pytest.raises(IntegrityError,
                           match=r"duplicate primary key \(1,\)"):
            table.replace({2: ((1, "pear", 2.0), 20)})


class TestSerialization:
    def test_round_trip_preserves_rows_and_versions(self):
        table = make_table()
        table.update(2, (2, "pear", 3.5), tick=30)
        restored = HeapTable.deserialize(table.serialize())
        assert dict(restored.scan()) == dict(table.scan())
        assert restored.versions == table.versions
        assert restored.next_rowid == table.next_rowid

    def test_round_trip_preserves_schema(self):
        restored = HeapTable.deserialize(make_table().serialize())
        assert restored.schema == SCHEMA
        assert restored.schema.columns[0].primary_key

    def test_round_trip_null_values(self):
        table = HeapTable("t", Schema([Column("a", SQLType.INTEGER),
                                       Column("b", SQLType.TEXT)]))
        table.insert((None, None), tick=1)
        restored = HeapTable.deserialize(table.serialize())
        assert restored.get(1) == (None, None)

    def test_round_trip_text_with_commas_and_quotes(self):
        table = HeapTable("t", Schema([Column("s", SQLType.TEXT)]))
        table.insert(('a,"b",c\nd',), tick=1)
        restored = HeapTable.deserialize(table.serialize())
        assert restored.get(1) == ('a,"b",c\nd',)

    def test_pk_index_rebuilt_after_load(self):
        restored = HeapTable.deserialize(make_table().serialize())
        with pytest.raises(IntegrityError):
            restored.insert((1, "dup", 0.0), tick=40)

    def test_missing_header_raises(self):
        with pytest.raises(CatalogError):
            HeapTable.deserialize("no newline here")

    PAIR = Schema([Column("a", SQLType.INTEGER), Column("b", SQLType.TEXT)])

    def pair_header(self):
        table = HeapTable("t", self.PAIR)
        return table.serialize()

    @pytest.mark.parametrize("row,message", [
        ("1,1,5", "expected 4 cells"),  # one value short
        ("2,1,6,x,extra", "expected 4 cells"),  # one cell too many
        ("1,1", "expected 4 cells"),  # no values at all
        ("x,1,5,a", "invalid literal"),  # non-integer rowid
        ("1,v1,5,a", "invalid literal"),  # non-integer version
        ("1,1,five,a", "invalid literal"),  # value of the wrong type
    ])
    def test_malformed_row_raises(self, row, message):
        text = self.pair_header() + "1,1,7,ok\n" + row + "\n"
        with pytest.raises(CatalogError, match=message) as info:
            HeapTable.deserialize(text)
        assert "table t line 3" in str(info.value)

    CHECKED = Schema([
        Column("o_orderkey", SQLType.INTEGER, primary_key=True),
        Column("o_custkey", SQLType.INTEGER, not_null=True),
        Column("o_orderdate", SQLType.DATE),
    ])

    @pytest.mark.parametrize("row,message", [
        ("2,1,1,5,1998-01-03", "duplicate primary key (1,)"),
        ("1,1,2,5,1998-01-03", "duplicate rowid 1"),
        ("2,1,2,5,1998-13-45",
         "column o_orderdate: invalid DATE literal '1998-13-45'"),
        ("2,1,2,,1998-01-03", "column o_custkey is NOT NULL"),
    ], ids=["duplicate-pk", "duplicate-rowid", "bad-date",
            "null-in-not-null"])
    def test_file_rows_a_restore_refuses_are_refused(self, tmp_path, row,
                                                     message):
        table = HeapTable("orders", self.CHECKED)
        table.insert((1, 4, "1998-01-02"), tick=1)
        path = tmp_path / "orders.tbl"
        path.write_text(table.serialize() + row + "\n")
        with pytest.raises(CatalogError, match=re.escape(message)) as info:
            read_table_file(path)
        assert f"{path}: table orders line 3: " in str(info.value)

    @pytest.mark.parametrize("header,message", [
        ('{"name":"t","indexes":[],"columns":[]}', "missing key 'next_rowid'"),
        ('{"name":"t","next_rowid":1}', "missing key 'columns'"),
        ('{"name":"t","next_rowid":"x","columns":[]}', "malformed"),
        ('{"name":"t","next_rowid":1,"columns":[{"name":"a",'
         '"type":"blob","not_null":false,"primary_key":false}]}',
         "malformed"),
        ('{"name":"t",', "malformed"),
        ('[1, 2]', "malformed"),
    ])
    def test_malformed_header_raises(self, header, message):
        with pytest.raises(CatalogError, match=message):
            HeapTable.deserialize(header + "\n")

    def test_data_directory_refuses_malformed_table_file(self, tmp_path):
        directory = DataDirectory(tmp_path / "data")
        directory.save_table(make_table())
        path = directory.table_path("items")
        path.write_text(path.read_text() + "3,10,3\n")
        with pytest.raises(CatalogError, match="expected 5 cells"):
            directory.load_table("items")


class TestDataDirectory:
    def test_save_and_load(self, tmp_path):
        directory = DataDirectory(tmp_path / "data")
        table = make_table()
        directory.save_table(table)
        loaded = directory.load_table("items")
        assert dict(loaded.scan()) == dict(table.scan())

    def test_table_names_sorted(self, tmp_path):
        directory = DataDirectory(tmp_path)
        for name in ("zeta", "alpha"):
            directory.save_table(HeapTable(name, SCHEMA))
        assert directory.table_names() == ["alpha", "zeta"]

    def test_drop_table_removes_file(self, tmp_path):
        directory = DataDirectory(tmp_path)
        directory.save_table(make_table())
        directory.drop_table("items")
        assert directory.table_names() == []

    def test_load_missing_table_raises(self, tmp_path):
        with pytest.raises(CatalogError):
            DataDirectory(tmp_path).load_table("ghost")

    def test_total_bytes_counts_files(self, tmp_path):
        directory = DataDirectory(tmp_path)
        assert directory.total_bytes() == 0
        directory.save_table(make_table())
        assert directory.total_bytes() > 0

    def test_bigger_table_uses_more_bytes(self, tmp_path):
        directory = DataDirectory(tmp_path)
        small = HeapTable("small", SCHEMA)
        big = HeapTable("big", SCHEMA)
        small.insert((1, "x", 1.0), tick=1)
        for i in range(100):
            big.insert((i, "y" * 20, float(i)), tick=1)
        directory.save_table(small)
        before = directory.total_bytes()
        directory.save_table(big)
        assert directory.total_bytes() > before * 10
