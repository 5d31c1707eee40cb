"""The one insertion path: ``HeapTable.insert_many``.

A batch must leave the table exactly as inserting its rows one at a
time would, and a faulty batch must raise the error that the first
faulty row, in row order, raised one row at a time. Statements that
fail leave the table and the write-ahead log as they were.
"""

import pytest

from repro.db import Database, DBClient, DBServer, protocol
from repro.db.provtypes import TupleRef
from repro.db.storage import HeapTable
from repro.db.types import Column, Schema, SQLType
from repro.errors import ExecutionError, IntegrityError, TypeError_

SCHEMA = Schema([
    Column("id", SQLType.INTEGER, primary_key=True, not_null=True),
    Column("name", SQLType.TEXT),
    Column("price", SQLType.FLOAT),
    Column("shipped", SQLType.DATE),
])

ROWS = [
    (1, "apple", 1.5, "1998-01-02"),
    (2, "pear", 2, None),          # int widens to float
    (3.0, None, None, "2001-12-31"),  # integral float narrows to int
    (4, "apple", 0.25, "1999-06-30"),
    (5, "fig", 3.5, "2000-02-29"),
]


def indexed_table():
    table = HeapTable("items", SCHEMA)
    table.create_index("items_name", "name")
    return table


def state(table):
    # the key lists pin dict order, which scans rely on
    return (table.rows, table.versions, table.next_rowid,
            table._pk_index, table.indexes["items_name"].buckets,
            list(table.rows), list(table.versions))


class TestInsertMany:
    def test_batch_equals_single_inserts(self):
        batch, single = indexed_table(), indexed_table()
        assert batch.insert_many(ROWS[:2], tick=3) == range(1, 3)
        batch.insert_many([], tick=4)
        assert batch.insert_many(ROWS[2:], tick=5) == range(3, 6)
        assert [single.insert(row, tick=3) for row in ROWS[:2]] == [1, 2]
        assert [single.insert(row, tick=5) for row in ROWS[2:]] == [3, 4, 5]
        assert state(batch) == state(single)
        assert [list(map(type, row)) for row in batch.rows.values()] == [
            list(map(type, row)) for row in single.rows.values()]
        assert batch.rowid_ordered and single.rowid_ordered

    def test_rowids_continue_after_deletes(self):
        table = indexed_table()
        table.insert_many(ROWS[:3], tick=1)
        table.delete(3)
        assert table.insert_many(ROWS[3:], tick=2) == range(4, 6)

    @pytest.mark.parametrize("rows,error,message,installed", [
        # a key held by the table
        ([ROWS[3], ROWS[0]], IntegrityError,
         "duplicate primary key (1,) in table items", 1),
        # a key held by an earlier row of the batch
        ([ROWS[3], ROWS[4], ROWS[3]], IntegrityError,
         "duplicate primary key (4,) in table items", 2),
        # a cell coercion refuses
        ([ROWS[3], (5, "x", "cheap", None)], TypeError_,
         "cannot coerce 'cheap' to float", 1),
        ([(5, "x", 1.0, "1998-02-30x")], TypeError_,
         "invalid DATE literal: '1998-02-30x'", 0),
        ([ROWS[3], (None, "x", 1.0, None)], TypeError_,
         "column id is NOT NULL", 1),
        ([(5, "x")], TypeError_, "row has 2 values, schema expects 4", 0),
        # both, the duplicate first
        ([ROWS[3], ROWS[3], (6, 1, 1.0, None)], IntegrityError,
         "duplicate primary key (4,) in table items", 1),
        # both, the bad cell first
        ([ROWS[3], (6, 1, 1.0, None), ROWS[3]], TypeError_,
         "cannot store 1 in TEXT", 1),
    ])
    def test_first_faulty_row_raises_after_the_rows_before_it(
            self, rows, error, message, installed):
        batch, single = indexed_table(), indexed_table()
        batch.insert_many(ROWS[:3], tick=1)
        for row in ROWS[:3]:
            single.insert(row, tick=1)
        with pytest.raises(error) as caught:
            batch.insert_many(rows, tick=2)
        assert str(caught.value) == message
        # one row at a time: the same error, the same rows before it
        with pytest.raises(error) as one_by_one:
            for row in rows:
                single.insert(row, tick=2)
        assert str(one_by_one.value) == message
        assert state(batch) == state(single)
        assert batch.row_count == 3 + installed


def make_database(tmp_path):
    database = Database(data_directory=tmp_path / "data")
    database.execute("CREATE TABLE t (id integer PRIMARY KEY, v float, "
                     "s text, dt date, b boolean)")
    database.execute("CREATE INDEX t_s ON t (s)")
    database.execute("INSERT INTO t VALUES (1, 2, 'a', '1998-01-02', true),"
                     " (2, 2.5, 'b', NULL, 1)")
    return database


def snapshot(database):
    table = database.catalog.get_table("t")
    return (dict(table.rows), dict(table.versions), table.next_rowid,
            dict(table._pk_index),
            {value: set(rowids) for value, rowids
             in table.indexes["t_s"].buckets.items()},
            database.wal.path.read_bytes())


class TestFailedStatements:
    """Messages recorded from the per-row insert path these replaced."""

    @pytest.mark.parametrize("sql,error,message", [
        ("INSERT INTO t VALUES (4, 1, 'd', NULL, NULL), "
         "(4, 1, 'e', NULL, NULL)",
         IntegrityError, "duplicate primary key (4,) in table t"),
        ("INSERT INTO t VALUES (5, 1, 'd', NULL, NULL), "
         "(6, 'x', 'e', NULL, NULL)",
         TypeError_, "cannot coerce 'x' to float"),
        ("INSERT INTO t VALUES (7, 1, 'd', NULL, NULL), "
         "(7, 1, 'e', NULL, NULL), (8, 'x', 'e', NULL, NULL)",
         IntegrityError, "duplicate primary key (7,) in table t"),
        ("INSERT INTO t VALUES (9, 1, 'd', NULL, NULL), "
         "(10, 'x', 'e', NULL, NULL), (9, 1, 'e', NULL, NULL)",
         TypeError_, "cannot coerce 'x' to float"),
        ("INSERT INTO t VALUES (11, 1, 'd', NULL, NULL), (12, 1)",
         ExecutionError, "INSERT has 2 values for 5 columns"),
        ("INSERT INTO t VALUES (13, 1, 'd', NULL, NULL), (1, 1), "
         "(14, 'x', 'e', NULL, NULL)",
         ExecutionError, "INSERT has 2 values for 5 columns"),
        ("INSERT INTO t VALUES (1, 1, 'd', NULL, NULL), (15, 1)",
         IntegrityError, "duplicate primary key (1,) in table t"),
        ("INSERT INTO t (id, s) VALUES (16, 'z'), (NULL, 'y')",
         TypeError_, "column id is NOT NULL"),
        ("INSERT INTO t SELECT 300, v, s, dt, b FROM t",
         IntegrityError, "duplicate primary key (300,) in table t"),
    ])
    def test_insert(self, tmp_path, sql, error, message):
        database = make_database(tmp_path)
        before = snapshot(database)
        with pytest.raises(error) as caught:
            database.execute(sql)
        assert str(caught.value) == message
        assert snapshot(database) == before
        database.close()

    @pytest.mark.parametrize("text,error,message", [
        ("22,1.5,x,1999-01-01,true\n1,,y,,\n",
         IntegrityError, "duplicate primary key (1,) in table t"),
        ("22,1.5,x,1999-01-01,true\n23,,y,1999-02-30x,\n",
         TypeError_, "invalid DATE literal: '1999-02-30x'"),
        ("22,1.5,x,,\n,1.5,y,,\n",
         TypeError_, "column id is NOT NULL"),
        ("22,1.5,x,,\n22,,y,,\n23,1,y,1999-13-01,\n",
         IntegrityError, "duplicate primary key (22,) in table t"),
        ("22,1.5,x,,\n23,1,y,1999-13-01,\n22,,y,,\n",
         TypeError_, "invalid DATE literal: '1999-13-01'"),
    ])
    def test_copy_from(self, tmp_path, text, error, message):
        database = make_database(tmp_path)
        source = tmp_path / "in.csv"
        source.write_text(text)
        before = snapshot(database)
        with pytest.raises(error) as caught:
            database.execute(f"COPY t FROM '{source}'")
        assert str(caught.value) == message
        assert snapshot(database) == before
        database.close()

    def test_a_good_batch_logs_one_put_per_row_in_order(self, tmp_path):
        database = make_database(tmp_path)
        result = database.execute(
            "INSERT INTO t (id, s) VALUES (16, 'z'), (17, 'y'), (18, 'x')")
        assert [ref.rowid for ref in result.written] == [3, 4, 5]
        database.close()
        reopened = Database(data_directory=tmp_path / "data")
        assert reopened.query("SELECT id, s FROM t WHERE id > 2") == [
            (16, "z"), (17, "y"), (18, "x")]
        reopened.close()


class TestCopyCellErrors:
    """A cell its column's type cannot read, or a row with the wrong
    number of cells, fails the COPY as one line naming the file line its
    row starts on (and the column), embedded and over the wire, and the
    statement has no effect."""

    CASES = [
        ("22,abc,x,,\n", "",
         "line 1: column v: could not convert string to float: 'abc'"),
        ("22,1.5,x,,\nxyz,3,y,,\n", "",
         "line 2: column id: invalid literal for int() with base 10: "
         "'xyz'"),
        # a header, a blank line, and quoted cells holding newlines:
        # the line named is the one the faulty row starts on
        ('id,v,s,dt,b\n22,1.5,"two\nlines",,\n\n23,1.x,"three\nmore",,\n',
         " WITH CSV HEADER",
         "line 5: column v: could not convert string to float: '1.x'"),
        # a row with the wrong number of cells names its line too
        ("22,1.5,x,,\n23,2.5,y\n", "", "line 2: expected 5 cells, got 3"),
        ('id,v,s,dt,b\n22,1.5,"a\nb",,\n23,2.5,y,,,7\n',
         " WITH CSV HEADER", "line 4: expected 5 cells, got 6"),
    ]
    IDS = ["float", "integer", "header-multiline", "short-row",
           "header-long-row"]

    @pytest.mark.parametrize("text,options,message", CASES, ids=IDS)
    def test_embedded(self, tmp_path, text, options, message):
        database = make_database(tmp_path)
        source = tmp_path / "in.csv"
        source.write_text(text)
        before = snapshot(database)
        with pytest.raises(ExecutionError) as caught:
            database.execute(f"COPY t FROM '{source}'{options}")
        assert str(caught.value) == message
        assert snapshot(database) == before
        database.close()

    @pytest.mark.parametrize("text,options,message", CASES, ids=IDS)
    def test_over_the_wire(self, tmp_path, text, options, message):
        database = make_database(tmp_path)
        source = tmp_path / "in.csv"
        source.write_text(text)
        before = snapshot(database)
        client = DBClient(DBServer(database).transport(), "app", "pid-1")
        client.connect()
        response = protocol.decode_frame(client.transport(
            protocol.encode_frame(protocol.query_frame(
                client.connection_id, f"COPY t FROM '{source}'{options}"))))
        assert response["frame"] == "error"
        assert response["error_type"] == "ExecutionError"
        assert response["message"] == message
        with pytest.raises(ExecutionError) as caught:
            client.execute(f"COPY t FROM '{source}'{options}")
        assert str(caught.value) == message
        assert snapshot(database) == before
        assert client.query("SELECT count(*) FROM t") == [(2,)]
        client.close()
        database.close()


class TestRowidOrder:
    def test_rollback_reinstalling_a_low_rowid_keeps_scans_ordered(self):
        database = Database()
        database.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
        database.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        table = database.catalog.get_table("t")
        assert table.rowid_ordered
        database.execute("BEGIN")
        database.execute("DELETE FROM t WHERE id = 1")
        database.execute("INSERT INTO t VALUES (4, 40)")
        database.execute("ROLLBACK")
        database.execute("INSERT INTO t VALUES (5, 50)")
        # the rollback put rowid 1 back after rowids 2 and 3, and the
        # rolled-back rowid 4 went to the next insert
        assert list(table.rows) == [2, 3, 1, 4]
        assert not table.rowid_ordered
        expected = [(1, 10), (2, 20), (3, 30), (5, 50)]
        assert database.query("SELECT id, v FROM t") == expected
        result = database.execute("SELECT id, v FROM t", provenance=True)
        assert result.rows == expected
        assert [sorted(lineage) for lineage in result.lineages] == [
            [TupleRef("t", rowid, table.versions[rowid])]
            for rowid in (1, 2, 3, 4)]
        assert [rowid for rowid, _values in table.scan()] == [1, 2, 3, 4]
        assert [line.split(",")[0] for line
                in table.serialize().splitlines()[1:]] == ["1", "2", "3", "4"]

    def test_truncate_resets_the_order(self):
        table = HeapTable("items", SCHEMA)
        table.install([3, 1], [1, 1], [ROWS[0], ROWS[1]])
        assert not table.rowid_ordered
        table.truncate()
        assert table.rowid_ordered
