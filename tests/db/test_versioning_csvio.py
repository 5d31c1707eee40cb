"""VersionManager (Section VII-B bookkeeping) and CSV I/O tests."""

import gc

import pytest

from repro.db import Database
from repro.db import csvio
from repro.db.provtypes import TupleRef
from repro.db.types import Column, Schema, SQLType
from repro.db.versioning import VersionManager
from repro.errors import ExecutionError
from repro.provenance.combined import TraceBuilder
from repro.provenance.interval import TimeInterval


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (x integer, s text)")
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    return database


def mark(manager, statement_id, pid, refs):
    """Mark ``refs`` as used by one statement of process ``pid``, as
    the DB monitor does: the statement's run and hasRead edges, then
    the marking step."""
    builder = manager.builder
    builder.process(pid)
    node = builder.statement(statement_id, "query")
    builder.run(pid, node, TimeInterval.point(1))
    builder.has_read(node, refs, 1)
    return manager.mark_used(refs, statement_id, str(pid))


class TestVersionManager:
    def test_enable_stamps_every_tuple(self, db):
        manager = VersionManager(db, TraceBuilder())
        assert manager.enable("t") == 3
        assert manager.is_enabled("t")

    def test_enable_allocates_nothing_per_row(self):
        database = Database()
        database.execute("CREATE TABLE big (x integer)")
        database.execute("INSERT INTO big VALUES "
                         + ", ".join(f"({x})" for x in range(10000)))
        manager = VersionManager(database, TraceBuilder())
        gc.collect()
        before = len(gc.get_objects())
        assert manager.enable("big") == 10000
        gc.collect()
        assert len(gc.get_objects()) - before < 100

    def test_enable_is_idempotent(self, db):
        manager = VersionManager(db, TraceBuilder())
        manager.enable("t")
        assert manager.enable("t") == 0

    def test_ensure_enabled_multiple(self, db):
        db.execute("CREATE TABLE u (y integer)")
        db.execute("INSERT INTO u VALUES (1)")
        manager = VersionManager(db, TraceBuilder())
        assert manager.ensure_enabled(["t", "u"]) == 4
        assert manager.enabled_tables == frozenset({"t", "u"})

    def test_mark_used_records_stamp(self, db):
        manager = VersionManager(db, TraceBuilder())
        manager.enable("t")
        ref = TupleRef("t", 1, db.catalog.get_table("t").versions[1])
        assert mark(manager, "q1", 7, [ref]) == 1
        assert manager.used_by(ref) == {("q1", "7")}

    def test_mark_used_accumulates(self, db):
        manager = VersionManager(db, TraceBuilder())
        ref = TupleRef("t", 1, 1)
        mark(manager, "q1", 7, [ref])
        mark(manager, "q2", 8, [ref])
        assert manager.used_by(ref) == {("q1", "7"), ("q2", "8")}

    def test_mark_used_keeps_nothing(self, db):
        manager = VersionManager(db, TraceBuilder())
        refs = [TupleRef("t", 1, 1), TupleRef("t", 2, 1)]
        assert manager.mark_used(refs, "q1", "p1") == 2
        # the marks are the trace's edges: without them, none
        assert manager.all_used_refs() == []
        assert vars(manager).keys() == {"database", "builder",
                                        "_enabled_tables"}

    def test_all_used_refs_only_lists_stamped(self, db):
        manager = VersionManager(db, TraceBuilder())
        manager.enable("t")  # enabling marks nothing
        assert manager.all_used_refs() == []
        ref = TupleRef("t", 2, db.catalog.get_table("t").versions[2])
        mark(manager, "q", 7, [ref])
        # a version the statement returned carries no usage mark
        node = manager.builder.statement("q", "query")
        manager.builder.has_returned(node, [TupleRef("_result_q", 1, 1)], 1)
        assert manager.all_used_refs() == [ref]

    def test_unknown_ref_has_no_stamps(self, db):
        manager = VersionManager(db, TraceBuilder())
        assert manager.used_by(TupleRef("t", 99, 1)) == frozenset()


SCHEMA = Schema([
    Column("x", SQLType.INTEGER),
    Column("f", SQLType.FLOAT),
    Column("s", SQLType.TEXT),
    Column("b", SQLType.BOOLEAN),
])


class TestCsvIO:
    def test_round_trip(self):
        rows = [(1, 2.5, "hi", True), (2, -1.0, "a,b", False)]
        text = csvio.format_rows(rows, SCHEMA)
        assert csvio.parse_rows(text, SCHEMA) == rows

    def test_round_trip_with_header(self):
        rows = [(1, 1.0, "x", True)]
        text = csvio.format_rows(rows, SCHEMA, header=True)
        assert text.splitlines()[0] == "x,f,s,b"
        assert csvio.parse_rows(text, SCHEMA, header=True) == rows

    def test_null_round_trip(self):
        rows = [(None, None, None, None)]
        text = csvio.format_rows(rows, SCHEMA)
        assert csvio.parse_rows(text, SCHEMA) == rows

    def test_custom_delimiter(self):
        rows = [(1, 1.0, "x|y", True)]
        text = csvio.format_rows(rows, SCHEMA, delimiter="|")
        assert csvio.parse_rows(text, SCHEMA, delimiter="|") == rows

    def test_arity_mismatch_raises(self):
        with pytest.raises(ExecutionError):
            csvio.parse_rows("1,2\n", SCHEMA)

    def test_versioned_round_trip(self):
        triples = [(1, 10, (1, 2.5, "a", True)),
                   (2, 20, (None, None, None, None))]
        text = csvio.format_versioned_rows(triples, SCHEMA)
        assert list(csvio.parse_versioned_rows(text, SCHEMA)) == triples

    def test_versioned_arity_mismatch_raises(self):
        with pytest.raises(ExecutionError):
            list(csvio.parse_versioned_rows("1,2,3\n", SCHEMA))

    def test_empty_text_parses_to_nothing(self):
        assert csvio.parse_rows("", SCHEMA) == []
        assert list(csvio.parse_versioned_rows("", SCHEMA)) == []


class TestLongText:
    """A TEXT value longer than the csv module's default field limit
    (131,072 characters) reads back from every file it is written to."""

    LONG = 'a,"b\n' * 40_000  # 200,000 characters

    def test_table_file_reopens(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, s text)")
        db.execute(f"INSERT INTO t VALUES (1, '{self.LONG}')")
        db.checkpoint()
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.query("SELECT s FROM t") == [(self.LONG,)]

    def test_copy_from_reads_it(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (id integer, s text)")
        source = tmp_path / "t.csv"
        source.write_text(csvio.format_rows(
            [(1, self.LONG)], db.catalog.get_table("t").schema))
        db.execute(f"COPY t FROM '{source}'")
        assert db.query("SELECT id, s FROM t") == [(1, self.LONG)]
