"""Checkpoints rewrite only the tables that changed.

The invariant every test here checks: right after any checkpoint, each
``.tbl`` file in the data directory holds exactly its table's
``serialize()`` bytes, and there is no file for a table the catalog
does not hold. A checkpoint that follows another with no write in
between writes no table file at all.
"""

from __future__ import annotations

import random

import pytest

from repro.db import Database
from repro.errors import CatalogError, IntegrityError, TransientError
from tests.faults import FaultInjector, FaultyIO, SimulatedCrash
from repro.db.wal import WAL_MAGIC

TABLE_WRITE = "checkpoint.table.write"
SEEDS = range(12)


def assert_files_current(database, directory):
    on_disk = {path.name[: -len(".tbl")]: path.read_bytes()
               for path in directory.glob("*.tbl")}
    assert sorted(on_disk) == database.catalog.table_names()
    for table in database.catalog:
        assert on_disk[table.name] == table.serialize().encode("utf-8"), (
            f"{table.name}.tbl lags its table after a checkpoint")


def table_writes(injector):
    return sum(1 for point, _ in injector.trace if point == TABLE_WRITE)


def checkpoint_and_check(database, injector, directory):
    database.checkpoint()
    assert_files_current(database, directory)
    assert database.catalog.dirty_tables == set()
    before = table_writes(injector)
    database.checkpoint()
    assert table_writes(injector) == before, (
        "a checkpoint with no write since the last one wrote a table file")


def state(database):
    """Rows with their rowids and versions, plus index names."""
    return {
        table.name: (sorted((rowid, table.versions[rowid], row)
                            for rowid, row in table.rows.items()),
                     sorted(table.indexes))
        for table in database.catalog}


class Workload:
    """Random single steps over two tables, ``a`` (with a primary key)
    and ``b`` (without one)."""

    KINDS = ("insert", "update", "delete", "pk_violation", "rollback",
             "commit", "index", "drop_recreate", "restore")

    def __init__(self, database, rng):
        self.database = database
        self.rng = rng
        self.next_id = 1
        database.execute("CREATE TABLE a (id integer PRIMARY KEY, "
                         "v integer, note text)")
        self.create_b()

    def create_b(self):
        self.database.execute("CREATE TABLE b (k integer, w text)")
        self.database.execute("INSERT INTO b VALUES (1, 'one'), (2, 'two')")

    def fresh_id(self):
        self.next_id += 1
        return self.next_id

    def some_id(self):
        ids = [row[0] for row in self.database.query("SELECT id FROM a")]
        return self.rng.choice(ids) if ids else self.fresh_id()

    def run(self, kind):
        getattr(self, kind)()

    def insert(self):
        key = self.fresh_id()
        self.database.execute(
            f"INSERT INTO a VALUES ({key}, {self.rng.randrange(50)}, "
            f"'n{key}')")
        self.database.execute(
            f"INSERT INTO b VALUES ({self.rng.randrange(9)}, 'w')")

    def update(self):
        self.database.execute(
            f"UPDATE a SET v = v + 1 WHERE id = {self.some_id()}")
        self.database.execute(
            f"UPDATE b SET w = 'u{self.rng.randrange(9)}' "
            f"WHERE k < {self.rng.randrange(9)}")

    def delete(self):
        self.database.execute(f"DELETE FROM a WHERE id = {self.some_id()}")

    def pk_violation(self):
        # the second row collides with the first: the statement aborts
        key = self.fresh_id()
        with pytest.raises(IntegrityError):
            self.database.execute(
                f"INSERT INTO a VALUES ({key}, 1, 'x'), ({key}, 2, 'y')")

    def rollback(self):
        self.database.execute("BEGIN")
        self.database.execute(
            f"INSERT INTO a VALUES ({self.fresh_id()}, 0, 'gone')")
        self.database.execute(
            f"UPDATE a SET note = 'gone' WHERE id = {self.some_id()}")
        self.database.execute("INSERT INTO b VALUES (99, 'gone')")
        self.database.execute("ROLLBACK")

    def commit(self):
        self.database.execute("BEGIN")
        self.database.execute(
            f"INSERT INTO a VALUES ({self.fresh_id()}, 7, 'txn')")
        self.database.execute("DELETE FROM b WHERE k = 1")
        self.database.execute("COMMIT")

    def index(self):
        if self.database.catalog.has_index("ix_a_v"):
            self.database.execute("DROP INDEX ix_a_v")
        else:
            self.database.execute("CREATE INDEX ix_a_v ON a (v)")

    def drop_recreate(self):
        self.database.execute("DROP TABLE b")
        self.create_b()

    def restore(self):
        # a package restore: rows installed under explicit rowids and
        # versions, past the engine, into a possibly checkpointed table
        catalog = self.database.catalog
        heap = catalog.get_table("a")
        rowid = heap.next_rowid + self.rng.randrange(3)
        key = self.fresh_id()
        heap.restore_row(rowid, (key, 5, f"r{key}"), self.database.clock.now)
        catalog.mark_dirty("a")


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{seed}" for seed in SEEDS])
def test_every_checkpoint_leaves_files_equal_to_their_tables(tmp_path, seed):
    rng = random.Random(seed)
    directory = tmp_path / "d"
    injector = FaultInjector()
    database = Database(data_directory=directory, io=FaultyIO(injector))
    workload = Workload(database, rng)
    checkpoint_and_check(database, injector, directory)
    kinds = list(Workload.KINDS) * 2 + rng.choices(Workload.KINDS, k=12)
    rng.shuffle(kinds)
    for kind in kinds:
        workload.run(kind)
        if rng.random() < 0.5:
            checkpoint_and_check(database, injector, directory)
    checkpoint_and_check(database, injector, directory)
    # a clean file is current: reopening reads back the same tables
    reopened = Database(data_directory=directory)
    assert state(reopened) == state(database)
    assert_files_current(reopened, directory)


def test_checkpoint_writes_only_changed_tables(tmp_path):
    directory = tmp_path / "d"
    injector = FaultInjector()
    database = Database(data_directory=directory, io=FaultyIO(injector))
    database.execute("CREATE TABLE a (id integer)")
    database.execute("CREATE TABLE b (id integer)")
    database.checkpoint()
    assert table_writes(injector) == 2
    database.execute("INSERT INTO b VALUES (1)")
    assert database.catalog.dirty_tables == {"b"}
    database.checkpoint()
    assert table_writes(injector) == 3
    assert_files_current(database, directory)


def test_a_table_without_a_file_is_written(tmp_path):
    directory = tmp_path / "d"
    database = Database(data_directory=directory)
    database.execute("CREATE TABLE t (id integer)")
    database.execute("INSERT INTO t VALUES (1)")
    database.checkpoint()
    (directory / "t.tbl").unlink()
    database.checkpoint()
    assert_files_current(database, directory)


WORK = [
    "CREATE TABLE a (id integer PRIMARY KEY, v text)",
    "INSERT INTO a VALUES (1, 'x'), (2, 'y')",
    "CREATE TABLE b (k integer)",
    "INSERT INTO b VALUES (10), (20)",
    "CHECKPOINT",
    "UPDATE a SET v = 'z' WHERE id = 2",
    "CREATE INDEX ix_b ON b (k)",
    "DELETE FROM b WHERE k = 10",
    "CREATE TABLE c (n integer)",
    "INSERT INTO c VALUES (5)",
    "CHECKPOINT",
]


def run_work(database):
    for sql in WORK:
        if sql == "CHECKPOINT":
            database.checkpoint()
        else:
            database.execute(sql)


@pytest.mark.parametrize(("point", "occurrence"), [
    ("checkpoint.table.rename", 3),
    ("checkpoint.table.rename", 4),
    ("checkpoint.meta.rename", 2),
    ("wal.reset.rename", 2),
])
def test_recover_then_checkpoint_then_reopen_keeps_state(
        tmp_path, point, occurrence):
    """The crash hits the second checkpoint, after every statement has
    committed: recovery must hold all of them, and a checkpoint of the
    recovered database must keep exactly that state."""
    expected = Database()
    run_work(expected)
    directory = tmp_path / "d"
    injector = FaultInjector().crash_at(point, occurrence=occurrence)
    with pytest.raises(SimulatedCrash):
        run_work(Database(data_directory=directory, io=FaultyIO(injector)))
    recovered = Database(data_directory=directory)
    assert state(recovered) == state(expected)
    recovered.checkpoint()
    assert_files_current(recovered, directory)
    reopened = Database(data_directory=directory)
    assert state(reopened) == state(expected)
    assert_files_current(reopened, directory)


def test_failed_checkpoint_retries_the_tables_it_did_not_write(tmp_path):
    directory = tmp_path / "d"
    injector = FaultInjector().fail_at("checkpoint.table.rename",
                                       occurrence=2)
    database = Database(data_directory=directory, io=FaultyIO(injector))
    database.execute("CREATE TABLE a (id integer)")
    database.execute("INSERT INTO a VALUES (1)")
    database.execute("CREATE TABLE b (id integer)")
    database.execute("INSERT INTO b VALUES (2)")
    with pytest.raises(TransientError):
        database.checkpoint()
    # the first table's rename went through; the second's did not
    assert database.catalog.dirty_tables == {"b"}
    assert (directory / "a.tbl").read_bytes() == (
        database.catalog.get_table("a").serialize().encode("utf-8"))
    assert not (directory / "b.tbl").exists()
    # the WAL was not reset: it still holds b's rows
    assert (directory / "wal.log").stat().st_size > len(WAL_MAGIC)
    before = len(injector.trace)
    database.checkpoint()
    retried = [point for point, _ in injector.trace[before:]
               if point.startswith("checkpoint.table.")]
    assert retried == ["checkpoint.table.write", "checkpoint.table.fsync",
                       "checkpoint.table.rename"]
    assert_files_current(database, directory)
    assert (directory / "wal.log").read_bytes() == WAL_MAGIC
    reopened = Database(data_directory=directory)
    assert reopened.query("SELECT id FROM b") == [(2,)]


def test_non_utf8_table_file_is_a_catalog_error(tmp_path):
    directory = tmp_path / "d"
    database = Database(data_directory=directory)
    database.execute("CREATE TABLE t (id integer)")
    database.checkpoint()
    path = directory / "t.tbl"
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(CatalogError, match=r"t\.tbl is not UTF-8") as info:
        Database(data_directory=directory)
    assert "\n" not in str(info.value)


def test_malformed_table_file_error_names_the_file(tmp_path):
    directory = tmp_path / "d"
    database = Database(data_directory=directory)
    database.execute("CREATE TABLE t (id integer)")
    database.checkpoint()
    (directory / "t.tbl").write_text("{not json\n")
    with pytest.raises(CatalogError, match=r"t\.tbl") as info:
        Database(data_directory=directory)
    assert "\n" not in str(info.value)


class TestAttachTable:
    def make_table(self):
        source = Database()
        source.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
        source.execute("INSERT INTO t VALUES (1, 10)")
        return source.catalog.get_table("t")

    def test_attach_wires_mvcc_bumps_version_and_marks_dirty(self):
        database = Database()
        version = database.catalog.version
        table = self.make_table()
        database.catalog.attach_table(table)
        assert database.catalog.version == version + 1
        assert "t" in database.catalog.dirty_tables
        database.clock.advance(table.versions[1])
        # scans of the attached table see a transaction's own writes
        writer = database.create_session("writer")
        database.execute("BEGIN", session=writer)
        database.execute("UPDATE t SET v = 99 WHERE id = 1", session=writer)
        assert database.query("SELECT v FROM t", session=writer) == [(99,)]
        with pytest.raises(TransientError):
            database.query("SELECT v FROM t")
        database.execute("ROLLBACK", session=writer)
        assert database.query("SELECT v FROM t") == [(10,)]

    def test_table_attached_after_a_drop_reaches_its_file(self, tmp_path):
        """The dirty mark is what makes a file-backed catalog write an
        attached table whose name still has a file: ``flush`` writes an
        unmarked table only when it has no file yet, and a dropped
        table's file stays until that same checkpoint."""
        directory = tmp_path / "d"
        database = Database(data_directory=directory)
        database.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
        database.execute("INSERT INTO t VALUES (7, 70)")
        database.checkpoint()
        database.execute("DROP TABLE t")
        database.catalog.attach_table(self.make_table())
        database.checkpoint()
        reopened = Database(data_directory=directory)
        assert reopened.query("SELECT id, v FROM t") == [(1, 10)]

    def test_attach_refuses_a_taken_name(self):
        database = Database()
        database.execute("CREATE TABLE t (id integer)")
        with pytest.raises(CatalogError, match="already exists"):
            database.catalog.attach_table(self.make_table())
