"""Transactions: one session at a time, visibility, own writes, undo.

One session at a time may hold an open transaction. Its statements
write the heap in place and read it, own writes included; any statement
of another session, reads included, is refused with a one-line
``TransientError`` until it ends. A failed statement is undone alone;
ROLLBACK undoes the whole transaction. These are the engine-level unit
tests; the anomaly cases, sent over the wire, live in
``test_anomalies.py``.
"""

import copy

import pytest

from repro.db import Database, DBClient, DBServer, RetryPolicy
from repro.db import protocol
from repro.db.provtypes import TupleRef
from repro.errors import (
    IntegrityError,
    TransactionError,
    TransientError,
)

pytestmark = pytest.mark.concurrency


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE accounts (id integer PRIMARY KEY, balance integer)")
    database.execute("INSERT INTO accounts VALUES (1, 10), (2, 20)")
    return database


@pytest.fixture
def one_session(db):
    return db, db.create_session("a")


@pytest.fixture
def two_sessions(db):
    return db, db.create_session("a"), db.create_session("b")


def balance(db, session, account_id):
    rows = db.query(f"SELECT balance FROM accounts WHERE id = {account_id}",
                    session=session)
    return rows[0][0] if rows else None


class TestSnapshotVisibility:
    """No other session can change what an open transaction reads, nor
    read what it wrote, until the transaction ends."""

    def test_reader_sees_state_as_of_begin(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        assert balance(db, a, 1) == 10
        with pytest.raises(TransientError):
            db.execute("UPDATE accounts SET balance = 99 WHERE id = 1",
                       session=b)
        assert balance(db, a, 1) == 10
        with pytest.raises(TransientError):
            balance(db, b, 1)
        db.execute("COMMIT", session=a)
        assert balance(db, b, 1) == 10

    def test_snapshot_refreshes_after_commit(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("COMMIT", session=a)
        db.execute("UPDATE accounts SET balance = 99 WHERE id = 1",
                   session=b)
        db.execute("BEGIN", session=a)
        assert balance(db, a, 1) == 99
        db.execute("COMMIT", session=a)

    def test_other_sessions_uncommitted_writes_invisible(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=b)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=b)
        db.execute("UPDATE accounts SET balance = 0 WHERE id = 1", session=b)
        db.execute("DELETE FROM accounts WHERE id = 2", session=b)
        # another session reads none of it: its read is refused
        sql = "SELECT id, balance FROM accounts ORDER BY id"
        with pytest.raises(TransientError):
            db.query(sql, session=a)
        assert db.query(sql, session=b) == [(1, 0), (3, 30)]
        db.execute("ROLLBACK", session=b)
        assert db.query(sql, session=a) == [(1, 10), (2, 20)]

    def test_snapshot_covers_inserts_and_deletes(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        for sql in ("INSERT INTO accounts VALUES (3, 30)",
                    "DELETE FROM accounts WHERE id = 2"):
            with pytest.raises(TransientError):
                db.execute(sql, session=b)
        assert db.query("SELECT id FROM accounts ORDER BY id",
                        session=a) == [(1,), (2,)]
        db.execute("COMMIT", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=b)
        db.execute("DELETE FROM accounts WHERE id = 2", session=b)
        assert db.query("SELECT id FROM accounts ORDER BY id",
                        session=a) == [(1,), (3,)]

    def test_aggregates_respect_snapshot(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 70)", session=a)
        assert db.query("SELECT sum(balance) FROM accounts",
                        session=a) == [(100,)]
        # an autocommit reader cannot aggregate the uncommitted row
        with pytest.raises(TransientError):
            db.query("SELECT sum(balance) FROM accounts", session=b)
        db.execute("ROLLBACK", session=a)
        assert db.query("SELECT sum(balance) FROM accounts",
                        session=b) == [(30,)]

    def test_index_scan_respects_snapshot(self, two_sessions):
        db, a, b = two_sessions
        db.execute("CREATE INDEX ix_bal ON accounts (balance)")
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 77 WHERE id = 1",
                   session=a)
        # equality probes on the indexed column: the writer sees its
        # write, an autocommit reader is refused
        assert db.query("SELECT id FROM accounts WHERE balance = 77",
                        session=a) == [(1,)]
        for value in (10, 77):
            with pytest.raises(TransientError):
                db.query(f"SELECT id FROM accounts WHERE balance = {value}",
                         session=b)
        db.execute("COMMIT", session=a)
        assert db.query("SELECT id FROM accounts WHERE balance = 77",
                        session=b) == [(1,)]
        assert db.query("SELECT id FROM accounts WHERE balance = 10",
                        session=b) == []


class TestReadYourOwnWrites:
    def test_overlay_merges_over_snapshot(self, one_session):
        db, a = one_session
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=a)
        db.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                   session=a)
        db.execute("DELETE FROM accounts WHERE id = 2", session=a)
        assert db.query("SELECT id, balance FROM accounts ORDER BY id",
                        session=a) == [(1, 11), (3, 30)]
        db.execute("COMMIT", session=a)
        assert db.query("SELECT id, balance FROM accounts ORDER BY id"
                        ) == [(1, 11), (3, 30)]

    def test_update_of_own_insert(self, one_session):
        db, a = one_session
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=a)
        db.execute("UPDATE accounts SET balance = 31 WHERE id = 3",
                   session=a)
        db.execute("COMMIT", session=a)
        assert balance(db, a, 3) == 31

    def test_delete_of_own_insert_leaves_no_trace(self, one_session):
        db, a = one_session
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=a)
        db.execute("DELETE FROM accounts WHERE id = 3", session=a)
        db.execute("COMMIT", session=a)
        assert db.query("SELECT id FROM accounts ORDER BY id"
                        ) == [(1,), (2,)]

    def test_rollback_drops_everything(self, one_session):
        db, a = one_session
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=a)
        db.execute("UPDATE accounts SET balance = 0 WHERE id = 1",
                   session=a)
        db.execute("DELETE FROM accounts WHERE id = 2", session=a)
        db.execute("ROLLBACK", session=a)
        assert db.query("SELECT id, balance FROM accounts ORDER BY id",
                        session=a) == [(1, 10), (2, 20)]

    def test_own_writes_through_an_index_scan(self, db):
        db.execute("CREATE INDEX ix_bal ON accounts (balance)")
        a = db.create_session("a")
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 77)", session=a)
        db.execute("UPDATE accounts SET balance = 77 WHERE id = 1",
                   session=a)
        db.execute("DELETE FROM accounts WHERE balance = 20", session=a)
        # equality probes on the indexed column see the write-set
        assert db.query("SELECT id FROM accounts WHERE balance = 77",
                        session=a) == [(1,), (3,)]
        assert db.query("SELECT id FROM accounts WHERE balance = 10",
                        session=a) == []
        assert db.query("SELECT id FROM accounts WHERE balance = 20",
                        session=a) == []
        db.execute("COMMIT", session=a)
        assert db.query("SELECT id FROM accounts WHERE balance = 77"
                        ) == [(1,), (3,)]

    def test_own_writes_in_an_aggregate(self, db):
        a = db.create_session("a")
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 70)", session=a)
        db.execute("UPDATE accounts SET balance = 15 WHERE id = 1",
                   session=a)
        db.execute("DELETE FROM accounts WHERE id = 2", session=a)
        assert db.query("SELECT count(*), sum(balance) FROM accounts",
                        session=a) == [(2, 85)]
        db.execute("ROLLBACK", session=a)
        assert db.query("SELECT count(*), sum(balance) FROM accounts",
                        session=a) == [(2, 30)]


class TestFirstCommitterWins:
    """The degenerate form that survives the one-writer rule: the first
    session to BEGIN is the only one that can commit until it ends;
    every other writer is refused before it writes (TestSingleWriter)."""

    def test_disjoint_write_sets_both_commit(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                   session=a)
        db.execute("COMMIT", session=a)
        db.execute("BEGIN", session=b)
        db.execute("UPDATE accounts SET balance = 22 WHERE id = 2",
                   session=b)
        db.execute("COMMIT", session=b)
        assert db.query("SELECT id, balance FROM accounts ORDER BY id"
                        ) == [(1, 11), (2, 22)]

    def test_duplicate_pk_inside_transaction_is_integrity_error(
            self, one_session):
        db, a = one_session
        db.execute("BEGIN", session=a)
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO accounts VALUES (1, 0)", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=a)
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO accounts VALUES (3, 33)", session=a)
        # a key the transaction deletes, or moves away, is free again
        db.execute("DELETE FROM accounts WHERE id = 2", session=a)
        db.execute("UPDATE accounts SET id = 4 WHERE id = 1", session=a)
        db.execute("INSERT INTO accounts VALUES (1, 1), (2, 2)", session=a)
        db.execute("COMMIT", session=a)
        assert db.query("SELECT id, balance FROM accounts ORDER BY id"
                        ) == [(1, 1), (2, 2), (3, 30), (4, 10)]

    def test_write_conflict_is_transient(self, two_sessions):
        """A write-write conflict between two sessions now surfaces as
        the one-writer refusal: a TransientError, raised before the
        second session writes anything."""
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                   session=a)
        with pytest.raises(TransientError):
            db.execute("UPDATE accounts SET balance = 12 WHERE id = 1",
                       session=b)
        db.execute("COMMIT", session=a)
        assert balance(db, b, 1) == 11


# one statement of each writing kind; a second session sends it while
# the first has a transaction open
REFUSED_WRITES = {
    "begin": "BEGIN",
    "insert": "INSERT INTO accounts VALUES (3, 30)",
    "update": "UPDATE accounts SET balance = 0 WHERE id = 1",
    "delete": "DELETE FROM accounts WHERE id = 2",
    "create-table": "CREATE TABLE z (x integer)",
    "drop-table": "DROP TABLE accounts",
    "create-index": "CREATE INDEX ix_id ON accounts (id)",
    "drop-index": "DROP INDEX ix_bal",
    "copy-from": "COPY accounts FROM '/in.csv'",
}


class TestSingleWriter:
    """One open transaction per database. While session a holds it,
    every statement of session b (BEGIN, DML, DDL, COPY, reads) fails
    with a one-line TransientError and changes nothing."""

    @pytest.fixture
    def durable(self, tmp_path):
        database = Database(data_directory=tmp_path / "d")
        database.execute(
            "CREATE TABLE accounts (id integer PRIMARY KEY, "
            "balance integer)")
        database.execute("CREATE INDEX ix_bal ON accounts (balance)")
        database.execute("INSERT INTO accounts VALUES (1, 10), (2, 20)")
        database.read_file = lambda path: "5,50\n"
        return database

    @staticmethod
    def state(database, session):
        return (database.catalog.version,
                sorted(database.catalog.table_names()),
                database.catalog.get_table("accounts").next_rowid,
                database.query("SELECT id, balance FROM accounts "
                               "ORDER BY id", session=session),
                database.wal.pending_records,
                database.wal.path.read_bytes(),
                database.commit_count,
                database.clock.now)

    @pytest.mark.parametrize("sql", list(REFUSED_WRITES.values()),
                             ids=list(REFUSED_WRITES))
    def test_second_session_writes_are_refused(self, durable, sql):
        a = durable.create_session("a")
        b = durable.create_session("b")
        durable.execute("BEGIN", session=a)
        durable.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                        session=a)
        before = self.state(durable, a)
        with pytest.raises(TransientError) as refused:
            durable.execute(sql, session=b)
        assert "\n" not in str(refused.value)
        assert "'a'" in str(refused.value)  # names the writer
        assert self.state(durable, a) == before
        assert not b.in_transaction
        assert durable.writer is a
        # the writer carries on undisturbed
        durable.execute("COMMIT", session=a)
        assert durable.query("SELECT balance FROM accounts WHERE id = 1"
                             ) == [(11,)]

    @pytest.mark.parametrize("sql", [
        "SELECT id, balance FROM accounts",
        "SELECT PROVENANCE balance FROM accounts WHERE id = 1",
        "SELECT count(*) FROM accounts WHERE balance = 11",
        "EXPLAIN SELECT id FROM accounts",
        "COPY accounts TO '/out.csv'",
    ], ids=["select", "provenance", "index-probe", "explain", "copy-to"])
    def test_second_session_reads_are_refused(self, durable, sql):
        """No other session reads the heap while it holds uncommitted
        writes: reads are refused like writes, and have no effect."""
        written = []
        durable.write_file = lambda path, text: written.append(path)
        a = durable.create_session("a")
        b = durable.create_session("b")
        durable.execute("BEGIN", session=a)
        durable.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                        session=a)
        before = self.state(durable, a)
        with pytest.raises(TransientError) as refused:
            durable.execute(sql, session=b)
        assert "\n" not in str(refused.value)
        assert self.state(durable, a) == before
        assert written == []
        durable.execute("ROLLBACK", session=a)
        durable.execute(sql, session=b)  # served once a has ended

    def test_autocommit_select_sees_committed_state(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                   session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=a)
        # no dirty read: b's reads are refused until a ends
        for sql in ("SELECT id, balance FROM accounts ORDER BY id",
                    "SELECT count(*) FROM accounts"):
            with pytest.raises(TransientError):
                db.query(sql, session=b)
        assert db.writer is a and not b.in_transaction
        db.execute("COMMIT", session=a)
        assert db.query("SELECT id, balance FROM accounts ORDER BY id",
                        session=b) == [(1, 11), (2, 20), (3, 30)]

    @pytest.mark.parametrize("ending", ["COMMIT", "ROLLBACK"])
    def test_writes_resume_when_the_transaction_ends(self, two_sessions,
                                                     ending):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        with pytest.raises(TransientError):
            db.execute("BEGIN", session=b)
        db.execute(ending, session=a)
        assert db.writer is None
        db.execute("BEGIN", session=b)
        db.execute("UPDATE accounts SET balance = 0 WHERE id = 2",
                   session=b)
        db.execute("COMMIT", session=b)
        assert balance(db, b, 2) == 0

    def test_writes_resume_after_crash_recovery(self, durable):
        a = durable.create_session("a")
        durable.execute("BEGIN", session=a)
        durable.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                        session=a)
        # the process dies with a's transaction open: nothing of it
        # reached the WAL, and the reopened database has no writer
        reopened = Database(data_directory=durable.wal.path.parent)
        assert reopened.writer is None
        reopened.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        assert reopened.query("SELECT balance FROM accounts WHERE id = 1"
                              ) == [(0,)]

    def test_write_skew_is_refused(self, two_sessions):
        """Snapshot isolation let two transactions check a shared
        invariant and write disjoint rows; the second is refused now."""
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        assert db.query("SELECT sum(balance) FROM accounts",
                        session=a) == [(30,)]
        with pytest.raises(TransientError):
            db.execute("BEGIN", session=b)
        db.execute("UPDATE accounts SET balance = 0 WHERE id = 1",
                   session=a)
        with pytest.raises(TransientError):
            db.execute("UPDATE accounts SET balance = 0 WHERE id = 2",
                       session=b)
        db.execute("COMMIT", session=a)
        assert db.query("SELECT sum(balance) FROM accounts") == [(20,)]


# one transaction's statements, each a kind of in-place write that the
# undo log must be able to take back
IN_PLACE_SCRIPT = [
    "UPDATE accounts SET balance = 15 WHERE id = 1",   # indexed column
    "UPDATE accounts SET id = 9 WHERE id = 1",          # moves a PK
    # takes the freed key: restoring row 1 before taking row 2 out
    # would collide on it
    "UPDATE accounts SET id = 1 WHERE id = 2",
    "INSERT INTO accounts VALUES (4, 40)",
    "UPDATE accounts SET balance = 44 WHERE id = 4",   # its own insert
    "DELETE FROM accounts WHERE id = 3",
]
# a multi-row INSERT whose third row clashes with the moved PK
FAILING_INSERT = "INSERT INTO accounts VALUES (5, 50), (6, 60), (9, 90)"


class TestInPlaceUndo:
    """Transactions write the heap, its PK index and its hash buckets in
    place. A failed statement and a ROLLBACK must take all of it back;
    a COMMIT must leave a WAL whose recovery rebuilds it exactly."""

    @staticmethod
    def make(path):
        database = Database(data_directory=path)
        database.execute(
            "CREATE TABLE accounts (id integer PRIMARY KEY, "
            "balance integer)")
        database.execute("CREATE INDEX ix_bal ON accounts (balance)")
        database.execute(
            "INSERT INTO accounts VALUES (1, 10), (2, 20), (3, 30)")
        return database

    @staticmethod
    def heap(database):
        table = database.catalog.get_table("accounts")
        return copy.deepcopy((
            table.rows, table.versions, table._pk_index,
            table.indexes["ix_bal"].buckets, table.next_rowid,
            database.wal.pending_records))

    def run_script(self, database, session):
        database.execute("BEGIN", session=session)
        for sql in IN_PLACE_SCRIPT:
            database.execute(sql, session=session)
        before = self.heap(database)
        with pytest.raises(IntegrityError):
            database.execute(FAILING_INSERT, session=session)
        # the failed INSERT undoes only itself
        assert self.heap(database) == before
        assert database.query("SELECT id, balance FROM accounts "
                              "ORDER BY id", session=session) == [
            (1, 20), (4, 44), (9, 15)]

    def test_rollback_equals_a_twin_that_never_ran_it(self, tmp_path):
        database = self.make(tmp_path / "d")
        twin = self.make(tmp_path / "twin")
        session = database.create_session("a")
        self.run_script(database, session)
        database.execute("ROLLBACK", session=session)
        assert self.heap(database) == self.heap(twin)
        assert (database.wal.path.read_bytes()
                == twin.wal.path.read_bytes())
        # probe the old and the new value of every changed key
        for value in (10, 15, 20, 30, 40, 44, 50, 60, 90):
            sql = f"SELECT id FROM accounts WHERE balance = {value}"
            assert database.query(sql) == twin.query(sql), value
        for key in (1, 2, 3, 4, 5, 6, 9):
            sql = f"SELECT balance FROM accounts WHERE id = {key}"
            assert database.query(sql) == twin.query(sql), key

    def test_commit_recovers_exactly_the_heap(self, tmp_path):
        database = self.make(tmp_path / "d")
        session = database.create_session("a")
        self.run_script(database, session)
        database.execute("COMMIT", session=session)
        table = database.catalog.get_table("accounts")
        recovered = Database(data_directory=tmp_path / "d")
        again = recovered.catalog.get_table("accounts")
        assert again.rows == table.rows
        assert again.versions == table.versions
        assert (recovered.query("SELECT id FROM accounts WHERE "
                                "balance = 44") == [(4,)])


class TestTransactionRules:
    def test_ddl_inside_transaction_is_rejected(self, one_session):
        db, a = one_session
        db.execute("CREATE INDEX ix_bal ON accounts (balance)")
        db.execute("BEGIN", session=a)
        for ddl in ("CREATE TABLE z (x integer)",
                    "DROP TABLE accounts",
                    "CREATE INDEX ix ON accounts (id)",
                    "DROP INDEX ix_bal"):
            with pytest.raises(TransactionError):
                db.execute(ddl, session=a)
        db.execute("ROLLBACK", session=a)
        db.execute("CREATE TABLE z (x integer)", session=a)  # fine now

    def test_checkpoint_refused_while_any_transaction_open(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (x integer)")
        a = db.create_session("a")
        db.execute("BEGIN", session=a)
        with pytest.raises(TransactionError):
            db.checkpoint()
        db.execute("ROLLBACK", session=a)
        db.checkpoint()

    def test_nested_begin_and_stray_commit_are_errors(self, one_session):
        db, a = one_session
        with pytest.raises(TransactionError):
            db.execute("COMMIT", session=a)
        with pytest.raises(TransactionError):
            db.execute("ROLLBACK", session=a)
        db.execute("BEGIN", session=a)
        with pytest.raises(TransactionError):
            db.execute("BEGIN", session=a)
        db.execute("ROLLBACK", session=a)

    def test_sessions_are_isolated_objects(self, db):
        a = db.create_session("a")
        b = db.create_session("b")
        assert a.session_id != b.session_id
        db.execute("BEGIN", session=a)
        assert a.in_transaction and not b.in_transaction
        db.execute("ROLLBACK", session=a)


class TestSnapshotLineage:
    def test_lineage_references_the_snapshots_tuple_versions(
            self, one_session):
        """Provenance of a read inside a transaction cites the tuple
        versions that read saw: the committed one until the transaction
        writes the row, then its own provisional one, and the committed
        one again after a rollback."""
        db, a = one_session
        sql = "SELECT balance FROM accounts WHERE id = 1"
        (old_ref,) = db.execute(sql, provenance=True).lineages[0]
        db.execute("BEGIN", session=a)
        inside = db.execute(sql, provenance=True, session=a)
        assert inside.rows == [(10,)]
        assert inside.lineages[0] == frozenset([old_ref])
        db.execute("UPDATE accounts SET balance = 99 WHERE id = 1",
                   session=a)
        (new_ref,) = db.execute(sql, provenance=True,
                                session=a).lineages[0]
        assert new_ref.rowid == old_ref.rowid
        assert new_ref.version > old_ref.version
        db.execute("ROLLBACK", session=a)
        assert db.execute(sql, provenance=True).lineages[0] == frozenset(
            [old_ref])

    def test_own_writes_lineage_uses_provisional_versions(
            self, one_session):
        db, a = one_session
        db.execute("BEGIN", session=a)
        result = db.execute(
            "UPDATE accounts SET balance = 11 WHERE id = 1", session=a)
        (written_ref,) = result.written_lineage
        inside = db.execute("SELECT balance FROM accounts WHERE id = 1",
                            provenance=True, session=a)
        assert inside.rows == [(11,)]
        (ref,) = inside.lineages[0]
        assert ref == written_ref
        db.execute("COMMIT", session=a)
        # the TupleRef recorded mid-transaction stays valid after commit
        after = db.execute("SELECT balance FROM accounts WHERE id = 1",
                           provenance=True)
        assert after.lineages[0] == frozenset([written_ref])


class TestSnapshotScans:
    """Full-table scans inside a transaction return exactly the rows
    and lineage the committed heap and the transaction's own writes
    define."""

    def make_db(self):
        database = Database()
        database.execute("CREATE TABLE t (k integer, v integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k}, {k * 10})" for k in range(50)))
        return database

    @staticmethod
    def committed(k, v=None):
        """Row and lineage of the initial load's row ``k`` (rowid
        ``k + 1``, written at tick 1)."""
        return ((k, k * 10 if v is None else v),
                frozenset([TupleRef("t", k + 1, 1)]))

    def test_open_txn_overlay_merges_insert_update_delete(self):
        database = self.make_db()
        session = database.create_session("writer")
        database.execute("BEGIN", session=session)
        (inserted,) = database.execute(
            "INSERT INTO t VALUES (100, 1000)",
            session=session).written_lineage
        (updated,) = database.execute(
            "UPDATE t SET v = -1 WHERE k = 3",
            session=session).written_lineage
        database.execute("DELETE FROM t WHERE k = 7", session=session)
        expected = [self.committed(k) for k in range(50) if k != 7]
        expected[3] = ((3, -1), frozenset([updated]))
        expected.append(((100, 1000), frozenset([inserted])))
        result = database.execute("SELECT k, v FROM t", True,
                                  session=session)
        assert list(zip(result.rows, result.lineages)) == expected
        plain = database.execute("SELECT k, v FROM t", session=session)
        assert plain.rows == result.rows
        # the writes are uncommitted: other sessions may not read them
        with pytest.raises(TransientError):
            database.query("SELECT k, v FROM t")
        database.execute("ROLLBACK", session=session)
        assert database.query("SELECT k, v FROM t") == [
            (k, k * 10) for k in range(50)]

    def test_stale_snapshot_after_concurrent_autocommit(self):
        database = self.make_db()
        reader = database.create_session("reader")
        database.execute("BEGIN", session=reader)
        old = database.execute("SELECT k, v FROM t", True, session=reader)
        assert list(zip(old.rows, old.lineages)) == [
            self.committed(k) for k in range(50)]
        # another session's autocommit write is refused while the
        # transaction is open, so its reads cannot go stale
        with pytest.raises(TransientError):
            database.execute("UPDATE t SET v = 0 WHERE k < 10")
        again = database.execute("SELECT k, v FROM t", True,
                                 session=reader)
        assert again.rows == old.rows
        assert again.lineages == old.lineages
        database.execute("COMMIT", session=reader)
        database.execute("UPDATE t SET v = 0 WHERE k < 10")
        fresh = database.query("SELECT k, v FROM t", session=reader)
        assert fresh == [(k, 0 if k < 10 else k * 10) for k in range(50)]

    def test_commit_then_read_sees_committed_state(self):
        database = self.make_db()
        database.query("SELECT * FROM t")
        session = database.create_session("writer")
        database.execute("BEGIN", session=session)
        database.execute("INSERT INTO t VALUES (100, 1000)",
                         session=session)
        database.execute("DELETE FROM t WHERE k = 7", session=session)
        database.execute("COMMIT", session=session)
        rows = database.query("SELECT k, v FROM t")
        assert rows == [(k, k * 10) for k in range(50) if k != 7] + [
            (100, 1000)]
        database.execute("INSERT INTO t VALUES (500, 5000)")
        assert database.query("SELECT k, v FROM t WHERE k = 500") == [
            (500, 5000)]
        assert database.query("SELECT count(*) FROM t") == [(51,)]


class TestCommitDurability:
    def test_every_commit_fsyncs_once(self, tmp_path):
        server = DBServer(data_directory=tmp_path / "d")
        alice = DBClient(server.transport(), "alice", "1")
        bob = DBClient(server.transport(), "bob", "2")
        alice.connect()
        bob.connect()
        alice.execute("CREATE TABLE t (x integer)")
        wal = server.database.wal
        commits, fsyncs = wal.commit_count, wal.fsync_count
        alice.execute("INSERT INTO t VALUES (1)")
        bob.execute("INSERT INTO t VALUES (2)")
        alice.execute("INSERT INTO t VALUES (3)")
        # each autocommit is acknowledged only after its own fsync
        assert wal.commit_count == commits + 3
        assert wal.fsync_count == fsyncs + 3
        assert Database(data_directory=tmp_path / "d").query(
            "SELECT x FROM t ORDER BY x") == [(1,), (2,), (3,)]


class TestWireTransactions:
    @pytest.fixture
    def wired(self, db):
        server = DBServer(db)
        alice = DBClient(server.transport(), "alice", "1")
        bob = DBClient(server.transport(), "bob", "2")
        alice.connect()
        bob.connect()
        return server, alice, bob

    def test_txn_status_stamped_on_responses(self, wired):
        _, alice, _ = wired
        assert not alice.in_transaction
        alice.begin()
        assert alice.in_transaction
        alice.execute("UPDATE accounts SET balance = 11 WHERE id = 1")
        assert alice.in_transaction
        alice.commit()
        assert not alice.in_transaction

    def test_rollback_over_the_wire_drops_all_writes(self, wired):
        server, alice, _ = wired
        alice.begin()
        alice.execute("INSERT INTO accounts VALUES (3, 30)")
        alice.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        alice.execute("DELETE FROM accounts WHERE id = 2")
        assert alice.query("SELECT id, balance FROM accounts ORDER BY id"
                           ) == [(1, 0), (3, 30)]
        alice.rollback()
        assert not alice.in_transaction
        assert alice.query("SELECT id, balance FROM accounts ORDER BY id"
                           ) == [(1, 10), (2, 20)]
        assert server.database.query(
            "SELECT id, balance FROM accounts ORDER BY id"
        ) == [(1, 10), (2, 20)]

    def test_transaction_context_manager(self, wired):
        _, alice, bob = wired
        with alice.transaction():
            alice.execute("UPDATE accounts SET balance = 11 WHERE id = 1")
            with pytest.raises(TransientError):
                bob.query("SELECT balance FROM accounts WHERE id = 1")
        assert bob.query("SELECT balance FROM accounts WHERE id = 1"
                         ) == [(11,)]

    def test_refused_write_frame_is_transient(self, wired):
        """The refusal crosses the wire as one error frame flagged
        ``transient``, and the refused connection keeps serving."""
        server, alice, bob = wired
        alice.begin()
        request = protocol.encode_frame(protocol.query_frame(
            bob.connection_id,
            "UPDATE accounts SET balance = 11 WHERE id = 1"))
        response = protocol.decode_frame(server.handle_wire(request))
        assert response["frame"] == "error"
        assert response["error_type"] == "TransientError"
        assert response["transient"] is True
        assert "\n" not in response["message"]
        assert response["txn"] == "idle"
        with pytest.raises(TransientError):
            bob.begin()
        assert not bob.in_transaction
        with pytest.raises(TransientError):
            bob.query("SELECT balance FROM accounts WHERE id = 1")
        alice.commit()
        assert bob.query("SELECT balance FROM accounts WHERE id = 1"
                         ) == [(10,)]
        bob.execute("UPDATE accounts SET balance = 11 WHERE id = 1")
        assert bob.query("SELECT balance FROM accounts WHERE id = 1"
                         ) == [(11,)]

    def test_retry_policy_waits_out_the_open_transaction(self, db):
        """A client with a retry policy resends a refused statement
        after backing off; the injected sleep stands in for the time
        the other connection needs to finish."""
        server = DBServer(db)
        alice = DBClient(server.transport(), "alice", "1")
        alice.connect()
        naps: list[float] = []

        def nap(delay):
            naps.append(delay)
            if len(naps) == 2:
                alice.rollback()

        policy = RetryPolicy(max_attempts=4, sleep=nap)
        bob = DBClient(server.transport(), "bob", "2", retry_policy=policy)
        bob.connect()
        alice.begin()
        alice.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        bob.execute("UPDATE accounts SET balance = balance + 1 "
                    "WHERE id = 1")
        assert naps == [policy.delay_for(0), policy.delay_for(1)]
        assert bob.retries_performed == 2
        assert db.query("SELECT balance FROM accounts WHERE id = 1"
                        ) == [(11,)]

    def test_close_aborts_open_transaction(self, wired):
        server, alice, bob = wired
        alice.begin()
        alice.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        alice.close()
        assert server.database.writer is None
        assert bob.query("SELECT balance FROM accounts WHERE id = 1"
                         ) == [(10,)]
        # the closed connection no longer holds back other writers
        bob.execute("UPDATE accounts SET balance = 5 WHERE id = 1")
        assert bob.query("SELECT balance FROM accounts WHERE id = 1"
                         ) == [(5,)]
