"""MVCC snapshot isolation: visibility, conflicts, and bookkeeping.

These are the engine-level unit tests for concurrent sessions; the
end-to-end anomaly matrix (driven through the wire by the interleaving
scheduler) lives in ``test_anomalies.py``.
"""

import pytest

from repro.db import Database, DBClient, DBServer
from repro.db import protocol
from repro.db.provtypes import TupleRef
from repro.errors import (
    IntegrityError,
    TransactionError,
    WriteConflictError,
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
def two_sessions(db):
    return db, db.create_session("a"), db.create_session("b")


def balance(db, session, account_id):
    rows = db.query(f"SELECT balance FROM accounts WHERE id = {account_id}",
                    session=session)
    return rows[0][0] if rows else None


class TestSnapshotVisibility:
    def test_reader_sees_state_as_of_begin(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        assert balance(db, a, 1) == 10
        db.execute("UPDATE accounts SET balance = 99 WHERE id = 1",
                   session=b)
        assert balance(db, a, 1) == 10
        assert balance(db, b, 1) == 99

    def test_snapshot_refreshes_after_commit(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 99 WHERE id = 1",
                   session=b)
        db.execute("COMMIT", session=a)
        assert balance(db, a, 1) == 99

    def test_other_sessions_uncommitted_writes_invisible(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=b)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=b)
        db.execute("UPDATE accounts SET balance = 0 WHERE id = 1", session=b)
        db.execute("DELETE FROM accounts WHERE id = 2", session=b)
        # autocommit reads of another session see none of it
        assert db.query("SELECT id, balance FROM accounts ORDER BY id",
                        session=a) == [(1, 10), (2, 20)]

    def test_snapshot_covers_inserts_and_deletes(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=b)
        db.execute("DELETE FROM accounts WHERE id = 2", session=b)
        assert db.query("SELECT id FROM accounts ORDER BY id",
                        session=a) == [(1,), (2,)]
        db.execute("COMMIT", session=a)
        assert db.query("SELECT id FROM accounts ORDER BY id",
                        session=a) == [(1,), (3,)]

    def test_aggregates_respect_snapshot(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 70)", session=b)
        assert db.query("SELECT sum(balance) FROM accounts",
                        session=a) == [(30,)]
        db.execute("ROLLBACK", session=a)

    def test_index_scan_respects_snapshot(self, two_sessions):
        db, a, b = two_sessions
        db.execute("CREATE INDEX ix_bal ON accounts (balance)")
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 77 WHERE id = 1",
                   session=b)
        # equality probe on the indexed column, inside the snapshot
        assert db.query("SELECT id FROM accounts WHERE balance = 10",
                        session=a) == [(1,)]
        assert db.query("SELECT id FROM accounts WHERE balance = 77",
                        session=a) == []
        db.execute("COMMIT", session=a)
        assert db.query("SELECT id FROM accounts WHERE balance = 77",
                        session=a) == [(1,)]


class TestReadYourOwnWrites:
    def test_overlay_merges_over_snapshot(self, two_sessions):
        db, a, _ = two_sessions
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

    def test_update_of_own_insert(self, two_sessions):
        db, a, _ = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=a)
        db.execute("UPDATE accounts SET balance = 31 WHERE id = 3",
                   session=a)
        db.execute("COMMIT", session=a)
        assert balance(db, a, 3) == 31

    def test_delete_of_own_insert_leaves_no_trace(self, two_sessions):
        db, a, _ = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=a)
        db.execute("DELETE FROM accounts WHERE id = 3", session=a)
        db.execute("COMMIT", session=a)
        assert db.query("SELECT id FROM accounts ORDER BY id"
                        ) == [(1,), (2,)]

    def test_rollback_drops_everything(self, two_sessions):
        db, a, _ = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=a)
        db.execute("UPDATE accounts SET balance = 0 WHERE id = 1",
                   session=a)
        db.execute("DELETE FROM accounts WHERE id = 2", session=a)
        db.execute("ROLLBACK", session=a)
        assert db.query("SELECT id, balance FROM accounts ORDER BY id",
                        session=a) == [(1, 10), (2, 20)]


class TestFirstCommitterWins:
    def test_eager_conflict_on_concurrently_updated_row(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 99 WHERE id = 1",
                   session=b)
        with pytest.raises(WriteConflictError):
            db.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                       session=a)
        # the losing transaction was rolled back automatically
        assert not a.in_transaction
        assert balance(db, a, 1) == 99

    def test_commit_time_conflict_between_open_transactions(
            self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("BEGIN", session=b)
        db.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                   session=a)
        db.execute("UPDATE accounts SET balance = 12 WHERE id = 1",
                   session=b)
        db.execute("COMMIT", session=a)  # first committer wins
        with pytest.raises(WriteConflictError):
            db.execute("COMMIT", session=b)
        assert not b.in_transaction
        assert balance(db, b, 1) == 11

    def test_delete_conflicts_with_concurrent_update(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 99 WHERE id = 1",
                   session=b)
        with pytest.raises(WriteConflictError):
            db.execute("DELETE FROM accounts WHERE id = 1", session=a)

    def test_disjoint_write_sets_both_commit(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("BEGIN", session=b)
        db.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                   session=a)
        db.execute("UPDATE accounts SET balance = 22 WHERE id = 2",
                   session=b)
        db.execute("COMMIT", session=a)
        db.execute("COMMIT", session=b)
        assert db.query("SELECT id, balance FROM accounts ORDER BY id"
                        ) == [(1, 11), (2, 22)]

    def test_duplicate_pk_inside_transaction_is_integrity_error(
            self, two_sessions):
        db, a, _ = two_sessions
        db.execute("BEGIN", session=a)
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO accounts VALUES (1, 0)", session=a)

    def test_concurrent_pk_insert_is_write_conflict(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("INSERT INTO accounts VALUES (3, 30)", session=b)
        # id=3 is invisible to a's snapshot, so this is a race (not a
        # statement the application could have avoided): conflict, not
        # integrity violation
        with pytest.raises(WriteConflictError):
            db.execute("INSERT INTO accounts VALUES (3, 33)", session=a)

    def test_write_conflict_is_transient(self):
        from repro.errors import TransientError
        assert issubclass(WriteConflictError, TransientError)


class TestTransactionRules:
    def test_ddl_inside_transaction_is_rejected(self, two_sessions):
        db, a, _ = two_sessions
        db.execute("BEGIN", session=a)
        for ddl in ("CREATE TABLE z (x integer)",
                    "DROP TABLE accounts",
                    "CREATE INDEX ix ON accounts (balance)"):
            with pytest.raises(TransactionError):
                db.execute(ddl, session=a)
        db.execute("ROLLBACK", session=a)
        db.execute("CREATE TABLE z (x integer)", session=a)  # fine now

    def test_checkpoint_refused_while_any_transaction_open(
            self, two_sessions, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (x integer)")
        a = db.create_session("a")
        db.execute("BEGIN", session=a)
        with pytest.raises(TransactionError):
            db.checkpoint()
        db.execute("ROLLBACK", session=a)
        db.checkpoint()

    def test_nested_begin_and_stray_commit_are_errors(self, two_sessions):
        db, a, _ = two_sessions
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


class TestBookkeepingBounds:
    def test_commit_map_pruned_when_no_snapshot_needs_it(self, two_sessions):
        db, a, b = two_sessions
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 11 WHERE id = 1",
                   session=a)
        db.execute("COMMIT", session=a)
        assert db.mvcc.commit_map_size() == 0
        assert db.mvcc.active_count() == 0

    def test_history_pruned_after_last_reader_leaves(self, two_sessions):
        db, a, b = two_sessions
        table = db.catalog.get_table("accounts")
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 99 WHERE id = 1",
                   session=b)
        assert table.history  # superseded version kept for a's snapshot
        assert balance(db, a, 1) == 10
        db.execute("COMMIT", session=a)
        assert not table.history

    def test_autocommit_writes_record_no_history(self, db):
        table = db.catalog.get_table("accounts")
        db.execute("UPDATE accounts SET balance = 99 WHERE id = 1")
        assert not table.history
        assert db.mvcc.commit_map_size() == 0


class TestSnapshotLineage:
    def test_lineage_references_the_snapshots_tuple_versions(
            self, two_sessions):
        """Regression: provenance of a snapshot read must cite the
        tuple versions that snapshot sees — not whatever version is
        currently committed."""
        db, a, b = two_sessions
        before = db.execute("SELECT balance FROM accounts WHERE id = 1",
                            provenance=True)
        (old_ref,) = before.lineages[0]
        db.execute("BEGIN", session=a)
        db.execute("UPDATE accounts SET balance = 99 WHERE id = 1",
                   session=b)
        inside = db.execute("SELECT balance FROM accounts WHERE id = 1",
                            provenance=True, session=a)
        assert inside.rows == [(10,)]
        (snap_ref,) = inside.lineages[0]
        assert snap_ref == old_ref
        after = db.execute("SELECT balance FROM accounts WHERE id = 1",
                           provenance=True, session=b)
        (new_ref,) = after.lineages[0]
        assert new_ref.rowid == old_ref.rowid
        assert new_ref.version > old_ref.version
        db.execute("COMMIT", session=a)

    def test_own_writes_lineage_uses_provisional_versions(
            self, two_sessions):
        db, a, _ = two_sessions
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
    """Full-table scans under a read view return exactly the rows and
    lineage the snapshot and the transaction's own writes define."""

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
        # the open overlay is private: other sessions see the snapshot
        assert database.query("SELECT k, v FROM t") == [
            (k, k * 10) for k in range(50)]
        database.execute("ROLLBACK", session=session)

    def test_stale_snapshot_after_concurrent_autocommit(self):
        database = self.make_db()
        reader = database.create_session("reader")
        database.execute("BEGIN", session=reader)
        old = database.execute("SELECT k, v FROM t", True, session=reader)
        assert list(zip(old.rows, old.lineages)) == [
            self.committed(k) for k in range(50)]
        # another session's autocommit write lands under the open
        # snapshot, which must keep reading the superseded versions
        database.execute("UPDATE t SET v = 0 WHERE k < 10")
        stale = database.execute("SELECT k, v FROM t", True,
                                 session=reader)
        assert stale.rows == old.rows
        assert stale.lineages == old.lineages
        database.execute("COMMIT", session=reader)
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


class TestGroupCommit:
    def test_group_window_shares_one_fsync(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (x integer)")
        commits, fsyncs = db.wal.commit_count, db.wal.fsync_count
        with db.group_commit():
            db.execute("INSERT INTO t VALUES (1)")
            db.execute("INSERT INTO t VALUES (2)")
            db.execute("INSERT INTO t VALUES (3)")
        assert db.wal.commit_count == commits + 3
        assert db.wal.fsync_count == fsyncs + 1
        # durable: a reopen replays all three
        assert Database(data_directory=tmp_path / "d").query(
            "SELECT x FROM t ORDER BY x") == [(1,), (2,), (3,)]

    def test_nested_group_windows_fsync_once(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (x integer)")
        fsyncs = db.wal.fsync_count
        with db.group_commit():
            with db.group_commit():
                db.execute("INSERT INTO t VALUES (1)")
            db.execute("INSERT INTO t VALUES (2)")
        assert db.wal.fsync_count == fsyncs + 1

    def test_empty_group_window_does_not_fsync(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        fsyncs = db.wal.fsync_count
        with db.group_commit():
            pass
        assert db.wal.fsync_count == fsyncs

    def test_handle_wire_many_batches_sessions_commits(self, tmp_path):
        server = DBServer(data_directory=tmp_path / "d")
        alice = DBClient(server.transport(), "alice", "1")
        bob = DBClient(server.transport(), "bob", "2")
        alice.connect()
        bob.connect()
        alice.execute("CREATE TABLE t (x integer)")
        wal = server.database.wal
        commits, fsyncs = wal.commit_count, wal.fsync_count

        def frame(client, sql):
            return protocol.encode_frame(
                protocol.query_frame(client.connection_id, sql))

        responses = server.handle_wire_many([
            frame(alice, "INSERT INTO t VALUES (1)"),
            frame(bob, "INSERT INTO t VALUES (2)"),
            frame(alice, "INSERT INTO t VALUES (3)"),
        ])
        assert all(protocol.decode_frame(r)["frame"] == "result"
                   for r in responses)
        assert wal.commit_count == commits + 3
        assert wal.fsync_count == fsyncs + 1
        assert server.database.query("SELECT x FROM t ORDER BY x"
                                     ) == [(1,), (2,), (3,)]


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

    def test_transaction_context_manager(self, wired):
        _, alice, bob = wired
        with alice.transaction():
            alice.execute("UPDATE accounts SET balance = 11 WHERE id = 1")
            assert bob.query("SELECT balance FROM accounts WHERE id = 1"
                             ) == [(10,)]
        assert bob.query("SELECT balance FROM accounts WHERE id = 1"
                         ) == [(11,)]

    def test_conflict_frame_is_not_frame_transient(self, wired):
        """A WriteConflictError frame must not carry the frame-level
        retry flag: resending the statement verbatim would run outside
        any transaction."""
        server, alice, bob = wired
        alice.begin()
        bob.execute("UPDATE accounts SET balance = 99 WHERE id = 1")
        request = protocol.encode_frame(protocol.query_frame(
            alice.connection_id,
            "UPDATE accounts SET balance = 11 WHERE id = 1"))
        response = protocol.decode_frame(server.handle_wire(request))
        assert response["error_type"] == "WriteConflictError"
        assert not response.get("transient", False)
        assert response["txn"] == "idle"  # server already rolled back

    def test_client_tracks_conflict_auto_abort(self, wired):
        _, alice, bob = wired
        alice.begin()
        bob.execute("UPDATE accounts SET balance = 99 WHERE id = 1")
        with pytest.raises(WriteConflictError):
            alice.execute("UPDATE accounts SET balance = 11 WHERE id = 1")
        assert not alice.in_transaction

    def test_run_transaction_retries_conflict_to_success(self, db):
        from repro.db import RetryPolicy
        server = DBServer(db)
        naps: list[float] = []
        policy = RetryPolicy(max_attempts=4, sleep=naps.append)
        alice = DBClient(server.transport(), "alice", "1",
                         retry_policy=policy)
        bob = DBClient(server.transport(), "bob", "2")
        alice.connect()
        bob.connect()
        poisoned = [False]

        def body(client):
            rows = client.query("SELECT balance FROM accounts WHERE id = 1")
            if not poisoned[0]:
                # sneak a competing committed write under alice's snapshot
                poisoned[0] = True
                bob.execute(
                    "UPDATE accounts SET balance = 50 WHERE id = 1")
            client.execute(f"UPDATE accounts SET balance = "
                           f"{rows[0][0] + 1} WHERE id = 1")

        alice.run_transaction(body)
        assert alice.transactions_retried == 1
        assert naps  # backoff went through the policy's sleep hook
        assert db.query("SELECT balance FROM accounts WHERE id = 1"
                        ) == [(51,)]

    def test_close_aborts_open_transaction(self, wired):
        server, alice, bob = wired
        alice.begin()
        alice.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        alice.close()
        assert server.database.mvcc.active_count() == 0
        assert bob.query("SELECT balance FROM accounts WHERE id = 1"
                         ) == [(10,)]
