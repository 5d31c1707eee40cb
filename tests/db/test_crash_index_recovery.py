"""Crash-matrix regression: indexes after WAL recovery.

Recovery installs each row's last committed ``put``/``delete`` state
with one ``HeapTable.replace`` per table, which must leave the
primary-key index and every secondary :class:`HashIndex` *identical* to
a database that never crashed. The matrix crashes an index-heavy
workload (secondary-index churn, PK updates, primary keys moved and
swapped between rows, a rolled-back transaction) at every injection
point it passes through, recovers, and asserts:

* IndexScan answers match a clean run at the same committed state,
* duplicate-PK rejection matches the clean run (every live id is
  rejected, a fresh id is accepted),
* the in-memory index structures equal a rebuild from the heap rows.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

from repro.db import Database
from repro.errors import IntegrityError
from tests.faults import FaultInjector, FaultyIO, SimulatedCrash

pytestmark = pytest.mark.crash

OWNERS = ("ada", "bob", "cyd", "dan", "nobody")

# Every unit churns the secondary index (owner) or the PK index: owner
# reassignments move rowids between buckets, deletes must empty
# buckets, the PK update must re-key _pk_index, and the rollback must
# leave no index trace of its inserts. The last units move a primary
# key to another row and swap two, then checkpoint: a crash between
# that checkpoint's table renames and its log reset replays the moves
# over an image that already holds them.
STEPS = [
    ["CREATE TABLE accounts "
     "(id integer PRIMARY KEY, owner text, balance float)"],
    ["INSERT INTO accounts VALUES "
     "(1, 'ada', 10.0), (2, 'ada', 20.0), (3, 'bob', 30.0)"],
    ["CREATE INDEX ix_owner ON accounts (owner)"],
    ["CHECKPOINT"],
    ["UPDATE accounts SET owner = 'cyd' WHERE id = 2"],
    ["INSERT INTO accounts VALUES (4, 'bob', 40.0)"],
    ["DELETE FROM accounts WHERE id = 3"],
    ["UPDATE accounts SET id = 30 WHERE id = 4"],
    ["BEGIN",
     "INSERT INTO accounts VALUES (5, 'dan', 50.0)",
     "UPDATE accounts SET owner = 'dan' WHERE id = 1",
     "COMMIT"],
    ["BEGIN",
     "INSERT INTO accounts VALUES (6, 'eve', 60.0)",
     "DELETE FROM accounts WHERE id = 5",
     "ROLLBACK"],
    ["CHECKPOINT"],
    ["INSERT INTO accounts VALUES (7, 'ada', 70.0)"],
    ["UPDATE accounts SET balance = 15.0 WHERE id = 1"],
    ["UPDATE accounts SET id = 9 WHERE id = 1"],
    ["UPDATE accounts SET id = 1 WHERE id = 2"],
    ["BEGIN",
     "UPDATE accounts SET id = 99 WHERE id = 9",
     "UPDATE accounts SET id = 9 WHERE id = 30",
     "UPDATE accounts SET id = 30 WHERE id = 99",
     "COMMIT"],
    ["CHECKPOINT"],
]


def apply_step(database, step):
    for sql in step:
        if sql == "CHECKPOINT":
            database.checkpoint()
        else:
            database.execute(sql)


def observe(database):
    """Everything an application could see through the indexes."""
    if not database.catalog.has_table("accounts"):
        return {"tables": []}
    table = database.catalog.get_table("accounts")
    lookups = {
        owner: database.query(
            f"SELECT id, balance FROM accounts WHERE owner = '{owner}' "
            f"ORDER BY id")
        for owner in OWNERS}
    return {
        "tables": ["accounts"],
        "rows": sorted(table.rows.values()),
        "indexes": sorted(table.indexes),
        "lookups": lookups,
        "live_ids": sorted(row[0] for row in table.rows.values()),
    }


def crash_run(data_dir, injector):
    completed = 0
    try:
        database = Database(data_directory=data_dir,
                            io=FaultyIO(injector), autoflush=True)
        for step in STEPS:
            apply_step(database, step)
            completed += 1
    except SimulatedCrash:
        return completed, True
    return completed, False


def _discover_trace():
    root = tempfile.mkdtemp(prefix="ldv-index-crash-discovery-")
    try:
        injector = FaultInjector()
        database = Database(data_directory=Path(root) / "d",
                            io=FaultyIO(injector), autoflush=True)
        for step in STEPS:
            apply_step(database, step)
        return list(injector.trace)
    finally:
        shutil.rmtree(root, ignore_errors=True)


TRACE = _discover_trace()

# Shadow run (no crash, no disk): the observable state after each
# completed unit, against which every recovery is compared.
SNAPSHOTS = [{"tables": []}]
_shadow = Database()
for _step in STEPS:
    apply_step(_shadow, _step)
    SNAPSHOTS.append(observe(_shadow))
del _shadow


def assert_indexes_match_clean_rebuild(table):
    """The recovered in-memory index structures must equal what a
    from-scratch build over the heap rows produces."""
    expected_pk = {}
    for rowid, values in table.rows.items():
        key = tuple(values[i] for i in table._pk_positions)
        expected_pk[key] = rowid
    assert table._pk_index == expected_pk
    for index in table.indexes.values():
        expected_buckets = {}
        for rowid, values in table.rows.items():
            value = values[index.position]
            if value is not None:
                expected_buckets.setdefault(value, set()).add(rowid)
        assert index.buckets == expected_buckets, (
            f"index {index.name} diverged from the heap after recovery")


def assert_pk_rejection_matches(database, snapshot):
    """Duplicate-PK behavior equals the uncrashed run: every live id
    is rejected, an unused id is accepted."""
    for live_id in snapshot["live_ids"]:
        with pytest.raises(IntegrityError):
            database.execute(
                f"INSERT INTO accounts VALUES ({live_id}, 'dup', 0.0)")
    database.execute("BEGIN")
    database.execute("INSERT INTO accounts VALUES (999, 'tmp', 0.0)")
    database.execute("ROLLBACK")


class TestDiscovery:
    def test_workload_exercises_index_churn(self):
        points = {point for point, _ in TRACE}
        assert "wal.append" in points
        assert "checkpoint.table.write" in points
        assert len(TRACE) > 20

    def test_clean_run_uses_index_scans(self):
        db = Database()
        for step in STEPS:
            apply_step(db, step)
        lines = [row[0] for row in db.execute(
            "EXPLAIN SELECT id FROM accounts WHERE owner = 'ada'").rows]
        assert any("IndexScan" in line and "ix_owner" in line
                   for line in lines)


@pytest.mark.parametrize(
    ("point", "occurrence"), TRACE,
    ids=[f"{point}@{occurrence}" for point, occurrence in TRACE])
def test_indexes_consistent_after_crash_everywhere(tmp_path, point,
                                                   occurrence):
    data_dir = tmp_path / "d"
    injector = FaultInjector().crash_at(point, occurrence=occurrence)
    completed, crashed = crash_run(data_dir, injector)
    assert crashed, f"scheduled crash at {point}@{occurrence} never fired"

    recovered = Database(data_directory=data_dir)
    state = observe(recovered)
    # the unit that died committed entirely or not at all…
    assert state in (SNAPSHOTS[completed], SNAPSHOTS[completed + 1])
    if state["tables"]:
        snapshot = (SNAPSHOTS[completed]
                    if state == SNAPSHOTS[completed]
                    else SNAPSHOTS[completed + 1])
        table = recovered.catalog.get_table("accounts")
        # …and the recovered index structures are exactly a clean build
        assert_indexes_match_clean_rebuild(table)
        assert_pk_rejection_matches(recovered, snapshot)
        if "ix_owner" in table.indexes:
            lines = [row[0] for row in recovered.execute(
                "EXPLAIN SELECT id FROM accounts "
                "WHERE owner = 'ada'").rows]
            assert any("IndexScan" in line for line in lines)


PK_MOVES = ["UPDATE a SET v = 15 WHERE id = 1",
            "UPDATE a SET id = 9 WHERE id = 1",
            "UPDATE a SET id = 1 WHERE id = 2"]


@pytest.mark.parametrize("statements", [PK_MOVES,
                                        ["BEGIN", *PK_MOVES, "COMMIT"]],
                         ids=["autocommit", "transaction"])
def test_moved_primary_key_reopens_after_crash_before_log_reset(
        tmp_path, statements):
    """A checkpoint that dies after renaming its table images but
    before resetting the log leaves images that already hold the moved
    keys beside the full log; replaying the log over them must
    converge, not find key 1 held twice."""
    data_dir = tmp_path / "d"
    database = Database(data_directory=data_dir,
                        io=FaultyIO(FaultInjector().crash_at(
                            "wal.reset.write")))
    database.execute("CREATE TABLE a (id integer PRIMARY KEY, v integer)")
    database.execute("INSERT INTO a VALUES (1, 10), (2, 20)")
    for sql in statements:
        database.execute(sql)
    with pytest.raises(SimulatedCrash):
        database.checkpoint()
    recovered = Database(data_directory=data_dir)
    assert recovered.query("SELECT id, v FROM a ORDER BY id") == [
        (1, 20), (9, 15)]
    assert_indexes_match_clean_rebuild(recovered.catalog.get_table("a"))
