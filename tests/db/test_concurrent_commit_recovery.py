"""Crash-recovery matrix for two sessions' transactions.

Two sessions run BEGIN..COMMIT transactions one after the other (a
commits, then b); a tracing run discovers every IO injection point the
workload passes through, and the matrix re-runs it with a crash
scheduled at each. Recovery must land on a state containing exactly
the transactions whose COMMIT completed — the one mid-commit either
applied entirely or not at all, never as a torn mixture.

Durability IO happens only at commit boundaries (overlays keep
uncommitted writes off the WAL entirely), so the valid post-recovery
states are precisely the shadow snapshots taken after each durable
statement of the workload.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

from repro.db import Database
from repro.errors import TransientError
from tests.faults import FaultInjector, FaultyIO, SimulatedCrash

pytestmark = pytest.mark.crash

# Each entry: (session, sql, effect). A DURABLE statement ends a
# durability unit (autocommit DDL/DML, successful COMMIT); BEGIN and
# in-transaction statements are PRIVATE and never touch the disk; a
# REFUSED statement is sent while the other session's transaction is
# open, so the one-writer rule rejects it and it touches nothing.
DURABLE, PRIVATE, REFUSED = "durable", "private", "refused"

DISJOINT = [
    (None, "CREATE TABLE accounts "
           "(id integer PRIMARY KEY, owner text, balance float)", DURABLE),
    (None, "INSERT INTO accounts VALUES "
           "(1, 'ada', 10.0), (2, 'bob', 20.0)", DURABLE),
    ("a", "BEGIN", PRIVATE),
    ("a", "UPDATE accounts SET balance = 11.0 WHERE id = 1", PRIVATE),
    ("a", "INSERT INTO accounts VALUES (4, 'dee', 40.0)", PRIVATE),
    ("a", "COMMIT", DURABLE),
    ("b", "BEGIN", PRIVATE),
    ("b", "INSERT INTO accounts VALUES (3, 'cyd', 30.0)", PRIVATE),
    ("b", "UPDATE accounts SET balance = 22.0 WHERE id = 2", PRIVATE),
    ("b", "COMMIT", DURABLE),
    (None, "INSERT INTO accounts VALUES (5, 'eve', 50.0)", DURABLE),
]

# Overlapping write-sets: b's BEGIN and its write to a's row are both
# refused while a's transaction is open, so only a's transaction ever
# reaches the WAL.
CONFLICTING = [
    (None, "CREATE TABLE accounts "
           "(id integer PRIMARY KEY, owner text, balance float)", DURABLE),
    (None, "INSERT INTO accounts VALUES "
           "(1, 'ada', 10.0), (2, 'bob', 20.0)", DURABLE),
    ("a", "BEGIN", PRIVATE),
    ("a", "UPDATE accounts SET balance = 11.0 WHERE id = 1", PRIVATE),
    ("b", "BEGIN", REFUSED),
    ("b", "UPDATE accounts SET balance = 99.0 WHERE id = 1", REFUSED),
    ("a", "COMMIT", DURABLE),
    (None, "INSERT INTO accounts VALUES (5, 'eve', 50.0)", DURABLE),
]

WORKLOADS = {"disjoint": DISJOINT, "conflicting": CONFLICTING}


def apply_entry(database, sessions, entry):
    target, sql, effect = entry
    if effect == REFUSED:
        with pytest.raises(TransientError):
            database.execute(sql, session=sessions.get(target))
    else:
        database.execute(sql, session=sessions.get(target))


def run_workload(database, script):
    sessions = {"a": database.create_session("a"),
                "b": database.create_session("b")}
    for entry in script:
        apply_entry(database, sessions, entry)


def dump(database):
    state = {}
    for name in sorted(database.catalog.table_names()):
        table = database.catalog.get_table(name)
        state[name] = (sorted(table.rows.values()),
                       sorted(table.indexes))
    return state


def crash_run(data_dir, injector, script):
    """Run until the injected crash; count completed statements."""
    completed = 0
    try:
        database = Database(data_directory=data_dir,
                            io=FaultyIO(injector), autoflush=True)
        sessions = {"a": database.create_session("a"),
                    "b": database.create_session("b")}
        for entry in script:
            apply_entry(database, sessions, entry)
            completed += 1
    except SimulatedCrash:
        return completed, True
    return completed, False


def _discover_trace(script):
    root = tempfile.mkdtemp(prefix="ldv-concurrent-crash-")
    try:
        injector = FaultInjector()
        database = Database(data_directory=Path(root) / "d",
                            io=FaultyIO(injector), autoflush=True)
        run_workload(database, script)
        return list(injector.trace)
    finally:
        shutil.rmtree(root, ignore_errors=True)


TRACES = {name: _discover_trace(script)
          for name, script in WORKLOADS.items()}


def _shadow_snapshots(script):
    """Committed state after each durable statement: SNAPSHOTS[k] is
    the only legal recovery outcome once exactly k durable units have
    been fsynced (the unit in flight may add one more)."""
    snapshots = [{}]
    shadow = Database()
    sessions = {"a": shadow.create_session("a"),
                "b": shadow.create_session("b")}
    for entry in script:
        apply_entry(shadow, sessions, entry)
        if entry[2] == DURABLE:
            snapshots.append(dump(shadow))
    return snapshots


SNAPSHOTS = {name: _shadow_snapshots(script)
             for name, script in WORKLOADS.items()}


def durable_units(script, completed):
    return sum(1 for entry in script[:completed] if entry[2] == DURABLE)


def assert_concurrent_recovery(data_dir, workload, completed):
    script = WORKLOADS[workload]
    snapshots = SNAPSHOTS[workload]
    units = durable_units(script, completed)
    recovered = Database(data_directory=data_dir)
    state = dump(recovered)
    legal = snapshots[units:units + 2]  # in-flight unit: all or nothing
    assert state in legal, (
        f"recovered state is a torn mixture: not snapshot {units} "
        f"nor {units + 1}")
    # structural invariants survive too
    for name in recovered.catalog.table_names():
        table = recovered.catalog.get_table(name)
        assert table.next_rowid > max(table.rows, default=0)
        for version in table.versions.values():
            assert recovered.clock.now >= version
    # recovery is a fixed point
    assert dump(Database(data_directory=data_dir)) == state
    return state


class TestDiscovery:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_workloads_reach_commit_io(self, workload):
        points = {point for point, _ in TRACES[workload]}
        assert "wal.append" in points
        assert "wal.fsync" in points

    def test_conflicting_workload_commits_less(self):
        # only a's transaction commits
        appends = {name: sum(1 for point, _ in TRACES[name]
                             if point == "wal.append")
                   for name in WORKLOADS}
        assert appends["conflicting"] < appends["disjoint"]
        # and b's refused statements add no IO at all
        sent = [entry for entry in CONFLICTING if entry[2] != REFUSED]
        assert _discover_trace(sent) == TRACES["conflicting"]

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_trace_is_deterministic(self, workload):
        assert _discover_trace(WORKLOADS[workload]) == TRACES[workload]


CASES = [(workload, point, occurrence)
         for workload in sorted(WORKLOADS)
         for point, occurrence in TRACES[workload]]


@pytest.mark.parametrize(
    ("workload", "point", "occurrence"), CASES,
    ids=[f"{workload}-{point}@{occurrence}"
         for workload, point, occurrence in CASES])
def test_crash_at_every_injection_point(tmp_path, workload, point,
                                        occurrence):
    data_dir = tmp_path / "d"
    injector = FaultInjector().crash_at(point, occurrence=occurrence)
    completed, crashed = crash_run(data_dir, injector, WORKLOADS[workload])
    assert crashed, f"scheduled crash at {point}@{occurrence} never fired"
    assert_concurrent_recovery(data_dir, workload, completed)


TORN = [(workload, point, occurrence)
        for workload, point, occurrence in CASES
        if point == "wal.append"]


@pytest.mark.parametrize(
    ("workload", "point", "occurrence"), TORN,
    ids=[f"torn-{workload}@{occurrence}"
         for workload, _, occurrence in TORN])
def test_torn_concurrent_commits_never_half_apply(tmp_path, workload,
                                                  point, occurrence):
    """Tear each commit batch mid-write: one session's transaction must
    never surface a subset of its statements."""
    data_dir = tmp_path / "d"
    injector = FaultInjector(seed=occurrence).torn_write_at(
        point, occurrence=occurrence)
    completed, crashed = crash_run(data_dir, injector, WORKLOADS[workload])
    assert crashed
    assert_concurrent_recovery(data_dir, workload, completed)


def test_post_crash_recovery_supports_new_transactions(tmp_path):
    """After recovering a crash that killed one of two committers, the
    reopened database accepts fresh transactions from both sessions,
    one after the other."""
    data_dir = tmp_path / "d"
    point, occurrence = [entry for entry in TRACES["disjoint"]
                         if entry[0] == "wal.fsync"][-1]
    injector = FaultInjector().crash_at(point, occurrence=occurrence)
    crash_run(data_dir, injector, DISJOINT)
    recovered = Database(data_directory=data_dir)
    a = recovered.create_session("a")
    b = recovered.create_session("b")
    recovered.execute("BEGIN", session=a)
    recovered.execute(
        "UPDATE accounts SET balance = 1.0 WHERE id = 1", session=a)
    recovered.execute("COMMIT", session=a)
    recovered.execute("BEGIN", session=b)
    recovered.execute(
        "UPDATE accounts SET balance = 2.0 WHERE id = 2", session=b)
    recovered.execute("COMMIT", session=b)
    assert recovered.query(
        "SELECT balance FROM accounts WHERE id = 1") == [(1.0,)]
    assert recovered.query(
        "SELECT balance FROM accounts WHERE id = 2") == [(2.0,)]
