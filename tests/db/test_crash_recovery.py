"""Crash-recovery matrix: kill the engine at every injection point.

A tracing run of the workload (rule-free injector) discovers every
``(point, occurrence)`` pair the durability layer passes through; the
matrix then re-runs the workload once per pair with a crash scheduled
there, reopens the data directory on a healthy IO, and checks the
recovered database against shadow snapshots of committed state:

* everything committed before the crash is durable,
* nothing uncommitted is visible,
* rowids stay monotonic and the clock resumes past every version,
* recovering the same directory twice is a fixed point.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

from repro.db import Database
from repro.db.wal import WAL_MAGIC
from repro.faults import FaultInjector, FaultyIO, SimulatedCrash

pytestmark = pytest.mark.crash

# Each entry is one atomic unit of the workload: a single autocommit
# statement, one BEGIN..COMMIT/ROLLBACK transaction, or a checkpoint.
# Each unit appends its WAL batch and fsyncs it once, at the unit's
# end, so after a crash the recovered state must match the shadow
# snapshot taken either before or after the unit that died.
STEPS = [
    ["CREATE TABLE accounts "
     "(id integer PRIMARY KEY, owner text, balance float)"],
    ["INSERT INTO accounts VALUES "
     "(1, 'ada', 10.0), (2, 'bob', 20.0)"],
    ["CHECKPOINT"],
    ["UPDATE accounts SET balance = 15.5 WHERE id = 1"],
    ["BEGIN",
     "INSERT INTO accounts VALUES (3, 'cyd', 30.0)",
     "UPDATE accounts SET balance = 0.0 WHERE id = 2",
     "COMMIT"],
    ["BEGIN",
     "INSERT INTO accounts VALUES (4, 'eve', 99.0)",
     "DELETE FROM accounts WHERE id = 1",
     "ROLLBACK"],
    ["DELETE FROM accounts WHERE id = 2"],
    ["CREATE INDEX ix_owner ON accounts (owner)"],
    ["CREATE TABLE audit_log (note text)"],
    ["DROP TABLE audit_log"],
    ["CHECKPOINT"],
    ["INSERT INTO accounts VALUES (5, 'fin', 50.0)"],
]


def apply_step(database, step):
    for sql in step:
        if sql == "CHECKPOINT":
            database.checkpoint()
        else:
            database.execute(sql)


def run_workload(database):
    """Apply every step, returning the count of *completed* steps."""
    completed = 0
    for step in STEPS:
        apply_step(database, step)
        completed += 1
    return completed


def dump(database):
    """The logical committed state: tables → (sorted rows, indexes)."""
    state = {}
    for name in sorted(database.catalog.table_names()):
        table = database.catalog.get_table(name)
        state[name] = (sorted(table.rows.values()),
                       sorted(table.indexes))
    return state


def crash_run(data_dir, injector):
    """Run the workload until the injected crash; count whole steps."""
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
    """Tracing run: which (point, occurrence) pairs does the workload
    reach? Module-level so the matrix can parametrize over it."""
    root = tempfile.mkdtemp(prefix="ldv-crash-discovery-")
    try:
        injector = FaultInjector()
        database = Database(data_directory=Path(root) / "d",
                            io=FaultyIO(injector), autoflush=True)
        run_workload(database)
        return list(injector.trace)
    finally:
        shutil.rmtree(root, ignore_errors=True)


TRACE = _discover_trace()
SNAPSHOTS = [{}]
_shadow = Database()
for _step in STEPS:
    apply_step(_shadow, _step)
    SNAPSHOTS.append(dump(_shadow))
del _shadow


def assert_recovery_invariants(data_dir, completed):
    recovered = Database(data_directory=data_dir)
    state = dump(recovered)
    # the unit that died either committed entirely or not at all
    assert state in (SNAPSHOTS[completed], SNAPSHOTS[completed + 1]), (
        f"recovered state matches neither snapshot {completed} nor "
        f"{completed + 1}")
    for name in recovered.catalog.table_names():
        table = recovered.catalog.get_table(name)
        assert table.next_rowid > max(table.rows, default=0)
        assert len(set(table.rows)) == table.row_count
        for version in table.versions.values():
            assert recovered.clock.now >= version
    # recovery is a fixed point: a second open changes nothing
    wal_bytes = (Path(data_dir) / "wal.log").read_bytes()
    again = Database(data_directory=data_dir)
    assert dump(again) == state
    assert not again.last_recovery.truncated
    assert (Path(data_dir) / "wal.log").read_bytes() == wal_bytes
    return recovered, state


class TestDiscovery:
    def test_workload_reaches_a_rich_point_set(self):
        points = {point for point, _ in TRACE}
        assert "wal.append" in points
        assert "wal.fsync" in points
        assert "checkpoint.table.write" in points
        assert "checkpoint.table.rename" in points
        assert "checkpoint.meta.rename" in points
        assert "wal.reset.rename" in points
        assert "checkpoint.drop" in points
        assert len(TRACE) > 20

    def test_trace_is_deterministic(self):
        assert _discover_trace() == TRACE


@pytest.mark.parametrize(
    ("point", "occurrence"), TRACE,
    ids=[f"{point}@{occurrence}" for point, occurrence in TRACE])
def test_crash_at_every_injection_point(tmp_path, point, occurrence):
    data_dir = tmp_path / "d"
    injector = FaultInjector().crash_at(point, occurrence=occurrence)
    completed, crashed = crash_run(data_dir, injector)
    assert crashed, f"scheduled crash at {point}@{occurrence} never fired"
    assert_recovery_invariants(data_dir, completed)


WAL_APPENDS = [(point, occurrence) for point, occurrence in TRACE
               if point == "wal.append"]


@pytest.mark.parametrize(
    ("point", "occurrence"), WAL_APPENDS,
    ids=[f"torn-{point}@{occurrence}" for point, occurrence in WAL_APPENDS])
def test_torn_commit_batches_are_truncated(tmp_path, point, occurrence):
    """Tear every commit batch mid-write: the half-written batch must
    vanish on recovery, never half-apply."""
    data_dir = tmp_path / "d"
    injector = FaultInjector(seed=occurrence).torn_write_at(
        point, occurrence=occurrence)
    completed, crashed = crash_run(data_dir, injector)
    assert crashed
    recovered, _ = assert_recovery_invariants(data_dir, completed)
    # whatever the tear left behind was truncated, not replayed
    assert not Database(data_directory=data_dir).last_recovery.truncated


def test_crash_matrix_is_deterministic(tmp_path):
    """The same seed and schedule produce byte-identical directories."""
    point, occurrence = WAL_APPENDS[-1]
    results = []
    for run in ("a", "b"):
        data_dir = tmp_path / run
        injector = FaultInjector(seed=7).torn_write_at(
            point, occurrence=occurrence)
        crash_run(data_dir, injector)
        results.append(sorted(
            (file.name, file.read_bytes())
            for file in data_dir.iterdir() if file.is_file()))
    assert results[0] == results[1]


def test_failed_wal_fsync_surfaces_and_engine_stays_usable(tmp_path):
    """A transient fsync failure on commit reaches the caller (so a
    client can retry or give up), and the engine keeps working once
    the fault heals — nothing is wedged or silently lost."""
    from repro.errors import TransientError

    data_dir = tmp_path / "d"
    injector = FaultInjector().fail_at("wal.fsync", occurrence=1)
    database = Database(data_directory=data_dir, io=FaultyIO(injector))
    with pytest.raises(TransientError):
        database.execute("CREATE TABLE t (id integer)")
    # the batch reached the OS before the failed fsync; the fault heals
    # and later statements commit normally on the same instance
    database.execute("INSERT INTO t VALUES (1)")
    recovered = Database(data_directory=data_dir)
    assert recovered.query("SELECT id FROM t") == [(1,)]


def test_uncommitted_work_never_hits_disk_before_crash(tmp_path):
    """Crash while a transaction is open: the WAL on disk contains no
    trace of the open transaction's statements."""
    data_dir = tmp_path / "d"
    injector = FaultInjector()
    database = Database(data_directory=data_dir, io=FaultyIO(injector))
    database.execute("CREATE TABLE t (id integer)")
    database.execute("BEGIN")
    database.execute("INSERT INTO t VALUES (42)")
    wal_bytes = (data_dir / "wal.log").read_bytes()
    assert b"42" not in wal_bytes[len(WAL_MAGIC):]
    recovered = Database(data_directory=data_dir)
    assert recovered.query("SELECT id FROM t") == []
