"""The deterministic interleaving scheduler itself.

The anomaly matrix (``test_anomalies.py``) trusts the scheduler to run
exactly the schedule it is given; these tests earn that trust — and
enforce the suite-wide ban on wall-clock sleeps in concurrency tests.
"""

from pathlib import Path

import pytest

from repro.db import Database, InterleavingScheduler
from repro.db.scheduler import SchedulerError
from repro.errors import SQLSyntaxError

pytestmark = pytest.mark.concurrency


def setup():
    database = Database()
    database.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
    database.execute("INSERT INTO t VALUES (1, 0)")
    return database


def reader():
    first = yield "SELECT v FROM t WHERE id = 1"
    second = yield "SELECT v FROM t WHERE id = 1"
    return (first.rows[0][0], second.rows[0][0])


def writer():
    yield "UPDATE t SET v = 7 WHERE id = 1"
    return "wrote"


class TestNamedSchedules:
    @pytest.mark.parametrize("through_wire", [True, False],
                             ids=["wire", "direct"])
    def test_schedule_order_decides_what_reads_see(self, through_wire):
        scheduler = InterleavingScheduler(
            setup, {"r": reader, "w": writer}, through_wire=through_wire)
        assert scheduler.run("r w r").value("r") == (0, 7)
        assert scheduler.run("w r r").value("r") == (7, 7)
        assert scheduler.run("r r w").value("r") == (0, 0)

    def test_each_run_starts_from_fresh_state(self):
        scheduler = InterleavingScheduler(setup, {"r": reader, "w": writer})
        scheduler.run("w r r")
        # the write from the first run must not leak into the second
        assert scheduler.run("r r w").value("r") == (0, 0)

    def test_same_schedule_is_exactly_reproducible(self):
        scheduler = InterleavingScheduler(setup, {"r": reader, "w": writer})
        first = scheduler.run("r w r")
        second = scheduler.run("r w r")
        assert [s.sql for s in first.steps("r")] == \
            [s.sql for s in second.steps("r")]
        assert first.value("r") == second.value("r")
        assert first.query("SELECT v FROM t") == \
            second.query("SELECT v FROM t")

    def test_outcome_exposes_traces_and_final_state(self):
        scheduler = InterleavingScheduler(setup, {"r": reader, "w": writer})
        outcome = scheduler.run("r w r")
        assert outcome.schedule == ("r", "w", "r")
        assert [s.sql for s in outcome.steps("w")] == \
            ["UPDATE t SET v = 7 WHERE id = 1"]
        assert outcome.value("w") == "wrote"
        assert outcome.errors() == []
        assert outcome.query("SELECT v FROM t") == [(7,)]


class TestStrictness:
    def test_unknown_session_rejected(self):
        scheduler = InterleavingScheduler(setup, {"w": writer})
        with pytest.raises(SchedulerError, match="unknown session"):
            scheduler.run("w x")

    def test_stepping_a_finished_script_rejected(self):
        scheduler = InterleavingScheduler(setup, {"w": writer})
        with pytest.raises(SchedulerError, match="already finished"):
            scheduler.run("w w")

    def test_unfinished_scripts_rejected(self):
        scheduler = InterleavingScheduler(setup, {"r": reader, "w": writer})
        with pytest.raises(SchedulerError, match="unfinished"):
            scheduler.run("r w")  # r still has one statement pending

    def test_empty_script_set_rejected(self):
        with pytest.raises(SchedulerError):
            InterleavingScheduler(setup, {})


class TestErrorCapture:
    def test_statement_errors_land_in_step_results(self):
        def clumsy():
            step = yield "SELEKT oops"
            return type(step.error).__name__

        scheduler = InterleavingScheduler(setup, {"c": clumsy})
        outcome = scheduler.run("c")
        assert outcome.value("c") == "SQLSyntaxError"
        [(name, index, error)] = outcome.errors()
        assert (name, index) == ("c", 0)
        assert isinstance(error, SQLSyntaxError)

    def test_rows_accessor_reraises_captured_error(self):
        def clumsy():
            step = yield "SELEKT oops"
            with pytest.raises(SQLSyntaxError):
                step.rows
            return "checked"

        scheduler = InterleavingScheduler(setup, {"c": clumsy})
        assert scheduler.run("c").value("c") == "checked"


class TestExploration:
    def test_explores_every_complete_interleaving(self):
        # two scripts of 2 and 1 statements: C(3,1) = 3 schedules
        def two():
            yield "SELECT v FROM t WHERE id = 1"
            yield "SELECT v FROM t WHERE id = 1"

        scheduler = InterleavingScheduler(setup, {"a": two, "b": writer})
        outcomes = scheduler.explore()
        schedules = sorted(o.schedule for o in outcomes)
        assert schedules == [("a", "a", "b"), ("a", "b", "a"),
                             ("b", "a", "a")]

    def test_limit_bounds_the_walk(self):
        scheduler = InterleavingScheduler(
            setup, {"a": reader, "b": writer})
        assert len(scheduler.explore(limit=2)) == 2

    def test_seed_makes_sampling_deterministic(self):
        def outcomes_for(seed):
            scheduler = InterleavingScheduler(
                setup, {"a": reader, "b": writer})
            return [o.schedule for o in scheduler.explore(limit=2,
                                                          seed=seed)]

        assert outcomes_for(7) == outcomes_for(7)

    def test_different_seeds_can_walk_different_corners(self):
        def outcomes_for(seed):
            scheduler = InterleavingScheduler(
                setup, {"a": reader, "b": writer})
            return [o.schedule for o in scheduler.explore(seed=seed)]

        # all seeds visit the same *set* of schedules
        assert {tuple(sorted(outcomes_for(s))) for s in range(5)} == \
            {tuple(sorted(outcomes_for(None)))}


def test_no_wall_clock_sleeps_in_the_concurrency_suite():
    """Concurrency tests control schedules; they never sleep and hope.
    Tests that exercise retry backoff inject their own sleep hook."""
    suite = Path(__file__).parent
    for name in ("test_scheduler.py", "test_anomalies.py", "test_mvcc.py",
                 "test_concurrent_commit_recovery.py"):
        text = (suite / name).read_text()
        forbidden = "time." + "sleep("  # split so this file passes too
        assert forbidden not in text, f"{name} sleeps"
