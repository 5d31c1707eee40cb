"""Fault-injector unit tests: determinism, scheduling, IO interposition."""

import pytest

from repro.db.fileio import FileIO
from repro.errors import TransientError
from tests.faults import FaultInjector, FaultyIO, SimulatedCrash


class TestSchedule:
    def test_crash_fires_at_exact_occurrence(self):
        injector = FaultInjector().crash_at("p", occurrence=3)
        injector.reach("p")
        injector.reach("p")
        with pytest.raises(SimulatedCrash):
            injector.reach("p")

    def test_other_points_unaffected(self):
        injector = FaultInjector().crash_at("p", occurrence=1)
        injector.reach("q")
        injector.reach("q")
        with pytest.raises(SimulatedCrash):
            injector.reach("p")

    def test_all_io_dies_after_crash(self):
        injector = FaultInjector().crash_at("p")
        with pytest.raises(SimulatedCrash):
            injector.reach("p")
        with pytest.raises(SimulatedCrash):
            injector.reach("q")

    def test_trace_records_every_arrival(self):
        injector = FaultInjector()
        injector.reach("a")
        injector.reach("b")
        injector.reach("a")
        assert injector.trace == [("a", 1), ("b", 1), ("a", 2)]

    def test_transient_failure_heals_after_n_times(self):
        injector = FaultInjector().fail_at("fsync", occurrence=1, times=1)
        with pytest.raises(TransientError):
            injector.reach("fsync")
        injector.reach("fsync")  # healed

    def test_torn_write_returns_strict_prefix(self):
        injector = FaultInjector().torn_write_at("w", fraction=0.99)
        prefix = injector.reach("w", size=10)
        assert 0 <= prefix < 10

    def test_seeded_torn_fraction_is_deterministic(self):
        first = FaultInjector(seed=42).torn_write_at("w")
        second = FaultInjector(seed=42).torn_write_at("w")
        assert first.reach("w", size=1000) == second.reach("w", size=1000)

    def test_wire_rate_is_deterministic_given_seed(self):
        def pattern(seed):
            injector = FaultInjector(seed=seed).wire_fault_rate(
                0.5, limit=100)
            outcomes = []
            for _ in range(30):
                try:
                    injector.reach_wire("wire.send")
                    outcomes.append(True)
                except TransientError:
                    outcomes.append(False)
            return outcomes

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_wire_fault_limit_bounds_failures(self):
        injector = FaultInjector(seed=1).wire_fault_rate(1.0, limit=2)
        for _ in range(2):
            with pytest.raises(TransientError):
                injector.reach_wire("wire.send")
        injector.reach_wire("wire.send")  # limit reached: healthy


class TestFaultyIO:
    def test_passthrough_without_rules(self, tmp_path):
        io = FaultyIO(FaultInjector())
        io.write_bytes(tmp_path / "f", b"hello", point="p.write")
        io.append_bytes(tmp_path / "f", b" world", point="p.append")
        io.fsync(tmp_path / "f", point="p.fsync")
        assert (tmp_path / "f").read_bytes() == b"hello world"

    def test_torn_write_persists_prefix_then_crashes(self, tmp_path):
        injector = FaultInjector().torn_write_at("p.write", fraction=0.5)
        io = FaultyIO(injector)
        with pytest.raises(SimulatedCrash):
            io.write_bytes(tmp_path / "f", b"0123456789", point="p.write")
        assert (tmp_path / "f").read_bytes() == b"01234"

    def test_torn_append_keeps_existing_bytes(self, tmp_path):
        (tmp_path / "f").write_bytes(b"keep:")
        injector = FaultInjector().torn_write_at("p.append", fraction=0.5)
        io = FaultyIO(injector)
        with pytest.raises(SimulatedCrash):
            io.append_bytes(tmp_path / "f", b"abcd", point="p.append")
        assert (tmp_path / "f").read_bytes() == b"keep:ab"

    def test_crash_before_rename_leaves_target_intact(self, tmp_path):
        (tmp_path / "old").write_bytes(b"old")
        (tmp_path / "new").write_bytes(b"new")
        io = FaultyIO(FaultInjector().crash_at("p.rename"))
        with pytest.raises(SimulatedCrash):
            io.rename(tmp_path / "new", tmp_path / "old", point="p.rename")
        assert (tmp_path / "old").read_bytes() == b"old"

    def test_failed_fsync_is_transient(self, tmp_path):
        (tmp_path / "f").write_bytes(b"x")
        io = FaultyIO(FaultInjector().fail_fsync_at("p.fsync"))
        with pytest.raises(TransientError):
            io.fsync(tmp_path / "f", point="p.fsync")
        io.fsync(tmp_path / "f", point="p.fsync")  # healed

    def test_atomic_write_points_are_derived(self, tmp_path):
        injector = FaultInjector()
        io = FaultyIO(injector)
        io.atomic_write_bytes(tmp_path / "f", b"data", point="cp")
        assert [point for point, _ in injector.trace] == [
            "cp.write", "cp.fsync", "cp.rename"]

    def test_simulated_crash_is_not_an_exception_subclass(self):
        # defensive `except Exception` blocks must not swallow crashes
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)
