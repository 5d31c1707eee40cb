"""One workload measured in one process.

A repetition builds three fresh worlds, one per package flavour, and
for each one audits the Section IX-A application, builds the package,
and replays it. Only the public entry points are driven:
``build_world``, ``AuditSession``, ``Packager.build_server_*``,
``build_ptu_package`` and ``ReplaySession.prepare/run``.

Untraced repetitions give the end-to-end metrics; the only probe they
install is a timer around application ``DBClient.execute`` calls. With
tracing on, untraced and traced repetitions alternate: the traced ones
give the per-layer metrics, and the two together give the tracing
overhead.

End-to-end times are reported at reference speed. The shared hosts
this runs on change speed by tens of percent from one second to the
next, which would bury any change to the program in noise. So a fixed
reference loop (benchmark code, not program code) is timed while every
op runs, from a timer signal every ``SAMPLE_PERIOD_S``, and the op's
measured seconds are scaled by the loop's speed during the op relative
to ``REFERENCE_S`` (for package builds, the loop including its zlib
part). A program change does not move the loop, so it
moves the reported time one for one. Each time sample keeps its speed
factor, so the measured seconds can be derived; per-layer times are
not scaled, and traced repetitions take no samples inside their ops.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Optional

from repro.baselines import build_ptu_package
from repro.core.packager import Packager
from repro.core.replay import ReplaySession
from repro.db.client import DBClient
from repro.db.engine import Database
from repro.db.server import DBServer
from repro.monitor.session import SERVER_EXCLUDED, SERVER_INCLUDED, AuditSession
from repro.workloads.app import APP_BINARY, RESULT_FILE, build_world
from repro.workloads.tpch.dbgen import TPCHConfig
from repro.workloads.tpch.queries import variant_by_id

from . import layers
from . import ROOT
from .spans import Patches, SpanRecorder, StageBreakdown
from .stats import highest_supported_percentile, percentile, summarize
from .workloads import PACKAGE_REPEATS, SCALE_FACTOR, SELECTS, Workload

FLAVOURS = ("included", "excluded", "ptu")
_AUDIT_MODES = {"included": SERVER_INCLUDED, "excluded": SERVER_EXCLUDED}

# end-to-end metrics in report order: (name, unit)
E2E_METRICS: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    *((f"audit_s.{flavour}", "s") for flavour in FLAVOURS),
    ("package_s.included", "s"),
    ("package_s.excluded", "s"),
    *((f"replay_s.{flavour}", "s") for flavour in FLAVOURS),
    *((f"package_bytes.{flavour}", "bytes") for flavour in FLAVOURS),
    ("stmt_ms.p50.included", "ms"),
    ("stmt_ms.p95.included", "ms"),
)

# the warm-up pipeline's INSERT and UPDATE counts, at most
WARMUP_STATEMENTS = 20

# the reference loop's times at reference speed, its interpreted part
# and its compression: their typical times on the 2-core host the
# baselines were measured on
REFERENCE_S = 0.0008
COMPRESS_REFERENCE_S = 0.0008
# the loop runs this often while an op runs; at ~1 ms a run, about 5%
# of an op's wall time goes to the loop and is subtracted
SAMPLE_PERIOD_S = 0.02
# loop runs just before and just after every op; an op that took fewer
# samples than this inside itself (one shorter than ~0.1 s) is scaled
# by these instead
REFERENCE_RUNS = 5
# a statement is scaled by this many ticks on each side of it
LOCAL_TICKS = 2


class ReferenceLoop:
    """Fixed interpreter work whose time tracks the host's speed.

    Half of it is cache-resident (grouping, sorting with a key, JSON
    encoding of small tuples), half walks a table larger than the
    caches (dict build and probes over 60k rows), because the program
    is both: a purely cache-resident loop slows down more than the
    pipeline on a busy host and over-corrects. A run takes about a
    millisecond, so it can sample the host's speed within an op.

    A second, separately timed part compresses JSON with zlib, as
    writing a package does. A busy host slows compiled code less than
    interpreted code: scaled by the interpreted part alone, a package
    build's time still rose by a fifth of the host's speed-up, and
    ``package_s.excluded`` spread by 14% between runs.
    """

    def __init__(self) -> None:
        self.rows = [(i, f"key{i * 7919 % 100003}", i * 0.25)
                     for i in range(60000)]
        self.document = json.dumps([[i, f"name{i}", i * 0.5, "x" * (i % 13)]
                                    for i in range(400)]).encode()

    def run(self) -> int:
        groups: dict[str, list] = {}
        for i in range(150):
            key = f"k{i % 211}"
            groups.setdefault(key, []).append((i, key, i * 0.5, str(i)))
        total = 0
        for items in groups.values():
            items.sort(key=lambda item: -item[0])
            total += len(json.dumps(items[:10])) + items[0][0]
        index = {row[1]: row for row in self.rows[::100]}
        for row in self.rows[::60]:
            hit = index.get(row[1])
            if hit is not None:
                total += hit[0]
        return total

    def time(self) -> tuple[float, float]:
        """One run's time: the interpreted part and the compression.
        The collector is off meanwhile: a collection during the loop
        would walk the program's garbage and tie the loop's time to the
        program."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.run()
            middle = time.perf_counter()
            zlib.compress(self.document, 9)
            return middle - start, time.perf_counter() - middle
        finally:
            if enabled:
                gc.enable()

    def times(self) -> list[tuple[float, float]]:
        return [self.time() for _ in range(REFERENCE_RUNS)]


def speed_factor(loop_times: list[tuple[float, float]],
                 compress: bool = False) -> float:
    """The reference time over the loop's, averaged over ``loop_times``
    as speeds: above 1 on a host faster than the reference, below 1 on
    a slower or busier one. Samples taken at a fixed period weigh the
    host's speed by time, as the op's seconds do. ``compress`` counts
    the compression part too (for package builds)."""
    if compress:
        return (REFERENCE_S + COMPRESS_REFERENCE_S) * statistics.fmean(
            1.0 / (interpreted + compressed)
            for interpreted, compressed in loop_times)
    return REFERENCE_S * statistics.fmean(
        1.0 / interpreted for interpreted, _ in loop_times)


class SpeedSampler:
    """Times one run of the reference loop every ``SAMPLE_PERIOD_S``
    while started, from a ``SIGALRM`` handler, so that an op's speed
    factor follows the host through the op rather than being read at
    its ends. The handler's own time accumulates in ``spent``, which
    timed code subtracts from what it measured."""

    def __init__(self, reference: ReferenceLoop) -> None:
        self.reference = reference
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def install(self) -> Callable[[], None]:
        """Handle ``SIGALRM``; returns what restores the old handler."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        return lambda: signal.signal(signal.SIGALRM, previous)

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        return self.samples

    def _tick(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self.samples.append(self.reference.time())
        self.spent += time.perf_counter() - start


class StatementProbe:
    """Times outermost application ``DBClient.execute`` calls while
    armed, less the time the sampler spent inside them; calls the DB
    monitor issues from inside one (provenance and reenactment queries)
    are part of the outer call's time."""

    def __init__(self, sampler: SpeedSampler) -> None:
        self.armed = False
        self.sampler = sampler
        # (seconds, number of sampler ticks when the call ended)
        self._samples: list[tuple[float, int]] = []
        self._depth = 0

    def take(self, factor: float) -> list[float]:
        """The seconds measured since the last call, at reference speed.

        A statement lasts about a millisecond, far less than an op, so
        each is scaled by the loop's speed in the ``2 * LOCAL_TICKS``
        sampler ticks around it, and by the op's ``factor`` only when
        the op took no ticks. Scaling by the op's factor alone left the
        median statement 10-20% apart between runs whose ops agreed
        within 3%: the host changed speed between the op's INSERTs and
        its SELECTs."""
        ticks = self.sampler.samples
        scaled = []
        for seconds, tick in self._samples:
            window = ticks[max(0, tick - LOCAL_TICKS):tick + LOCAL_TICKS]
            scaled.append(seconds * (speed_factor(window) if window
                                     else factor))
        self._samples = []
        return scaled

    def install(self, patches: Patches) -> None:
        patches.wrap_attribute(DBClient, "execute", self._wrap)

    def _wrap(self, execute: Callable) -> Callable:
        probe = self

        @functools.wraps(execute)
        def timed_execute(client: DBClient, *args: Any, **kwargs: Any) -> Any:
            if not probe.armed or probe._depth:
                return execute(client, *args, **kwargs)
            probe._depth += 1
            spent = probe.sampler.spent
            start = time.perf_counter()
            try:
                return execute(client, *args, **kwargs)
            finally:
                probe._samples.append((time.perf_counter() - start
                                       - (probe.sampler.spent - spent),
                                       len(probe.sampler.samples)))
                probe._depth -= 1
        return timed_execute


class OpFailed(Exception):
    """An audit, package build or replay whose outcome the referee
    rejected."""


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _settle() -> None:
    """Start a timed op from the same state every time: no garbage
    from earlier ops for the collector to find, and no dirty pages from
    earlier ops being written back while this one runs (their
    writeback made small write-heavy ops vary by 25% between runs)."""
    gc.collect()
    os.sync()


def _counters(database: Database,
              server: Optional[DBServer] = None) -> dict[str, float]:
    """The engine's (and the server's) cumulative counters."""
    plan = database.plan_cache.counters()
    scan = database.scan_cache.counters()
    counters = {
        "plan_hits": plan["hits"], "plan_misses": plan["misses"],
        "scan_hits": scan["hits"], "scan_misses": scan["misses"],
        "scan_invalidations": scan["invalidations"],
        "wal_commits": database.commit_count,
        "wal_fsyncs": database.fsync_count,
    }
    if server is not None:
        result = server.result_cache.counters()
        counters.update({
            "result_hits": result["hits"], "result_misses": result["misses"],
            "wire_bytes": server.bytes_in + server.bytes_out,
            "frames": server.frames_served,
        })
    return counters


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def counter_metrics(before: dict[str, float],
                    after: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics the counters give for the work between two
    :func:`_counters` snapshots (``before`` is empty for a database the
    stage created, ``after`` for a stage without a database)."""
    moved = {key: value - before.get(key, 0) for key, value in after.items()}
    if not moved:
        return {}
    metrics = {
        "plan_cache.hit_rate": _rate(moved["plan_hits"], moved["plan_misses"]),
        "scan_cache.hit_rate": _rate(moved["scan_hits"], moved["scan_misses"]),
        "scan_cache.invalidations": moved["scan_invalidations"],
        "wal.commits": moved["wal_commits"],
        "wal.fsyncs": moved["wal_fsyncs"],
    }
    if "frames" in moved:
        metrics.update({
            "result_cache.hit_rate": _rate(moved["result_hits"],
                                           moved["result_misses"]),
            "protocol.wire_bytes": moved["wire_bytes"],
            "server.frames": moved["frames"],
        })
    return metrics


@dataclass
class Measurement:
    """What one process measured for one workload."""

    workload: str
    seed: int
    traced: bool
    repetitions: int = 0
    ops: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # end-to-end samples: times at reference speed, package sizes
    samples: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    # time metric -> the speed factor of each of its samples
    speed_factors: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    # application statement latencies at reference speed
    statement_s: list[float] = field(default_factory=list)
    layers: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    stage_totals: dict[str, list[float]] = field(
        default_factory=lambda: {"untraced": [], "traced": []})
    trees: dict[str, dict[str, list]] = field(default_factory=dict)
    trace_errors: list[str] = field(default_factory=list)
    # stage -> [(parts-vs-wall error, unattributed share)] per traced stage
    checks: dict[str, list[tuple[float, float]]] = field(
        default_factory=lambda: defaultdict(list))
    conditions: dict[str, Any] = field(default_factory=dict)

    def e2e_metrics(self) -> dict[str, dict[str, Any]]:
        """Median-based summary of every end-to-end metric."""
        result: dict[str, dict[str, Any]] = {}
        for name, unit in E2E_METRICS:
            if not name.startswith("stmt_ms."):
                result[name] = {"unit": unit, **summarize(self.samples[name])}
        milliseconds = [seconds * 1e3 for seconds in self.statement_s]
        for p in (50.0, 95.0):
            result[f"stmt_ms.p{p:g}.included"] = {
                "unit": "ms", "value": percentile(milliseconds, p),
                "n": len(milliseconds)}
        return result

    def measured_times(self) -> dict[str, dict[str, Any]]:
        """Summary of every end-to-end time as measured, before scaling
        to reference speed."""
        return {name: summarize([value / factor for value, factor
                                 in zip(self.samples[name], factors)])
                for name, factors in self.speed_factors.items()}

    def stage_checks(self) -> dict[str, dict[str, float]]:
        return {stage: {
            "max_attributed_error": max(error for error, _ in pairs),
            "median_unattributed_share": statistics.median(
                share for _, share in pairs),
            "max_unattributed_share": max(share for _, share in pairs)}
            for stage, pairs in self.checks.items()}

    def layer_metrics(self) -> dict[str, dict[str, Any]]:
        result = {name: {"unit": layers.layer_unit(name), **summarize(values)}
                  for name, values in sorted(self.layers.items())}
        untraced = self.stage_totals["untraced"]
        traced = self.stage_totals["traced"]
        if untraced and traced:
            result[layers.TRACE_OVERHEAD] = {
                "unit": "ratio", "n": len(traced),
                "median": (statistics.median(traced)
                           / statistics.median(untraced) - 1.0)}
        return result


class WorkloadRun:
    """Runs repetitions of one workload and referees every op."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path,
                 measurement: Measurement, probe: StatementProbe,
                 record: bool = True) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.m = measurement
        self.probe = probe
        self.sampler = probe.sampler
        self.record = record  # False for the warm-up
        self.variant = variant_by_id(
            TPCHConfig(scale_factor=SCALE_FACTOR, seed=seed),
            workload.variant)
        self._digests: dict[str, str] = {}
        self._rep = 0
        # the reference loop's times taken after the latest timed op
        self._reference_times = self.sampler.reference.times()

    # -- one repetition ----------------------------------------------------------

    def repetition(self, recorder: Optional[SpanRecorder] = None) -> float:
        """Run all three flavours once; returns the summed time of the
        audit, package and replay ops at reference speed (so traced and
        untraced repetitions compare across a change of host speed)."""
        self._rep += 1
        rep_dir = self.work_dir / f"rep{self._rep}"
        total = 0.0
        try:
            for flavour in FLAVOURS:
                total += self._flavour(flavour, rep_dir / flavour, recorder)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        return total

    def _fail(self, stage: str, reason: str, ops: int = 1) -> None:
        self.m.failed += ops
        self.m.failures.append(
            f"{self.workload.name} seed={self.seed} rep={self._rep} "
            f"{stage}: {reason}")

    def _skip(self, stage: str, reason: str, ops: int) -> None:
        """Ops that cannot run because one they depend on failed count
        as attempted and failed."""
        self.m.ops += ops
        self._fail(stage, f"skipped: {reason}", ops=ops)

    def _timed(self, op: Callable[[], Any], sample: bool = True,
               compress: bool = False) -> tuple[Any, float, float]:
        """``op()`` after :func:`_settle`; returns its value, its
        measured seconds and its :func:`speed_factor` (``compress`` for
        a package build): from the loop runs the sampler took inside the
        op, joined by those just before and after it when there were
        fewer than ``REFERENCE_RUNS`` inside (always so when ``sample``
        is false: a traced op, whose spans must not hold the sampler's
        time)."""
        before = self._reference_times
        _settle()
        spent = self.sampler.spent
        if sample:
            self.sampler.start()
        start = time.perf_counter()
        try:
            value = op()
        finally:
            inside = self.sampler.stop() if sample else []
            seconds = (time.perf_counter() - start
                       - (self.sampler.spent - spent))
            self._reference_times = self.sampler.reference.times()
        if len(inside) < REFERENCE_RUNS:
            inside = before + inside + self._reference_times
        return value, seconds, speed_factor(inside, compress)

    def _record_time(self, metric: str, seconds: float,
                     factor: float) -> None:
        if self.record:
            self.m.samples[metric].append(seconds * factor)
            self.m.speed_factors[metric].append(factor)

    def _stage(self, stage: str, recorder: Optional[SpanRecorder],
               op: Callable[[int], Any],
               counters: Callable[[Any], dict[str, float]],
               repeats: int = 1,
               extras: Callable[[Any], dict[str, float]] = lambda _: {},
               check: Callable[[int, Any], None] = lambda index, value: None,
               ) -> tuple[list[Any], float]:
        """Run ``op(0)``, …, ``op(repeats - 1)``, each through
        :meth:`_timed`. ``check`` referees each result outside the timed
        region. A traced op's per-layer numbers include the
        :func:`counter_metrics` between ``counters(None)`` before it and
        ``counters(value)`` after it. Returns the ops' values (None
        where one failed) and their summed seconds at reference speed."""
        values: list[Any] = []
        total = 0.0
        compress = stage.startswith("package.")
        for index in range(repeats):
            self.m.ops += 1
            try:
                if recorder is None:
                    value, seconds, factor = self._timed(
                        lambda: op(index), compress=compress)
                    self.m.statement_s.extend(self.probe.take(factor))
                else:
                    before = counters(None)
                    scope = recorder.stage(stage)

                    def traced_op() -> Any:
                        with scope:
                            return op(index)
                    value, seconds, factor = self._timed(
                        traced_op, sample=False, compress=compress)
                    self._record_layers(stage, scope.breakdown, {
                        **counter_metrics(before, counters(value)),
                        **extras(value)})
                check(index, value)
            except Exception as exc:  # the referee counts it and carries on
                reason = (str(exc) if isinstance(exc, OpFailed)
                          else f"raised {type(exc).__name__}: {exc}")
                self._fail(stage, reason)
                values.append(None)
                continue
            if recorder is None:
                self._record_time(stage.replace(".", "_s.", 1), seconds,
                                  factor)
            values.append(value)
            total += seconds * factor
        return values, total

    def _record_layers(self, stage: str, breakdown: StageBreakdown,
                       extras: dict[str, float]) -> None:
        error = breakdown.attributed_error()
        if error > 0.01:
            self.m.trace_errors.append(
                f"{stage}: parts differ from wall time by {error:.2%}")
        if self.record:
            self.m.checks[stage].append(
                (error, breakdown.unattributed_s / breakdown.wall_s))
            for base, value in layers.layer_values(stage, breakdown,
                                                   extras).items():
                self.m.layers[f"{stage}.{base}"].append(value)
            merged = self.m.trees.setdefault(stage, {})
            for path, (calls, total, own) in breakdown.tree.items():
                node = merged.setdefault(path, [0, 0.0, 0.0])
                node[0] += calls
                node[1] += total
                node[2] += own

    def _flavour(self, flavour: str, flavour_dir: Path,
                 recorder: Optional[SpanRecorder]) -> float:
        workload = self.workload
        argv = [str(SELECTS)]
        package_dir = flavour_dir / "package"
        world, seconds, factor = self._timed(lambda: build_world(
            scale_factor=SCALE_FACTOR, variant=self.variant,
            insert_count=workload.inserts, update_count=workload.updates,
            data_dir=flavour_dir / "pgdata", seed=self.seed))
        if recorder is None:
            self._record_time("setup_s", seconds, factor)

        def world_counters(_: Any) -> dict[str, float]:
            return _counters(world.database, world.server)

        # audit (for PTU: OS-only audit plus the full-data package)
        self.probe.armed = (recorder is None and flavour == "included"
                            and self.record)
        def check_audit(_: int, result: Any) -> None:
            if flavour == "ptu":  # the PTU audit builds the package too
                self._check_package(flavour, result.total_bytes, package_dir)

        try:
            (audited,), total = self._stage(
                f"audit.{flavour}", recorder,
                lambda _: self._audit(world, flavour, package_dir, argv),
                world_counters,
                extras=lambda session: _audit_extras(flavour, session),
                check=check_audit)
        finally:
            self.probe.armed = False
        if audited is None:
            self._skip(f"package+replay.{flavour}", "audit failed",
                       PACKAGE_REPEATS.get(flavour, 0)
                       + workload.replay_repeats[flavour])
            return total

        if flavour != "ptu":
            def target(index: int) -> Path:
                return (package_dir if index == 0
                        else flavour_dir / f"package{index}")

            def check(index: int, built: Any) -> None:
                try:
                    self._check_package(flavour, built.total_bytes,
                                        target(index))
                finally:
                    if index:
                        shutil.rmtree(target(index), ignore_errors=True)

            packaged, seconds = self._stage(
                f"package.{flavour}", recorder,
                lambda index: self._package(world, flavour, audited,
                                            target(index), argv),
                world_counters, repeats=PACKAGE_REPEATS[flavour],
                extras=_package_extras, check=check)
            total += seconds
            if packaged[0] is None:
                self._skip(f"replay.{flavour}", "packaging failed",
                           workload.replay_repeats[flavour])
                return total

        expected = world.vos.fs.read_file(RESULT_FILE)

        def replay(index: int) -> tuple[ReplaySession, Any]:
            return self._replay(world, package_dir,
                                flavour_dir / f"replay{index}")

        def replay_counters(value: Any) -> dict[str, float]:
            # the replay's database is new: it counts from zero
            if value is None or value[0].database is None:
                return {}
            return _counters(value[0].database)

        def check(index: int, value: tuple[ReplaySession, Any]) -> None:
            shutil.rmtree(flavour_dir / f"replay{index}", ignore_errors=True)
            self._check_replay(flavour, audited, value[1], expected)

        _, seconds = self._stage(
            f"replay.{flavour}", recorder, replay, replay_counters,
            repeats=workload.replay_repeats[flavour],
            extras=lambda value: _replay_extras(flavour, value[1]),
            check=check)
        return total + seconds

    # -- the ops -----------------------------------------------------------------

    @staticmethod
    def _audit(world: Any, flavour: str, package_dir: Path,
               argv: list[str]) -> Any:
        if flavour == "ptu":
            result = build_ptu_package(
                world.vos, APP_BINARY, package_dir, world.database,
                world.server_name, world.server_binary_paths, argv)
            process = result.process
        else:
            with AuditSession(world.vos, _AUDIT_MODES[flavour],
                              database=world.database) as session:
                process = world.vos.run(APP_BINARY, argv)
            result = session
        if process.exit_code != 0:
            raise OpFailed(f"application exited with {process.exit_code}")
        return result

    @staticmethod
    def _package(world: Any, flavour: str, session: AuditSession,
                 package_dir: Path, argv: list[str]) -> Any:
        packager = Packager(world.vos, session, APP_BINARY, argv)
        if flavour == "included":
            return packager.build_server_included(
                package_dir, world.database, world.server_name,
                world.server_binary_paths)
        return packager.build_server_excluded(package_dir, world.server_name)

    @staticmethod
    def _replay(world: Any, package_dir: Path,
                scratch: Path) -> tuple[ReplaySession, Any]:
        session = ReplaySession(package_dir, world.registry,
                                scratch_dir=scratch)
        session.prepare()
        return session, session.run()

    # -- the referee -------------------------------------------------------------

    def _check_package(self, flavour: str, size: int,
                       package_dir: Path) -> None:
        """Every build of a flavour's package must be byte-identical
        (a digest of every file) to the first one in this process."""
        digest = tree_digest(package_dir)
        if digest != self._digests.setdefault(flavour, digest):
            raise OpFailed("package bytes differ from the first build")
        if self.record:
            self.m.samples[f"package_bytes.{flavour}"].append(size)

    @staticmethod
    def _check_replay(flavour: str, audited: Any, replayed: Any,
                      expected: bytes) -> None:
        if not replayed.validated:
            raise OpFailed("output digests do not match the audit")
        if replayed.outputs.get(RESULT_FILE) != expected:
            raise OpFailed(f"{RESULT_FILE} differs from the audited run")
        if (flavour == "excluded"
                and replayed.replayed_statements != len(audited.replay_log)):
            raise OpFailed(f"replayed {replayed.replayed_statements} "
                           f"statements, recorded {len(audited.replay_log)}")
        if (flavour == "included" and replayed.restored_tuples
                != audited.relevant_tuples.tuple_count):
            raise OpFailed(f"restored {replayed.restored_tuples} tuples, "
                           f"the audit kept "
                           f"{audited.relevant_tuples.tuple_count}")


def _audit_extras(flavour: str, audited: Any) -> dict[str, float]:
    if flavour == "ptu":
        return {}
    extras = {"provenance.nodes": audited.trace.node_count,
              "provenance.edges": audited.trace.edge_count}
    monitor = audited.db_monitor
    if flavour == "included":
        extras["dbmonitor.prov_queries"] = monitor.provenance_queries_run
        extras["dbmonitor.relevant_tuples"] = (
            audited.relevant_tuples.tuple_count)
    else:
        extras["dbmonitor.log_entries"] = len(audited.replay_log)
    return extras


_BREAKDOWN_PARTS = {"trace.json.gz": "trace", "db/restore": "restore",
                    "files": "files", "db/server": "server",
                    "replay": "replay_log"}


def _package_extras(packaged: Any) -> dict[str, float]:
    return {f"package.bytes.{part}": packaged.breakdown[key]
            for key, part in _BREAKDOWN_PARTS.items()
            if key in packaged.breakdown}


def _replay_extras(flavour: str, replayed: Any) -> dict[str, float]:
    if flavour == "excluded":
        return {}
    return {"replay.restored_tuples": replayed.restored_tuples}


# -- conditions ------------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def conditions(workload: Workload, seed: int) -> dict[str, Any]:
    """The measurement conditions, read from the engine's own defaults."""
    database = Database()
    server = DBServer(database)
    return {
        "workload": workload.name,
        "variant": workload.variant,
        "scale_factor": SCALE_FACTOR,
        "inserts": workload.inserts,
        "updates": workload.updates,
        "selects": SELECTS,
        "package_repeats": PACKAGE_REPEATS,
        "replay_repeats": workload.replay_repeats,
        "warmup": (f"one untimed repetition with at most "
                   f"{WARMUP_STATEMENTS} INSERTs and UPDATEs"),
        "seed": seed,
        "plan_cache_entries": database.plan_cache.capacity,
        "result_cache_entries": server.result_cache.capacity,
        "scan_cache_enabled": database.scan_cache.enabled,
        "scan_cache_max_cells": database.scan_cache.max_cells,
        "parallel_workers": database.parallel_workers,
        "caches": "cold in every fresh world, warm within the app run",
        "durability": "WAL commit and fsync per autocommit statement",
        "load": "closed loop: one client, one process, no extra threads",
        "settle": "gc.collect() and os.sync() before every timed op",
        "reference_s": REFERENCE_S,
        "compress_reference_s": COMPRESS_REFERENCE_S,
        "sample_period_s": SAMPLE_PERIOD_S,
        "reference_runs": REFERENCE_RUNS,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# -- the measuring loop ----------------------------------------------------------


def measure(workload: Workload, seed: int, work_dir: Path, *,
            seconds: float = 0.0, trace: bool = False,
            log: Callable[[str], None] = lambda line: None) -> Measurement:
    """Measure ``workload`` for about ``seconds``, at least one
    repetition, after the warm-up. A new repetition starts only when
    the median one so far still fits in the time left."""
    measurement = Measurement(
        workload=workload.name, seed=seed, traced=trace,
        conditions=conditions(workload, seed))
    sampler = SpeedSampler(ReferenceLoop())
    probe = StatementProbe(sampler)
    probe_patch = Patches()
    probe.install(probe_patch)
    restore_handler = sampler.install()
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        small = replace(workload,
                        inserts=min(workload.inserts, WARMUP_STATEMENTS),
                        updates=min(workload.updates, WARMUP_STATEMENTS))
        WorkloadRun(small, seed, work_dir / "warmup", measurement, probe,
                    record=False).repetition()
        log(f"{workload.name}: warm-up done")
        run = WorkloadRun(workload, seed, work_dir / "timed", measurement,
                          probe)
        started = time.monotonic()
        durations: list[float] = []
        while not durations or (time.monotonic() - started
                                + statistics.median(durations) <= seconds):
            begun = time.monotonic()
            measurement.stage_totals["untraced"].append(run.repetition())
            if trace:
                recorder = SpanRecorder()
                patches = layers.install(recorder)
                try:
                    measurement.stage_totals["traced"].append(
                        run.repetition(recorder))
                finally:
                    patches.undo()
            durations.append(time.monotonic() - begun)
            measurement.repetitions += 1
            log(f"{workload.name}: repetition {measurement.repetitions} "
                f"took {durations[-1]:.2f}s")
    finally:
        sampler.stop()
        restore_handler()
        probe_patch.undo()
        shutil.rmtree(work_dir, ignore_errors=True)
    factors = [factor for values in measurement.speed_factors.values()
               for factor in values]
    measurement.conditions.update(
        repetitions=measurement.repetitions,
        statement_samples=len(measurement.statement_s),
        statement_percentile_supported=highest_supported_percentile(
            len(measurement.statement_s)),
        median_speed_factor=statistics.median(factors) if factors else None)
    return measurement
