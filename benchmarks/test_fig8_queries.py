"""Figure 8 — per-query execution time across all 18 Table II variants.

8a (audit): time of one audited query execution under
  * PostgreSQL + PTU (OS-only), * server-included, * server-excluded.

8b (replay): time of one replayed query execution from
  * a PTU package (full DB), * server-included, * server-excluded
    packages, plus * the VM model applied to the native time.

Shape assertions (Section IX-C/IX-D):
  * audit time grows with selectivity within each query family and the
    relative overhead of server-included stays roughly stable,
  * server-excluded replay is fastest in (almost) all cases — Q3 (one
    result row) being the extreme case,
  * VM replay is the slowest configuration.
"""

from __future__ import annotations

import pytest

from repro.baselines import VMIModel
from repro.core.replay import ReplaySession
from repro.monitor import AuditSession
from repro.workloads.app import SELECT_BINARY
from repro.workloads.tpch.queries import table2_variants

from benchmarks.conftest import (
    ALL_VARIANTS,
    fresh_world,
    run_select_step,
    set_query,
    timed,
)

AUDIT_MODES = [("postgres+ptu", "os-only"),
               ("server-included", "server-included"),
               ("server-excluded", "server-excluded")]

_audit_times: dict[str, dict[str, float]] = {}
_replay_times: dict[str, dict[str, float]] = {}
_native_times: dict[str, float] = {}


@pytest.fixture(scope="module")
def audit_worlds(tmp_path_factory):
    """One monitored world per audit mode, reused across variants.

    The world's tables are provenance-enabled by a warm-up query so
    per-variant measurements reflect the steady-state overhead
    (Fig 8a's per-query points, not Fig 7a's cold-cache bar).
    """
    worlds = {}
    for label, mode in AUDIT_MODES:
        world = fresh_world(
            tmp_path_factory.mktemp(f"fig8-{label}"),
            with_data_dir=False)
        session = AuditSession(world.vos, mode, database=world.database)
        session.__enter__()
        # warm up: provenance-enable every table the sweep touches
        for warmup in ("SELECT count(*) FROM lineitem WHERE l_orderkey < 0",
                       "SELECT count(*) FROM orders WHERE o_orderkey < 0",
                       "SELECT count(*) FROM customer WHERE c_custkey < 0"):
            set_query(world, warmup)
            run_select_step(world, 1)
        worlds[label] = (world, session)
    yield worlds
    for world, session in worlds.values():
        session.__exit__(None, None, None)


@pytest.mark.parametrize("variant", ALL_VARIANTS,
                         ids=[v.query_id for v in ALL_VARIANTS])
def test_fig8a_audit(benchmark, audit_worlds, report, variant):
    row = [variant.query_id]
    for label, _mode in AUDIT_MODES:
        world, _session = audit_worlds[label]
        set_query(world, variant.sql)
        seconds, _ = timed(run_select_step, world, 1)
        _audit_times.setdefault(label, {})[variant.query_id] = seconds
        row.append(seconds)
    # the benchmark fixture times the audited server-included query,
    # the figure's most interesting series
    world, _session = audit_worlds["server-included"]
    set_query(world, variant.sql)
    benchmark.pedantic(run_select_step, args=(world, 1), rounds=2,
                       iterations=1)
    report.add(
        "Fig 8a — audited query time (seconds)",
        ("variant", "postgres+ptu", "server-included", "server-excluded"),
        tuple(row))


@pytest.mark.parametrize("variant", ALL_VARIANTS,
                         ids=[v.query_id for v in ALL_VARIANTS])
def test_fig8b_replay(benchmark, package_cache, report, variant):
    times: dict[str, float] = {}
    for kind in ("ptu", "included", "excluded"):
        package_dir = package_cache.get(variant, kind)
        world = package_cache.world_for(variant.query_id, kind)
        session = ReplaySession(package_dir, world.registry)
        session.prepare()
        if kind == "ptu":
            # PTU replays re-execute the query on the full restored DB;
            # its packaged query file already holds this variant's SQL
            pass
        if kind == "excluded":
            # warm through recorded inserts so the log cursor reaches
            # the first select
            from repro.workloads.app import INSERT_BINARY
            session.run(INSERT_BINARY, [])
        seconds, _ = timed(session.run, SELECT_BINARY, ["1"])
        times[kind] = seconds
    # native (non-audited) execution for the VM model
    native_world = package_cache.world_for(variant.query_id, "ptu")
    native_seconds, _ = timed(native_world.database.query, variant.sql)
    _native_times[variant.query_id] = native_seconds
    times["vm"] = VMIModel().replay_seconds(native_seconds)
    for kind, seconds in times.items():
        _replay_times.setdefault(kind, {})[variant.query_id] = seconds

    package_dir = package_cache.get(variant, "excluded")
    world = package_cache.world_for(variant.query_id, "excluded")

    def replay_excluded_select():
        session = ReplaySession(package_dir, world.registry,
                                allow_skip=True)
        session.prepare()
        return session.run(SELECT_BINARY, ["1"])

    benchmark.pedantic(replay_excluded_select, rounds=2, iterations=1)
    report.add(
        "Fig 8b — replayed query time (seconds)",
        ("variant", "ptu", "server-included", "server-excluded", "vm"),
        (variant.query_id, times["ptu"], times["included"],
         times["excluded"], times["vm"]))


def test_fig8_shapes(benchmark):
    if not _audit_times or not _replay_times:
        pytest.skip("measurements incomplete")
    benchmark.pedantic(_check_fig8_shapes, rounds=1, iterations=1)


def _check_fig8_shapes():
    included = _audit_times["server-included"]
    baseline = _audit_times["postgres+ptu"]
    # audit time grows with selectivity within Q1: last variant reads
    # 25x the tuples of the first
    assert included["Q1-5"] > included["Q1-1"]
    # server-included overhead exists across the board
    slower = sum(1 for qid in included if included[qid] > baseline[qid])
    assert slower >= len(included) * 0.8

    # replay: server-excluded beats server-included almost everywhere
    excluded = _replay_times["excluded"]
    included_replay = _replay_times["included"]
    vm = _replay_times["vm"]
    wins = sum(1 for qid in excluded
               if excluded[qid] < included_replay[qid])
    assert wins >= len(excluded) * 0.8
    # Q3 (single result row) is the extreme case for server-excluded
    assert excluded["Q3-1"] < included_replay["Q3-1"] / 2
    # the VM is the slowest replay configuration on average
    mean = lambda values: sum(values.values()) / len(values)
    assert mean(vm) > mean(excluded)
    assert mean(vm) > mean(included_replay)
