"""Figure 7 — per-step execution time for the Q1-1 application.

7a (audit): Inserts / First Select / Other Selects / Updates under
  * PostgreSQL + PTU (OS-only auditing),
  * LDV server-included (provenance queries + versioning + tuple
    collection),
  * LDV server-excluded (statement/result recording).

7b (replay): Initialization / First Select / Other Selects / Inserts /
Updates from the corresponding packages.

Shape assertions (the paper's findings):
  * server-included audit is the slowest on Select and Update steps
    (extra provenance queries), but cheap on Insert,
  * server-excluded audit overhead is below server-included,
  * server-included replay pays a DB-initialization cost,
  * server-excluded replay answers queries fastest (reads results from
    the log instead of executing).
"""

from __future__ import annotations

import pytest

from repro.core.replay import ReplaySession
from repro.monitor import AuditSession
from repro.workloads.app import (
    INSERT_BINARY,
    SELECT_BINARY,
    UPDATE_BINARY,
)
from repro.workloads.tpch.queries import variant_by_id

from benchmarks.conftest import (
    BENCH_CONFIG,
    BENCH_SELECTS,
    fresh_world,
    run_insert_step,
    run_select_step,
    run_update_step,
    timed,
)

VARIANT = variant_by_id(BENCH_CONFIG, "Q1-1")

AUDIT_CONFIGS = [
    ("postgres+ptu", "os-only"),
    ("server-included", "server-included"),
    ("server-excluded", "server-excluded"),
]

_audit_steps: dict[str, dict[str, float]] = {}
_replay_steps: dict[str, dict[str, float]] = {}


def _measure_audit_steps(world, mode: str) -> dict[str, float]:
    steps: dict[str, float] = {}
    with AuditSession(world.vos, mode, database=world.database):
        steps["inserts"], _ = timed(run_insert_step, world)
        steps["first_select"], _ = timed(run_select_step, world, 1)
        other, _ = timed(run_select_step, world, BENCH_SELECTS - 1)
        steps["other_selects"] = other / max(BENCH_SELECTS - 1, 1)
        steps["updates"], _ = timed(run_update_step, world)
    return steps


@pytest.mark.parametrize("label,mode", AUDIT_CONFIGS,
                         ids=[c[0] for c in AUDIT_CONFIGS])
def test_fig7a_audit(benchmark, tmp_path, report, label, mode):
    world = fresh_world(tmp_path, variant=VARIANT, with_data_dir=False)

    def run():
        return _measure_audit_steps(world, mode)

    steps = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["steps"] = steps
    _audit_steps[label] = steps
    report.add(
        "Fig 7a — audit time per step (seconds)",
        ("config", "inserts", "first_select", "other_selects", "updates"),
        (label, steps["inserts"], steps["first_select"],
         steps["other_selects"], steps["updates"]))


@pytest.mark.parametrize("kind", ["ptu", "included", "excluded"])
def test_fig7b_replay(benchmark, package_cache, report, kind):
    package_dir = package_cache.get(VARIANT, kind)
    world = package_cache.world_for(VARIANT.query_id, kind)

    def run():
        steps: dict[str, float] = {}
        session = ReplaySession(package_dir, world.registry)
        steps["initialization"], _ = timed(session.prepare)
        steps["inserts"], _ = timed(session.run, INSERT_BINARY, [])
        steps["first_select"], _ = timed(session.run, SELECT_BINARY, ["1"])
        other, _ = timed(session.run, SELECT_BINARY,
                         [str(BENCH_SELECTS - 1)])
        steps["other_selects"] = other / max(BENCH_SELECTS - 1, 1)
        steps["updates"], _ = timed(session.run, UPDATE_BINARY, [])
        return steps

    steps = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["steps"] = steps
    _replay_steps[kind] = steps
    report.add(
        "Fig 7b — replay time per step (seconds)",
        ("config", "initialization", "first_select", "other_selects",
         "inserts", "updates"),
        (kind, steps["initialization"], steps["first_select"],
         steps["other_selects"], steps["inserts"], steps["updates"]))


def test_fig7_shapes(benchmark):
    """The qualitative claims of Section IX-B/IX-C."""
    if len(_audit_steps) < 3 or len(_replay_steps) < 3:
        pytest.skip("step measurements incomplete")
    benchmark.pedantic(_check_fig7_shapes, rounds=1, iterations=1)


def _check_fig7_shapes():
    baseline = _audit_steps["postgres+ptu"]
    included = _audit_steps["server-included"]
    excluded = _audit_steps["server-excluded"]
    # server-included pays for provenance on selects and updates
    assert included["first_select"] > baseline["first_select"]
    assert included["other_selects"] > baseline["other_selects"]
    assert included["updates"] > baseline["updates"]
    # the Insert step is the cheap one for server-included: its
    # relative overhead stays below the Select/Update overheads
    insert_overhead = included["inserts"] / baseline["inserts"]
    select_overhead = included["other_selects"] / baseline["other_selects"]
    assert insert_overhead < select_overhead
    # server-excluded audits cheaper than server-included on selects
    assert excluded["other_selects"] < included["other_selects"]

    # replay: server-excluded answers queries fastest
    replay_included = _replay_steps["included"]
    replay_excluded = _replay_steps["excluded"]
    replay_ptu = _replay_steps["ptu"]
    assert replay_excluded["other_selects"] < \
        replay_included["other_selects"]
    assert replay_excluded["other_selects"] < replay_ptu["other_selects"]
    # server-included restores fewer tuples than the PTU full DB
    assert replay_included["initialization"] <= \
        replay_ptu["initialization"] * 1.5
