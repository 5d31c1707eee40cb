"""Engine micro-benchmarks: the substrate costs behind the figures.

Quantifies the unit costs the experiment-level numbers are built from:

* scan / filter / hash-join / aggregate throughput,
* the *lineage tax* — the same query with and without provenance
  tracking (Perm's overhead, which server-included audit pays once
  more per query),
* the *wire tax* — executing through the client/server protocol vs
  calling the engine directly (the interposition surface's cost).
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.db import Database, DBClient, DBServer
from repro.db.vector import row_at_a_time_plans

from benchmarks.conftest import BENCH_CONFIG, RESULTS_DIR, best_of, fresh_world


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return fresh_world(tmp_path_factory.mktemp("micro"),
                       with_data_dir=False)


SCAN = "SELECT count(*) FROM lineitem"
FILTER = "SELECT count(*) FROM lineitem WHERE l_quantity > 25"
JOIN = ("SELECT count(*) FROM lineitem l, orders o "
        "WHERE l.l_orderkey = o.o_orderkey")
AGGREGATE = ("SELECT l_returnflag, sum(l_extendedprice), avg(l_quantity) "
             "FROM lineitem GROUP BY l_returnflag")


@pytest.mark.parametrize("label,sql", [
    ("scan", SCAN),
    ("filter", FILTER),
    ("hash_join", JOIN),
    ("aggregate", AGGREGATE),
])
def test_operator_throughput(benchmark, world, label, sql):
    rows = benchmark(world.database.query, sql)
    assert rows


@pytest.mark.parametrize("label,sql", [
    ("filter", FILTER),
    ("hash_join", JOIN),
    ("aggregate", AGGREGATE),
])
def test_lineage_tax(world, report, label, sql):
    """Provenance-tracked execution vs plain execution, both warm (plan
    and scan caches primed by an untimed run), best of 5 each."""
    database = world.database
    database.execute(sql)
    plain = best_of(lambda: database.execute(sql), repeats=5)
    result = database.execute(sql, True)
    tracked = best_of(lambda: database.execute(sql, True), repeats=5)
    assert all(result.lineages)
    report.add(
        "Microbench — lineage tax (seconds per query)",
        ("operator", "plain", "with_lineage", "tax"),
        (label, plain, tracked, f"{tracked / max(plain, 1e-9):.2f}x"))


def test_index_vs_scan(benchmark, world, report):
    """Point lookup through a hash index vs a sequential scan."""
    import time

    database = world.database
    point_query = "SELECT * FROM orders WHERE o_orderkey = 42"
    # the TPC-H schema ships idx_orders_orderkey; measure with it
    indexed = benchmark(database.query, point_query)
    assert indexed
    indexed_mean = benchmark.stats.stats.mean

    database.execute("DROP INDEX idx_orders_orderkey")
    try:
        start = time.perf_counter()
        scanned = database.query(point_query)
        scan_seconds = time.perf_counter() - start
    finally:
        database.execute(
            "CREATE INDEX idx_orders_orderkey ON orders (o_orderkey)")
    assert scanned == indexed
    report.add(
        "Microbench — point lookup: index vs scan (seconds)",
        ("path", "seconds", "speedup_vs_scan"),
        ("index", indexed_mean,
         f"{scan_seconds / max(indexed_mean, 1e-9):.0f}x"))
    assert indexed_mean < scan_seconds


def test_wire_tax(world, report):
    """Client/server round trip vs direct engine call, both warm, best
    of 5 each. The server's result cache is off, so every wired query
    executes, as every direct one does."""
    database = world.database
    server = DBServer(database, result_cache_max_rows=0)
    client = DBClient(server.transport())
    client.connect()

    direct_rows = database.query(FILTER)
    direct = best_of(lambda: database.query(FILTER), repeats=5)
    wired_rows = client.query(FILTER)
    wired = best_of(lambda: client.query(FILTER), repeats=5)
    client.close()
    assert wired_rows == direct_rows
    report.add(
        "Microbench — wire protocol tax (seconds per query)",
        ("path", "direct", "through_wire", "tax"),
        ("filter", direct, wired, f"{wired / max(direct, 1e-9):.2f}x"))


# ---------------------------------------------------------------------------
# fast path: compiled expressions + plan cache
# ---------------------------------------------------------------------------

JOIN_AGG = ("SELECT l_returnflag, count(*), sum(l_extendedprice), "
            "avg(l_quantity) FROM lineitem l, orders o "
            "WHERE l.l_orderkey = o.o_orderkey AND l_quantity > 10 "
            "GROUP BY l_returnflag ORDER BY l_returnflag")


def test_compiled_vs_interpreted(world, report):
    """The tentpole claim: closure-compiled expressions beat the seed
    AST interpreter on a TPC-H-style join+aggregate. Both paths run
    the identical plan shape — ``interpreted_expressions()`` swaps
    only the per-row evaluation strategy — and both get a cached plan,
    so the measured gap is pure expression-evaluation cost."""
    from repro.db import expressions as exprs

    database = world.database
    database.plan_cache.clear()
    compiled_rows = database.query(JOIN_AGG)  # warm the plan cache
    compiled = best_of(lambda: database.query(JOIN_AGG), repeats=5)
    with exprs.interpreted_expressions():
        database.plan_cache.clear()  # force a re-plan in interpreted mode
        interpreted_rows = database.query(JOIN_AGG)
        interpreted = best_of(lambda: database.query(JOIN_AGG),
                              repeats=5)
    database.plan_cache.clear()  # drop the interpreted plan
    assert compiled_rows == interpreted_rows

    speedup = interpreted / max(compiled, 1e-9)
    report.add(
        "Microbench — compiled expressions vs interpreter (seconds)",
        ("query", "interpreted", "compiled", "speedup"),
        ("join+aggregate", interpreted, compiled, f"{speedup:.2f}x"))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "microbench_engine.json").write_text(json.dumps({
        "query": JOIN_AGG,
        "scale_factor": BENCH_CONFIG.scale_factor,
        "interpreted_seconds": interpreted,
        "compiled_seconds": compiled,
        "speedup": speedup,
        "plan_cache": database.plan_cache.counters(),
    }, indent=2) + "\n")
    assert compiled < interpreted, (
        f"compiled path ({compiled:.6f}s) is not faster than the "
        f"interpreter ({interpreted:.6f}s)")


def test_plan_cache_skips_parse_and_plan(world, report):
    """Repeated statement latency: served from the plan cache vs
    re-planned from scratch (cache cleared before every run). A tiny
    query makes parse+plan the dominant cost, as in the reenactment
    paper's replay workloads."""
    database = world.database
    sql = "SELECT r_name FROM region WHERE r_regionkey = 1"

    database.plan_cache.clear()
    database.query(sql)  # prime the entry
    hot = best_of(lambda: database.query(sql), repeats=7)

    def cold():
        database.plan_cache.clear()
        return database.query(sql)

    cold_seconds = best_of(cold, repeats=7)
    report.add(
        "Microbench — plan cache (seconds per statement)",
        ("path", "seconds", "speedup"),
        ("cached", hot, f"{cold_seconds / max(hot, 1e-9):.2f}x"))
    assert hot < cold_seconds, (
        f"cached execution ({hot:.6f}s) is not faster than "
        f"re-planning ({cold_seconds:.6f}s)")


# ---------------------------------------------------------------------------
# batch pipeline: vectorized vs tuple-at-a-time, with a regression gate
# ---------------------------------------------------------------------------

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
BENCH_ROWS = 100_000
# CI fails when throughput drops below 70% of the committed trajectory
REGRESSION_FLOOR = 0.7
# and the vectorized engine must beat tuple-at-a-time by at least this
# much in-run (the committed file records the real, larger margin)
SPEEDUP_FLOOR = 1.5

PIPELINE_QUERIES = {
    "scan_filter_project":
        "SELECT k, a, a + k FROM big WHERE a < 500",
    "join_aggregate":
        "SELECT s.name, count(*), sum(t.a) FROM big t, small s "
        "WHERE t.j = s.k AND t.a < 500 GROUP BY s.name",
}


@pytest.fixture(scope="module")
def pipeline_db():
    """100k-row fact table + 100-row dimension, loaded via direct
    table inserts (statement parsing at this size would dominate
    setup)."""
    database = Database()
    database.execute(
        "CREATE TABLE big (k integer, j integer, a integer, b float)")
    database.execute("CREATE TABLE small (k integer, name text)")
    rng = random.Random(7)
    tick = database.clock.tick()
    big = database.catalog.get_table("big")
    for k in range(BENCH_ROWS):
        big.insert((k, k % 100, rng.randrange(1000),
                    rng.random()), tick)
    small = database.catalog.get_table("small")
    for k in range(100):
        small.insert((k, f"dim{k:03d}"), tick)
    return database


def _time_modes(database, sql):
    """Best-of timings for the vectorized and tuple engines, each with
    a warm plan cache for its own mode."""
    database.plan_cache.clear()
    batch_rows = database.query(sql)
    batch_seconds = best_of(lambda: database.query(sql), repeats=3)
    with row_at_a_time_plans():
        database.plan_cache.clear()  # re-plan with row operators
        tuple_rows = database.query(sql)
        tuple_seconds = best_of(lambda: database.query(sql), repeats=3)
    database.plan_cache.clear()  # drop the row-mode plan
    assert batch_rows is not tuple_rows
    return batch_seconds, tuple_seconds, batch_rows, tuple_rows


def test_batch_vs_tuple_pipeline(pipeline_db, report):
    """The tentpole claim: batch execution with fused kernels beats the
    tuple-at-a-time Volcano loop on scan-heavy pipelines. Records the
    per-query throughput trajectory in BENCH_engine.json (refresh with
    ``REPRO_BENCH_UPDATE=1``) and gates on it: a >30% throughput
    regression against the committed numbers fails CI."""
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    measured: dict[str, dict] = {}
    failures = []
    for name, sql in PIPELINE_QUERIES.items():
        batch_seconds, tuple_seconds, batch_rows, tuple_rows = (
            _time_modes(pipeline_db, sql))
        assert sorted(batch_rows) == sorted(tuple_rows)
        speedup = tuple_seconds / max(batch_seconds, 1e-9)
        measured[name] = {
            "tuple_seconds": round(tuple_seconds, 6),
            "batch_seconds": round(batch_seconds, 6),
            "tuple_rows_per_s": round(BENCH_ROWS / tuple_seconds),
            "batch_rows_per_s": round(BENCH_ROWS / batch_seconds),
            "speedup": round(speedup, 2),
        }
        report.add(
            "Microbench — batch pipeline vs tuple-at-a-time (seconds)",
            ("query", "tuple", "batch", "speedup"),
            (name, tuple_seconds, batch_seconds, f"{speedup:.2f}x"))
        if speedup < SPEEDUP_FLOOR:
            failures.append(
                f"{name}: batch engine only {speedup:.2f}x over tuple "
                f"engine (floor {SPEEDUP_FLOOR}x)")
        if committed is not None:
            baseline = committed["queries"][name]["batch_rows_per_s"]
            ratio = measured[name]["batch_rows_per_s"] / baseline
            if ratio < REGRESSION_FLOOR:
                failures.append(
                    f"{name}: throughput fell to {ratio:.0%} of the "
                    f"committed {baseline} rows/s "
                    f"(floor {REGRESSION_FLOOR:.0%})")

    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        _merge_into_bench_file({"schema_version": 1,
                                "rows": BENCH_ROWS,
                                "queries": measured})
    assert not failures, "; ".join(failures)


def _merge_into_bench_file(entries: dict) -> None:
    """Fold new measurements into BENCH_engine.json without dropping
    keys owned by other benchmarks (each test records its own slice)."""
    current = (json.loads(BENCH_FILE.read_text())
               if BENCH_FILE.exists() else {})
    current.update(entries)
    BENCH_FILE.write_text(json.dumps(current, indent=2) + "\n")


# ---------------------------------------------------------------------------
# cost-based optimizer: ANALYZE-informed plans vs the rote planner
# ---------------------------------------------------------------------------

# the informed plan must beat the rote FROM-order plan by at least
# this much in-run (the committed file records the real, larger margin)
OPTIMIZER_SPEEDUP_FLOOR = 2.0
OPTIMIZER_ROWS = 30_000

OPTIMIZER_QUERY = ("SELECT count(*) FROM f, j, s WHERE f.d1 = j.d1 "
                   "AND f.d2 = s.d2 AND s.flag < 10")


@pytest.fixture(scope="module")
def optimizer_db():
    """Skewed star: the fact table's FROM-order join partner (j) fans
    out 5x per key, while the last-listed dimension (s) filters the
    fact down to ~1% — exactly the shape the rote left-to-right
    planner misplans."""
    database = Database()
    database.execute(
        "CREATE TABLE f (k integer, d1 integer, d2 integer)")
    database.execute("CREATE TABLE j (d1 integer, payload integer)")
    database.execute("CREATE TABLE s (d2 integer, flag integer)")
    rng = random.Random(13)
    tick = database.clock.tick()
    fact = database.catalog.get_table("f")
    for k in range(OPTIMIZER_ROWS):
        fact.insert((k, rng.randrange(100), rng.randrange(300)), tick)
    junction = database.catalog.get_table("j")
    for d1 in range(100):
        for payload in range(5):
            junction.insert((d1, payload), tick)
    dimension = database.catalog.get_table("s")
    for d2 in range(300):
        dimension.insert((d2, rng.randrange(1000)), tick)
    return database


def test_analyze_informed_plan_beats_rote_planner(optimizer_db, report):
    """The optimizer claim: ANALYZE statistics reorder the skewed
    3-table join (selective dimension first, fan-out junction last)
    for >= 2x over the rote plan, same answer. Records the trajectory
    in BENCH_engine.json under ``optimizer`` (refresh with
    ``REPRO_BENCH_UPDATE=1``) and gates on a >30% regression."""
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    database = optimizer_db

    def plan():
        return "\n".join(row[0] for row in database.execute(
            "EXPLAIN " + OPTIMIZER_QUERY).rows)

    database.plan_cache.clear()
    rote_plan = plan()
    rote_rows = database.query(OPTIMIZER_QUERY)
    rote_seconds = best_of(
        lambda: database.query(OPTIMIZER_QUERY), repeats=3)

    database.execute("ANALYZE")  # invalidates every cached plan
    informed_plan = plan()
    informed_rows = database.query(OPTIMIZER_QUERY)
    informed_seconds = best_of(
        lambda: database.query(OPTIMIZER_QUERY), repeats=3)

    assert informed_rows == rote_rows
    # deeper operators print later: the selective s-join must now
    # execute before the fan-out j-join
    assert rote_plan.index("f.d1 = j.d1") > rote_plan.index("f.d2 = s.d2")
    assert informed_plan.index("f.d2 = s.d2") > \
        informed_plan.index("f.d1 = j.d1")

    speedup = rote_seconds / max(informed_seconds, 1e-9)
    measured = {
        "rote_seconds": round(rote_seconds, 6),
        "informed_seconds": round(informed_seconds, 6),
        "rote_rows_per_s": round(OPTIMIZER_ROWS / rote_seconds),
        "informed_rows_per_s": round(OPTIMIZER_ROWS / informed_seconds),
        "speedup": round(speedup, 2),
    }
    report.add(
        "Microbench — ANALYZE-informed vs rote join order (seconds)",
        ("query", "rote", "informed", "speedup"),
        ("skewed_star", rote_seconds, informed_seconds,
         f"{speedup:.2f}x"))

    failures = []
    if speedup < OPTIMIZER_SPEEDUP_FLOOR:
        failures.append(
            f"informed plan only {speedup:.2f}x over the rote plan "
            f"(floor {OPTIMIZER_SPEEDUP_FLOOR}x)")
    baseline_entry = (committed or {}).get("optimizer")
    if baseline_entry is not None:
        baseline = baseline_entry["informed_rows_per_s"]
        ratio = measured["informed_rows_per_s"] / baseline
        if ratio < REGRESSION_FLOOR:
            failures.append(
                f"optimizer throughput fell to {ratio:.0%} of the "
                f"committed {baseline} rows/s "
                f"(floor {REGRESSION_FLOOR:.0%})")

    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        _merge_into_bench_file({"optimizer": measured})
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# columnar scan cache: warm segment hits vs rebuilding the batch pipeline
# ---------------------------------------------------------------------------

# a warm cache hit must beat the uncached scan rebuild by at least this
# much in-run (the committed file records the real, larger margin)
SCAN_CACHE_SPEEDUP_FLOOR = 2.0

SCAN_CACHE_QUERY = "SELECT count(*), sum(a) FROM big WHERE a < 500"


def test_scan_cache_warm_hits_beat_rebuilds(pipeline_db, report):
    """The scan cache claim: a repeated aggregate over the 100k-row
    fact table served from a resident column segment beats re-walking
    the heap (version checks + row pivoting) every execution. Records
    the trajectory in BENCH_engine.json under ``scan_cache`` (refresh
    with ``REPRO_BENCH_UPDATE=1``) and gates on a >30% regression."""
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    database = pipeline_db
    database.plan_cache.clear()
    cache = database.scan_cache

    cache.enabled = False
    try:
        cold_rows = database.query(SCAN_CACHE_QUERY)
        cold_seconds = best_of(
            lambda: database.query(SCAN_CACHE_QUERY), repeats=3)
    finally:
        cache.enabled = True

    cache.invalidate_all()
    warm_rows = database.query(SCAN_CACHE_QUERY)  # builds the segment
    hits_before = cache.hits
    warm_seconds = best_of(
        lambda: database.query(SCAN_CACHE_QUERY), repeats=3)
    assert warm_rows == cold_rows
    assert cache.hits > hits_before, "timed runs were not cache hits"

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    measured = {
        "uncached_seconds": round(cold_seconds, 6),
        "warm_hit_seconds": round(warm_seconds, 6),
        "uncached_rows_per_s": round(BENCH_ROWS / cold_seconds),
        "warm_hit_rows_per_s": round(BENCH_ROWS / warm_seconds),
        "speedup": round(speedup, 2),
    }
    report.add(
        "Microbench — scan cache warm hits vs uncached (seconds)",
        ("query", "uncached", "warm hit", "speedup"),
        ("scan_cache", cold_seconds, warm_seconds, f"{speedup:.2f}x"))

    failures = []
    if speedup < SCAN_CACHE_SPEEDUP_FLOOR:
        failures.append(
            f"scan_cache: warm hits only {speedup:.2f}x over uncached "
            f"scans (floor {SCAN_CACHE_SPEEDUP_FLOOR}x)")
    baseline_entry = (committed or {}).get("scan_cache")
    if baseline_entry is not None:
        baseline = baseline_entry["warm_hit_rows_per_s"]
        ratio = measured["warm_hit_rows_per_s"] / baseline
        if ratio < REGRESSION_FLOOR:
            failures.append(
                f"scan_cache: throughput fell to {ratio:.0%} of the "
                f"committed {baseline} rows/s "
                f"(floor {REGRESSION_FLOOR:.0%})")

    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        _merge_into_bench_file({"scan_cache": measured})
    assert not failures, "; ".join(failures)
