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
from repro.db.planner import plan_select
from repro.db.sql.parser import parse_one

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
WIDE = "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 25"


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
    """Provenance-tracked execution vs plain execution, both warm (an
    untimed run first), best of 5 each."""
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
    of 5 each. The server's result cache is cleared inside each timed
    call, so every wired query executes, as every direct one does.
    A second table times a PROVENANCE query through the wire in each
    result form, with its response size."""
    database = world.database
    server = DBServer(database)
    client = DBClient(server.transport())
    client.connect()

    def wired_query():
        server.result_cache.clear()
        return client.query(FILTER)

    direct_rows = database.query(FILTER)
    direct = best_of(lambda: database.query(FILTER), repeats=5)
    wired_rows = wired_query()
    wired = best_of(wired_query, repeats=5)
    client.close()
    assert wired_rows == direct_rows
    report.add(
        "Microbench — wire protocol tax (seconds per query)",
        ("path", "direct", "through_wire", "tax"),
        ("filter", direct, wired, f"{wired / max(direct, 1e-9):.2f}x"))

    # a PROVENANCE query through the wire per result form: version 2's
    # ref triples, version 3's ref dictionary, and version 3's
    # lineage-only answer (what the audit's Perm rerun asks for)
    forms = (("v2", 2, True), ("v3", 3, True), ("v3 lineage-only", 3, False))
    lineages = []
    for label, version, rows in forms:
        client = DBClient(_connecting_as(server.transport(), version))
        client.connect()
        assert client.protocol_version == version

        def provenance_query():
            server.result_cache.clear()
            return client.execute(WIDE, provenance=True, rows=rows)

        sent = server.bytes_out
        lineages.append(provenance_query().lineages)
        size = server.bytes_out - sent
        seconds = best_of(provenance_query, repeats=5)
        client.close()
        report.add(
            "Microbench — provenance result through the wire "
            "(best of 5, result cache cleared per query)",
            ("form", "seconds", "response_bytes"),
            (label, seconds, size))
    assert lineages[0] == lineages[1] == lineages[2]


def _connecting_as(transport, version):
    """``transport`` with the connect frame's protocol version set to
    ``version``, as an older client sends it."""
    def send(request_text):
        if request_text.startswith('{"frame":"connect"'):
            frame = json.loads(request_text)
            request_text = json.dumps({**frame, "version": version},
                                      separators=(",", ":"))
        return transport(request_text)
    return send


# ---------------------------------------------------------------------------
# fast path: compiled expressions
# ---------------------------------------------------------------------------

JOIN_AGG = ("SELECT l_returnflag, count(*), sum(l_extendedprice), "
            "avg(l_quantity) FROM lineitem l, orders o "
            "WHERE l.l_orderkey = o.o_orderkey AND l_quantity > 10 "
            "GROUP BY l_returnflag ORDER BY l_returnflag")


def test_compiled_vs_interpreted(world, report):
    """The tentpole claim: closure-compiled expressions beat the seed
    AST interpreter on a TPC-H-style join+aggregate. Both evaluate the
    query's expressions — the whole WHERE, the group key and the
    aggregate arguments — over the identical joined rows that feed the
    aggregate: :class:`Evaluator` re-walks each AST per row, the
    compiled closures do not, so the measured gap is pure
    expression-evaluation cost."""
    from repro.db import expressions as exprs
    from repro.db.sql import ast
    from tests.db.evaluator import Evaluator

    database = world.database
    select = parse_one(JOIN_AGG)
    expressions = [select.where, *select.group_by]
    for item in select.items:
        for call in exprs.find_aggregates(item.expression):
            expressions.extend(call.args)
    expressions = [expression for expression in expressions
                   if not isinstance(expression, ast.Star)]
    catalog = database.catalog
    schema = catalog.get_table("lineitem").schema.qualified("l").concat(
        catalog.get_table("orders").schema.qualified("o"))
    rows = database.query("SELECT l.*, o.* FROM lineitem l, orders o "
                          "WHERE l.l_orderkey = o.o_orderkey")
    evaluator = Evaluator(schema)
    compiled_fns = [exprs.compile_expression(expression, schema)
                    for expression in expressions]

    def interpret():
        return [[evaluator.evaluate(expression, row)
                 for expression in expressions] for row in rows]

    def run_compiled():
        return [[fn(row) for fn in compiled_fns] for row in rows]

    assert rows
    assert run_compiled() == interpret()
    compiled = best_of(run_compiled, repeats=5)
    interpreted = best_of(interpret, repeats=5)

    speedup = interpreted / max(compiled, 1e-9)
    report.add(
        "Microbench — compiled expressions vs interpreter (seconds)",
        ("query", "interpreted", "compiled", "speedup"),
        ("join+aggregate", interpreted, compiled, f"{speedup:.2f}x"))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "microbench_engine.json").write_text(json.dumps({
        "query": JOIN_AGG,
        "scale_factor": BENCH_CONFIG.scale_factor,
        "rows": len(rows),
        "expressions": len(expressions),
        "interpreted_seconds": interpreted,
        "compiled_seconds": compiled,
        "speedup": speedup,
    }, indent=2) + "\n")
    assert compiled < interpreted, (
        f"compiled path ({compiled:.6f}s) is not faster than the "
        f"interpreter ({interpreted:.6f}s)")


# ---------------------------------------------------------------------------
# batch pipeline throughput, with a regression gate
# ---------------------------------------------------------------------------

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
BENCH_ROWS = 100_000
# CI fails when throughput drops below 70% of the committed trajectory
REGRESSION_FLOOR = 0.7

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


def test_batch_pipeline_throughput(pipeline_db, report):
    """Batch execution (row closures mapped over each batch's rows,
    plus the selector-sweep and column⊕column vector forms) on
    scan-heavy pipelines, best of 3 over one plan (built once, outside
    the timed runs, and drained the way the engine drains a SELECT's
    plan). Records the per-query throughput trajectory in BENCH_engine.json (refresh with
    ``REPRO_BENCH_UPDATE=1``) and gates on it: a >30% throughput
    regression against the committed numbers fails CI."""
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    measured: dict[str, dict] = {}
    failures = []
    for name, sql in PIPELINE_QUERIES.items():
        planned = plan_select(parse_one(sql), pipeline_db.catalog, False)
        assert pipeline_db._run_planned_select(planned).rows
        batch_seconds = best_of(
            lambda: pipeline_db._run_planned_select(planned), repeats=3)
        measured[name] = {
            "batch_seconds": round(batch_seconds, 6),
            "batch_rows_per_s": round(BENCH_ROWS / batch_seconds),
        }
        report.add(
            "Microbench — batch pipeline throughput",
            ("query", "seconds", "rows_per_s"),
            (name, batch_seconds, measured[name]["batch_rows_per_s"]))
        if committed is not None:
            baseline = committed["queries"][name]["batch_rows_per_s"]
            ratio = measured[name]["batch_rows_per_s"] / baseline
            if ratio < REGRESSION_FLOOR:
                failures.append(
                    f"{name}: throughput fell to {ratio:.0%} of the "
                    f"committed {baseline} rows/s "
                    f"(floor {REGRESSION_FLOOR:.0%})")

    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        BENCH_FILE.write_text(json.dumps(
            {"schema_version": 1, "rows": BENCH_ROWS, "queries": measured},
            indent=2) + "\n")
    assert not failures, "; ".join(failures)
