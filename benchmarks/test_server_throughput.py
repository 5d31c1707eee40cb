"""Serving-layer benchmarks: the wire fast path.

Quantifies the tentpole claims of the high-throughput serving layer:

* **prepared + pipelined point queries** — 8 simulated clients running
  a point-query workload through prepared statements batched into
  pipeline envelopes, vs the same workload sent one text frame at a
  time (every statement parsed and planned from scratch, one round
  trip each),
* **streamed time-to-first-row** — a large scan's first chunk through
  a server-side cursor vs waiting for the fully materialized result.

Records the measured trajectory in ``BENCH_server.json`` at the repo
root (refresh with ``REPRO_BENCH_UPDATE=1``) and gates on it: the fast
path must beat the baseline by ``SPEEDUP_FLOOR`` in-run, and a >30%
throughput regression against the committed numbers fails CI.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.db import Database, DBClient, DBServer

from benchmarks.conftest import best_of

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_server.json"

N_CLIENTS = 8
QUERIES_PER_CLIENT = 50
PIPELINE_BATCH = 10
POINT_ROWS = 4_000
SCAN_ROWS = 30_000
STREAM_CHUNK = 64

# the committed file records the real, larger margins; in-run the fast
# path must clear these floors on any machine
SPEEDUP_FLOOR = 2.0
TTFR_FLOOR = 2.0
# CI fails when throughput drops below 70% of the committed trajectory
REGRESSION_FLOOR = 0.7


@pytest.fixture(scope="module")
def serving():
    """One server, 8 connected clients, a point-query table with an
    index, and a wide table for the streaming measurement."""
    database = Database()
    database.execute("CREATE TABLE pts (k integer, v text)")
    database.execute("CREATE INDEX pts_k ON pts (k)")
    database.execute("CREATE TABLE wide (a integer, b integer)")
    tick = database.clock.tick()
    pts = database.catalog.get_table("pts")
    for k in range(POINT_ROWS):
        pts.insert((k, f"value-{k:05d}"), tick)
    wide = database.catalog.get_table("wide")
    for a in range(SCAN_ROWS):
        wide.insert((a, a * 7 % 1_000), tick)
    database.execute("SELECT count(*) FROM pts")  # indexes caught up
    server = DBServer(database)
    clients = []
    for i in range(N_CLIENTS):
        client = DBClient(server.transport(), f"bench-{i}", f"pid-{i}")
        client.connect()
        clients.append(client)
    yield server, clients
    for client in clients:
        client.close()


def _client_keys(client_index: int) -> list[int]:
    """Distinct keys per client and per statement, so the text
    baseline's literals vary — every statement is a fresh parse+plan,
    exactly the cost prepared statements amortize."""
    base = client_index * QUERIES_PER_CLIENT
    return [(base + i) % POINT_ROWS for i in range(QUERIES_PER_CLIENT)]


def test_prepared_pipelined_vs_text_baseline(serving, report):
    server, clients = serving
    keys = [_client_keys(i) for i in range(N_CLIENTS)]
    total = N_CLIENTS * QUERIES_PER_CLIENT

    def baseline() -> list:
        # one text frame per statement, clients interleaved round-robin
        server.result_cache.clear()
        rows = []
        for step in range(QUERIES_PER_CLIENT):
            for client, client_keys in zip(clients, keys):
                rows.append(client.query(
                    f"SELECT v FROM pts WHERE k = {client_keys[step]}"))
        return rows

    prepared = [client.prepare("SELECT v FROM pts WHERE k = $1")
                for client in clients]

    def fast() -> list:
        # prepared statements, PIPELINE_BATCH frames per envelope
        server.result_cache.clear()
        handles = []
        for start in range(0, QUERIES_PER_CLIENT, PIPELINE_BATCH):
            for client, statement, client_keys in zip(clients, prepared,
                                                      keys):
                with client.pipeline() as batch:
                    for key in client_keys[start:start + PIPELINE_BATCH]:
                        handles.append(
                            batch.execute_prepared(statement, [key]))
        return [handle.rows() for handle in handles]

    baseline_rows = baseline()
    fast_rows = fast()
    assert sorted(map(tuple, (r[0] for r in baseline_rows))) == \
        sorted(map(tuple, (r[0] for r in fast_rows)))

    baseline_seconds = best_of(baseline, repeats=3)
    fast_seconds = best_of(fast, repeats=3)
    speedup = baseline_seconds / max(fast_seconds, 1e-9)
    measured = {
        "clients": N_CLIENTS,
        "queries": total,
        "text_seconds": round(baseline_seconds, 6),
        "fast_seconds": round(fast_seconds, 6),
        "text_queries_per_s": round(total / baseline_seconds),
        "fast_queries_per_s": round(total / fast_seconds),
        "speedup": round(speedup, 2),
    }
    report.add(
        "Serving — prepared+pipelined vs per-frame text (seconds)",
        ("workload", "text", "prepared+pipelined", "speedup"),
        (f"{N_CLIENTS}x{QUERIES_PER_CLIENT} point queries",
         baseline_seconds, fast_seconds, f"{speedup:.2f}x"))

    failures = []
    if speedup < SPEEDUP_FLOOR:
        failures.append(
            f"fast path only {speedup:.2f}x over the text baseline "
            f"(floor {SPEEDUP_FLOOR}x)")
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    if committed is not None:
        baseline_qps = committed["point_queries"]["fast_queries_per_s"]
        ratio = measured["fast_queries_per_s"] / baseline_qps
        if ratio < REGRESSION_FLOOR:
            failures.append(
                f"fast-path throughput fell to {ratio:.0%} of the "
                f"committed {baseline_qps} queries/s "
                f"(floor {REGRESSION_FLOOR:.0%})")

    _update_bench_file("point_queries", measured)
    assert not failures, "; ".join(failures)


def test_streamed_time_to_first_row(serving, report):
    server, clients = serving
    client = clients[0]
    sql = "SELECT a, b FROM wide WHERE b < 900"

    def full() -> int:
        server.result_cache.clear()
        return len(client.execute(sql).rows)

    def first_chunk() -> int:
        cursor = client.execute_stream(sql, fetch_size=STREAM_CHUNK)
        count = len(cursor.fetch())
        cursor.close()
        return count

    total_rows = full()
    assert first_chunk() == STREAM_CHUNK

    full_seconds = best_of(full, repeats=3)
    ttfr_seconds = best_of(first_chunk, repeats=3)
    speedup = full_seconds / max(ttfr_seconds, 1e-9)
    measured = {
        "scan_rows": SCAN_ROWS,
        "result_rows": total_rows,
        "chunk": STREAM_CHUNK,
        "full_seconds": round(full_seconds, 6),
        "first_chunk_seconds": round(ttfr_seconds, 6),
        "ttfr_speedup": round(speedup, 2),
    }
    report.add(
        "Serving — streamed time-to-first-row vs full result (seconds)",
        ("scan", "full result", "first chunk", "speedup"),
        (f"{total_rows} of {SCAN_ROWS} rows", full_seconds,
         ttfr_seconds, f"{speedup:.2f}x"))

    failures = []
    if speedup < TTFR_FLOOR:
        failures.append(
            f"first chunk only {speedup:.2f}x ahead of the full "
            f"result (floor {TTFR_FLOOR}x)")
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    if committed is not None and "streaming" in committed:
        baseline_speedup = committed["streaming"]["ttfr_speedup"]
        ratio = speedup / baseline_speedup
        if ratio < REGRESSION_FLOOR:
            failures.append(
                f"time-to-first-row advantage fell to {ratio:.0%} of "
                f"the committed {baseline_speedup}x "
                f"(floor {REGRESSION_FLOOR:.0%})")

    _update_bench_file("streaming", measured)
    assert not failures, "; ".join(failures)


def _update_bench_file(section: str, measured: dict) -> None:
    if os.environ.get("REPRO_BENCH_UPDATE") != "1":
        return
    data = (json.loads(BENCH_FILE.read_text())
            if BENCH_FILE.exists() else {"schema_version": 1})
    data[section] = measured
    BENCH_FILE.write_text(json.dumps(data, indent=2) + "\n")
