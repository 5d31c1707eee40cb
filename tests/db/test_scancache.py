"""Differential coverage for the columnar scan cache.

The cache is only allowed to be a *performance* artifact: every answer
it serves must be byte-identical to the uncached walk — rows, lineage,
wire frames, packaged directory bytes — across cold, warm, and
mid-invalidation states, and across every MVCC situation (open-txn
overlay reads via the delta pass, stale snapshots via fallback,
concurrent commits via watermark keying). On top of the parity
referees this file pins the bounded-memory/LRU behavior, the
observability surface (counters, EXPLAIN ANALYZE notes, the planner's
cached-scan cost flip), and the two satellite micro-fixes (the
candidate-rowid list reuse and the lineage-vector allocation
discipline).
"""

from __future__ import annotations

import pytest

from repro.db import Database, DBServer
from repro.db import vector
from repro.db.chaos import tree_bytes
from repro.db.protocol import encode_frame, result_to_wire
from repro.db.scancache import ScanCache

from tests.db.test_vectorized import PARITY_QUERIES


def frame_bytes(result) -> bytes:
    return encode_frame(result_to_wire(result))


def run_modes(database, sql, provenance):
    """(uncached baseline frame, cold frame, warm frame) plus results."""
    cache = database.scan_cache
    cache.enabled = False
    try:
        baseline = database.execute(sql, provenance)
    finally:
        cache.enabled = True
    cold = database.execute(sql, provenance)
    warm = database.execute(sql, provenance)
    return baseline, cold, warm


# -- the 23 parity shapes, cache on vs off ------------------------------------

def build_parity_db():
    database = Database()
    database.execute(
        "CREATE TABLE t (k integer, grp integer, a integer, b float, "
        "name text)")
    database.execute("CREATE TABLE small (k integer, label text)")
    rows = []
    for k in range(700):
        b_text = "NULL" if k % 7 == 0 else str(k * 0.5)
        name = "NULL" if k % 11 == 0 else f"'name{k % 13}'"
        rows.append(f"({k}, {k % 5}, {(k * 37) % 100}, {b_text}, {name})")
    database.execute("INSERT INTO t VALUES " + ", ".join(rows))
    database.execute(
        "INSERT INTO small VALUES " + ", ".join(
            f"({k}, 'L{k}')" for k in range(0, 40)))
    return database


@pytest.fixture(scope="module")
def parity_db():
    return build_parity_db()


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_parity_shapes_cache_on_off(parity_db, sql):
    for provenance in (False, True):
        baseline, cold, warm = run_modes(parity_db, sql, provenance)
        reference = frame_bytes(baseline)
        for result in (cold, warm):
            assert result.rows == baseline.rows
            assert result.lineages == baseline.lineages
            assert frame_bytes(result) == reference


@pytest.mark.parametrize(
    "sql", [PARITY_QUERIES[0], PARITY_QUERIES[11], PARITY_QUERIES[15]])
def test_parity_under_mid_invalidation(sql):
    """Warm the cache, mutate the table (stranding the segments), and
    re-verify against a cache-disabled twin of the new state."""
    database = build_parity_db()
    for provenance in (False, True):
        database.execute(sql, provenance)  # warm
        database.execute("UPDATE t SET a = a + 1 WHERE k % 13 = 0")
        baseline, cold, warm = run_modes(database, sql, provenance)
        reference = frame_bytes(baseline)
        assert frame_bytes(cold) == reference
        assert frame_bytes(warm) == reference


def test_packaged_bytes_identical_cache_on_off(tmp_path):
    """A workload served warm from the cache packages byte-identically
    to a cache-disabled twin — reads never touch durable state."""

    def run(directory, enabled):
        database = Database(data_directory=directory)
        database.scan_cache.enabled = enabled
        database.execute("CREATE TABLE t (k integer, grp integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k}, {k % 5})" for k in range(300)))
        answers = []
        for _ in range(3):
            answers.append(database.query(
                "SELECT grp, count(*) FROM t GROUP BY grp ORDER BY grp"))
        database.execute("UPDATE t SET grp = grp + 1 WHERE k % 11 = 0")
        answers.append(database.query(
            "SELECT grp, count(*) FROM t GROUP BY grp ORDER BY grp"))
        database.checkpoint()
        database.close()
        return answers

    on_dir = tmp_path / "cache_on"
    off_dir = tmp_path / "cache_off"
    assert run(on_dir, True) == run(off_dir, False)
    assert tree_bytes(on_dir) == tree_bytes(off_dir)


# -- MVCC: overlay delta pass, stale snapshots, concurrent commits ------------

class TestMVCC:
    def make_db(self):
        database = Database()
        database.execute("CREATE TABLE t (k integer, v integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k}, {k * 10})" for k in range(50)))
        return database

    def uncached(self, database, sql, provenance=False, session=None):
        cache = database.scan_cache
        cache.enabled = False
        try:
            return database.execute(sql, provenance, session=session)
        finally:
            cache.enabled = True

    def test_open_txn_overlay_reads_use_delta_pass(self):
        database = self.make_db()
        database.query("SELECT * FROM t")  # warm the full segment
        session = database.create_session("writer")
        database.execute("BEGIN", session=session)
        database.execute("INSERT INTO t VALUES (100, 1000)",
                         session=session)
        database.execute("UPDATE t SET v = -1 WHERE k = 3",
                         session=session)
        database.execute("DELETE FROM t WHERE k = 7", session=session)
        before = database.scan_cache.delta_merges
        for provenance in (False, True):
            sql = "SELECT k, v FROM t"
            expected = self.uncached(database, sql, provenance,
                                     session=session)
            result = database.execute(sql, provenance, session=session)
            assert result.rows == expected.rows
            assert result.lineages == expected.lineages
            assert frame_bytes(result) == frame_bytes(expected)
        assert database.scan_cache.delta_merges > before
        database.execute("COMMIT", session=session)
        # after commit the watermark moved: committed state, cold+warm
        assert (100, 1000) in database.query("SELECT k, v FROM t")
        assert (7, 70) not in database.query("SELECT k, v FROM t")

    def test_stale_snapshot_falls_back_to_uncached_walk(self):
        database = self.make_db()
        reader = database.create_session("reader")
        database.execute("BEGIN", session=reader)
        old_rows = database.execute("SELECT k, v FROM t",
                                    session=reader).rows
        # an autocommit write from another session commits under the
        # open snapshot: the snapshot now predates the watermark
        database.execute("UPDATE t SET v = 0 WHERE k < 10")
        before = database.scan_cache.fallbacks
        stale = database.execute("SELECT k, v FROM t", session=reader)
        assert stale.rows == old_rows  # snapshot semantics, exact
        assert database.scan_cache.fallbacks > before
        expected = self.uncached(database, "SELECT k, v FROM t",
                                 session=reader)
        assert stale.rows == expected.rows
        database.execute("COMMIT", session=reader)

    def test_cache_hit_then_concurrent_commit_rebuilds(self):
        database = self.make_db()
        database.query("SELECT * FROM t")
        hits_before = database.scan_cache.hits
        database.query("SELECT * FROM t")
        assert database.scan_cache.hits == hits_before + 1
        database.execute("INSERT INTO t VALUES (500, 5000)")
        result = database.query("SELECT k, v FROM t WHERE k = 500")
        assert result == [(500, 5000)]
        expected = self.uncached(database, "SELECT k, v FROM t")
        assert (database.execute("SELECT k, v FROM t").rows
                == expected.rows)

    def test_snapshot_at_watermark_serves_segment_directly(self):
        """A transaction with no private writes and no concurrent
        commits reads the committed-latest segment as-is (no delta, no
        fallback)."""
        database = self.make_db()
        database.query("SELECT * FROM t")
        session = database.create_session("reader")
        database.execute("BEGIN", session=session)
        before = (database.scan_cache.delta_merges,
                  database.scan_cache.fallbacks)
        result = database.execute("SELECT k, v FROM t", session=session)
        expected = self.uncached(database, "SELECT k, v FROM t",
                                 session=session)
        assert result.rows == expected.rows
        assert (database.scan_cache.delta_merges,
                database.scan_cache.fallbacks) == before
        database.execute("COMMIT", session=session)


# -- bounded memory / LRU -----------------------------------------------------

class TestEviction:
    def test_resident_cells_never_exceed_budget(self):
        database = Database()
        for number in range(4):
            database.execute(
                f"CREATE TABLE t{number} (k integer, v integer)")
            database.execute(
                f"INSERT INTO t{number} VALUES " + ", ".join(
                    f"({k}, {k})" for k in range(100)))
        cache = database.scan_cache
        # each full segment costs 100 * (2 + 2) = 400 cells; allow two
        cache.max_cells = 800
        for number in range(4):
            database.query(f"SELECT * FROM t{number}")
        assert cache.resident_cells <= cache.max_cells
        assert cache.evictions >= 2
        counters = cache.counters()
        assert counters["segments"] == 2
        assert counters["resident_bytes"] > 0
        # evicted tables still answer correctly (rebuild on demand)
        assert database.query("SELECT count(*) FROM t0") == [(100,)]

    def test_lru_keeps_the_recently_scanned_segment(self):
        database = Database()
        for name in ("a", "b"):
            database.execute(f"CREATE TABLE {name} (k integer)")
            database.execute(f"INSERT INTO {name} VALUES " + ", ".join(
                f"({k})" for k in range(100)))
        cache = database.scan_cache
        cache.max_cells = 400  # one 100 * 3 segment plus slack
        database.query("SELECT * FROM a")
        database.query("SELECT * FROM b")  # evicts a
        hits = cache.hits
        database.query("SELECT * FROM b")
        assert cache.hits == hits + 1

    def test_oversized_segment_does_not_stick(self):
        table_like = Database()
        table_like.execute("CREATE TABLE big (k integer, v integer)")
        table_like.execute("INSERT INTO big VALUES " + ", ".join(
            f"({k}, {k})" for k in range(200)))
        cache = table_like.scan_cache
        cache.max_cells = 100  # smaller than any big segment
        expected = table_like.query("SELECT count(*) FROM big")
        assert expected == [(200,)]
        assert cache.resident_cells <= cache.max_cells
        assert cache.counters()["segments"] == 0

    def test_unit_lru_order(self):
        """Direct ScanCache exercise against catalog tables."""
        database = Database()
        database.execute("CREATE TABLE t (k integer)")
        database.execute("INSERT INTO t VALUES (1), (2), (3)")
        cache = ScanCache(max_cells=50)
        table = database.catalog.get_table("t")
        segment, hit = cache._segment(table, None)
        assert not hit and segment.count == 3
        again, hit = cache._segment(table, None)
        assert hit and again is segment
        assert cache.counters()["hits"] == 1


# -- invalidation paths -------------------------------------------------------

class TestInvalidation:
    def test_every_ddl_path_strands_segments(self):
        database = Database()
        database.execute("CREATE TABLE t (k integer, grp integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k}, {k % 4})" for k in range(40)))
        cache = database.scan_cache

        def warm():
            database.query("SELECT * FROM t")
            assert cache.counters()["segments"] > 0

        warm()
        database.execute("CREATE INDEX idx_k ON t (k)")
        assert cache.counters()["segments"] == 0
        warm()
        database.execute("DROP INDEX idx_k")
        assert cache.counters()["segments"] == 0
        warm()
        database.execute("ANALYZE t")
        assert cache.counters()["segments"] == 0
        warm()
        database.execute("DROP TABLE t")
        assert cache.counters()["segments"] == 0

    def test_recovery_starts_cold_and_exact(self, tmp_path):
        database = Database(data_directory=tmp_path)
        database.execute("CREATE TABLE t (k integer)")
        database.execute("INSERT INTO t VALUES (1), (2), (3)")
        database.query("SELECT * FROM t")
        database.close()
        recovered = Database(data_directory=tmp_path)
        assert recovered.scan_cache.counters()["segments"] == 0
        assert recovered.query("SELECT k FROM t") == [(1,), (2,), (3,)]
        recovered.close()

    def test_direct_heap_writes_invalidate_without_watermark(self):
        """Bulk loads via HeapTable.insert never call note_write; the
        mutator hook must strand segments anyway."""
        database = Database()
        database.execute("CREATE TABLE t (k integer)")
        table = database.catalog.get_table("t")
        table.insert((1,), tick=1)
        assert database.query("SELECT k FROM t") == [(1,)]
        table.insert((2,), tick=1)  # same watermark, heap changed
        assert database.query("SELECT k FROM t") == [(1,), (2,)]


# -- observability ------------------------------------------------------------

def test_explain_analyze_notes_hit_and_miss():
    database = Database()
    database.execute("CREATE TABLE t (k integer)")
    database.execute("INSERT INTO t VALUES (1), (2)")

    def plan_text():
        result = database.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM t")
        return "\n".join(row[0] for row in result.rows), result

    database.scan_cache.invalidate_all()
    text, result = plan_text()
    assert "[scan cache: miss]" in text
    text, result = plan_text()
    assert "[scan cache: hit]" in text
    assert result.stats["analyze"]["scan_cache"]["hits"] > 0
    # plain EXPLAIN never executes, so it carries no note
    plain = "\n".join(
        row[0] for row in
        database.execute("EXPLAIN SELECT count(*) FROM t").rows)
    assert "scan cache" not in plain


def test_server_stats_expose_scan_cache_counters():
    database = Database()
    database.execute("CREATE TABLE t (k integer)")
    database.execute("INSERT INTO t VALUES (1), (2)")
    server = DBServer(database)
    counters = server.server_counters()["scan_cache"]
    for key in ("hits", "misses", "evictions", "invalidations",
                "resident_cells", "resident_bytes"):
        assert key in counters


def test_planner_cost_flip_prefers_warm_cached_scan():
    """With ~25% selectivity on 100 rows an index probe costs 54 and
    the scan 100 — the index wins cold. A warm segment re-costs the
    scan at 25, flipping the choice, and ANALYZE (which strands the
    cache) flips it back."""
    database = Database()
    database.execute("CREATE TABLE t (k integer, grp integer)")
    database.execute("INSERT INTO t VALUES " + ", ".join(
        f"({k}, {k % 4})" for k in range(100)))
    database.execute("CREATE INDEX idx_grp ON t (grp)")
    database.execute("ANALYZE t")

    def plan():
        return "\n".join(
            row[0] for row in database.execute(
                "EXPLAIN SELECT k FROM t WHERE grp = 2").rows)

    cold = plan()
    assert "IndexScan" in cold and "cost 54 < scan 100" in cold
    database.query("SELECT * FROM t")  # warm the full segment
    warm = plan()
    assert "IndexScan" not in warm
    assert "idx_grp skipped" in warm and "cached scan is cheaper" in warm
    database.execute("ANALYZE t")  # strands segments: cold costs again
    assert "IndexScan" in plan()


# -- satellite: candidate_rowids reuse ----------------------------------------

class TestRowidCacheReuse:
    def test_rebuilds_only_after_rowid_mutation(self):
        database = Database()
        database.execute("CREATE TABLE t (k integer)")
        database.execute("INSERT INTO t VALUES (1), (2), (3)")
        table = database.catalog.get_table("t")
        builds = table.rowid_cache_builds
        first = table.candidate_rowids()
        assert table.rowid_cache_builds == builds + 1
        second = table.candidate_rowids()
        assert second is first  # reused, not rebuilt
        assert table.rowid_cache_builds == builds + 1
        database.execute("INSERT INTO t VALUES (4)")
        third = table.candidate_rowids()
        assert third is not first
        assert table.rowid_cache_builds == builds + 2
        assert third == sorted(table.rows)

    def test_update_keeps_the_rowid_list(self):
        database = Database()
        database.execute("CREATE TABLE t (k integer)")
        database.execute("INSERT INTO t VALUES (1), (2)")
        table = database.catalog.get_table("t")
        first = table.candidate_rowids()
        database.execute("UPDATE t SET k = k + 10")
        assert table.candidate_rowids() is first

    def test_view_path_is_uncached_and_exact(self):
        database = Database()
        database.execute("CREATE TABLE t (k integer)")
        database.execute("INSERT INTO t VALUES (1), (2)")
        session = database.create_session("writer")
        database.execute("BEGIN", session=session)
        database.execute("INSERT INTO t VALUES (3)", session=session)
        result = database.execute("SELECT k FROM t", session=session)
        assert result.rows == [(1,), (2,), (3,)]
        database.execute("ROLLBACK", session=session)


# -- satellite: lineage vectors only when provenance is requested -------------

class TestLineageAllocation:
    def test_no_provenance_scans_allocate_zero_lineage_vectors(self):
        database = Database()
        database.execute("CREATE TABLE t (k integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k})" for k in range(3000)))
        before = vector.LINEAGE_VECTOR_BUILDS
        for _ in range(3):
            database.query("SELECT k FROM t WHERE k % 2 = 0")
        assert vector.LINEAGE_VECTOR_BUILDS == before

    def test_cached_segments_allocate_once_not_per_scan(self):
        database = Database()
        database.execute("CREATE TABLE t (k integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k})" for k in range(3000)))  # 3 chunks per scan
        sql = "SELECT k FROM t"
        # uncached: every provenance scan rebuilds its lineage vectors
        database.scan_cache.enabled = False
        try:
            start = vector.LINEAGE_VECTOR_BUILDS
            uncached_results = [database.execute(sql, True) for _ in range(2)]
            per_scan = (vector.LINEAGE_VECTOR_BUILDS - start) // 2
            assert per_scan == 3
        finally:
            database.scan_cache.enabled = True
        # cached: the segment's lineage variant is built exactly once
        start = vector.LINEAGE_VECTOR_BUILDS
        cached_results = [database.execute(sql, True) for _ in range(3)]
        assert vector.LINEAGE_VECTOR_BUILDS - start == per_scan
        for result in cached_results:
            assert result.rows == uncached_results[0].rows
            assert result.lineages == uncached_results[0].lineages
