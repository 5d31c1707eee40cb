"""ANALYZE statistics and the cost-based planner.

Covers the statement end to end (parse → stats → persistence), the
cost model's observable plan choices (join order, build side,
index-vs-scan, IN-list cutoffs), the plans prepared statements keep
(stats-version keying, re-ANALYZE invalidation), and the EXPLAIN
surfacing of estimated vs actual rows. Every stats-driven choice is
also checked to preserve query results exactly — statistics are
advisory, never semantic.
"""

from __future__ import annotations

import random

import pytest

from repro.db import Database
from repro.db.planner import explain_plan
from repro.db.sql.parser import parse_sql
from repro.db.sql.render import render_statement
from repro.db.sql import ast
from repro.db.stats import ColumnStats, TableStats, compute_table_stats
from repro.errors import CatalogError, TransactionError


def explain(db, sql, session=None):
    result = db.execute("EXPLAIN " + sql, session=session)
    return "\n".join(row[0] for row in result.rows)


def bulk_insert(db, name, rows):
    table = db.catalog.get_table(name)
    tick = db.clock.tick()
    for row in rows:
        table.insert(tuple(row), tick)


# -- statement front end ------------------------------------------------------


class TestAnalyzeStatement:
    def test_parse_and_render_round_trip(self):
        for sql, table in [("ANALYZE", None), ("ANALYZE t", "t")]:
            statement = parse_sql(sql)[0]
            assert statement == ast.Analyze(table=table)
            assert render_statement(statement) == sql
            assert parse_sql(render_statement(statement))[0] == statement

    def test_explain_analyze_still_parses_as_explain(self):
        statement = parse_sql("EXPLAIN ANALYZE SELECT 1")[0]
        assert isinstance(statement, ast.Explain)
        assert statement.analyze

    def test_analyze_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            Database().execute("ANALYZE nope")

    def test_analyze_is_barred_inside_a_transaction(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        session = db.create_session()
        db.execute("BEGIN", session=session)
        with pytest.raises(TransactionError):
            db.execute("ANALYZE t", session=session)

    def test_analyze_reports_per_table_summary(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer, b text)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
        db.execute("CREATE TABLE u (k integer)")
        result = db.execute("ANALYZE")
        assert result.kind == "analyze"
        assert result.stats["analyzed"] == {
            "t": {"row_count": 2, "columns": 2},
            "u": {"row_count": 0, "columns": 1},
        }


# -- collected statistics -----------------------------------------------------


class TestStatisticsContent:
    def test_ndv_nulls_min_max_histogram(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer, b text)")
        rows = [(value % 10, None if value % 4 == 0 else "v")
                for value in range(100)]
        bulk_insert(db, "t", rows)
        db.execute("ANALYZE t")
        stats = db.catalog.stats_for("t")
        assert stats.row_count == 100
        a = stats.column("a")
        assert a.ndv == 10
        assert a.null_fraction == 0.0
        assert (a.min_value, a.max_value) == (0, 9)
        assert a.histogram[0] == 0 and a.histogram[-1] == 9
        assert a.histogram == sorted(a.histogram)
        b = stats.column("b")
        assert b.ndv == 1
        assert b.null_fraction == 0.25

    def test_histogram_drives_range_selectivity(self):
        # 90% of the mass at one low value: col < 10 must estimate far
        # above the uniform guess
        values = [1] * 900 + list(range(10, 110))
        column = compute_table_stats_for_values(values)
        high = column.range_selectivity("<", 10)
        assert high > 0.8
        low = column.range_selectivity(">", 50)
        assert low < 0.1

    def test_eq_selectivity_out_of_range_is_zero(self):
        column = compute_table_stats_for_values(list(range(100)))
        assert column.eq_selectivity(1000) == 0.0
        assert 0.009 < column.eq_selectivity(50) < 0.011

    def test_round_trips_through_dict(self):
        stats = TableStats(row_count=7, columns={
            "a": ColumnStats(ndv=3, null_fraction=0.5, min_value=1,
                             max_value=9, histogram=[1, 4, 9])})
        assert TableStats.from_dict(stats.to_dict()) == stats


def compute_table_stats_for_values(values):
    db = Database()
    db.execute("CREATE TABLE v (x integer)")
    bulk_insert(db, "v", [(value,) for value in values])
    return compute_table_stats(db.catalog.get_table("v")).column("x")


# -- durability ---------------------------------------------------------------


class TestStatsPersistence:
    def test_stats_survive_wal_recovery_without_checkpoint(self, tmp_path):
        db = Database(data_directory=tmp_path)
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("ANALYZE t")
        # no checkpoint/close: reopen replays the WAL's analyze record
        recovered = Database(data_directory=tmp_path)
        stats = recovered.catalog.stats_for("t")
        assert stats is not None and stats.row_count == 3
        assert stats.column("a").ndv == 3

    def test_stats_survive_checkpoint_and_reopen(self, tmp_path):
        db = Database(data_directory=tmp_path)
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1), (1), (2)")
        db.execute("ANALYZE t")
        db.close()  # checkpoint: WAL reset, stats move to the meta file
        recovered = Database(data_directory=tmp_path)
        stats = recovered.catalog.stats_for("t")
        assert stats is not None and stats.row_count == 3
        assert stats.column("a").ndv == 2

    def test_drop_table_drops_its_stats(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("ANALYZE t")
        assert db.catalog.stats_for("t") is not None
        db.execute("DROP TABLE t")
        assert db.catalog.stats_for("t") is None


# -- plan choices -------------------------------------------------------------


def skewed_three_table_db(flag_cutoff=10):
    """Fact × fan-out junction × selective dimension."""
    db = Database()
    db.execute("CREATE TABLE f (k integer, d1 integer, d2 integer)")
    db.execute("CREATE TABLE j (d1 integer, payload integer)")
    db.execute("CREATE TABLE s (d2 integer, flag integer)")
    rng = random.Random(11)
    bulk_insert(db, "f", [(k, rng.randrange(100), rng.randrange(300))
                          for k in range(3000)])
    bulk_insert(db, "j", [(d1, p) for d1 in range(100)
                          for p in range(5)])
    bulk_insert(db, "s", [(d2, rng.randrange(1000))
                          for d2 in range(300)])
    sql = ("SELECT count(*) FROM f, j, s WHERE f.d1 = j.d1 "
           f"AND f.d2 = s.d2 AND s.flag < {flag_cutoff}")
    return db, sql


class TestJoinOrdering:
    def test_rote_planner_joins_in_from_order(self):
        db, sql = skewed_three_table_db()
        plan = explain(db, sql)
        # deeper operators print later: the f⋈j join executes first
        assert plan.index("f.d1 = j.d1") > plan.index("f.d2 = s.d2")

    def test_analyze_moves_the_selective_dimension_first(self):
        db, sql = skewed_three_table_db()
        expected = db.query(sql)
        db.execute("ANALYZE")
        plan = explain(db, sql)
        # the 1%-selective s-join now executes before the fan-out
        # j-join (deeper in the tree, later in the rendering)
        assert plan.index("f.d2 = s.d2") > plan.index("f.d1 = j.d1")
        assert db.query(sql) == expected

    def test_estimates_appear_in_plain_explain_only_after_analyze(self):
        db, sql = skewed_three_table_db()
        assert "est=" not in explain(db, sql)
        db.execute("ANALYZE")
        assert "est=" in explain(db, sql)


class TestBuildSide:
    def test_overlay_insert_flips_the_build_side(self):
        """Satellite regression: `_estimate_rows` must see the
        session's MVCC overlay, not just the shared heap — a
        transaction that bulk-inserts into the small join side must
        get the flipped build side for its own plans."""
        db = Database()
        db.execute("CREATE TABLE small (k integer)")
        db.execute("CREATE TABLE big (k integer, v integer)")
        bulk_insert(db, "small", [(k,) for k in range(5)])
        bulk_insert(db, "big", [(k % 5, k) for k in range(100)])
        sql = "SELECT count(*) FROM small, big WHERE small.k = big.k"
        assert "build=left" in explain(db, sql)

        session = db.create_session()
        db.execute("BEGIN", session=session)
        values = ", ".join(f"({k})" for k in range(500))
        db.execute(f"INSERT INTO small VALUES {values}", session=session)
        # inside the transaction `small` is now the big side
        assert "build=right" in explain(db, sql, session=session)
        # …while other sessions still see five rows and build left
        assert "build=left" in explain(db, sql)
        db.execute("ROLLBACK", session=session)
        assert "build=left" in explain(db, sql)

    def test_stats_scaled_build_side_beats_raw_counts(self):
        """A filtered big side can hash fewer rows than the raw-count
        choice would: with stats the build side follows the estimate."""
        db = Database()
        db.execute("CREATE TABLE a (k integer, flag integer)")
        db.execute("CREATE TABLE b (k integer)")
        bulk_insert(db, "a", [(k, k % 100) for k in range(1000)])
        bulk_insert(db, "b", [(k,) for k in range(200)])
        sql = ("SELECT count(*) FROM a, b "
               "WHERE a.k = b.k AND a.flag = 0")
        # raw counts: a(1000) > b(200) → build right
        assert "build=right" in explain(db, sql)
        expected = db.query(sql)
        db.execute("ANALYZE")
        # est(a, flag=0) = 10 < 200 → build left
        assert "build=left" in explain(db, sql)
        assert db.query(sql) == expected


class TestIndexVersusScan:
    def make_db(self):
        db = Database()
        db.execute("CREATE TABLE t (k integer, v integer)")
        bulk_insert(db, "t", [(k, k % 7) for k in range(200)])
        db.execute("CREATE INDEX idx_k ON t (k)")
        return db

    def test_short_in_list_stays_an_index_probe(self):
        db = self.make_db()
        db.execute("ANALYZE t")
        sql = "SELECT v FROM t WHERE k IN (1, 2, 3)"
        plan = explain(db, sql)
        assert "IndexScan on t using idx_k" in plan
        assert "cost" in plan  # the winning cost is shown

    def test_giant_in_list_falls_back_to_the_scan(self):
        db = self.make_db()
        items = ", ".join(str(k) for k in range(0, 200, 2))
        sql = f"SELECT v FROM t WHERE k IN ({items})"
        # rote planner: always probes, no matter the list
        assert "IndexScan" in explain(db, sql)
        expected = sorted(db.query(sql))
        db.execute("ANALYZE t")
        plan = explain(db, sql)
        assert "IndexScan" not in plan
        assert "idx_k skipped" in plan  # EXPLAIN says why scan won
        assert sorted(db.query(sql)) == expected

    def test_unselective_eq_probe_falls_back_to_the_scan(self):
        db = Database()
        db.execute("CREATE TABLE t (flag integer)")
        bulk_insert(db, "t", [(k % 2,) for k in range(100)])
        db.execute("CREATE INDEX idx_flag ON t (flag)")
        sql = "SELECT count(*) FROM t WHERE flag = 1"
        assert "IndexScan" in explain(db, sql)
        db.execute("ANALYZE t")
        plan = explain(db, sql)
        assert "IndexScan" not in plan and "idx_flag skipped" in plan
        assert db.query(sql) == [(50,)]


class TestPlanCacheInvalidation:
    """A prepared statement keeps its plan only while the statistics
    it was costed with are current."""

    def test_re_analyze_after_skew_shift_changes_the_cached_plan(
            self, plans):
        """Satellite regression: a kept plan must record the stats
        version — a plan chosen before ANALYZE (or before a skew shift)
        must not be served forever after."""
        db, sql = skewed_three_table_db()
        db.execute("ANALYZE")
        prepared = db.prepare(sql)
        expected = db.execute_prepared(prepared).rows
        plan = "\n".join(explain_plan(plans[-1].root))
        assert plan.index("s.d2") > plan.index("j.d1")  # s joins first
        db.execute_prepared(prepared)
        assert len(plans) == 1  # kept while stats are stable

        # skew shift: s becomes totally unselective, j becomes tiny
        db.execute("UPDATE s SET flag = 0")
        db.execute("DELETE FROM j WHERE d1 >= 2")
        shifted = db.execute_prepared(prepared).rows  # the stale plan
        assert len(plans) == 1
        db.execute("ANALYZE")
        assert db.execute_prepared(prepared).rows == shifted
        assert len(plans) == 2
        plan = "\n".join(explain_plan(plans[-1].root))
        # the pre-shift plan is not reused: j (now 10 rows) joins
        # before the no-longer-selective s
        assert plan.index("j.d1") > plan.index("s.d2")
        assert expected != shifted  # the shift really changed the data

    def test_stats_version_is_part_of_the_cache_key(self, plans):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        prepared = db.prepare("SELECT a FROM t")
        db.execute_prepared(prepared)
        db.execute_prepared(prepared)
        assert len(plans) == 1
        version = db.catalog.version
        db.execute("ANALYZE t")
        assert db.catalog.version == version  # only the stats moved
        assert db.execute_prepared(prepared).rows == [(1,)]
        assert len(plans) == 2


class TestExplainEstimates:
    def test_estimated_vs_actual_rows_per_operator(self):
        db, sql = skewed_three_table_db()
        db.execute("ANALYZE")
        result = db.execute("EXPLAIN ANALYZE " + sql)
        text = "\n".join(row[0] for row in result.rows)
        assert "est=" in text and "rows=" in text
        operators = result.stats["analyze"]["operators"]
        scans = [entry for entry in operators
                 if entry["operator"] == "SeqScan"]
        assert scans and all("est_rows" in entry for entry in scans)
        for entry in scans:
            if entry["est_rows"] >= 100:  # unfiltered base tables
                assert entry["est_rows"] == entry["rows"]

    def test_without_stats_explain_analyze_is_unchanged(self):
        db, sql = skewed_three_table_db()
        result = db.execute("EXPLAIN ANALYZE " + sql)
        text = "\n".join(row[0] for row in result.rows)
        assert "est=" not in text
        assert all("est_rows" not in entry
                   for entry in result.stats["analyze"]["operators"])
