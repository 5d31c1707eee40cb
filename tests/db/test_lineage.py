"""Lineage (Perm) semantics tests, mirroring paper Section VI-A."""

import pytest

from repro.db import Database
from repro.db.provtypes import TupleRef
from repro.db.sql.parser import parse_one
from repro.db.sql.render import render_select
from repro.monitor.dbmonitor import _MonitorInterceptor


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE sales (id integer, price float)")
    database.execute("INSERT INTO sales VALUES (1, 5), (2, 11), (3, 14)")
    return database


def refs(lineage):
    return {(ref.table, ref.rowid) for ref in lineage}


class TestSelectionLineage:
    def test_each_result_row_has_singleton_lineage(self, db):
        result = db.execute("SELECT id FROM sales WHERE price > 10",
                            provenance=True)
        assert [len(lin) for lin in result.lineages] == [1, 1]

    def test_lineage_points_at_matching_rows(self, db):
        result = db.execute("SELECT id FROM sales WHERE price > 10",
                            provenance=True)
        assert refs(result.lineages[0]) == {("sales", 2)}
        assert refs(result.lineages[1]) == {("sales", 3)}

    def test_projection_preserves_lineage(self, db):
        result = db.execute("SELECT price * 2 FROM sales WHERE id = 1",
                            provenance=True)
        assert refs(result.lineages[0]) == {("sales", 1)}

    def test_no_provenance_means_empty_lineage(self, db):
        result = db.execute("SELECT id FROM sales")
        assert all(lin == frozenset() for lin in result.lineages)


class TestAggregationLineage:
    def test_paper_figure5_example(self, db):
        """Figure 5: Lineage of sum over price>10 is {t2, t3}."""
        result = db.execute(
            "SELECT sum(price) AS ttl FROM sales WHERE price > 10",
            provenance=True)
        assert result.rows == [(25.0,)]
        assert refs(result.lineages[0]) == {("sales", 2), ("sales", 3)}

    def test_group_lineage_partitions_input(self, db):
        db.execute("CREATE TABLE t (k text, v integer)")
        db.execute("INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 3)")
        result = db.execute(
            "SELECT k, sum(v) FROM t GROUP BY k ORDER BY k",
            provenance=True)
        assert [len(lin) for lin in result.lineages] == [2, 1]

    def test_filtered_out_rows_not_in_lineage(self, db):
        result = db.execute(
            "SELECT count(*) FROM sales WHERE price > 100",
            provenance=True)
        assert result.rows == [(0,)]
        assert result.lineages[0] == frozenset()


class TestJoinLineage:
    @pytest.fixture(autouse=True)
    def orders(self, db):
        db.execute("CREATE TABLE orders (oid integer, sid integer)")
        db.execute("INSERT INTO orders VALUES (10, 1), (11, 2)")

    def test_join_unions_both_sides(self, db):
        result = db.execute(
            "SELECT o.oid FROM sales s, orders o WHERE s.id = o.sid "
            "ORDER BY o.oid", provenance=True)
        assert refs(result.lineages[0]) == {("sales", 1), ("orders", 1)}
        assert refs(result.lineages[1]) == {("sales", 2), ("orders", 2)}

    def test_left_join_unmatched_has_left_lineage_only(self, db):
        result = db.execute(
            "SELECT s.id FROM sales s LEFT JOIN orders o ON s.id = o.sid "
            "ORDER BY s.id", provenance=True)
        assert refs(result.lineages[2]) == {("sales", 3)}

    def test_aggregate_over_join(self, db):
        result = db.execute(
            "SELECT count(*) FROM sales s, orders o WHERE s.id = o.sid",
            provenance=True)
        assert refs(result.lineages[0]) == {
            ("sales", 1), ("sales", 2), ("orders", 1), ("orders", 2)}


class TestDistinctLineage:
    def test_distinct_merges_duplicate_lineages(self, db):
        db.execute("INSERT INTO sales VALUES (4, 11)")
        result = db.execute(
            "SELECT DISTINCT price FROM sales WHERE price = 11",
            provenance=True)
        assert len(result.rows) == 1
        assert refs(result.lineages[0]) == {("sales", 2), ("sales", 4)}


class TestLineageReferencesVersions:
    def test_lineage_tracks_current_version(self, db):
        before = db.execute("SELECT id FROM sales WHERE id = 1",
                            provenance=True)
        db.execute("UPDATE sales SET price = 6 WHERE id = 1")
        after = db.execute("SELECT id FROM sales WHERE id = 1",
                           provenance=True)
        (old_ref,) = before.lineages[0]
        (new_ref,) = after.lineages[0]
        assert old_ref.rowid == new_ref.rowid
        assert new_ref.version > old_ref.version


def reenact(db, sql):
    """The pre-state provenance of modification ``sql`` as the DB
    monitor retrieves it before the statement runs: its reenactment
    query, executed in Perm's provenance mode. Returns the
    (tuple version, pre-state row) pairs, or None when the statement
    needs no reenactment."""
    query = _MonitorInterceptor._reenactment_query(parse_one(sql))
    if query is None:
        return None
    pre = db.execute(render_select(query), provenance=True)
    return [(ref, row) for row, lineage in zip(pre.rows, pre.lineages)
            for ref in lineage]


class TestPermInterface:
    """GProM-style reenactment over Perm's provenance mode."""

    def test_reenact_update_captures_pre_state(self, db):
        pairs = reenact(db, "UPDATE sales SET price = 0 WHERE price > 10")
        assert {ref.rowid for ref, _ in pairs} == {2, 3}
        # pre-state values are captured before execution
        assert sorted(row[1] for _, row in pairs) == [11.0, 14.0]
        # and the database itself is untouched
        assert db.query("SELECT count(*) FROM sales WHERE price = 0") == [(0,)]

    def test_reenact_delete(self, db):
        pairs = reenact(db, "DELETE FROM sales WHERE id = 1")
        assert [ref.rowid for ref, _ in pairs] == [1]
        assert db.query("SELECT count(*) FROM sales") == [(3,)]

    def test_reenact_plain_insert_is_empty(self, db):
        assert reenact(db, "INSERT INTO sales VALUES (9, 1)") is None

    def test_reenact_insert_select(self, db):
        db.execute("CREATE TABLE archive (id integer, price float)")
        pairs = reenact(db, "INSERT INTO archive SELECT id, price FROM "
                            "sales WHERE price > 10")
        assert {ref.rowid for ref, _ in pairs} == {2, 3}
        assert db.query("SELECT count(*) FROM archive") == [(0,)]
