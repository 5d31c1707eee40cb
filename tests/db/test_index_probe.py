"""Index access paths: ``index_probe``, range IndexScans, DML targeting.

One chooser (:func:`repro.db.planner.index_probe`) decides when a hash
index answers a WHERE conjunct — for SELECT planning and for
UPDATE/DELETE targeting alike. These tests pin its rules for integer
``BETWEEN`` ranges, the EXPLAIN rendering of a range probe, and that
an index never changes rows or lineage (rowid *and* version).
"""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.db.executor import IndexScan, SeqScan
from repro.db.planner import index_probe, plan_select
from repro.db.sql.parser import parse_expression, parse_one
from repro.db.storage import HashIndex
from repro.errors import CatalogError, TransientError


def explain(db, sql):
    return "\n".join(row[0] for row in db.execute("EXPLAIN " + sql).rows)


def scans_of(db, sql):
    found = []

    def walk(node):
        if isinstance(node, (SeqScan, IndexScan)):
            found.append(node)
        for attr in ("child", "left", "right"):
            child = getattr(node, attr, None)
            if child is not None:
                walk(child)

    walk(plan_select(parse_one(sql), db.catalog).root)
    return found


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (k integer, v integer, s text)")
    rows = ", ".join(f"({k}, {k % 7}, 's{k % 5}')" for k in range(1, 41))
    database.execute(f"INSERT INTO t VALUES {rows}")
    database.execute("CREATE INDEX t_k ON t (k)")
    database.execute("CREATE INDEX t_s ON t (s)")
    return database


class TestIndexProbe:
    def probe(self, db, where):
        table = db.catalog.get_table("t")
        return index_probe(table, table.schema.qualified("t"),
                           parse_expression(where))

    def test_integer_between_becomes_a_range_probe(self, db):
        probe = self.probe(db, "v > 1 AND k BETWEEN 3 AND 9")
        assert probe.bounds == (3, 9) and probe.values == ()
        assert probe.index.name == "t_k"

    def test_first_indexable_conjunct_wins(self, db):
        probe = self.probe(db, "k IN (1, 2, NULL) AND s = 's1'")
        assert probe.bounds is None and len(probe.values) == 3

    @pytest.mark.parametrize("where", [
        "k NOT BETWEEN 3 AND 9",      # negated
        "k BETWEEN 9 AND 3",          # reversed: hi - lo < 0
        "k BETWEEN 1 AND 41",         # 41 probes for 40 live rows
        "k BETWEEN 1.0 AND 5",        # float bound
        "k BETWEEN NULL AND 5",       # NULL bound
        "k BETWEEN v AND 5",          # bound is not a literal
        "s BETWEEN 1 AND 3",          # TEXT column
        "s BETWEEN 's1' AND 's3'",    # TEXT bounds
        "v BETWEEN 1 AND 3",          # no index on v
        "k = 3 OR v = 1",             # not a top-level conjunct
    ])
    def test_shapes_the_index_cannot_answer(self, db, where):
        assert self.probe(db, where) is None

    def test_float_column_keeps_its_fractional_rows(self, db):
        # integer probes 1, 2, 3 would miss 1.5 and 2.5
        db.execute("CREATE TABLE f (x float)")
        db.execute("INSERT INTO f VALUES (1.5), (2.0), (2.5), (4.0), "
                   "(0.5)")
        db.execute("CREATE INDEX f_x ON f (x)")
        table = db.catalog.get_table("f")
        where = parse_expression("x BETWEEN 1 AND 3")
        assert index_probe(table, table.schema.qualified("f"),
                           where) is None
        sql = "SELECT x FROM f WHERE x BETWEEN 1 AND 3"
        assert sorted(db.query(sql)) == [(1.5,), (2.0,), (2.5,)]
        result = db.execute("DELETE FROM f WHERE x BETWEEN 1 AND 3")
        assert result.rowcount == 3

    def test_range_limit_follows_the_live_row_count(self, db):
        assert self.probe(db, "k BETWEEN 1 AND 40") is not None
        db.execute("DELETE FROM t WHERE k = 40")
        assert self.probe(db, "k BETWEEN 1 AND 40") is None


class TestRangePlans:
    def test_integer_between_plans_an_index_scan(self, db):
        (scan,) = scans_of(db, "SELECT * FROM t WHERE k BETWEEN 3 AND 9")
        assert isinstance(scan, IndexScan) and scan.bounds == (3, 9)
        assert scan.value_expressions == []

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t WHERE s BETWEEN 1 AND 3",
        "SELECT * FROM t WHERE s BETWEEN 's1' AND 's3'",
        "SELECT * FROM t WHERE k BETWEEN v AND 9",
        "SELECT * FROM t WHERE k NOT BETWEEN 3 AND 9",
        "SELECT * FROM t WHERE k BETWEEN 0 AND 100",
    ])
    def test_stays_a_seq_scan(self, db, sql):
        (scan,) = scans_of(db, sql)
        assert not isinstance(scan, IndexScan)

    def test_any_range_below_the_row_count_is_probed(self, db):
        narrow = "SELECT v FROM t WHERE k BETWEEN 3 AND 4"
        wide = "SELECT v FROM t WHERE k BETWEEN 2 AND 39"
        assert "IndexScan on t using t_k (k BETWEEN 3 AND 4)" in explain(
            db, narrow)
        # 38 probes for 40 rows: no cost model prices the range out
        assert "IndexScan on t using t_k (k BETWEEN 2 AND 39)" in explain(
            db, wide)

    def test_explain_renders_the_range_not_an_in_list(self, db):
        plan = explain(db, "SELECT * FROM t WHERE k BETWEEN 1 AND 5")
        assert "IndexScan on t using t_k (k BETWEEN 1 AND 5)" in plan
        assert " IN (" not in plan

    def test_in_list_probes_are_deduplicated_in_order(self, db):
        (scan,) = scans_of(db, "SELECT * FROM t WHERE k IN (5, 2, 5, NULL)")
        assert list(scan._probe_values()) == [5, 2]


class TestIndexNeverChangesAnswers:
    QUERIES = [
        "SELECT * FROM t WHERE k BETWEEN 3 AND 9",
        "SELECT k, v FROM t WHERE k BETWEEN 5 AND 5 AND v > 1",
        "SELECT * FROM t WHERE k IN (2, 4, NULL, 4)",
        "SELECT * FROM t WHERE k = 7",
        "SELECT * FROM t WHERE s = 's2'",
        "SELECT count(*) FROM t WHERE k BETWEEN 10 AND 30",
    ]

    def answers(self, db, sql):
        result = db.execute(sql, provenance=True)
        return sorted(zip(map(repr, result.rows),
                          map(sorted, result.lineages)))

    def test_rows_and_lineage_match_the_unindexed_plan(self, db):
        # mutations give rows distinct versions, so lineage compares
        # (rowid, version), not just rowids
        db.execute("UPDATE t SET v = v + 1 WHERE k BETWEEN 4 AND 8")
        db.execute("DELETE FROM t WHERE k IN (6, 20)")
        db.execute("INSERT INTO t VALUES (6, 99, 's6')")
        assert "BETWEEN 3 AND 9" in explain(db, self.QUERIES[0])

        def run_all():
            return [self.answers(db, sql) for sql in self.QUERIES]

        with_index = run_all()
        db.execute("DROP INDEX t_k")
        db.execute("DROP INDEX t_s")
        assert "IndexScan" not in explain(db, self.QUERIES[0])
        assert run_all() == with_index

    def test_snapshot_reads_fall_back_to_a_visible_scan(self, db):
        """A transaction writes the heap and its hash buckets in place,
        so a probe inside it sees its own writes, and another session
        reads nothing until it ends."""
        sql = "SELECT k, v FROM t WHERE k BETWEEN 2 AND 4"
        writer = db.create_session()
        db.execute("BEGIN", session=writer)
        db.execute("UPDATE t SET k = 3, v = 100 WHERE k = 30",
                   session=writer)
        assert sorted(db.query(sql, session=writer)) == [
            (2, 2), (3, 3), (3, 100), (4, 4)]
        db.execute("UPDATE t SET k = 50 WHERE k = 2", session=writer)
        db.execute("INSERT INTO t VALUES (4, -1, 'new')", session=writer)
        assert sorted(db.query(sql, session=writer)) == [
            (3, 3), (3, 100), (4, -1), (4, 4)]
        db.execute("DELETE FROM t WHERE k BETWEEN 4 AND 5",
                   session=writer)
        assert sorted(db.query(sql, session=writer)) == [(3, 3), (3, 100)]
        # another session's read is refused while the transaction is open
        with pytest.raises(TransientError):
            db.query(sql)
        db.execute("COMMIT", session=writer)
        assert sorted(db.query(sql)) == [(3, 3), (3, 100)]


class TestDMLTargeting:
    def test_update_touches_only_index_candidates(self, db, monkeypatch):
        seen = []
        original = HashIndex.lookup

        def spy(self, value):
            rowids = original(self, value)
            seen.extend(rowids)
            return rowids

        monkeypatch.setattr(HashIndex, "lookup", spy)
        result = db.execute(
            "UPDATE t SET v = 0 WHERE k BETWEEN 10 AND 14 AND v <> 3")
        # rowid k holds key k: five candidates, not forty rows
        assert sorted(seen) == [10, 11, 12, 13, 14]
        assert result.rowcount == 4  # the re-check dropped k = 10
        assert db.query("SELECT count(*) FROM t WHERE v = 0") == [(8,)]

    def test_written_lineage_names_the_pre_state_versions(self, db):
        before = db.execute("SELECT k FROM t WHERE k BETWEEN 3 AND 5",
                            provenance=True)
        old_refs = {ref for lineage in before.lineages for ref in lineage}
        result = db.execute("UPDATE t SET v = 1 WHERE k BETWEEN 3 AND 5")
        assert {ref for deps in result.written_lineage.values()
                for ref in deps} == old_refs
        deleted = db.execute("DELETE FROM t WHERE k IN (3, 4, 5)")
        assert {(ref.rowid, ref.version) for ref in deleted.deleted} == {
            (ref.rowid, ref.version) for ref in result.written}

    def test_unknown_where_column_fails_before_touching_rows(self, db):
        with pytest.raises(CatalogError, match="nope"):
            db.execute("UPDATE t SET v = 0 WHERE k = 1 AND nope = 2")
        assert db.query("SELECT v FROM t WHERE k = 1") == [(1,)]
