"""Vectorized engine: RowBatch mechanics, batch/row parity, and
provenance byte-identity.

The batch pipeline must be invisible: every query answers with the
same rows, the same lineage sets, and the same bytes on the wire as
the tuple-at-a-time engine running interpreted expressions. The parity
helpers here run each statement twice — once vectorized (the default)
and once under ``row_at_a_time_plans()`` + ``interpreted_expressions()``
— clearing the plan cache in between so neither mode sees the other's
plans.
"""

from __future__ import annotations

import pytest

from repro.db import Database, vector
from repro.db.expressions import interpreted_expressions
from repro.db.protocol import encode_frame, result_to_wire
from repro.db.provtypes import EMPTY_LINEAGE, TupleRef
from repro.db.vector import (
    BATCH_SIZE,
    RowBatch,
    row_at_a_time_plans,
    vectorized_enabled,
)
from repro.workloads.halos import build_world
from repro.workloads.tpch.dbgen import TPCHConfig, TPCHGenerator
from repro.workloads.tpch.queries import q1_sql, q3_sql, q4_sql


# -- RowBatch mechanics -------------------------------------------------------

class TestRowBatch:
    def test_identity_selection_rows(self):
        batch = RowBatch([[1, 2, 3], ["a", "b", "c"]], 3)
        assert batch.rows() == [(1, "a"), (2, "b"), (3, "c")]
        assert len(batch) == 3

    def test_selection_vector_filters_rows(self):
        batch = RowBatch([[1, 2, 3], ["a", "b", "c"]], 3, sel=[0, 2])
        assert batch.rows() == [(1, "a"), (3, "c")]
        assert len(batch) == 2

    def test_zero_width_rows_respect_selection(self):
        batch = RowBatch([], 4, sel=[1, 3])
        assert batch.rows() == [(), ()]

    def test_no_annotations_stay_none(self):
        batch = RowBatch([[1, 2]], 2, sel=[1])
        assert batch.gathered_lineages() is None
        assert batch.picked_lineages() == [EMPTY_LINEAGE]

    def test_annotations_gather_through_selection(self):
        ref_a = frozenset({TupleRef("t", 1, 1)})
        ref_b = frozenset({TupleRef("t", 2, 1)})
        batch = RowBatch([[1, 2]], 2, lineages=[ref_a, ref_b], sel=[1])
        assert batch.gathered_lineages() == [ref_b]

    def test_slice_refines_selection(self):
        batch = RowBatch([[10, 11, 12, 13]], 4)
        part = batch.slice(1, 3)
        assert part.rows() == [(11,), (12,)]
        # the underlying columns are shared, not copied
        assert part.columns is batch.columns


# -- batch/row parity ---------------------------------------------------------

def run_both_modes(database, sql, provenance=False):
    """Execute once vectorized, once row-at-a-time interpreted."""
    database.plan_cache.clear()
    assert vectorized_enabled()
    vectorized = database.execute(sql, provenance)
    database.plan_cache.clear()
    with row_at_a_time_plans(), interpreted_expressions():
        assert not vectorized_enabled()
        interpreted = database.execute(sql, provenance)
    database.plan_cache.clear()
    return vectorized, interpreted


def assert_wire_identical(vectorized, interpreted):
    assert vectorized.rows == interpreted.rows
    assert vectorized.lineages == interpreted.lineages
    assert (encode_frame(result_to_wire(vectorized))
            == encode_frame(result_to_wire(interpreted)))


@pytest.fixture(scope="module")
def parity_db():
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


PARITY_QUERIES = [
    "SELECT k, a FROM t WHERE a < 30",
    "SELECT k + a, a * 2, -k FROM t WHERE k % 3 = 0 AND a >= 10",
    "SELECT k FROM t WHERE b IS NULL OR a > 90",
    "SELECT k FROM t WHERE a BETWEEN 20 AND 40",
    "SELECT k FROM t WHERE a NOT BETWEEN 20 AND 80",
    "SELECT k, name FROM t WHERE name LIKE 'name1%'",
    "SELECT k FROM t WHERE grp IN (1, 3)",
    "SELECT k FROM t WHERE grp NOT IN (0, 2, 4)",
    "SELECT k FROM t WHERE grp IN (1, NULL)",
    "SELECT k FROM t WHERE CASE WHEN a < 50 THEN grp ELSE 0 END = 1",
    "SELECT coalesce(b, -1.0), abs(a - 50) FROM t WHERE k < 100",
    "SELECT grp, count(*), count(b), sum(a), min(b), max(name) "
    "FROM t GROUP BY grp",
    "SELECT grp, avg(a) FROM t WHERE a > 10 GROUP BY grp "
    "HAVING count(*) > 50",
    "SELECT count(*), sum(b) FROM t",
    "SELECT DISTINCT grp, a % 2 FROM t",
    "SELECT t.k, small.label FROM t, small "
    "WHERE t.k = small.k AND t.a < 70",
    "SELECT t.k, small.label FROM t LEFT JOIN small ON t.k = small.k "
    "WHERE t.k < 60",
    "SELECT small.label, count(*), sum(t.a) FROM t, small "
    "WHERE t.grp = small.k GROUP BY small.label",
    "SELECT k, a FROM t ORDER BY a DESC, k LIMIT 17",
    "SELECT b FROM t ORDER BY b LIMIT 25 OFFSET 3",
    "SELECT k FROM t WHERE a < 5 UNION SELECT k FROM small WHERE k > 35",
    "SELECT grp FROM t UNION ALL SELECT k FROM small LIMIT 9",
    "SELECT k FROM t WHERE 1 = 0",
]


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_batch_row_parity(parity_db, sql):
    vectorized, interpreted = run_both_modes(parity_db, sql)
    assert_wire_identical(vectorized, interpreted)


@pytest.mark.parametrize("sql", [
    "SELECT k, a FROM t WHERE a < 30",
    "SELECT t.k, small.label FROM t, small WHERE t.k = small.k",
    "SELECT grp, count(*), sum(a) FROM t WHERE a < 80 GROUP BY grp",
    "SELECT DISTINCT grp FROM t WHERE b IS NOT NULL",
    "SELECT k, a FROM t ORDER BY a, k LIMIT 40",
])
def test_batch_row_parity_with_provenance(parity_db, sql):
    vectorized, interpreted = run_both_modes(parity_db, sql,
                                             provenance=True)
    assert any(vectorized.lineages) or "1 = 0" in sql
    assert_wire_identical(vectorized, interpreted)


def test_error_parity_on_bad_comparison(parity_db):
    def failure(mode_runner):
        parity_db.plan_cache.clear()
        with pytest.raises(Exception) as info:
            with mode_runner():
                parity_db.execute("SELECT k FROM t WHERE name > 5")
        parity_db.plan_cache.clear()
        return type(info.value), str(info.value)

    from contextlib import nullcontext
    assert failure(nullcontext) == failure(row_at_a_time_plans)


def test_mixed_type_sort_fails_identically(parity_db):
    sql = ("SELECT CASE WHEN k % 2 = 0 THEN name ELSE k END AS v "
           "FROM t WHERE k < 10 ORDER BY v")
    outcomes = []
    for mode in (None, "rows"):
        parity_db.plan_cache.clear()
        try:
            if mode is None:
                parity_db.execute(sql)
            else:
                with row_at_a_time_plans(), interpreted_expressions():
                    parity_db.execute(sql)
            outcomes.append("ok")
        except Exception as exc:
            outcomes.append(type(exc).__name__)
    parity_db.plan_cache.clear()
    assert outcomes[0] == outcomes[1]


def test_multi_batch_inputs_chunk_and_reassemble(parity_db):
    """700 rows with BATCH_SIZE 1024 is one batch; force several."""
    database = Database()
    database.execute("CREATE TABLE wide (n integer)")
    count = BATCH_SIZE * 2 + 17
    database.execute("INSERT INTO wide VALUES " + ", ".join(
        f"({n})" for n in range(count)))
    vectorized, interpreted = run_both_modes(
        database, "SELECT n FROM wide WHERE n % 10 < 3 ORDER BY n DESC")
    assert_wire_identical(vectorized, interpreted)
    assert len(vectorized.rows) > BATCH_SIZE // 2


class TestLineageAllocation:
    def make_db(self):
        database = Database()
        database.execute("CREATE TABLE t (k integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k})" for k in range(3000)))  # 3 batches per scan
        return database

    def test_no_provenance_scans_allocate_zero_lineage_vectors(self):
        database = self.make_db()
        before = vector.LINEAGE_VECTOR_BUILDS
        for _ in range(3):
            database.query("SELECT k FROM t WHERE k % 2 = 0")
        assert vector.LINEAGE_VECTOR_BUILDS == before

    def test_provenance_scans_build_one_lineage_vector_per_batch(self):
        database = self.make_db()
        start = vector.LINEAGE_VECTOR_BUILDS
        for _ in range(2):
            database.execute("SELECT k FROM t", True)
        assert vector.LINEAGE_VECTOR_BUILDS - start == 6


# -- provenance byte-identity on real workloads -------------------------------

HALOS_MATCHER_SQL = (
    "SELECT c.halo_id, c.cell_x, c.cell_y, o.obs_id, o.brightness "
    "FROM candidates c, observations o "
    "WHERE c.cell_x = o.cell_x AND c.cell_y = o.cell_y "
    "AND o.brightness > 0.5 ORDER BY c.halo_id, o.obs_id")


def test_halos_matcher_provenance_identical():
    world = build_world(n_particles=300, n_observations=400)
    database = world.database
    database.execute(
        "INSERT INTO candidates VALUES " + ", ".join(
            f"({halo_id}, {halo_id % 20}, {(halo_id * 3) % 20}, "
            f"{3 + halo_id})"
            for halo_id in range(1, 15)))
    vectorized, interpreted = run_both_modes(
        database, HALOS_MATCHER_SQL, provenance=True)
    assert vectorized.rows  # the join actually matched something
    assert all(lineage for lineage in vectorized.lineages)
    assert_wire_identical(vectorized, interpreted)


@pytest.fixture(scope="module")
def tpch_db():
    database = Database()
    TPCHGenerator(TPCHConfig(scale_factor=0.001)).generate_into(database)
    return database


@pytest.mark.parametrize("sql", [
    q1_sql(25),
    q3_sql(6),
    q4_sql(10),
])
def test_tpch_provenance_identical(tpch_db, sql):
    vectorized, interpreted = run_both_modes(tpch_db, sql,
                                             provenance=True)
    assert vectorized.rows
    assert_wire_identical(vectorized, interpreted)


# -- EXPLAIN integration ------------------------------------------------------

def explain_text(database, sql):
    result = database.execute(sql)
    return "\n".join(row[0] for row in result.rows)


@pytest.fixture
def explain_db():
    database = Database()
    database.execute("CREATE TABLE big (x integer, y integer)")
    database.execute("CREATE TABLE tiny (x integer, tag text)")
    database.execute("INSERT INTO big VALUES " + ", ".join(
        f"({n}, {n % 10})" for n in range(200)))
    database.execute("INSERT INTO tiny VALUES (1, 'a'), (2, 'b')")
    return database


class TestExplain:
    def test_fused_pipeline_is_one_node(self, explain_db):
        text = explain_text(
            explain_db, "EXPLAIN SELECT x + 1 FROM big WHERE x > 5")
        assert "FusedScanFilterProject" in text
        assert "Batch" not in text  # display names stay engine-neutral

    def test_analyze_reports_batches_and_rows(self, explain_db):
        result = explain_db.execute(
            "EXPLAIN ANALYZE SELECT x + 1 FROM big WHERE x < 50")
        operators = result.stats["analyze"]["operators"]
        names = [entry["operator"] for entry in operators]
        assert any(name.startswith("Project") for name in names)
        assert any(name.startswith("Filter") for name in names)
        assert any(name.startswith("SeqScan") for name in names)
        by_name = {entry["operator"].split(" ")[0]: entry
                   for entry in operators}
        assert by_name["SeqScan"]["rows"] == 200
        assert by_name["Filter"]["rows"] == 50
        assert all(entry["batches"] >= 1 for entry in operators)

    def test_build_side_shown_and_prefers_smaller_input(self, explain_db):
        text = explain_text(
            explain_db,
            "EXPLAIN SELECT 1 FROM tiny, big WHERE tiny.x = big.x")
        assert "build=left" in text

    def test_left_join_builds_right(self, explain_db):
        text = explain_text(
            explain_db,
            "EXPLAIN SELECT 1 FROM big LEFT JOIN tiny "
            "ON big.x = tiny.x")
        assert "build=right" in text

    def test_in_list_index_scan(self, explain_db):
        explain_db.execute("CREATE INDEX big_x ON big (x)")
        text = explain_text(
            explain_db,
            "EXPLAIN SELECT y FROM big WHERE x IN (3, 5, 9)")
        assert "IndexScan" in text
        assert "IN (" in text
