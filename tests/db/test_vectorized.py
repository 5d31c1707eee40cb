"""Batch executor: RowBatch mechanics, pinned parity digests, and
provenance byte-identity.

The batch operators replaced a tuple-at-a-time executor whose
expressions ran through the :class:`repro.db.expressions.Evaluator`
interpreter. Before that engine was removed, every statement here was
run through both engines and found to give the same rows, the same
lineage sets and the same wire bytes; those answers are pinned in
``tests/fixtures/parity_digests.json`` as three sha256 digests per
statement — of ``repr(rows)``, of ``repr`` of the sorted lineages, and
of ``encode_frame(result_to_wire(result))``. A statement must keep
answering exactly what the tuple engine answered.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.db import Database, executor
from repro.db.executor import BATCH_SIZE, RowBatch
from repro.db.protocol import encode_frame, result_to_wire
from repro.db.provtypes import EMPTY_LINEAGE, TupleRef
from repro.errors import ExecutionError
from repro.workloads.halos import build_world
from repro.workloads.tpch.dbgen import TPCHConfig, TPCHGenerator
from repro.workloads.tpch.queries import q1_sql, q3_sql, q4_sql

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "fixtures"
     / "parity_digests.json").read_text())


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


# -- pinned parity ------------------------------------------------------------

def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def digests(result) -> dict[str, str]:
    return {
        "rows": _sha256(repr(result.rows)),
        "lineages": _sha256(repr([sorted(lineage)
                                  for lineage in result.lineages])),
        "wire": _sha256(encode_frame(result_to_wire(result))),
    }


def run_pinned(database, key, sql, provenance=False):
    """Execute ``sql`` and check its answer against the digests
    pinned under ``key``."""
    result = database.execute(sql, provenance)
    assert digests(result) == DIGESTS[key], sql
    return result


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
    run_pinned(parity_db, sql, sql)


@pytest.mark.parametrize("sql", [
    "SELECT k, a FROM t WHERE a < 30",
    "SELECT t.k, small.label FROM t, small WHERE t.k = small.k",
    "SELECT grp, count(*), sum(a) FROM t WHERE a < 80 GROUP BY grp",
    "SELECT DISTINCT grp FROM t WHERE b IS NOT NULL",
    "SELECT k, a FROM t ORDER BY a, k LIMIT 40",
])
def test_batch_row_parity_with_provenance(parity_db, sql):
    result = run_pinned(parity_db, "provenance: " + sql, sql,
                        provenance=True)
    assert any(result.lineages)


def test_error_parity_on_bad_comparison(parity_db):
    with pytest.raises(ExecutionError) as info:
        parity_db.execute("SELECT k FROM t WHERE name > 5")
    assert type(info.value) is ExecutionError
    assert str(info.value) == "cannot compare 'name1' and 5"


def test_mixed_type_sort_fails_identically(parity_db):
    sql = ("SELECT CASE WHEN k % 2 = 0 THEN name ELSE k END AS v "
           "FROM t WHERE k < 10 ORDER BY v")
    with pytest.raises(TypeError) as info:
        parity_db.execute(sql)
    assert type(info.value) is TypeError
    assert str(info.value) == ("'<' not supported between instances of "
                               "'str' and 'int'")


def test_multi_batch_inputs_chunk_and_reassemble():
    """700 rows with BATCH_SIZE 1024 is one batch; force several."""
    database = Database()
    database.execute("CREATE TABLE wide (n integer)")
    count = BATCH_SIZE * 2 + 17
    database.execute("INSERT INTO wide VALUES " + ", ".join(
        f"({n})" for n in range(count)))
    result = run_pinned(
        database, "multi-batch",
        "SELECT n FROM wide WHERE n % 10 < 3 ORDER BY n DESC")
    assert len(result.rows) > BATCH_SIZE // 2


class TestLineageAllocation:
    def make_db(self):
        database = Database()
        database.execute("CREATE TABLE t (k integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k})" for k in range(3000)))  # 3 batches per scan
        return database

    def test_no_provenance_scans_allocate_zero_lineage_vectors(self):
        database = self.make_db()
        before = executor.LINEAGE_VECTOR_BUILDS
        for _ in range(3):
            database.query("SELECT k FROM t WHERE k % 2 = 0")
        assert executor.LINEAGE_VECTOR_BUILDS == before

    def test_provenance_scans_build_one_lineage_vector_per_batch(self):
        database = self.make_db()
        start = executor.LINEAGE_VECTOR_BUILDS
        for _ in range(2):
            database.execute("SELECT k FROM t", True)
        assert executor.LINEAGE_VECTOR_BUILDS - start == 6


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
    result = run_pinned(database, "halos", HALOS_MATCHER_SQL,
                        provenance=True)
    assert result.rows  # the join actually matched something
    assert all(lineage for lineage in result.lineages)


@pytest.fixture(scope="module")
def tpch_db():
    database = Database()
    TPCHGenerator(TPCHConfig(scale_factor=0.001)).generate_into(database)
    return database


TPCH_KEYS = {q1_sql(25): "tpch q1", q3_sql(6): "tpch q3",
             q4_sql(10): "tpch q4"}


@pytest.mark.parametrize("sql", list(TPCH_KEYS))
def test_tpch_provenance_identical(tpch_db, sql):
    result = run_pinned(tpch_db, TPCH_KEYS[sql], sql, provenance=True)
    assert result.rows


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
        assert "Batch" not in text

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

    def test_analyze_entries_share_one_shape(self, explain_db):
        # a theta join plans a NestedLoopJoin, which reports batches
        # like every other operator
        result = explain_db.execute(
            "EXPLAIN ANALYZE SELECT tiny.x FROM tiny, big "
            "WHERE tiny.x < big.y")
        operators = result.stats["analyze"]["operators"]
        assert "NestedLoopJoin" in [entry["operator"]
                                    for entry in operators]
        keys = {frozenset(entry) for entry in operators}
        assert keys == {frozenset({"operator", "depth", "rows", "seconds",
                                   "loops", "batches"})}
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
