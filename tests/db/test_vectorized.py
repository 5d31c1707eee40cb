"""Batch executor: RowBatch mechanics, pinned parity digests, and
provenance byte-identity.

The batch operators replaced a tuple-at-a-time executor whose
expressions ran through the :class:`tests.db.evaluator.Evaluator`
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
import itertools
import json
from pathlib import Path

import pytest

from repro.db import Database, executor
from repro.db.executor import BATCH_SIZE, Filter, MaterializedSource
from repro.db.protocol import encode_frame, result_to_wire
from repro.db.provtypes import EMPTY_LINEAGE, TupleRef
from repro.db.sql.parser import parse_expression
from repro.db.types import Column, Schema, SQLType
from repro.errors import ExecutionError
from repro.workloads.halos import build_world
from repro.workloads.tpch.dbgen import TPCHConfig, TPCHGenerator
from repro.workloads.tpch.queries import q1_sql, q3_sql, q4_sql

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "fixtures"
     / "parity_digests.json").read_text())


# -- RowBatch mechanics -------------------------------------------------------

class TestRowBatch:
    def test_no_annotations_stay_none(self):
        source = MaterializedSource(
            Schema([Column("k", SQLType.INTEGER)]),
            [((1,), EMPTY_LINEAGE), ((2,), EMPTY_LINEAGE)])
        [batch] = source.batches()
        assert (batch.rows, batch.lineages) == ([(1,), (2,)], None)
        assert list(source) == [((1,), EMPTY_LINEAGE), ((2,), EMPTY_LINEAGE)]

    def test_annotations_gather_through_selection(self):
        ref_a = frozenset({TupleRef("t", 1, 1)})
        ref_b = frozenset({TupleRef("t", 2, 1)})
        schema = Schema([Column("k", SQLType.INTEGER)])
        kept = Filter(MaterializedSource(schema, [((1,), ref_a),
                                                  ((2,), ref_b)]),
                      parse_expression("k > 1"))
        [batch] = kept.batches()
        assert (batch.rows, batch.lineages) == ([(2,)], [ref_b])


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
    with pytest.raises(ExecutionError) as info:
        parity_db.execute(sql)
    assert type(info.value) is ExecutionError
    assert str(info.value) == "cannot compare 'name2' and 1"


@pytest.mark.parametrize("aggregate", ["min", "max"])
def test_mixed_type_min_max_fail_like_a_comparison(parity_db, aggregate):
    sql = (f"SELECT {aggregate}(CASE WHEN k % 2 = 0 THEN name ELSE k END) "
           "FROM t WHERE k < 10")
    with pytest.raises(ExecutionError) as info:
        parity_db.execute(sql)
    assert type(info.value) is ExecutionError
    assert str(info.value) == "cannot compare 'name2' and 1"


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


BOUNDARY_ROWS = BATCH_SIZE * 2 + 17  # two full batches and a partial one


@pytest.fixture(scope="module")
def boundary_db():
    database = Database()
    database.execute("CREATE TABLE wide (n integer, g integer, tag text)")
    database.execute("INSERT INTO wide VALUES " + ", ".join(
        f"({n}, {n % 7}, 't{n % 5}')" for n in range(BOUNDARY_ROWS)))
    return database


BOUNDARY_QUERIES = [
    # LIMIT/OFFSET straddling the first batch boundary, straight off
    # the scan and behind a filter that thins every batch
    "SELECT n, tag FROM wide LIMIT 30 OFFSET 1010",
    "SELECT n FROM wide WHERE n % 3 <> 1 LIMIT 40 OFFSET 670",
    # the hidden sort column is stripped after DISTINCT and Sort
    "SELECT DISTINCT g, tag FROM wide ORDER BY n DESC",
    # a filter that leaves the first two batches empty
    "SELECT n, g + n FROM wide WHERE n > 2050",
]


@pytest.mark.parametrize("provenance", [False, True],
                         ids=["plain", "provenance"])
@pytest.mark.parametrize("sql", BOUNDARY_QUERIES)
def test_batch_boundaries(boundary_db, sql, provenance):
    key = f"boundary{' provenance' if provenance else ''}: {sql}"
    result = run_pinned(boundary_db, key, sql, provenance)
    assert result.rows
    assert any(result.lineages) == provenance


@pytest.mark.parametrize("aggregate", ["min", "max"])
def test_min_max_across_batches_of_different_types(boundary_db, aggregate):
    # the first batch holds numbers only, the second text only
    sql = (f"SELECT {aggregate}(CASE WHEN n < {BATCH_SIZE} THEN n "
           "ELSE tag END) FROM wide")
    with pytest.raises(ExecutionError) as info:
        boundary_db.execute(sql)
    expected = "'t0' and 0" if aggregate == "min" else "'t4' and 1023"
    assert str(info.value) == f"cannot compare {expected}"


def test_analyze_counts_batches_a_filter_empties(boundary_db):
    analyzed = boundary_db.execute(
        "EXPLAIN ANALYZE SELECT n, g + n FROM wide WHERE n > 2050")
    assert [(entry["operator"], entry["rows"], entry["batches"])
            for entry in analyzed.stats["analyze"]["operators"]] == [
        ("Project", 14, 1), ("Filter", 14, 1),
        ("SeqScan", BOUNDARY_ROWS, 3)]


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
    @pytest.mark.parametrize("sql", [
        "SELECT x + 1 FROM big WHERE x > 5 AND y < 7",
        "SELECT tiny.tag, count(*) FROM big, tiny "
        "WHERE big.x = tiny.x AND big.y > 0 GROUP BY tiny.tag",
    ], ids=["scan", "join"])
    def test_explain_and_analyze_list_the_same_operators(self, explain_db,
                                                         sql):
        plain = explain_text(explain_db, f"EXPLAIN {sql}").splitlines()
        analyzed = explain_db.execute(f"EXPLAIN ANALYZE {sql}")
        # each ANALYZE line is the plain line plus its measurement
        assert [line.split(" (rows=")[0]
                for (line,) in analyzed.rows] == plain
        assert len(analyzed.stats["analyze"]["operators"]) == len(plain)

    def test_plan_tree_text_and_measurements_are_pinned(self):
        """Every node in EXPLAIN order, a join's left input before its
        right, with the measurements of a one-millisecond-per-call
        clock."""
        ticks = itertools.count()
        database = Database(timer=lambda: next(ticks) / 1000)
        database.execute("CREATE TABLE big (x integer, y integer)")
        database.execute("CREATE TABLE tiny (x integer, tag text)")
        database.execute("INSERT INTO big VALUES " + ", ".join(
            f"({n}, {n % 10})" for n in range(200)))
        database.execute("INSERT INTO tiny VALUES (1, 'a'), (2, 'b')")
        sql = ("SELECT tiny.tag, count(*) FROM big, tiny WHERE "
               "big.x = tiny.x AND big.y > 0 GROUP BY tiny.tag "
               "ORDER BY 1 LIMIT 5")
        plan = [
            "Limit 5 offset 0",
            "  Sort on [(0, False)]",
            "    GroupAggregate (1 keys, 1 aggregates)",
            "      HashJoin (inner, build=right) on big.x = tiny.x",
            "        Filter: big.y > 0",
            "          SeqScan on big",
            "        SeqScan on tiny",
        ]
        measured = [(2, 39), (2, 33), (2, 27), (2, 21), (180, 9),
                    (200, 3), (2, 3)]
        assert explain_text(database, f"EXPLAIN {sql}").splitlines() == plan
        analyzed = database.execute(f"EXPLAIN ANALYZE {sql}")
        assert [line for (line,) in analyzed.rows] == [
            f"{line} (rows={rows} time={ms}.000 ms)"
            for line, (rows, ms) in zip(plan, measured)]
        stats = analyzed.stats["analyze"]
        assert [(entry["operator"], entry["depth"], entry["rows"],
                 round(entry["seconds"] * 1000), entry["loops"],
                 entry["batches"]) for entry in stats["operators"]] == [
            (line.split()[0].rstrip(":"),
             (len(line) - len(line.lstrip())) // 2, rows, ms, 1, 1)
            for line, (rows, ms) in zip(plan, measured)]
        assert (stats["rows"], stats["total_seconds"]) == (2, 0.039)

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


class TestExplainSubqueriesAndUnion:
    """EXPLAIN expands a query's subqueries as execution does, and
    plans a UNION as execution does."""

    @pytest.fixture
    def ab_db(self):
        ticks = itertools.count()
        database = Database(timer=lambda: next(ticks) / 1000)
        database.execute("CREATE TABLE a (id integer, g integer)")
        database.execute("CREATE TABLE b (a_id integer)")
        database.execute(
            "INSERT INTO a VALUES (1, 5), (2, 0), (3, 7), (4, 1)")
        database.execute("INSERT INTO b VALUES (1), (3), (3)")
        return database

    def test_explain_in_subquery(self, ab_db):
        assert explain_text(
            ab_db, "EXPLAIN SELECT id FROM a WHERE id IN "
                   "(SELECT a_id FROM b)").splitlines() == [
            "Project",
            "  Filter: id IN (1, 3, 3)",
            "    SeqScan on a",
        ]

    def test_explain_analyze_scalar_subquery(self, ab_db):
        analyzed = ab_db.execute(
            "EXPLAIN ANALYZE SELECT id FROM a WHERE g > "
            "(SELECT min(a_id) FROM b)")
        assert [line for (line,) in analyzed.rows] == [
            "Project (rows=2 time=15.000 ms)",
            "  Filter: g > 1 (rows=2 time=9.000 ms)",
            "    SeqScan on a (rows=4 time=3.000 ms)",
        ]
        assert ab_db.query(
            "SELECT id FROM a WHERE g > (SELECT min(a_id) FROM b)") \
            == [(1,), (3,)]

    def test_explain_union(self, ab_db):
        assert explain_text(
            ab_db, "EXPLAIN SELECT id FROM a UNION "
                   "SELECT a_id FROM b").splitlines() == [
            "Distinct",
            "  Union",
            "    Project",
            "      SeqScan on a",
            "    Project",
            "      SeqScan on b",
        ]
