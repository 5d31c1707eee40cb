"""Planner tests: pushdown, join strategy selection, star expansion,
ORDER BY handling, and output-type inference."""

import random

import pytest

from repro.db import Database
from repro.db.executor import (
    Filter,
    GroupAggregate,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    Project,
    SeqScan,
    Sort,
    StripColumns,
)
from repro.db.planner import (
    conjoin,
    derive_column_name,
    infer_type,
    plan_select,
    split_conjuncts,
)
from repro.db.sql.parser import parse_expression, parse_one
from repro.db.types import SQLType
from repro.errors import ExecutionError, TransientError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE a (x integer, y float, s text)")
    database.execute("CREATE TABLE b (x integer, z text)")
    database.execute("INSERT INTO a VALUES (1, 1.5, 'p'), (2, 2.5, 'q')")
    database.execute("INSERT INTO b VALUES (1, 'one'), (3, 'three')")
    return database


def plan(db, sql):
    return plan_select(parse_one(sql), db.catalog)


def operators_in(root):
    """Flatten the operator tree."""
    found = [root]
    for attr in ("child", "left", "right"):
        node = getattr(root, attr, None)
        if node is not None:
            found.extend(operators_in(node))
    return found


def has_filter(operators):
    return any(isinstance(op, Filter) for op in operators)


def has_projection(operators):
    return any(isinstance(op, Project) for op in operators)


class TestConjuncts:
    def test_split_flattens_ands(self):
        conjuncts = split_conjuncts(parse_expression("a = 1 AND b = 2 AND c = 3"))
        assert len(conjuncts) == 3

    def test_split_keeps_or_whole(self):
        conjuncts = split_conjuncts(parse_expression("a = 1 OR b = 2"))
        assert len(conjuncts) == 1

    def test_split_none(self):
        assert split_conjuncts(None) == []

    def test_conjoin_inverse(self):
        original = parse_expression("a = 1 AND b = 2")
        assert conjoin(split_conjuncts(original)) == original

    def test_conjoin_empty(self):
        assert conjoin([]) is None


class TestJoinPlanning:
    def test_equi_join_uses_hash_join(self, db):
        planned = plan(db, "SELECT 1 FROM a, b WHERE a.x = b.x")
        operators = operators_in(planned.root)
        assert any(isinstance(op, HashJoin) for op in operators)
        assert not any(isinstance(op, NestedLoopJoin) for op in operators)

    def test_no_predicate_uses_cross_join(self, db):
        planned = plan(db, "SELECT 1 FROM a, b")
        kinds = [type(op) for op in operators_in(planned.root)]
        assert NestedLoopJoin in kinds

    def test_explicit_join_on_equi(self, db):
        planned = plan(db, "SELECT 1 FROM a JOIN b ON a.x = b.x")
        assert any(isinstance(op, HashJoin)
                   for op in operators_in(planned.root))

    def test_non_equi_join_on_falls_back(self, db):
        planned = plan(db, "SELECT 1 FROM a JOIN b ON a.x < b.x")
        assert any(isinstance(op, NestedLoopJoin)
                   for op in operators_in(planned.root))

    def test_single_table_filter_pushed_below_join(self, db):
        planned = plan(
            db, "SELECT 1 FROM a, b WHERE a.x = b.x AND a.y > 2")
        joins = [op for op in operators_in(planned.root)
                 if isinstance(op, HashJoin)]
        assert joins
        # the filter must appear below the join, not above it
        below = operators_in(joins[0])
        assert has_filter(below)

    def test_constant_filter_pushed_to_first_fragment(self, db):
        planned = plan(db, "SELECT 1 FROM a, b WHERE 1 = 0")
        joins = [op for op in operators_in(planned.root)
                 if isinstance(op, NestedLoopJoin)]
        below_left = operators_in(joins[0].left)
        assert has_filter(below_left)
        assert planned.root.schema is not None
        assert list(planned.root) == []  # and it short-circuits

    def test_three_way_greedy_ordering(self, db):
        db.execute("CREATE TABLE c (z text, w integer)")
        planned = plan(
            db, "SELECT 1 FROM a, c, b WHERE a.x = b.x AND b.z = c.z")
        operators = operators_in(planned.root)
        # both joins become hash joins despite c being listed between
        assert sum(isinstance(op, HashJoin) for op in operators) == 2
        assert not any(isinstance(op, NestedLoopJoin) for op in operators)

    def test_source_tables_recorded(self, db):
        planned = plan(db, "SELECT 1 FROM a, b")
        assert planned.source_tables == ["a", "b"]


class TestProjectionAndAggregation:
    def test_star_expansion(self, db):
        planned = plan(db, "SELECT * FROM a")
        assert planned.schema.column_names() == ["x", "y", "s"]

    def test_qualified_star(self, db):
        planned = plan(db, "SELECT b.* FROM a, b WHERE a.x = b.x")
        assert planned.schema.column_names() == ["x", "z"]

    def test_unknown_star_qualifier(self, db):
        with pytest.raises(ExecutionError):
            plan(db, "SELECT ghost.* FROM a")

    def test_aggregate_detection(self, db):
        planned = plan(db, "SELECT sum(x) FROM a")
        assert any(isinstance(op, GroupAggregate)
                   for op in operators_in(planned.root))

    def test_plain_select_uses_project(self, db):
        planned = plan(db, "SELECT x + 1 FROM a")
        operators = operators_in(planned.root)
        assert has_projection(operators)
        assert not any(isinstance(op, GroupAggregate) for op in operators)

    def test_column_naming(self, db):
        planned = plan(db, "SELECT x, x AS renamed, x + 1, count(*) "
                           "FROM a GROUP BY x")
        assert planned.schema.column_names() == [
            "x", "renamed", "column3", "count"]

    def test_derive_column_name(self):
        assert derive_column_name(parse_expression("foo"), 0) == "foo"
        assert derive_column_name(parse_expression("sum(x)"), 1) == "sum"
        assert derive_column_name(parse_expression("1 + 2"), 2) == "column3"


class TestOrderByPlanning:
    def test_sort_on_projected_column(self, db):
        planned = plan(db, "SELECT x FROM a ORDER BY x")
        operators = operators_in(planned.root)
        assert any(isinstance(op, Sort) for op in operators)
        # no hidden column needed
        assert not any(isinstance(op, StripColumns) for op in operators)

    def test_hidden_sort_column_added_and_stripped(self, db):
        planned = plan(db, "SELECT s FROM a ORDER BY y DESC")
        operators = operators_in(planned.root)
        assert any(isinstance(op, StripColumns) for op in operators)
        assert planned.schema.column_names() == ["s"]
        assert [row for row, _lin in planned.root] == [("q",), ("p",)]

    def test_order_by_alias(self, db):
        planned = plan(db, "SELECT y AS v FROM a ORDER BY v DESC")
        assert [row for row, _lin in planned.root] == [(2.5,), (1.5,)]

    def test_order_by_position(self, db):
        planned = plan(db, "SELECT s, y FROM a ORDER BY 2 DESC")
        assert [row[0] for row, _lin in planned.root] == ["q", "p"]


class TestVectorizedPlanning:
    def test_scan_filter_project_plans_one_node_each(self, db):
        planned = plan(db, "SELECT x + 1 FROM a WHERE x > 1 AND y < 9")
        operators = operators_in(planned.root)
        assert [type(op) for op in operators] == [
            Project, Filter, Filter, SeqScan]
        # the projection prunes the scan to the columns it and the
        # filters reference: x and y, never s
        assert operators[-1].needed_columns == {0, 1}
        assert [row for row, _lin in planned.root] == [(3,)]

    def test_hash_join_prunes_each_scan_to_keys_and_filters(self, db):
        planned = plan(db, "SELECT a.s, b.z FROM a, b "
                           "WHERE a.x = b.x AND a.y > 1")
        scans = {op.table.name: op for op in operators_in(planned.root)
                 if isinstance(op, SeqScan)}
        assert scans["a"].needed_columns == {0, 1}
        assert scans["b"].needed_columns == {0}
        assert [row for row, _lin in planned.root] == [("p", "one")]

    def test_build_side_prefers_smaller_table(self, db):
        # a has 2 rows, b has 2; add rows so b is strictly larger
        db.execute("INSERT INTO b VALUES (5, 'five'), (6, 'six')")
        planned = plan(db, "SELECT 1 FROM b, a WHERE a.x = b.x")
        join = next(op for op in operators_in(planned.root)
                    if isinstance(op, HashJoin))
        sides = {"left": join.left, "right": join.right}
        built = sides[join.build_side]
        scans = [op for op in operators_in(built)
                 if isinstance(op, SeqScan)]
        assert scans and scans[0].table.name == "a"

    def test_left_join_always_builds_right(self, db):
        planned = plan(
            db, "SELECT 1 FROM b LEFT JOIN a ON a.x = b.x")
        join = next(op for op in operators_in(planned.root)
                    if isinstance(op, HashJoin))
        assert join.build_side == "right"

    def test_in_list_uses_hash_index(self, db):
        db.execute("CREATE INDEX a_x ON a (x)")
        planned = plan(db, "SELECT y FROM a WHERE x IN (1, 2, 7)")
        scans = [op for op in operators_in(planned.root)
                 if isinstance(op, IndexScan)]
        assert len(scans) == 1
        assert len(scans[0].value_expressions) == 3
        assert sorted(row[0] for row, _lin in planned.root) == [1.5, 2.5]

    def test_negated_in_list_does_not_use_index(self, db):
        db.execute("CREATE INDEX a_x ON a (x)")
        planned = plan(db, "SELECT y FROM a WHERE x NOT IN (1, 2)")
        assert not any(isinstance(op, IndexScan)
                       for op in operators_in(planned.root))

    def test_index_choice_does_not_depend_on_scan_history(self):
        """A full scan in between must not change the access path: a
        kept plan cannot see what was scanned last."""
        database = Database()
        database.execute("CREATE TABLE t (k integer, grp integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k}, {k % 4})" for k in range(100)))
        database.execute("CREATE INDEX idx_grp ON t (grp)")

        def explain():
            return "\n".join(
                row[0] for row in database.execute(
                    "EXPLAIN SELECT k FROM t WHERE grp = 2").rows)

        before = explain()
        assert "IndexScan" in before
        database.query("SELECT * FROM t")
        assert explain() == before


def explain(db, sql, session=None):
    result = db.execute("EXPLAIN " + sql, session=session)
    return "\n".join(row[0] for row in result.rows)


def bulk_insert(db, name, rows):
    table = db.catalog.get_table(name)
    tick = db.clock.tick()
    for row in rows:
        table.insert(tuple(row), tick)


class TestRoteRules:
    def test_rote_planner_joins_in_from_order(self):
        """Fact × fan-out junction × selective dimension: the planner
        joins the first connected fragment in FROM order, however
        selective a later one is."""
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
        plan = explain(db, "SELECT count(*) FROM f, j, s "
                           "WHERE f.d1 = j.d1 AND f.d2 = s.d2 "
                           "AND s.flag < 10")
        # deeper operators print later: the f⋈j join executes first
        assert plan.index("f.d1 = j.d1") > plan.index("f.d2 = s.d2")

    def test_overlay_insert_flips_the_build_side(self):
        """`_estimate_rows` counts the heap, which holds an open
        transaction's own writes — a transaction that bulk-inserts into
        the small join side must get the flipped build side for its own
        plans, and a rollback must flip it back."""
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
        # …and no other session plans against the uncommitted rows
        with pytest.raises(TransientError):
            explain(db, sql)
        db.execute("ROLLBACK", session=session)
        assert "build=left" in explain(db, sql)


class TestTypeInference:
    @pytest.fixture
    def schema(self, db):
        return plan(db, "SELECT * FROM a").schema

    @pytest.mark.parametrize("text,expected", [
        ("1", SQLType.INTEGER),
        ("1.5", SQLType.FLOAT),
        ("'x'", SQLType.TEXT),
        ("TRUE", SQLType.BOOLEAN),
        ("x", SQLType.INTEGER),
        ("y", SQLType.FLOAT),
        ("x + 1", SQLType.INTEGER),
        ("x + y", SQLType.FLOAT),
        ("x / 2", SQLType.INTEGER),
        ("x > 1", SQLType.BOOLEAN),
        ("x BETWEEN 1 AND 2", SQLType.BOOLEAN),
        ("s LIKE 'a%'", SQLType.BOOLEAN),
        ("s || 'x'", SQLType.TEXT),
        ("count(*)", SQLType.INTEGER),
        ("avg(x)", SQLType.FLOAT),
        ("sum(y)", SQLType.FLOAT),
        ("min(s)", SQLType.TEXT),
        ("length(s)", SQLType.INTEGER),
        ("upper(s)", SQLType.TEXT),
        ("coalesce(y, 0)", SQLType.FLOAT),
        ("-x", SQLType.INTEGER),
        ("NOT TRUE", SQLType.BOOLEAN),
        ("CASE WHEN x > 1 THEN 'a' ELSE 'b' END", SQLType.TEXT),
    ])
    def test_infer(self, schema, text, expected):
        assert infer_type(parse_expression(text), schema) is expected

    def test_unknown_column_defaults_to_text(self, schema):
        assert infer_type(parse_expression("ghost"),
                          schema) is SQLType.TEXT

    def test_result_schema_types_flow_to_csv(self, db):
        """Types drive result-set serialization round trips."""
        planned = plan(db, "SELECT x + 1, y * 2, s FROM a")
        assert planned.schema.types() == [
            SQLType.INTEGER, SQLType.FLOAT, SQLType.TEXT]
