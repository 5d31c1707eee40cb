"""Query-engine fast path: compiled expressions, the plan a prepared
statement keeps, EXPLAIN ANALYZE — plus regression tests for the
executor correctness fixes that shipped with it (Decimal-safe rounding,
LEFT-join WHERE vs ON semantics, empty-input global aggregates).
"""

from __future__ import annotations

from decimal import Decimal

import pytest

from repro.db import protocol
from repro.db import expressions as exprs
from repro.db.client import DBClient
from repro.db.engine import Database
from repro.db.planner import explain_plan
from repro.db.server import DBServer, ResultCache
from repro.db.sql import ast
from repro.db.sql.parser import parse_one, parse_sql
from repro.db.sql.render import render_statement


def make_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE emp (id integer, name text, dept text, "
               "salary float)")
    db.execute("CREATE TABLE dept (dept text, city text)")
    db.execute("INSERT INTO emp VALUES "
               "(1, 'ada', 'eng', 100.0), (2, 'bob', 'eng', 80.0), "
               "(3, 'cyd', 'ops', 60.0), (4, 'dan', 'hr', 50.0), "
               "(5, 'eve', NULL, NULL)")
    db.execute("INSERT INTO dept VALUES "
               "('eng', 'berlin'), ('ops', 'paris')")
    return db


PARITY_QUERIES = [
    "SELECT id, salary * 2 FROM emp WHERE salary > 55 ORDER BY id",
    "SELECT name FROM emp WHERE dept = 'eng' AND salary >= 80 "
    "OR name LIKE 'e%'",
    "SELECT dept, count(*), sum(salary) FROM emp GROUP BY dept "
    "ORDER BY dept",
    "SELECT e.name, d.city FROM emp e JOIN dept d ON e.dept = d.dept "
    "ORDER BY e.name",
    "SELECT e.name, d.city FROM emp e LEFT JOIN dept d "
    "ON e.dept = d.dept ORDER BY e.name",
    "SELECT CASE WHEN salary IS NULL THEN 'none' "
    "WHEN salary > 70 THEN 'high' ELSE 'low' END FROM emp ORDER BY id",
    "SELECT name FROM emp WHERE salary BETWEEN 55 AND 90 ORDER BY id",
    "SELECT name FROM emp WHERE dept IN ('eng', 'hr') ORDER BY id",
    "SELECT upper(name) || '-' || coalesce(dept, '?') FROM emp "
    "ORDER BY id",
    "SELECT dept, count(*) FROM emp GROUP BY dept "
    "HAVING count(*) > 1 ORDER BY dept",
    "SELECT -salary, NOT (salary > 70) FROM emp ORDER BY id",
]


def _source_rows(db, select):
    """Schema and rows every expression of ``select`` is checked on:
    the emp rows (NULLs included), or for a join every emp row paired
    with every dept row plus the NULL-padded emp rows."""
    (source,) = select.sources
    refs = ([source] if isinstance(source, ast.TableRef)
            else [source.left, source.right])
    tables = [db.catalog.get_table(ref.name) for ref in refs]
    schema = tables[0].schema.qualified(refs[0].effective_alias)
    rows = [values for _, values in tables[0].scan()]
    if len(refs) == 2:
        schema = schema.concat(
            tables[1].schema.qualified(refs[1].effective_alias))
        right = [values for _, values in tables[1].scan()]
        pad = (None,) * len(tables[1].schema)
        rows = [left + other for left in rows for other in right + [pad]]
    return schema, rows


def _checked_expressions(select):
    """Every expression of the query; an aggregate call contributes
    its argument instead (aggregates have no per-row value)."""
    found = [item.expression for item in select.items]
    found += [select.where, select.having, *select.group_by,
              *(item.expression for item in select.order_by)]
    checked = []
    for expression in found:
        if expression is None:
            continue
        if not exprs.contains_aggregate(expression):
            checked.append(expression)
            continue
        for call in exprs.find_aggregates(expression):
            checked.extend(arg for arg in call.args
                           if not isinstance(arg, ast.Star))
    return checked


def _outcome(evaluate):
    try:
        return "ok", evaluate()
    except Exception as exc:  # the error itself must match too
        return type(exc).__name__, str(exc)


class TestCompiledParity:
    """The compiled paths are an optimization, not a semantics change:
    the interpreter (:class:`exprs.Evaluator`) is the reference every
    compiled form must reproduce, value for value and error for error."""

    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_compiled_matches_interpreted(self, sql):
        select = parse_one(sql)
        schema, rows = _source_rows(make_db(), select)
        columns = [list(column) for column in zip(*rows)]
        everything = range(len(rows))
        expressions = _checked_expressions(select)
        assert expressions
        for expression in expressions:
            evaluator = exprs.Evaluator(schema)
            reference = _outcome(lambda: [
                evaluator.evaluate(expression, row) for row in rows])
            row_fn = exprs.compile_expression(expression, schema)
            batch_fn = exprs.compile_batch_expression(expression, schema)
            refine = exprs.compile_batch_predicate(expression, schema)
            assert _outcome(lambda: [row_fn(row) for row in rows]) \
                == reference, expression
            assert _outcome(lambda: list(batch_fn(columns, everything))) \
                == reference, expression
            if reference[0] == "ok":
                selected = [index for index, value
                            in enumerate(reference[1]) if value is True]
                assert list(refine(columns, everything)) == selected, \
                    expression

    def test_null_three_valued_logic(self):
        db = make_db()
        # NULL > 70 is unknown: eve must not appear in either branch
        high = db.query("SELECT name FROM emp WHERE salary > 70")
        low = db.query("SELECT name FROM emp WHERE NOT (salary > 70)")
        names = {name for (name,) in high} | {name for (name,) in low}
        assert "eve" not in names

    def test_type_mismatch_still_raises(self):
        from repro.errors import ExecutionError

        db = make_db()
        with pytest.raises(ExecutionError):
            db.query("SELECT name FROM emp WHERE name > 5")


class TestDecimalRounding:
    """round/floor/ceil must not coerce through binary float."""

    def test_round_half_up_on_decimal_boundary(self):
        # float 0.285 is really 0.28499999…; a float-based round gives
        # 0.28, the Decimal path honors the written literal
        db = Database()
        assert db.query("SELECT round(0.285, 2)") == [(0.29,)]

    def test_round_half_up_not_bankers(self):
        db = Database()
        assert db.query("SELECT round(2.5)") == [(3.0,)]
        assert db.query("SELECT round(3.5)") == [(4.0,)]

    def test_round_preserves_decimal_type(self):
        result = exprs.SCALAR_FUNCTIONS["round"](Decimal("19.995"), 2)
        assert result == Decimal("20.00")
        assert isinstance(result, Decimal)

    def test_floor_ceil_are_exact_ints(self):
        db = Database()
        assert db.query("SELECT floor(2.7), ceil(2.1)") == [(2, 3)]
        assert db.query("SELECT floor(-2.1), ceil(-2.9)") == [(-3, -2)]
        ceil = exprs.SCALAR_FUNCTIONS["ceil"]
        # a value float cannot represent: 10^16 + 1
        assert ceil(Decimal("10000000000000001")) == 10000000000000001

    def test_round_null_propagates(self):
        db = Database()
        assert db.query("SELECT round(NULL, 2)") == [(None,)]


class TestLeftJoinResidualSemantics:
    """A WHERE conjunct on a LEFT JOIN filters *results* (dropping
    null-padded rows that fail it); an ON conjunct only restricts the
    *match* (keeping the left row null-padded). The planner must never
    demote WHERE into a join residual."""

    @staticmethod
    def _db() -> Database:
        db = Database()
        db.execute("CREATE TABLE a (id integer)")
        db.execute("CREATE TABLE b (id integer, w integer)")
        db.execute("INSERT INTO a VALUES (1), (2), (3)")
        # b matches a.id=1 with small w, a.id=2 with large w; 3 unmatched
        db.execute("INSERT INTO b VALUES (1, 1), (2, 10)")
        return db

    def test_where_and_on_differ(self):
        db = self._db()
        where_rows = db.query(
            "SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.id "
            "WHERE b.w > 5 ORDER BY a.id")
        on_rows = db.query(
            "SELECT a.id, b.w FROM a LEFT JOIN b "
            "ON a.id = b.id AND b.w > 5 ORDER BY a.id")
        # WHERE: only the row whose match satisfies it survives
        assert where_rows == [(2, 10)]
        # ON: every left row survives; failed matches are null-padded
        assert on_rows == [(1, None), (2, 10), (3, None)]
        assert where_rows != on_rows

    def test_where_is_a_filter_above_the_join(self):
        db = self._db()
        lines = [row[0] for row in db.execute(
            "EXPLAIN SELECT a.id, b.w FROM a LEFT JOIN b "
            "ON a.id = b.id WHERE b.w > 5").rows]
        join_depth = next(
            line.index("HashJoin") // 2 for line in lines
            if "HashJoin" in line)
        filter_depths = [line.index("Filter") // 2 for line in lines
                         if "Filter" in line and "w > 5" in line]
        assert filter_depths, "WHERE conjunct vanished from the plan"
        assert all(depth <= join_depth for depth in filter_depths), (
            "WHERE conjunct was pushed into/below the left join")

    def test_nested_loop_left_join_where_semantics(self):
        db = self._db()
        # a non-equi ON forces NestedLoopJoin; WHERE must still filter
        rows = db.query(
            "SELECT a.id, b.w FROM a LEFT JOIN b ON a.id < b.id "
            "WHERE b.w > 5 ORDER BY a.id")
        assert rows == [(1, 10)]


class TestEmptyInputGlobalAggregate:
    @staticmethod
    def _empty() -> Database:
        db = Database()
        db.execute("CREATE TABLE t (id integer, name text, v float)")
        return db

    def test_global_aggregate_yields_one_row(self):
        db = self._empty()
        assert db.query("SELECT count(*), sum(v), min(v), max(v), "
                        "avg(v) FROM t") == [(0, None, None, None, None)]

    def test_having_suppresses_synthesized_row(self):
        db = self._empty()
        assert db.query(
            "SELECT count(*) FROM t HAVING count(*) > 0") == []

    def test_scalar_expressions_over_null_representative(self):
        # outputs mixing aggregates with bare columns evaluate those
        # columns against an all-NULL row: they must yield NULL, not
        # raise
        db = self._empty()
        assert db.query("SELECT count(*), upper(name), v + 1, "
                        "length(name) FROM t") == [(0, None, None, None)]

    def test_group_by_empty_input_yields_no_rows(self):
        db = self._empty()
        assert db.query(
            "SELECT name, count(*) FROM t GROUP BY name") == []


class TestPlanCache:
    """The plan a prepared statement keeps across executions. Text
    SELECTs plan on every call: there is no shared plan cache."""

    def test_repeats_hit(self, plans):
        db = make_db()
        prepared = db.prepare("SELECT name FROM emp WHERE id = $1")
        first = db.execute_prepared(prepared, [3]).rows
        assert first == [("cyd",)]
        for _ in range(3):
            assert db.execute_prepared(prepared, [3]).rows == first
        assert db.execute_prepared(prepared, [1]).rows == [("ada",)]
        assert len(plans) == 1
        # the text path plans every call
        db.query("SELECT name FROM emp WHERE id = 3")
        db.query("SELECT name FROM emp WHERE id = 3")
        assert len(plans) == 3

    def test_string_literals_are_not_collapsed(self):
        db = Database()
        assert db.query("SELECT 'a  b'") == [("a  b",)]
        assert db.query("SELECT 'a b'") == [("a b",)]

    def test_cached_plan_sees_new_data(self, plans):
        db = make_db()
        prepared = db.prepare("SELECT count(*) FROM emp")
        assert db.execute_prepared(prepared).rows == [(5,)]
        db.execute("INSERT INTO emp VALUES (6, 'fin', 'eng', 70.0)")
        assert db.execute_prepared(prepared).rows == [(6,)]
        assert len(plans) == 1

    def test_ddl_invalidates(self, plans):
        db = make_db()
        prepared = db.prepare("SELECT name FROM emp WHERE id = $1")
        assert db.execute_prepared(prepared, [2]).rows == [("bob",)]
        assert not any("IndexScan" in line
                       for line in explain_plan(plans[-1].root))
        db.execute("CREATE INDEX ix_emp_id ON emp (id)")
        # the re-plan must pick up the new index, not the kept scan
        assert db.execute_prepared(prepared, [2]).rows == [("bob",)]
        assert len(plans) == 2
        assert any("IndexScan" in line
                   for line in explain_plan(plans[-1].root))
        # and the new plan is kept in turn
        assert db.execute_prepared(prepared, [4]).rows == [("dan",)]
        assert len(plans) == 2

    def test_drop_and_recreate_table_is_not_served_stale(self, plans):
        db = Database()
        db.execute("CREATE TABLE t (id integer)")
        db.execute("INSERT INTO t VALUES (1)")
        prepared = db.prepare("SELECT id FROM t")
        assert db.execute_prepared(prepared).rows == [(1,)]
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id integer)")
        db.execute("INSERT INTO t VALUES (9)")
        # the kept plan scans the dropped table; it must be re-planned
        assert db.execute_prepared(prepared).rows == [(9,)]
        assert len(plans) == 2
        assert db.query("SELECT id FROM t") == [(9,)]

    def test_provenance_flag_is_part_of_the_key(self, plans):
        db = make_db()
        prepared = db.prepare("SELECT name FROM emp WHERE id = $1")
        plain = db.execute_prepared(prepared, [1])
        tracked = db.execute_prepared(prepared, [1], provenance=True)
        assert plain.rows == tracked.rows
        assert plain.lineages == [frozenset()]
        assert tracked.lineages != plain.lineages
        # and repeats of each flavor reuse their own plan
        assert db.execute_prepared(prepared, [1]).lineages == \
            plain.lineages
        assert db.execute_prepared(prepared, [1], provenance=True
                                   ).lineages == tracked.lineages
        assert len(plans) == 2

    def test_plan_costed_inside_a_transaction_is_not_kept(self, plans):
        db = make_db()
        prepared = db.prepare("SELECT count(*) FROM emp")
        db.execute("BEGIN")
        db.execute("INSERT INTO emp VALUES (9, 'ivy', 'ops', 10.0)")
        assert db.execute_prepared(prepared).rows == [(6,)]
        assert db.execute_prepared(prepared).rows == [(6,)]
        assert len(plans) == 2
        db.execute("COMMIT")
        assert db.execute_prepared(prepared).rows == [(6,)]
        assert db.execute_prepared(prepared).rows == [(6,)]
        assert len(plans) == 3

    def test_plan_is_kept_per_database(self):
        first, second = make_db(), make_db()
        second.execute("DELETE FROM emp WHERE id > 1")
        prepared = first.prepare("SELECT count(*) FROM emp")
        assert first.execute_prepared(prepared).rows == [(5,)]
        # same catalog version, different tables
        assert first.catalog.version == second.catalog.version
        assert second.execute_prepared(prepared).rows == [(1,)]

    def test_subqueries_are_never_cached(self):
        db = make_db()
        sql = ("SELECT name FROM emp WHERE salary > "
               "(SELECT avg(salary) FROM emp)")
        prepared = db.prepare(sql)
        assert not prepared.cacheable
        before = db.execute(sql)
        assert not before.cacheable
        assert db.execute_prepared(prepared).rows == before.rows
        # the subquery result is data-dependent: keeping its inlined
        # literal would freeze the threshold
        db.execute("INSERT INTO emp VALUES (8, 'hal', 'eng', 1000.0)")
        after = db.query(sql)
        assert before.rows != after
        assert db.execute_prepared(prepared).rows == after

    def test_transaction_rollback_not_confused_by_cache(self):
        db = make_db()
        sql = "SELECT count(*) FROM emp"
        prepared = db.prepare(sql)
        db.execute_prepared(prepared)
        db.execute("BEGIN")
        db.execute("INSERT INTO emp VALUES (9, 'ivy', 'ops', 10.0)")
        assert db.query(sql) == [(6,)]
        assert db.execute_prepared(prepared).rows == [(6,)]
        db.execute("ROLLBACK")
        assert db.query(sql) == [(5,)]
        assert db.execute_prepared(prepared).rows == [(5,)]


class FakeTimer:
    """A deterministic clock: each reading advances by ``step``."""

    def __init__(self, step: float = 0.5) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestExplainAnalyze:
    def test_plain_explain_is_unchanged(self):
        db = make_db()
        result = db.execute("SELECT name FROM emp WHERE id = 1")
        explain = db.execute("EXPLAIN SELECT name FROM emp WHERE id = 1")
        assert explain.kind == "explain"
        assert explain.stats == {}
        assert all("rows=" not in row[0] for row in explain.rows)
        assert result.rows == [("ada",)]

    def test_analyze_reports_exact_row_counts(self):
        db = make_db()
        result = db.execute(
            "EXPLAIN ANALYZE SELECT name FROM emp WHERE salary > 55")
        text = "\n".join(row[0] for row in result.rows)
        assert "SeqScan on emp (rows=5 " in text
        assert "Filter: salary > 55 (rows=3 " in text
        assert "Project" in text
        operators = result.stats["analyze"]["operators"]
        by_name = {entry["operator"]: entry for entry in operators}
        assert by_name["SeqScan"]["rows"] == 5
        assert by_name["Filter"]["rows"] == 3
        assert result.stats["analyze"]["rows"] == 3

    def test_analyze_uses_the_injected_clock(self):
        timer = FakeTimer(step=0.5)
        db = Database(timer=timer)
        db.execute("CREATE TABLE t (id integer)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        result = db.execute("EXPLAIN ANALYZE SELECT id FROM t")
        operators = result.stats["analyze"]["operators"]
        # every measured interval is an exact multiple of the step
        for entry in operators:
            assert entry["seconds"] > 0
            assert (entry["seconds"] / 0.5) == int(
                entry["seconds"] / 0.5)
            assert entry["loops"] == 1
        assert result.stats["analyze"]["total_seconds"] > 0

    def test_analyze_join_aggregate_tree(self):
        db = make_db()
        result = db.execute(
            "EXPLAIN ANALYZE SELECT d.city, count(*) FROM emp e "
            "JOIN dept d ON e.dept = d.dept GROUP BY d.city")
        operators = result.stats["analyze"]["operators"]
        names = [entry["operator"] for entry in operators]
        assert "HashJoin" in names
        assert "GroupAggregate" in names
        # the join feeds 3 matched rows into the aggregate
        join = next(entry for entry in operators
                    if entry["operator"] == "HashJoin")
        assert join["rows"] == 3

    def test_analyze_render_round_trip(self):
        sql = "EXPLAIN ANALYZE SELECT id FROM t"
        (statement,) = parse_sql(sql)
        assert statement.analyze
        assert render_statement(statement) == sql
        (plain,) = parse_sql("EXPLAIN SELECT id FROM t")
        assert not plain.analyze

    def test_analyze_is_never_served_from_cache(self):
        db = make_db()
        sql = "EXPLAIN ANALYZE SELECT count(*) FROM emp"
        first = db.execute(sql)
        second = db.execute(sql)

        def counters(result):
            return [(entry["operator"], entry["rows"], entry["loops"])
                    for entry in result.stats["analyze"]["operators"]]

        # counters are fresh per run, not accumulated across runs
        assert counters(first) == counters(second)


class TestExplainAnalyzeOverTheWire:
    def test_client_explain_analyze(self):
        server = DBServer(database=make_db())
        client = DBClient(server.transport())
        client.connect()
        result = client.explain_analyze(
            "SELECT dept, count(*) FROM emp GROUP BY dept")
        assert result.kind == "explain"
        assert any("GroupAggregate" in row[0] and "rows=" in row[0]
                   for row in result.rows)
        operators = result.stats["analyze"]["operators"]
        assert any(entry["operator"] == "SeqScan" and entry["rows"] == 5
                   for entry in operators)
        assert result.stats["server"]["seconds"] >= 0

    def test_stats_survive_the_wire_round_trip(self):
        db = make_db()
        result = db.execute("EXPLAIN ANALYZE SELECT count(*) FROM emp")
        frame = protocol.decode_frame(
            protocol.encode_frame(protocol.result_to_wire(result)))
        back = protocol.result_from_wire(frame)
        assert back.stats == result.stats
        assert back.rows == result.rows

    def test_old_frames_without_stats_still_decode(self):
        db = make_db()
        result = db.execute("SELECT 1")
        frame = protocol.result_to_wire(result)
        del frame["stats"]
        back = protocol.result_from_wire(frame)
        assert back.stats == {}
        assert back.rows == [(1,)]


class TestNormalizeKeySafety:
    def test_normalize_plain(self):
        assert ResultCache.normalize(" SELECT  1 \n") == "SELECT 1"

    def test_normalize_keeps_quoted_text_verbatim(self):
        sql = "SELECT 'a  b' FROM t"
        assert ResultCache.normalize(sql) == sql
