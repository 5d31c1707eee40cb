"""Query-engine fast path: compiled expressions, planning on every
call beside the server's result cache, EXPLAIN ANALYZE — plus regression tests for the
executor correctness fixes that shipped with it (Decimal-safe rounding,
LEFT-join WHERE vs ON semantics, empty-input global aggregates).
"""

from __future__ import annotations

import random
from decimal import Decimal

import pytest

from repro.db import protocol
from repro.db import expressions as exprs
from repro.db.client import DBClient
from repro.db.engine import Database
from repro.db.executor import RowBatch
from repro.db.planner import explain_plan
from repro.db.server import DBServer, ResultCache
from repro.db.sql import ast
from repro.db.sql.parser import parse_one, parse_sql
from repro.db.sql.render import render_expression, render_statement
from repro.db.types import Column, Schema, SQLType
from repro.errors import ExecutionError


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
            # a batch with row tuples (as scans produce) and one that
            # must transpose its columns
            for row_major in (rows, None):
                batch = RowBatch(columns, len(rows), None, None, row_major)
                assert _outcome(lambda: list(batch_fn(batch))) \
                    == reference, expression
            if reference[0] == "ok":
                selected = [index for index, value
                            in enumerate(reference[1]) if value is True]
                batch = RowBatch(columns, len(rows))
                assert list(refine(batch)) == selected, expression

    def test_null_three_valued_logic(self):
        db = make_db()
        # NULL > 70 is unknown: eve must not appear in either branch
        high = db.query("SELECT name FROM emp WHERE salary > 70")
        low = db.query("SELECT name FROM emp WHERE NOT (salary > 70)")
        names = {name for (name,) in high} | {name for (name,) in low}
        assert "eve" not in names

    def test_type_mismatch_still_raises(self):
        db = make_db()
        with pytest.raises(ExecutionError):
            db.query("SELECT name FROM emp WHERE name > 5")


# -- seeded expression-parity fuzz --------------------------------------------

FUZZ_SEED_COUNT = 3           # CI widens the sweep with --seeds 30
FUZZ_EXPRESSIONS = 400        # random expressions per seed

FUZZ_SCHEMA = Schema([Column("i", SQLType.INTEGER),
                      Column("j", SQLType.INTEGER),
                      Column("f", SQLType.FLOAT),
                      Column("s", SQLType.TEXT),
                      Column("m", SQLType.TEXT)])
FUZZ_VALUES = {                 # per column; m mixes types on purpose
    "i": [None, -7, -2, 0, 3, 9],
    "j": [None, -3, -1, 0, 0, 2],
    "f": [None, -2.5, 0.0, 0.5, 4.0],
    "s": [None, "", "amber", "a%b", "Teal", "_x"],
    "m": [None, 0, 5, -1.5, "7", "teal"],
}
FUZZ_LITERALS = [None, True, False, -4, -1, 0, 2, 7, 1.5, "", "a%",
                 "amber", "%e%"]
FUZZ_BINARY = ["and", "or", "=", "<>", "<", "<=", ">", ">=",
               "+", "-", "*", "/", "%", "||"]
# a valid argument count per scalar function
FUZZ_FUNCTIONS = {"upper": 1, "lower": 1, "length": 1, "abs": 1,
                  "round": 2, "floor": 1, "ceil": 1, "mod": 2,
                  "coalesce": 2, "substr": 3, "concat": 2}


def pytest_generate_tests(metafunc):
    if "parity_seed" in metafunc.fixturenames:
        count = metafunc.config.getoption("--seeds") or FUZZ_SEED_COUNT
        metafunc.parametrize("parity_seed", range(count),
                             ids=lambda seed: f"seed{seed}")


def _fuzz_leaf(rng):
    if rng.random() < 0.5:
        return ast.ColumnRef(rng.choice(FUZZ_SCHEMA.column_names()))
    return ast.Literal(rng.choice(FUZZ_LITERALS))


def _fuzz_expression(rng, depth):
    """A random expression tree over FUZZ_SCHEMA, ``depth`` deep."""
    if depth == 0 or rng.random() < 0.2:
        return _fuzz_leaf(rng)

    def sub():
        return _fuzz_expression(rng, depth - 1)

    negated = rng.random() < 0.3
    kind = rng.randrange(10)
    if kind == 0:
        return ast.UnaryOp(rng.choice(["not", "-"]), sub())
    if kind in (1, 2, 3):
        return ast.BinaryOp(rng.choice(FUZZ_BINARY), sub(), sub())
    if kind == 4:
        return ast.Between(sub(), sub(), sub(), negated)
    if kind == 5:
        pattern = (ast.Literal(rng.choice(["a%", "%e%", "_x", "T%"]))
                   if rng.random() < 0.7 else sub())
        return ast.Like(sub(), pattern, negated)
    if kind == 6:
        return ast.InList(sub(), tuple(sub() for _ in
                                       range(rng.randint(1, 3))), negated)
    if kind == 7:
        return ast.IsNull(sub(), negated)
    if kind == 8:
        name = rng.choice(sorted(FUZZ_FUNCTIONS))
        arity = (FUZZ_FUNCTIONS[name] if rng.random() < 0.85
                 else rng.randint(0, 3))
        return ast.FunctionCall(name, tuple(sub() for _ in range(arity)))
    otherwise = sub() if rng.random() < 0.5 else None
    return ast.CaseWhen(((sub(), sub()),), otherwise)


def _fuzz_case(rng):
    """Mostly a random tree; one case in five is the shape a batch
    vector form takes (``<column> <op> <leaf>``)."""
    if rng.random() < 0.2:
        return ast.BinaryOp(
            rng.choice(["=", "<>", "<", "<=", ">", ">=", "+", "-", "*"]),
            ast.ColumnRef(rng.choice(FUZZ_SCHEMA.column_names())),
            _fuzz_leaf(rng))
    return _fuzz_expression(rng, 3)


def _row_values(expression, rows):
    fn = exprs.compile_expression(expression, FUZZ_SCHEMA)
    return [fn(row) for row in rows]


@pytest.mark.differential
def test_expression_parity_fuzz(parity_seed):
    """Row closures, batch closures and batch predicates agree with the
    Evaluator on random expressions over NULL-laden, mixed-type rows:
    the same values, or the same error (type and message) as the first
    failing row."""
    rng = random.Random(parity_seed)
    rows = [tuple(rng.choice(FUZZ_VALUES[name])
                  for name in FUZZ_SCHEMA.column_names())
            for _ in range(rng.randint(8, 16))]
    columns = [list(column) for column in zip(*rows)]
    evaluator = exprs.Evaluator(FUZZ_SCHEMA)
    for case in range(FUZZ_EXPRESSIONS):
        expression = _fuzz_case(rng)
        subset = sorted(rng.sample(range(len(rows)),
                                   rng.randint(1, len(rows))))
        for sel in (None, subset):
            picked = rows if sel is None else [rows[i] for i in sel]
            positions = range(len(rows)) if sel is None else sel
            where = (f"seed {parity_seed}, case {case}, "
                     f"{'all rows' if sel is None else sel}: "
                     f"{render_expression(expression)}")
            reference = _outcome(lambda: [
                evaluator.evaluate(expression, row) for row in picked])
            assert _outcome(lambda: _row_values(expression, picked)) \
                == reference, where
            if reference[0] == "ok":
                expected = [position for position, value
                            in zip(positions, reference[1])
                            if value is True]
                selected = ("ok", expected)
            else:
                selected = reference
            for row_major in (rows, None):
                batch = RowBatch(columns, len(rows), None, sel, row_major)
                assert _outcome(lambda: list(exprs.compile_batch_expression(
                    expression, FUZZ_SCHEMA)(batch))) == reference, where
                batch = RowBatch(columns, len(rows), None, sel, row_major)
                assert _outcome(lambda: list(exprs.compile_batch_predicate(
                    expression, FUZZ_SCHEMA)(batch))) == selected, where


BAD_SCALAR_CALLS = [
    ("-s", "bad operand type for unary '-': 'abc'"),
    ("abs(s)", "bad arguments for abs(): 'abc'"),
    ("floor(a, a)", "floor() takes 1 argument, got 2"),
    ("upper(s, s)", "upper() takes 1 argument, got 2"),
    ("length()", "length() takes 1 argument, got 0"),
    ("substr(s, s)", "bad arguments for substr(): 'abc', 'abc'"),
    ("mod(a, 0)", "division by zero"),
    ("mod(s, a)", "bad arguments for mod(): 'abc', -7"),
    # text has no + or * (Python's would concatenate or repeat it): the
    # row closure, then the column-column vector form
    ("3 * s", "bad operand types for '*': 3, 'abc'"),
    ("s + 'x'", "bad operand types for '+': 'abc', 'x'"),
    ("s + s", "bad operand types for '+': 'abc', 'abc'"),
    ("s * a", "bad operand types for '*': 'abc', -7"),
    ("s - s", "bad operand types for '-': 'abc', 'abc'"),
    # only a boolean has a negation
    ("NOT s", "bad operand type for NOT: 'abc'"),
    ("NOT a", "bad operand type for NOT: -7"),
    ("NOT 0", "bad operand type for NOT: 0"),
]


def make_scalar_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE v (a integer, s text)")
    db.execute("INSERT INTO v VALUES (-7, 'abc')")
    return db


class TestScalarErrors:
    """A bad operand or argument list fails as one typed, one-line
    ExecutionError, in the engine and over the wire alike, never as a
    raw Python TypeError or ZeroDivisionError."""

    @pytest.mark.parametrize("expression, message", BAD_SCALAR_CALLS)
    def test_engine_raises_execution_error(self, expression, message):
        with pytest.raises(ExecutionError) as raised:
            make_scalar_db().execute(f"SELECT {expression} FROM v")
        assert str(raised.value) == message

    @pytest.mark.parametrize("expression, message", BAD_SCALAR_CALLS)
    def test_interpreter_raises_execution_error(self, expression, message):
        db = make_scalar_db()
        evaluator = exprs.Evaluator(db.catalog.get_table("v").schema)
        with pytest.raises(ExecutionError) as raised:
            evaluator.evaluate(parse_one(f"SELECT {expression}").items[0]
                               .expression, (-7, "abc"))
        assert str(raised.value) == message

    @pytest.mark.parametrize("expression, message", BAD_SCALAR_CALLS)
    def test_wire_carries_execution_error(self, expression, message):
        client = DBClient(DBServer(database=make_scalar_db()).transport())
        client.connect()
        with pytest.raises(ExecutionError) as raised:
            client.query(f"SELECT {expression} FROM v")
        assert str(raised.value) == message

    def test_integer_remainder_takes_the_dividend_sign(self):
        db = make_scalar_db()
        assert db.query("SELECT a % 3, mod(a, 3), a % -3, a / 3 "
                        "FROM v") == [(-1, -1, -1, -2)]
        # a = (a / b) * b + a % b, as in sqlite3 and PostgreSQL
        assert db.query("SELECT (a / 3) * 3 + a % 3 FROM v") == [(-7,)]

    def test_float_remainder_takes_the_dividend_sign(self):
        db = make_scalar_db()
        assert db.query("SELECT -7.5 % 2, mod(-7.5, 2), 7.5 % -2, "
                        "a % 2.5, mod(a, -2.5) FROM v") == \
            [(-1.5, -1.5, 1.5, -2.0, -2.0)]
        evaluator = exprs.Evaluator(db.catalog.get_table("v").schema)
        assert evaluator.evaluate(parse_one("SELECT -7.5 % 2").items[0]
                                  .expression, (-7, "abc")) == -1.5

    def test_not_keeps_null_and_negates_booleans(self):
        db = make_scalar_db()
        assert db.query("SELECT NOT NULL, NOT (a < 0), NOT (s = 'x') "
                        "FROM v") == [(None, False, True)]


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


def serve(db: Database) -> tuple[DBServer, DBClient]:
    """``db`` behind a server, with one connected client."""
    server = DBServer(db)
    client = DBClient(server.transport(), "app", "p1")
    client.connect()
    return server, client


class TestPlanCache:
    """There is no plan cache: every statement is parsed (repeated
    shapes through the parser's shape cache) and planned when it runs.
    The server's result cache is the one place a result is kept, and
    nothing stale may come from it."""

    def test_text_plans_every_call(self, plans):
        db = make_db()
        for _ in range(3):
            assert db.query("SELECT name FROM emp WHERE id = 3") == \
                [("cyd",)]
        assert len(plans) == 3

    def test_string_literals_are_not_collapsed(self):
        db = Database()
        assert db.query("SELECT 'a  b'") == [("a  b",)]
        assert db.query("SELECT 'a b'") == [("a b",)]

    def test_ddl_invalidates(self, plans):
        server, client = serve(make_db())
        sql = "SELECT name FROM emp WHERE id = 2"
        assert client.query(sql) == [("bob",)]
        assert not any("IndexScan" in line
                       for line in explain_plan(plans[-1].root))
        assert client.query(sql) == [("bob",)]  # from the result cache
        assert len(plans) == 1
        client.execute("CREATE INDEX ix_emp_id ON emp (id)")
        # the cached result is dropped and the new plan probes the index
        assert client.query(sql) == [("bob",)]
        assert len(plans) == 2
        assert any("IndexScan" in line
                   for line in explain_plan(plans[-1].root))
        assert server.result_cache.counters()["invalidations"] == 1

    def test_drop_and_recreate_table_is_not_served_stale(self):
        server, client = serve(Database())
        client.execute("CREATE TABLE t (id integer)")
        client.execute("INSERT INTO t VALUES (1)")
        assert client.query("SELECT id FROM t") == [(1,)]
        client.execute("DROP TABLE t")
        client.execute("CREATE TABLE t (id integer)")
        client.execute("INSERT INTO t VALUES (9)")
        assert client.query("SELECT id FROM t") == [(9,)]
        assert server.result_cache.counters()["hits"] == 0

    def test_provenance_flag_is_part_of_the_key(self):
        server, client = serve(make_db())
        sql = "SELECT name FROM emp WHERE id = 1"
        plain = client.execute(sql)
        tracked = client.execute(sql, provenance=True)
        assert plain.rows == tracked.rows
        assert plain.lineages == [frozenset()]
        assert tracked.lineages != plain.lineages
        # a repeat of each flavour hits its own cache entry
        assert client.execute(sql).lineages == plain.lineages
        assert client.execute(sql, provenance=True).lineages == \
            tracked.lineages
        assert server.result_cache.counters()["hits"] == 2

    def test_subqueries_are_never_cached(self):
        db = make_db()
        sql = ("SELECT name FROM emp WHERE salary > "
               "(SELECT avg(salary) FROM emp)")
        before = db.execute(sql)
        assert not before.cacheable
        # the subquery result is data-dependent: keeping its inlined
        # literal would freeze the threshold
        db.execute("INSERT INTO emp VALUES (8, 'hal', 'eng', 1000.0)")
        after = db.execute(sql)
        assert before.rows != after.rows
        assert not after.cacheable

    def test_transaction_rollback_not_confused_by_cache(self):
        server, client = serve(make_db())
        sql = "SELECT count(*) FROM emp"
        assert client.query(sql) == [(5,)]
        client.begin()
        client.execute("INSERT INTO emp VALUES (9, 'ivy', 'ops', 10.0)")
        assert client.query(sql) == [(6,)]
        client.rollback()
        assert client.query(sql) == [(5,)]
        assert server.result_cache.counters()["hits"] == 1


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
