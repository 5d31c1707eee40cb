"""Parser tests: statements and the expression grammar."""

import pytest

from repro.db.sql import ast
from repro.db.sql.parser import parse_expression, parse_one, parse_sql
from repro.errors import SQLSyntaxError


class TestSelect:
    def test_simple_select(self):
        stmt = parse_one("SELECT a, b FROM t")
        assert isinstance(stmt, ast.Select)
        assert [item.expression for item in stmt.items] == [
            ast.ColumnRef("a"), ast.ColumnRef("b")]
        assert stmt.sources == (ast.TableRef("t"),)

    def test_select_star(self):
        stmt = parse_one("SELECT * FROM t")
        assert isinstance(stmt.items[0].expression, ast.Star)

    def test_select_qualified_star(self):
        stmt = parse_one("SELECT t.* FROM t")
        assert stmt.items[0].expression == ast.Star(qualifier="t")

    def test_alias_with_as(self):
        stmt = parse_one("SELECT a AS x FROM t")
        assert stmt.items[0].alias == "x"

    def test_alias_without_as(self):
        stmt = parse_one("SELECT a x FROM t")
        assert stmt.items[0].alias == "x"

    def test_table_alias(self):
        stmt = parse_one("SELECT l.a FROM lineitem l")
        assert stmt.sources[0] == ast.TableRef("lineitem", "l")

    def test_comma_join_sources(self):
        stmt = parse_one("SELECT 1 FROM a, b, c")
        assert len(stmt.sources) == 3

    def test_explicit_join(self):
        stmt = parse_one("SELECT 1 FROM a JOIN b ON a.x = b.x")
        join = stmt.sources[0]
        assert isinstance(join, ast.Join)
        assert join.kind == "inner"

    def test_left_join(self):
        stmt = parse_one("SELECT 1 FROM a LEFT JOIN b ON a.x = b.x")
        assert stmt.sources[0].kind == "left"

    def test_cross_join(self):
        stmt = parse_one("SELECT 1 FROM a CROSS JOIN b")
        assert stmt.sources[0].kind == "cross"
        assert stmt.sources[0].condition is None

    def test_where_group_having_order_limit(self):
        stmt = parse_one(
            "SELECT a, count(*) FROM t WHERE b > 1 GROUP BY a "
            "HAVING count(*) > 2 ORDER BY a DESC LIMIT 5 OFFSET 2")
        assert stmt.where is not None
        assert stmt.group_by == (ast.ColumnRef("a"),)
        assert stmt.having is not None
        assert stmt.order_by[0].descending is True
        assert stmt.limit == 5
        assert stmt.offset == 2

    def test_distinct(self):
        assert parse_one("SELECT DISTINCT a FROM t").distinct

    def test_provenance_keyword(self):
        stmt = parse_one("SELECT PROVENANCE a FROM t")
        assert stmt.provenance is True

    def test_provenance_with_distinct(self):
        stmt = parse_one("SELECT PROVENANCE DISTINCT a FROM t")
        assert stmt.provenance and stmt.distinct

    def test_select_without_from(self):
        stmt = parse_one("SELECT 1 + 2")
        assert stmt.sources == ()


class TestDML:
    def test_insert_values(self):
        stmt = parse_one("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, ast.Insert)
        assert len(stmt.rows) == 2
        assert stmt.rows[0][1] == ast.Literal("x")

    def test_insert_with_columns(self):
        stmt = parse_one("INSERT INTO t (a, b) VALUES (1, 2)")
        assert stmt.columns == ("a", "b")

    def test_insert_select(self):
        stmt = parse_one("INSERT INTO t SELECT a FROM s WHERE a > 0")
        assert stmt.query is not None
        assert stmt.rows == ()

    def test_update(self):
        stmt = parse_one("UPDATE t SET a = a + 1, b = 'z' WHERE id = 3")
        assert isinstance(stmt, ast.Update)
        assert stmt.assignments[0][0] == "a"
        assert stmt.where is not None

    def test_update_without_where(self):
        assert parse_one("UPDATE t SET a = 1").where is None

    def test_delete(self):
        stmt = parse_one("DELETE FROM t WHERE id = 1")
        assert isinstance(stmt, ast.Delete)

    def test_delete_all(self):
        assert parse_one("DELETE FROM t").where is None


class TestDDLAndCopy:
    def test_create_table(self):
        stmt = parse_one(
            "CREATE TABLE t (id integer PRIMARY KEY, name varchar(25) "
            "NOT NULL, price decimal(15,2))")
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].not_null
        assert stmt.columns[2].type_name == "decimal"

    def test_create_if_not_exists(self):
        stmt = parse_one("CREATE TABLE IF NOT EXISTS t (a integer)")
        assert stmt.if_not_exists

    def test_multi_word_type(self):
        stmt = parse_one("CREATE TABLE t (x double precision)")
        assert stmt.columns[0].type_name == "double precision"

    def test_drop_table(self):
        stmt = parse_one("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropTable)
        assert stmt.if_exists

    def test_copy_from(self):
        stmt = parse_one("COPY t FROM '/data/t.csv' WITH CSV HEADER")
        assert isinstance(stmt, ast.CopyFrom)
        assert stmt.path == "/data/t.csv"
        assert stmt.header

    def test_copy_to_with_delimiter(self):
        stmt = parse_one("COPY t TO '/x.csv' DELIMITER '|'")
        assert isinstance(stmt, ast.CopyTo)
        assert stmt.delimiter == "|"

    def test_transactions(self):
        assert isinstance(parse_one("BEGIN"), ast.Begin)
        assert isinstance(parse_one("COMMIT"), ast.Commit)
        assert isinstance(parse_one("ROLLBACK"), ast.Rollback)


class TestExpressions:
    def test_precedence_arithmetic(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr == ast.BinaryOp(
            "+", ast.Literal(1),
            ast.BinaryOp("*", ast.Literal(2), ast.Literal(3)))

    def test_precedence_and_or(self):
        expr = parse_expression("a OR b AND c")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "or"
        assert expr.right.op == "and"

    def test_not_binds_tighter_than_and(self):
        expr = parse_expression("NOT a AND b")
        assert expr.op == "and"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert expr == ast.Between(
            ast.ColumnRef("x"), ast.Literal(1), ast.Literal(10))

    def test_not_between(self):
        assert parse_expression("x NOT BETWEEN 1 AND 2").negated

    def test_between_and_boolean_and(self):
        expr = parse_expression("x BETWEEN 1 AND 2 AND y = 3")
        assert expr.op == "and"
        assert isinstance(expr.left, ast.Between)

    def test_like(self):
        expr = parse_expression("name LIKE '%abc%'")
        assert isinstance(expr, ast.Like)

    def test_not_like(self):
        assert parse_expression("name NOT LIKE 'x'").negated

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, ast.InList)
        assert len(expr.items) == 3

    def test_is_null_and_is_not_null(self):
        assert not parse_expression("x IS NULL").negated
        assert parse_expression("x IS NOT NULL").negated

    def test_unary_minus(self):
        expr = parse_expression("-x + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_function_call(self):
        expr = parse_expression("sum(price * qty)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "sum"

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert expr.args == (ast.Star(),)

    def test_count_distinct(self):
        assert parse_expression("count(DISTINCT a)").distinct

    def test_case_when(self):
        expr = parse_expression(
            "CASE WHEN a > 1 THEN 'big' ELSE 'small' END")
        assert isinstance(expr, ast.CaseWhen)
        assert expr.otherwise == ast.Literal("small")

    def test_qualified_column(self):
        assert parse_expression("t.a") == ast.ColumnRef("a", "t")

    def test_string_concat(self):
        assert parse_expression("a || b").op == "||"


class TestErrors:
    @pytest.mark.parametrize("sql", [
        "SELECT FROM t",
        "SELECT a FROM",
        "INSERT t VALUES (1)",
        "UPDATE t a = 1",
        "CREATE TABLE t",
        "COPY t '/x'",
        "SELECT a FROM t WHERE",
        "FROB x",
    ])
    def test_malformed_statement_raises(self, sql):
        with pytest.raises(SQLSyntaxError):
            parse_sql(sql)

    def test_trailing_garbage_in_expression(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("1 + 2 extra")

    def test_parse_one_rejects_multiple(self):
        with pytest.raises(SQLSyntaxError):
            parse_one("SELECT 1; SELECT 2")

    def test_multiple_statements_with_semicolons(self):
        statements = parse_sql("SELECT 1; SELECT 2;")
        assert len(statements) == 2

    def test_error_after_a_string_points_at_the_next_token(self):
        with pytest.raises(SQLSyntaxError) as info:
            parse_sql("SELECT a FROM t WHERE 'abc' 'def'")
        assert str(info.value) == "expected statement, found 'def'"
        assert info.value.position == 28

    def test_error_at_a_string_points_at_its_opening_quote(self):
        with pytest.raises(SQLSyntaxError) as info:
            parse_sql("SELECT a FROM t LIMIT 'x'")
        assert info.value.position == 22


class TestOverlongNumbers:
    """Numbers past Python's integer string conversion limit are a
    syntax error at the literal, not a bare ValueError from int()."""

    BIG = "9" * 5000

    @pytest.mark.parametrize("sql, position", [
        (f"SELECT {BIG}", 7),
        (f"SELECT a FROM t WHERE a = {BIG}", 26),
        (f"SELECT a FROM t LIMIT {BIG}", 22),
        (f"SELECT a FROM t WHERE a = ${BIG}", 26),
    ], ids=["select-list", "where", "limit", "parameter"])
    def test_rejected_at_the_literal(self, sql, position):
        with pytest.raises(SQLSyntaxError) as info:
            parse_sql(sql)
        assert str(info.value) == "number too long (5000 digits)"
        assert info.value.position == position

    def test_a_long_but_convertible_integer_still_parses(self):
        digits = "9" * 4000
        statement = parse_one(f"SELECT {digits}")
        assert statement.items[0].expression == ast.Literal(int(digits))


class TestNonAsciiDigits:
    @pytest.mark.parametrize("sql, char", [
        ("SELECT ²", "²"),
        ("SELECT ١٢", "١"),
        ("SELECT 1١", "١"),
        ("SELECT $١", "$"),
        ("INSERT INTO t VALUES (٣)", "٣"),
    ])
    def test_rejected_with_a_syntax_error(self, sql, char):
        for _ in range(3):  # also once the statement's shape is known
            with pytest.raises(SQLSyntaxError) as info:
                parse_sql(sql)
            assert str(info.value) == f"unexpected character {char!r}"

    def test_ascii_digits_still_parse(self):
        assert parse_one("SELECT 12").items[0].expression == ast.Literal(12)
