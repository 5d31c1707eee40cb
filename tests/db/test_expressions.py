"""Expression evaluator tests, including SQL three-valued logic."""

import pytest

from repro.db.expressions import (
    columns_referenced,
    contains_aggregate,
    find_aggregates,
    make_accumulator,
    sql_like,
)
from repro.db.sql import ast
from repro.db.sql.parser import parse_expression
from repro.db.types import Column, Schema, SQLType
from repro.errors import ExecutionError
from tests.db.evaluator import Evaluator

SCHEMA = Schema([
    Column("a", SQLType.INTEGER),
    Column("b", SQLType.FLOAT),
    Column("s", SQLType.TEXT),
    Column("flag", SQLType.BOOLEAN),
])


def ev(text, row=(1, 2.5, "hello", True), schema=SCHEMA):
    return Evaluator(schema).evaluate(parse_expression(text), row)


class TestArithmetic:
    def test_addition(self):
        assert ev("a + 1") == 2

    def test_float_math(self):
        assert ev("b * 2") == 5.0

    def test_integer_division_truncates(self):
        assert ev("7 / 2") == 3
        assert ev("-7 / 2") == -3

    def test_float_division(self):
        assert ev("7.0 / 2") == 3.5

    def test_modulo(self):
        assert ev("7 % 3") == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            ev("1 / 0")

    def test_unary_minus(self):
        assert ev("-a") == -1

    def test_concat_operator(self):
        assert ev("s || '!'") == "hello!"

    def test_null_propagates_through_arithmetic(self):
        assert ev("a + NULL") is None
        assert ev("NULL * 2") is None


class TestComparisons:
    def test_equality(self):
        assert ev("a = 1") is True
        assert ev("a = 2") is False

    def test_inequality_operators(self):
        assert ev("a < 2") is True
        assert ev("a >= 1") is True
        assert ev("a <> 1") is False

    def test_string_comparison(self):
        assert ev("s = 'hello'") is True
        assert ev("s < 'world'") is True

    def test_null_comparison_is_unknown(self):
        assert ev("a = NULL") is None
        assert ev("NULL = NULL") is None
        assert ev("a > NULL") is None


class TestBooleanLogic:
    def test_and_or(self):
        assert ev("a = 1 AND b > 2") is True
        assert ev("a = 2 OR b > 2") is True

    def test_kleene_and(self):
        # FALSE AND NULL = FALSE; TRUE AND NULL = NULL
        assert ev("a = 2 AND NULL = 1") is False
        assert ev("a = 1 AND NULL = 1") is None

    def test_kleene_or(self):
        # TRUE OR NULL = TRUE; FALSE OR NULL = NULL
        assert ev("a = 1 OR NULL = 1") is True
        assert ev("a = 2 OR NULL = 1") is None

    def test_not(self):
        assert ev("NOT a = 1") is False
        assert ev("NOT NULL = 1") is None

    def test_matches_treats_unknown_as_false(self):
        evaluator = Evaluator(SCHEMA)
        expr = parse_expression("a = NULL")
        assert evaluator.matches(expr, (1, 2.5, "x", True)) is False


class TestPredicates:
    def test_between(self):
        assert ev("a BETWEEN 0 AND 5") is True
        assert ev("a BETWEEN 2 AND 5") is False
        assert ev("a NOT BETWEEN 2 AND 5") is True

    def test_between_null_bound(self):
        assert ev("a BETWEEN NULL AND 5") is None
        # value above upper bound is FALSE regardless of NULL lower bound
        assert ev("a BETWEEN NULL AND 0") is False

    def test_like(self):
        assert ev("s LIKE 'he%'") is True
        assert ev("s LIKE '%lo'") is True
        assert ev("s LIKE 'h_llo'") is True
        assert ev("s LIKE 'x%'") is False
        assert ev("s NOT LIKE 'x%'") is True

    def test_like_special_chars_escaped(self):
        assert sql_like("a.b", "a.b") is True
        assert sql_like("axb", "a.b") is False  # '.' is literal

    def test_like_with_null(self):
        assert sql_like(None, "%") is None

    def test_in_list(self):
        assert ev("a IN (1, 2)") is True
        assert ev("a IN (2, 3)") is False
        assert ev("a NOT IN (2, 3)") is True

    def test_in_list_with_null_semantics(self):
        # 1 IN (2, NULL) is UNKNOWN; 1 IN (1, NULL) is TRUE
        assert ev("a IN (2, NULL)") is None
        assert ev("a IN (1, NULL)") is True
        assert ev("a NOT IN (2, NULL)") is None

    def test_is_null(self):
        assert ev("NULL IS NULL") is True
        assert ev("a IS NULL") is False
        assert ev("a IS NOT NULL") is True


class TestFunctionsAndCase:
    def test_scalar_functions(self):
        assert ev("upper(s)") == "HELLO"
        assert ev("lower('ABC')") == "abc"
        assert ev("length(s)") == 5
        assert ev("abs(-3)") == 3
        assert ev("round(2.567, 1)") == 2.6
        assert ev("coalesce(NULL, NULL, 7)") == 7
        assert ev("substr(s, 2, 3)") == "ell"

    def test_scalar_function_null_guard(self):
        assert ev("upper(NULL)") is None

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            ev("frobnicate(1)")

    def test_aggregate_outside_group_raises(self):
        with pytest.raises(ExecutionError):
            ev("sum(a)")

    def test_case_when(self):
        assert ev("CASE WHEN a = 1 THEN 'one' ELSE 'other' END") == "one"
        assert ev("CASE WHEN a = 9 THEN 'nine' END") is None

    def test_case_condition_null_falls_through(self):
        assert ev("CASE WHEN NULL = 1 THEN 'x' ELSE 'y' END") == "y"


class TestColumnResolution:
    def test_qualified_lookup(self):
        schema = SCHEMA.qualified("t")
        evaluator = Evaluator(schema)
        expr = parse_expression("t.a + 1")
        assert evaluator.evaluate(expr, (5, 0.0, "", False)) == 6

    def test_ambiguous_column_raises(self):
        joined = SCHEMA.qualified("x").concat(SCHEMA.qualified("y"))
        evaluator = Evaluator(joined)
        with pytest.raises(Exception):
            evaluator.evaluate(parse_expression("a"), (0,) * 8)


class TestAccumulators:
    def _run(self, text, values):
        call = parse_expression(text)
        accumulator = make_accumulator(call)
        for value in values:
            accumulator.add_many([value])
        return accumulator.result()

    def test_count_ignores_null(self):
        assert self._run("count(a)", [1, None, 3]) == 2

    def test_sum(self):
        assert self._run("sum(a)", [1, 2, None, 3]) == 6

    def test_sum_of_all_nulls_is_null(self):
        assert self._run("sum(a)", [None, None]) is None

    def test_avg(self):
        assert self._run("avg(a)", [2, 4, None]) == 3.0

    def test_avg_empty_is_null(self):
        assert self._run("avg(a)", []) is None

    def test_min_max(self):
        assert self._run("min(a)", [3, 1, 2]) == 1
        assert self._run("max(a)", [3, 1, 2]) == 3

    def test_count_distinct(self):
        assert self._run("count(DISTINCT a)", [1, 1, 2, None, 2]) == 2

    def test_sum_distinct(self):
        assert self._run("sum(DISTINCT a)", [5, 5, 3]) == 8

    @pytest.mark.parametrize("name", ["sum", "avg"])
    def test_distinct_folds_first_seen_values_in_order(self, name):
        # float addition is not associative: folded left to right,
        # 0.1, 0.2, 0.3 give 0.6000000000000001, right to left 0.6
        accumulator = make_accumulator(
            parse_expression(f"{name}(DISTINCT a)"))
        accumulator.add_many([0.1, 0.2, 0.1, None, 0.3])
        accumulator.add_many([0.3, 0.2])
        total = (0.1 + 0.2) + 0.3
        assert accumulator.result() == (total if name == "sum"
                                         else total / 3)


class TestAnalysisHelpers:
    def test_find_aggregates(self):
        expr = parse_expression("sum(a) + count(*) * 2")
        assert len(find_aggregates(expr)) == 2

    def test_contains_aggregate_negative(self):
        assert not contains_aggregate(parse_expression("a + b"))

    def test_columns_referenced(self):
        expr = parse_expression("t.a + b * length(s)")
        names = {ref.name for ref in columns_referenced(expr)}
        assert names == {"a", "b", "s"}
