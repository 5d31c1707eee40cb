"""The AST interpreter, kept as the oracle for the compiled closures.

:class:`Evaluator` interprets an expression against a row by re-walking
the tree on every call. No execution path uses it: the engine runs
:func:`repro.db.expressions.compile_expression`'s closures, and the
tests (and ``benchmarks/test_microbench_engine.py``'s compiled-vs-
interpreted gate) check those closures against this reading, value for
value and error for error. It reads ``+``, ``-`` and ``*`` on its own;
the other scalar operators (``_compare``, ``_arith``, ...) and the
scalar function table it shares with the compiler.
"""

from __future__ import annotations

from typing import Any

from repro.db.expressions import (
    AGGREGATE_NAMES,
    _arith,
    _bad_operands,
    _call_scalar,
    _compare,
    _logical_not,
    _negate,
    _scalar_function,
    _unevaluable,
    sql_like,
    walk,
)
from repro.db.sql import ast
from repro.db.types import Schema
from repro.errors import ExecutionError


def _add_subtract_multiply(op: str, left: Any, right: Any) -> Any:
    """SQL ``+``, ``-`` and ``*`` with NULL propagation, read on its
    own: ``+`` and ``*`` are not defined on text (Python's would
    concatenate or repeat it)."""
    if left is None or right is None:
        return None
    if op in ("+", "*") and (isinstance(left, str)
                             or isinstance(right, str)):
        raise _bad_operands(op, left, right)
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        return left * right
    except TypeError as exc:
        raise _bad_operands(op, left, right) from exc


class Evaluator:
    """Evaluates expressions against rows of a fixed schema.

    Aggregate function calls can be *pre-bound* to computed values via
    ``bindings`` (used by the aggregate operator to substitute aggregate
    results when evaluating HAVING / select-list expressions).
    """

    def __init__(self, schema: Schema,
                 bindings: dict[ast.Expression, Any] | None = None) -> None:
        self.schema = schema
        self.bindings = bindings or {}
        self._column_cache: dict[tuple[str, str | None], int] = {}
        self._resolved: set[ast.Expression] = set()

    def _column_index(self, ref: ast.ColumnRef) -> int:
        key = (ref.name.lower(),
               ref.qualifier.lower() if ref.qualifier else None)
        index = self._column_cache.get(key)
        if index is None:
            index = self.schema.index_of(ref.name, ref.qualifier)
            self._column_cache[key] = index
        return index

    def evaluate(self, expression: ast.Expression, row: tuple) -> Any:
        """Evaluate ``expression`` against ``row``; NULL is ``None``.

        The first call resolves every scalar function call up front, as
        compilation does, so a bad name or argument count fails before
        any operand is evaluated.
        """
        if expression not in self._resolved:
            for node in walk(expression):
                if (isinstance(node, ast.FunctionCall)
                        and node.name not in AGGREGATE_NAMES):
                    _scalar_function(node)
            self._resolved.add(expression)
        return self._evaluate(expression, row)

    def _evaluate(self, expression: ast.Expression, row: tuple) -> Any:
        if expression in self.bindings:
            return self.bindings[expression]
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.ColumnRef):
            return row[self._column_index(expression)]
        if isinstance(expression, ast.BinaryOp):
            return self._evaluate_binary(expression, row)
        if isinstance(expression, ast.UnaryOp):
            return self._evaluate_unary(expression, row)
        if isinstance(expression, ast.Between):
            return self._evaluate_between(expression, row)
        if isinstance(expression, ast.Like):
            result = sql_like(self._evaluate(expression.operand, row),
                              self._evaluate(expression.pattern, row))
            if result is None:
                return None
            return (not result) if expression.negated else result
        if isinstance(expression, ast.InList):
            return self._evaluate_in(expression, row)
        if isinstance(expression, ast.IsNull):
            is_null = self._evaluate(expression.operand, row) is None
            return (not is_null) if expression.negated else is_null
        if isinstance(expression, ast.FunctionCall):
            return self._evaluate_function(expression, row)
        if isinstance(expression, ast.CaseWhen):
            for condition, value in expression.branches:
                if self._evaluate(condition, row) is True:
                    return self._evaluate(value, row)
            if expression.otherwise is not None:
                return self._evaluate(expression.otherwise, row)
            return None
        raise _unevaluable(expression)

    def matches(self, expression: ast.Expression, row: tuple) -> bool:
        """Filter semantics: unknown (NULL) counts as false."""
        return self.evaluate(expression, row) is True

    # -- node-specific evaluation ------------------------------------------------

    def _evaluate_binary(self, node: ast.BinaryOp, row: tuple) -> Any:
        op = node.op
        if op == "and":
            left = self._evaluate(node.left, row)
            if left is False:
                return False
            right = self._evaluate(node.right, row)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "or":
            left = self._evaluate(node.left, row)
            if left is True:
                return True
            right = self._evaluate(node.right, row)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        left = self._evaluate(node.left, row)
        right = self._evaluate(node.right, row)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _compare(op, left, right)
        if op in ("+", "-", "*"):
            return _add_subtract_multiply(op, left, right)
        return _arith(op, left, right)

    def _evaluate_unary(self, node: ast.UnaryOp, row: tuple) -> Any:
        value = self._evaluate(node.operand, row)
        if node.op == "not":
            return _logical_not(value)
        if node.op == "-":
            return _negate(value)
        raise ExecutionError(f"unknown unary operator {node.op!r}")

    def _evaluate_between(self, node: ast.Between, row: tuple) -> Any:
        value = self._evaluate(node.operand, row)
        low = self._evaluate(node.low, row)
        high = self._evaluate(node.high, row)
        lower_ok = _compare(">=", value, low)
        upper_ok = _compare("<=", value, high)
        if lower_ok is False or upper_ok is False:
            result: Any = False
        elif lower_ok is None or upper_ok is None:
            result = None
        else:
            result = True
        if result is None:
            return None
        return (not result) if node.negated else result

    def _evaluate_in(self, node: ast.InList, row: tuple) -> Any:
        value = self._evaluate(node.operand, row)
        if value is None:
            return None
        saw_null = False
        for item in node.items:
            candidate = self._evaluate(item, row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return False if node.negated else True
        if saw_null:
            return None
        return True if node.negated else False

    def _evaluate_function(self, node: ast.FunctionCall, row: tuple) -> Any:
        fn = _scalar_function(node)
        args = [self._evaluate(arg, row) for arg in node.args]
        return _call_scalar(node.name, fn, args)
