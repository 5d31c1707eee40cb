"""Expression evaluation with SQL three-valued logic.

Two evaluation strategies share one set of semantics:

* :class:`Evaluator` interprets an AST expression against rows,
  re-walking the tree per row. It remains the reference implementation
  and the path used for one-shot evaluation (INSERT literals, UPDATE
  assignments, WAL replay).
* :func:`compile_expression` lowers an AST once into nested Python
  closures — column references become tuple indexing, constants are
  bound, comparisons and arithmetic become direct operator calls — so
  the per-row cost is a chain of function calls with no dispatch on
  node types. Batch forms (:func:`compile_batch_expression`,
  :func:`compile_batch_predicate`) evaluate over column vectors. The
  executor's operators compile their expressions once in ``__init__``.

Both paths implement identical semantics: NULL (``None``) propagates
through arithmetic and comparisons; ``AND``/``OR`` follow Kleene
logic; filters treat an unknown result as false.

Aggregate functions are *not* evaluated here — the aggregate operator in
:mod:`repro.db.executor` drives :class:`Accumulator` objects created by
:func:`make_accumulator` and evaluates the aggregate's argument
expression per input row. Aggregate *results* flow back into compiled
select-list/HAVING expressions through :class:`BindingSlots`.
"""

from __future__ import annotations

import operator as _operator
import re
from contextlib import contextmanager
from decimal import Decimal, InvalidOperation, ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_UP
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator

from repro.db.sql import ast
from repro.db.types import Schema
from repro.errors import ExecutionError

AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


# ---------------------------------------------------------------------------
# AST analysis helpers
# ---------------------------------------------------------------------------


def walk(expression: ast.Expression) -> Iterator[ast.Expression]:
    """Yield ``expression`` and all sub-expressions, depth first."""
    yield expression
    if isinstance(expression, ast.UnaryOp):
        yield from walk(expression.operand)
    elif isinstance(expression, ast.BinaryOp):
        yield from walk(expression.left)
        yield from walk(expression.right)
    elif isinstance(expression, ast.Between):
        yield from walk(expression.operand)
        yield from walk(expression.low)
        yield from walk(expression.high)
    elif isinstance(expression, ast.Like):
        yield from walk(expression.operand)
        yield from walk(expression.pattern)
    elif isinstance(expression, ast.InList):
        yield from walk(expression.operand)
        for item in expression.items:
            yield from walk(item)
    elif isinstance(expression, ast.IsNull):
        yield from walk(expression.operand)
    elif isinstance(expression, ast.FunctionCall):
        for arg in expression.args:
            yield from walk(arg)
    elif isinstance(expression, ast.CaseWhen):
        for condition, value in expression.branches:
            yield from walk(condition)
            yield from walk(value)
        if expression.otherwise is not None:
            yield from walk(expression.otherwise)


def find_aggregates(expression: ast.Expression) -> list[ast.FunctionCall]:
    """Return all aggregate function calls inside ``expression``."""
    return [node for node in walk(expression)
            if isinstance(node, ast.FunctionCall)
            and node.name in AGGREGATE_NAMES]


def contains_aggregate(expression: ast.Expression) -> bool:
    return bool(find_aggregates(expression))


def columns_referenced(expression: ast.Expression) -> list[ast.ColumnRef]:
    """All column references inside ``expression`` (with duplicates)."""
    return [node for node in walk(expression)
            if isinstance(node, ast.ColumnRef)]


# ---------------------------------------------------------------------------
# LIKE pattern matching
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (% and _) to an anchored regex."""
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


def sql_like(value: Any, pattern: Any) -> Any:
    """Evaluate ``value LIKE pattern`` with NULL propagation."""
    if value is None or pattern is None:
        return None
    return _like_regex(str(pattern)).match(str(value)) is not None


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _fn_coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _null_guard(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a scalar function so any NULL argument yields NULL."""
    def wrapped(*args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        return fn(*args)
    return wrapped


def _fn_substr(value: str, start: int, length: int | None = None) -> str:
    # SQL substr is 1-based; negative/overhang semantics follow PostgreSQL.
    begin = max(start - 1, 0)
    if length is None:
        return str(value)[begin:]
    if length < 0:
        raise ExecutionError("negative substring length")
    return str(value)[begin:begin + length]


def _as_decimal(value: Any) -> Decimal:
    """Exact decimal view of a numeric value.

    Floats go through ``str()`` (the shortest round-tripping decimal),
    so ``round(0.285, 2)`` sees the decimal ``0.285`` the user wrote,
    not the binary ``0.28499999999999998`` underneath it — the SQL
    NUMERIC reading that money columns need.
    """
    if isinstance(value, Decimal):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Decimal(value)
    try:
        return Decimal(str(value))
    except InvalidOperation as exc:
        raise ExecutionError(
            f"cannot use {value!r} as a number") from exc


def _fn_round(value: Any, digits: Any = 0) -> Any:
    quantum = Decimal(1).scaleb(-int(digits))
    rounded = _as_decimal(value).quantize(quantum, rounding=ROUND_HALF_UP)
    if isinstance(value, Decimal):
        return rounded
    return float(rounded)


def _fn_floor(value: Any) -> int:
    return int(_as_decimal(value).to_integral_value(rounding=ROUND_FLOOR))


def _fn_ceil(value: Any) -> int:
    return int(_as_decimal(value).to_integral_value(rounding=ROUND_CEILING))


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "upper": _null_guard(lambda v: str(v).upper()),
    "lower": _null_guard(lambda v: str(v).lower()),
    "length": _null_guard(lambda v: len(str(v))),
    "abs": _null_guard(abs),
    "round": _null_guard(_fn_round),
    "floor": _null_guard(_fn_floor),
    "ceil": _null_guard(_fn_ceil),
    "mod": _null_guard(lambda a, b: a % b),
    "coalesce": _fn_coalesce,
    "substr": _null_guard(_fn_substr),
    "substring": _null_guard(_fn_substr),
    "concat": lambda *args: "".join(str(a) for a in args if a is not None),
}


# ---------------------------------------------------------------------------
# Aggregate accumulators
# ---------------------------------------------------------------------------


class Accumulator:
    """Incremental aggregate state: feed values with :meth:`add`.

    :meth:`add_many` consumes a whole value vector (one batch worth);
    subclasses override it where a bulk formulation beats the per-value
    loop without changing the fold order (SUM/AVG keep the exact
    left-to-right accumulation so float results stay bit-identical to
    row-at-a-time execution).
    """

    def add(self, value: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def add_many(self, values: list) -> None:
        for value in values:
            self.add(value)

    def result(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


class _CountAll(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def add_many(self, values: list) -> None:
        self.count += len(values)

    def result(self) -> int:
        return self.count


class _Count(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def add_many(self, values: list) -> None:
        self.count += len(values) - values.count(None)

    def result(self) -> int:
        return self.count


class _Sum(Accumulator):
    def __init__(self) -> None:
        self.total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def add_many(self, values: list) -> None:
        total = self.total
        for value in values:
            if value is not None:
                total = value if total is None else total + value
        self.total = total

    def result(self) -> Any:
        return self.total


class _Avg(Accumulator):
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total += value
        self.count += 1

    def add_many(self, values: list) -> None:
        total = self.total
        count = self.count
        for value in values:
            if value is not None:
                total += value
                count += 1
        self.total = total
        self.count = count

    def result(self) -> Any:
        if self.count == 0:
            return None
        return self.total / self.count


class _Min(Accumulator):
    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def add_many(self, values: list) -> None:
        present = [value for value in values if value is not None]
        if not present:
            return
        best = min(present)
        if self.best is None or best < self.best:
            self.best = best

    def result(self) -> Any:
        return self.best


class _Max(Accumulator):
    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def add_many(self, values: list) -> None:
        present = [value for value in values if value is not None]
        if not present:
            return
        best = max(present)
        if self.best is None or best > self.best:
            self.best = best

    def result(self) -> Any:
        return self.best


class _Distinct(Accumulator):
    """Wrap another accumulator to only feed it distinct non-seen values."""

    def __init__(self, inner: Accumulator) -> None:
        self.inner = inner
        self.seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def add_many(self, values: list) -> None:
        seen = self.seen
        add = self.inner.add
        for value in values:
            if value not in seen:
                seen.add(value)
                add(value)

    def result(self) -> Any:
        return self.inner.result()


def make_accumulator(call: ast.FunctionCall) -> Accumulator:
    """Create the accumulator for an aggregate function call."""
    name = call.name
    if name == "count":
        star = len(call.args) == 1 and isinstance(call.args[0], ast.Star)
        inner: Accumulator = _CountAll() if star and not call.distinct else _Count()
    elif name == "sum":
        inner = _Sum()
    elif name == "avg":
        inner = _Avg()
    elif name == "min":
        inner = _Min()
    elif name == "max":
        inner = _Max()
    else:
        raise ExecutionError(f"unknown aggregate function {name!r}")
    if call.distinct:
        return _Distinct(inner)
    return inner


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------


def _compare(op: str, left: Any, right: Any) -> Any:
    """SQL comparison with NULL propagation."""
    if left is None or right is None:
        return None
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise ExecutionError(
            f"cannot compare {left!r} and {right!r}") from exc
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    """SQL arithmetic with NULL propagation."""
    if left is None or right is None:
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                # SQL integer division truncates toward zero
                quotient = abs(left) // abs(right)
                return quotient if (left >= 0) == (right >= 0) else -quotient
            return left / right
        if op == "%":
            if right == 0:
                raise ExecutionError("division by zero")
            return left % right
        if op == "||":
            return str(left) + str(right)
    except ExecutionError:
        raise
    except TypeError as exc:
        raise ExecutionError(
            f"bad operand types for {op!r}: {left!r}, {right!r}") from exc
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


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

    def _column_index(self, ref: ast.ColumnRef) -> int:
        key = (ref.name.lower(),
               ref.qualifier.lower() if ref.qualifier else None)
        index = self._column_cache.get(key)
        if index is None:
            index = self.schema.index_of(ref.name, ref.qualifier)
            self._column_cache[key] = index
        return index

    def evaluate(self, expression: ast.Expression, row: tuple) -> Any:
        """Evaluate ``expression`` against ``row``; NULL is ``None``."""
        if expression in self.bindings:
            return self.bindings[expression]
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.Parameter):
            return parameter_value(expression.index)
        if isinstance(expression, ast.ColumnRef):
            return row[self._column_index(expression)]
        if isinstance(expression, ast.BinaryOp):
            return self._evaluate_binary(expression, row)
        if isinstance(expression, ast.UnaryOp):
            return self._evaluate_unary(expression, row)
        if isinstance(expression, ast.Between):
            return self._evaluate_between(expression, row)
        if isinstance(expression, ast.Like):
            result = sql_like(self.evaluate(expression.operand, row),
                              self.evaluate(expression.pattern, row))
            if result is None:
                return None
            return (not result) if expression.negated else result
        if isinstance(expression, ast.InList):
            return self._evaluate_in(expression, row)
        if isinstance(expression, ast.IsNull):
            is_null = self.evaluate(expression.operand, row) is None
            return (not is_null) if expression.negated else is_null
        if isinstance(expression, ast.FunctionCall):
            return self._evaluate_function(expression, row)
        if isinstance(expression, ast.CaseWhen):
            for condition, value in expression.branches:
                if self.evaluate(condition, row) is True:
                    return self.evaluate(value, row)
            if expression.otherwise is not None:
                return self.evaluate(expression.otherwise, row)
            return None
        if isinstance(expression, ast.Star):
            raise ExecutionError("'*' is only valid in select lists/COUNT")
        raise ExecutionError(
            f"cannot evaluate expression node {type(expression).__name__}")

    def matches(self, expression: ast.Expression, row: tuple) -> bool:
        """Filter semantics: unknown (NULL) counts as false."""
        return self.evaluate(expression, row) is True

    # -- node-specific evaluation ------------------------------------------------

    def _evaluate_binary(self, node: ast.BinaryOp, row: tuple) -> Any:
        op = node.op
        if op == "and":
            left = self.evaluate(node.left, row)
            if left is False:
                return False
            right = self.evaluate(node.right, row)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "or":
            left = self.evaluate(node.left, row)
            if left is True:
                return True
            right = self.evaluate(node.right, row)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        left = self.evaluate(node.left, row)
        right = self.evaluate(node.right, row)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _compare(op, left, right)
        return _arith(op, left, right)

    def _evaluate_unary(self, node: ast.UnaryOp, row: tuple) -> Any:
        value = self.evaluate(node.operand, row)
        if node.op == "not":
            if value is None:
                return None
            return not value
        if node.op == "-":
            if value is None:
                return None
            return -value
        raise ExecutionError(f"unknown unary operator {node.op!r}")

    def _evaluate_between(self, node: ast.Between, row: tuple) -> Any:
        value = self.evaluate(node.operand, row)
        low = self.evaluate(node.low, row)
        high = self.evaluate(node.high, row)
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
        value = self.evaluate(node.operand, row)
        if value is None:
            return None
        saw_null = False
        for item in node.items:
            candidate = self.evaluate(item, row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return False if node.negated else True
        if saw_null:
            return None
        return True if node.negated else False

    def _evaluate_function(self, node: ast.FunctionCall, row: tuple) -> Any:
        if node.name in AGGREGATE_NAMES:
            raise ExecutionError(
                f"aggregate {node.name}() used outside GROUP BY context")
        fn = SCALAR_FUNCTIONS.get(node.name)
        if fn is None:
            raise ExecutionError(f"unknown function {node.name!r}")
        args = [self.evaluate(arg, row) for arg in node.args]
        return fn(*args)


# ---------------------------------------------------------------------------
# Compiled expressions
# ---------------------------------------------------------------------------


class BindingSlots:
    """Mutable value slots for expressions bound outside the row.

    The aggregate operator computes aggregate results (and group-key
    values) per group, then evaluates select-list/HAVING expressions
    that *contain* those sub-expressions. Compilation resolves each
    bound sub-expression to a slot index once; per group the operator
    only rewrites ``values`` and re-calls the compiled closures.
    """

    def __init__(self, expressions: Iterable[ast.Expression]) -> None:
        self.index: dict[ast.Expression, int] = {}
        for expression in expressions:
            if expression not in self.index:
                self.index[expression] = len(self.index)
        self.values: list[Any] = [None] * len(self.index)

    def assign(self, expression: ast.Expression, value: Any) -> None:
        self.values[self.index[expression]] = value


# Ambient parameter bindings for the statement currently executing.
# Compiled closures read this at *call* time (not compile time), so a
# plan cached for a parameterized template re-binds on every execution.
_BOUND_PARAMS: tuple | None = None


@contextmanager
def bound_parameters(values):
    """Install the positional parameter values for ``$n`` references
    evaluated inside the block. Single-threaded per statement, like
    the MVCC ambient read view."""
    global _BOUND_PARAMS
    previous = _BOUND_PARAMS
    _BOUND_PARAMS = tuple(values)
    try:
        yield
    finally:
        _BOUND_PARAMS = previous


def parameter_value(index: int) -> Any:
    """Value bound to ``$index`` (1-based); raises when unbound."""
    values = _BOUND_PARAMS
    if values is None or not (1 <= index <= len(values)):
        raise ExecutionError(f"parameter ${index} is not bound")
    return values[index - 1]


RowFunction = Callable[[tuple], Any]

_COMPARISONS: dict[str, Callable[[Any, Any], Any]] = {
    "=": _operator.eq,
    "<>": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


def compile_expression(expression: ast.Expression, schema: Schema,
                       slots: BindingSlots | None = None) -> RowFunction:
    """Lower ``expression`` once into a closure over rows of ``schema``.

    The returned callable has exactly the semantics of
    ``Evaluator(schema).evaluate(expression, row)`` (NULL propagation,
    Kleene logic, SQL integer division, scalar functions) without
    re-walking the AST per row. Sub-expressions present in ``slots``
    compile to slot reads, mirroring the Evaluator's ``bindings``.

    Name-resolution errors (unknown/ambiguous columns) surface at
    compile time — i.e. at plan time — instead of on the first row.
    """
    return _compile(expression, schema, slots)


def compile_predicate(expression: ast.Expression, schema: Schema,
                      slots: BindingSlots | None = None
                      ) -> Callable[[tuple], bool]:
    """Like :func:`compile_expression` with filter semantics: the
    result is ``True`` only for SQL TRUE (unknown counts as false)."""
    fn = compile_expression(expression, schema, slots)
    return lambda row: fn(row) is True


def _compile(node: ast.Expression, schema: Schema,
             slots: BindingSlots | None) -> RowFunction:
    if slots is not None and node in slots.index:
        values = slots.values
        position = slots.index[node]
        return lambda row: values[position]
    if isinstance(node, ast.Literal):
        value = node.value
        return lambda row: value
    if isinstance(node, ast.Parameter):
        index = node.index
        return lambda row: parameter_value(index)
    if isinstance(node, ast.ColumnRef):
        return _operator.itemgetter(schema.index_of(node.name,
                                                    node.qualifier))
    if isinstance(node, ast.BinaryOp):
        return _compile_binary(node, schema, slots)
    if isinstance(node, ast.UnaryOp):
        return _compile_unary(node, schema, slots)
    if isinstance(node, ast.Between):
        return _compile_between(node, schema, slots)
    if isinstance(node, ast.Like):
        return _compile_like(node, schema, slots)
    if isinstance(node, ast.InList):
        return _compile_in(node, schema, slots)
    if isinstance(node, ast.IsNull):
        operand = _compile(node.operand, schema, slots)
        if node.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(node, ast.FunctionCall):
        return _compile_function(node, schema, slots)
    if isinstance(node, ast.CaseWhen):
        return _compile_case(node, schema, slots)
    if isinstance(node, ast.Star):
        raise ExecutionError("'*' is only valid in select lists/COUNT")
    raise ExecutionError(
        f"cannot evaluate expression node {type(node).__name__}")


def _compile_binary(node: ast.BinaryOp, schema: Schema,
                    slots: BindingSlots | None) -> RowFunction:
    op = node.op
    left = _compile(node.left, schema, slots)
    right = _compile(node.right, schema, slots)
    if op == "and":
        def kleene_and(row: tuple) -> Any:
            lhs = left(row)
            if lhs is False:
                return False
            rhs = right(row)
            if rhs is False:
                return False
            if lhs is None or rhs is None:
                return None
            return True
        return kleene_and
    if op == "or":
        def kleene_or(row: tuple) -> Any:
            lhs = left(row)
            if lhs is True:
                return True
            rhs = right(row)
            if rhs is True:
                return True
            if lhs is None or rhs is None:
                return None
            return False
        return kleene_or
    comparison = _COMPARISONS.get(op)
    if comparison is not None:
        def compare(row: tuple) -> Any:
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            try:
                return comparison(lhs, rhs)
            except TypeError as exc:
                raise ExecutionError(
                    f"cannot compare {lhs!r} and {rhs!r}") from exc
        return compare
    if op in ("+", "-", "*"):
        arith = {"+": _operator.add, "-": _operator.sub,
                 "*": _operator.mul}[op]
        def arithmetic(row: tuple) -> Any:
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            try:
                return arith(lhs, rhs)
            except TypeError as exc:
                raise ExecutionError(
                    f"bad operand types for {op!r}: {lhs!r}, {rhs!r}"
                ) from exc
        return arithmetic
    if op in ("/", "%", "||"):
        def general(row: tuple) -> Any:
            return _arith(op, left(row), right(row))
        return general
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _compile_unary(node: ast.UnaryOp, schema: Schema,
                   slots: BindingSlots | None) -> RowFunction:
    operand = _compile(node.operand, schema, slots)
    if node.op == "not":
        def negate(row: tuple) -> Any:
            value = operand(row)
            if value is None:
                return None
            return not value
        return negate
    if node.op == "-":
        def minus(row: tuple) -> Any:
            value = operand(row)
            if value is None:
                return None
            return -value
        return minus
    raise ExecutionError(f"unknown unary operator {node.op!r}")


def _compile_between(node: ast.Between, schema: Schema,
                     slots: BindingSlots | None) -> RowFunction:
    operand = _compile(node.operand, schema, slots)
    low = _compile(node.low, schema, slots)
    high = _compile(node.high, schema, slots)
    negated = node.negated

    def between(row: tuple) -> Any:
        value = operand(row)
        lower_ok = _compare(">=", value, low(row))
        upper_ok = _compare("<=", value, high(row))
        if lower_ok is False or upper_ok is False:
            result: Any = False
        elif lower_ok is None or upper_ok is None:
            return None
        else:
            result = True
        return (not result) if negated else result
    return between


def _compile_like(node: ast.Like, schema: Schema,
                  slots: BindingSlots | None) -> RowFunction:
    operand = _compile(node.operand, schema, slots)
    negated = node.negated
    if isinstance(node.pattern, ast.Literal) and node.pattern.value is not None:
        regex = _like_regex(str(node.pattern.value))

        def like_constant(row: tuple) -> Any:
            value = operand(row)
            if value is None:
                return None
            result = regex.match(str(value)) is not None
            return (not result) if negated else result
        return like_constant
    pattern = _compile(node.pattern, schema, slots)

    def like(row: tuple) -> Any:
        result = sql_like(operand(row), pattern(row))
        if result is None:
            return None
        return (not result) if negated else result
    return like


def _compile_in(node: ast.InList, schema: Schema,
                slots: BindingSlots | None) -> RowFunction:
    operand = _compile(node.operand, schema, slots)
    negated = node.negated
    item_fns = [_compile(item, schema, slots) for item in node.items]

    def in_list(row: tuple) -> Any:
        value = operand(row)
        if value is None:
            return None
        saw_null = False
        for item_fn in item_fns:
            candidate = item_fn(row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return False if negated else True
        if saw_null:
            return None
        return True if negated else False
    return in_list


def _compile_function(node: ast.FunctionCall, schema: Schema,
                      slots: BindingSlots | None) -> RowFunction:
    if node.name in AGGREGATE_NAMES:
        raise ExecutionError(
            f"aggregate {node.name}() used outside GROUP BY context")
    fn = SCALAR_FUNCTIONS.get(node.name)
    if fn is None:
        raise ExecutionError(f"unknown function {node.name!r}")
    arg_fns = [_compile(arg, schema, slots) for arg in node.args]
    if len(arg_fns) == 1:
        only = arg_fns[0]
        return lambda row: fn(only(row))
    return lambda row: fn(*(arg_fn(row) for arg_fn in arg_fns))


def _compile_case(node: ast.CaseWhen, schema: Schema,
                  slots: BindingSlots | None) -> RowFunction:
    branches = [(_compile(condition, schema, slots),
                 _compile(value, schema, slots))
                for condition, value in node.branches]
    otherwise = (_compile(node.otherwise, schema, slots)
                 if node.otherwise is not None else None)

    def case(row: tuple) -> Any:
        for condition_fn, value_fn in branches:
            if condition_fn(row) is True:
                return value_fn(row)
        if otherwise is not None:
            return otherwise(row)
        return None
    return case


# -- batch compilation ---------------------------------------------------------
#
# The executor evaluates expressions one *batch* at a time:
# a batch is a list of column vectors plus a selection vector ``sel``
# of row positions still alive within those vectors. A batch-compiled
# expression maps (columns, sel) -> one output value per sel entry.
#
# Semantics are identical to the row compiler — same NULL propagation,
# same error messages — with two deliberate deviations, both handled
# by falling back to the row closure:
#
# * AND/OR evaluate both sides eagerly over the batch. If that raises
#   (a division error the row path would have short-circuited past),
#   the batch re-runs through the row-compiled closure, which restores
#   true short-circuit order. The fallback sticks for that closure.
# * Comparisons and + - * vectorize without per-element type checks;
#   a TypeError reruns the batch element-wise through `_compare` /
#   `_arith` so the reported error matches the row path exactly.

BatchFunction = Callable[[list, Any], list]


def _gather(column: list, sel: Any) -> list:
    """Materialize ``column`` at the positions in ``sel``.

    The identity selection (``range(0, len(column))``) returns the
    column itself — callers must not mutate gathered vectors.
    """
    if (type(sel) is range and sel.start == 0 and sel.step == 1
            and sel.stop == len(column)):
        return column
    return [column[i] for i in sel]


def _rows_at(columns: list, sel: Any) -> list:
    """Row-tuple view of a batch — the bridge back to row closures."""
    return [tuple(column[i] for column in columns) for i in sel]


def compile_batch_expression(expression: ast.Expression, schema: Schema,
                             slots: BindingSlots | None = None
                             ) -> BatchFunction:
    """Lower ``expression`` into a closure over column batches.

    The returned callable takes ``(columns, sel)`` and returns one
    value per entry of ``sel``, equal to what the row-compiled
    expression yields on the corresponding row.
    """
    return _compile_batch(expression, schema, slots)


def compile_batch_predicate(expression: ast.Expression, schema: Schema,
                            slots: BindingSlots | None = None
                            ) -> BatchFunction:
    """Filter form of :func:`compile_batch_expression`: the closure
    returns the *refined selection vector* — the subset of ``sel``
    whose rows evaluate to SQL TRUE (unknown counts as false)."""
    selector = _compile_batch_selector(expression, schema, slots)
    if selector is not None:
        return selector
    fn = compile_batch_expression(expression, schema, slots)

    def refine(columns: list, sel: Any) -> list:
        mask = fn(columns, sel)
        return [index for index, keep in zip(sel, mask) if keep is True]
    return refine


# the single-pass selector bodies; `v <op> value` must be written out
# literally per operator so the comprehension uses the native operator
# instead of a per-element call
_SELECTOR_SWEEPS: dict[str, Callable] = {
    "=": lambda value: lambda sel, operands: [
        index for index, v in zip(sel, operands)
        if v is not None and v == value],
    "<>": lambda value: lambda sel, operands: [
        index for index, v in zip(sel, operands)
        if v is not None and v != value],
    "<": lambda value: lambda sel, operands: [
        index for index, v in zip(sel, operands)
        if v is not None and v < value],
    "<=": lambda value: lambda sel, operands: [
        index for index, v in zip(sel, operands)
        if v is not None and v <= value],
    ">": lambda value: lambda sel, operands: [
        index for index, v in zip(sel, operands)
        if v is not None and v > value],
    ">=": lambda value: lambda sel, operands: [
        index for index, v in zip(sel, operands)
        if v is not None and v >= value],
}

# orient a literal-on-the-left comparison as value-on-the-right
_FLIPPED_COMPARISON = {"=": "=", "<>": "<>", "<": ">", "<=": ">=",
                       ">": "<", ">=": "<="}


def _compile_batch_selector(expression: ast.Expression, schema: Schema,
                            slots: BindingSlots | None
                            ) -> BatchFunction | None:
    """Fused compare-and-refine for ``<expr> <cmp> <literal>``.

    The hottest predicate shape skips the intermediate truth-value
    mask entirely: one comprehension pass selects the surviving
    positions with a native comparison. A TypeError re-runs the batch
    through :func:`_compare` in the original operand order, raising
    the row path's exact error."""
    if not isinstance(expression, ast.BinaryOp):
        return None
    if expression.op not in _SELECTOR_SWEEPS:
        return None
    constant = _batch_constant_operand(expression, slots)
    if constant is None:
        return None
    side, value = constant
    op = expression.op
    varying = _compile_batch(
        expression.left if side == "right" else expression.right,
        schema, slots)
    if value is None:
        # <anything> <cmp> NULL is UNKNOWN: no row survives, but the
        # varying side still evaluates so its errors surface
        def none_selected(columns: list, sel: Any) -> list:
            varying(columns, sel)
            return []
        return none_selected
    sweep = _SELECTOR_SWEEPS[op if side == "right"
                             else _FLIPPED_COMPARISON[op]](value)

    def select(columns: list, sel: Any) -> list:
        operands = varying(columns, sel)
        try:
            return sweep(sel, operands)
        except TypeError:
            if side == "right":
                mask = [_compare(op, v, value) for v in operands]
            else:
                mask = [_compare(op, value, v) for v in operands]
            return [index for index, keep in zip(sel, mask)
                    if keep is True]
    return select


def compile_fused_kernel(predicates: list, projections: list | None,
                         schema: Schema) -> Callable[[list, Any], tuple]:
    """Fuse Scan→Filter→Project into one per-batch closure.

    ``kernel(columns, sel)`` returns ``(out_columns, out_sel, picked)``
    where ``picked`` is the absolute positions that survived every
    predicate (callers gather lineage annotations with it). With
    projections the output columns are dense and ``out_sel`` is None
    (identity selection); without, the input columns pass through with
    ``out_sel is picked``.
    """
    predicate_fns = [compile_batch_predicate(predicate, schema)
                     for predicate in predicates]
    projection_fns = (None if projections is None else
                      [compile_batch_expression(projection, schema)
                       for projection in projections])

    def kernel(columns: list, sel: Any) -> tuple:
        for refine in predicate_fns:
            if not sel:
                break
            sel = refine(columns, sel)
        if projection_fns is None:
            return columns, sel, sel
        if not sel:
            return [[] for _ in projection_fns], None, sel
        return [fn(columns, sel) for fn in projection_fns], None, sel
    return kernel


def vector_safe_columns(expressions: list,
                        schema: Schema) -> set[int] | None:
    """Column positions the batch closures for ``expressions`` read,
    or None when any node may evaluate through the row bridge
    (:func:`_rows_at` touches *every* column). The planner uses this
    to prune scan materialization under a fused projection."""
    needed: set[int] = set()
    if all(_collect_safe(expression, schema, needed)
           for expression in expressions):
        return needed
    return None


def _collect_safe(node: ast.Expression, schema: Schema,
                  needed: set[int]) -> bool:
    if isinstance(node, ast.Literal):
        return True
    if isinstance(node, ast.Parameter):
        return True  # reads the ambient binding, no columns
    if isinstance(node, ast.ColumnRef):
        needed.add(schema.index_of(node.name, node.qualifier))
        return True
    if isinstance(node, ast.BinaryOp):
        if node.op in ("and", "or"):
            return False  # eager eval falls back to rows on error
        return (_collect_safe(node.left, schema, needed)
                and _collect_safe(node.right, schema, needed))
    if isinstance(node, ast.UnaryOp):
        return _collect_safe(node.operand, schema, needed)
    if isinstance(node, ast.Between):
        return (_collect_safe(node.operand, schema, needed)
                and _collect_safe(node.low, schema, needed)
                and _collect_safe(node.high, schema, needed))
    if isinstance(node, ast.Like):
        return (_collect_safe(node.operand, schema, needed)
                and _collect_safe(node.pattern, schema, needed))
    if isinstance(node, ast.InList):
        if not all(isinstance(item, ast.Literal)
                   for item in node.items):
            return False  # compiles through the row closure
        return _collect_safe(node.operand, schema, needed)
    if isinstance(node, ast.IsNull):
        return _collect_safe(node.operand, schema, needed)
    if isinstance(node, ast.FunctionCall):
        return all(_collect_safe(arg, schema, needed)
                   for arg in node.args)
    return False  # CaseWhen / exotic: row fallback


def _batch_via_rows(node: ast.Expression, schema: Schema,
                    slots: BindingSlots | None) -> BatchFunction:
    """Evaluate a batch through the row-compiled closure — the escape
    hatch for nodes with no profitable vector form (CASE, nested IN
    with expressions) and for the eager-evaluation error fallbacks."""
    row_fn = _compile(node, schema, slots)

    def via_rows(columns: list, sel: Any) -> list:
        return [row_fn(row) for row in _rows_at(columns, sel)]
    return via_rows


def _compile_batch(node: ast.Expression, schema: Schema,
                   slots: BindingSlots | None) -> BatchFunction:
    if slots is not None and node in slots.index:
        values = slots.values
        position = slots.index[node]
        return lambda columns, sel: [values[position]] * len(sel)
    if isinstance(node, ast.Literal):
        value = node.value
        return lambda columns, sel: [value] * len(sel)
    if isinstance(node, ast.Parameter):
        index = node.index
        return lambda columns, sel: [parameter_value(index)] * len(sel)
    if isinstance(node, ast.ColumnRef):
        index = schema.index_of(node.name, node.qualifier)
        return lambda columns, sel: _gather(columns[index], sel)
    if isinstance(node, ast.BinaryOp):
        return _compile_batch_binary(node, schema, slots)
    if isinstance(node, ast.UnaryOp):
        return _compile_batch_unary(node, schema, slots)
    if isinstance(node, ast.Between):
        return _compile_batch_between(node, schema, slots)
    if isinstance(node, ast.Like):
        return _compile_batch_like(node, schema, slots)
    if isinstance(node, ast.InList):
        return _compile_batch_in(node, schema, slots)
    if isinstance(node, ast.IsNull):
        operand = _compile_batch(node.operand, schema, slots)
        if node.negated:
            return lambda columns, sel: [value is not None
                                         for value in operand(columns, sel)]
        return lambda columns, sel: [value is None
                                     for value in operand(columns, sel)]
    if isinstance(node, ast.FunctionCall):
        return _compile_batch_function(node, schema, slots)
    if isinstance(node, ast.Star):
        raise ExecutionError("'*' is only valid in select lists/COUNT")
    # CaseWhen and anything exotic: correctness over vector width
    return _batch_via_rows(node, schema, slots)


def _batch_constant_operand(node: ast.BinaryOp,
                            slots: BindingSlots | None):
    """(side, value) when one operand is a plain Literal, else None."""
    for side, operand in (("right", node.right), ("left", node.left)):
        if (isinstance(operand, ast.Literal)
                and (slots is None or operand not in slots.index)):
            return side, operand.value
    return None


def _batch_op_with_constant(op: str, fast, slow, left, right,
                            constant) -> BatchFunction:
    """Comparison/arithmetic against a literal: one-operand sweep with
    the same NULL propagation and TypeError re-run as the vector
    form."""
    side, value = constant
    varying = left if side == "right" else right
    if value is None:
        # still sweep the varying side: an error it raises (division
        # by zero) must surface exactly as in the row path
        def all_null(columns: list, sel: Any) -> list:
            return [None for _ in varying(columns, sel)]
        return all_null

    if side == "right":
        def batch_constant(columns: list, sel: Any) -> list:
            operands = varying(columns, sel)
            try:
                return [None if lhs is None else fast(lhs, value)
                        for lhs in operands]
            except TypeError:
                return [slow(op, lhs, value) for lhs in operands]
    else:
        def batch_constant(columns: list, sel: Any) -> list:
            operands = varying(columns, sel)
            try:
                return [None if rhs is None else fast(value, rhs)
                        for rhs in operands]
            except TypeError:
                return [slow(op, value, rhs) for rhs in operands]
    return batch_constant


def _batch_arith_col_col(op: str, left_index: int,
                         right_index: int) -> BatchFunction:
    """Arithmetic between two plain columns: gather and combine in a
    single sweep instead of materializing both operand vectors."""
    if op == "+":
        def sweep(columns: list, sel: Any) -> list:
            ca, cb = columns[left_index], columns[right_index]
            try:
                return [None if (lhs := ca[i]) is None
                        or (rhs := cb[i]) is None else lhs + rhs
                        for i in sel]
            except TypeError:
                return [_arith(op, ca[i], cb[i]) for i in sel]
    elif op == "-":
        def sweep(columns: list, sel: Any) -> list:
            ca, cb = columns[left_index], columns[right_index]
            try:
                return [None if (lhs := ca[i]) is None
                        or (rhs := cb[i]) is None else lhs - rhs
                        for i in sel]
            except TypeError:
                return [_arith(op, ca[i], cb[i]) for i in sel]
    else:
        def sweep(columns: list, sel: Any) -> list:
            ca, cb = columns[left_index], columns[right_index]
            try:
                return [None if (lhs := ca[i]) is None
                        or (rhs := cb[i]) is None else lhs * rhs
                        for i in sel]
            except TypeError:
                return [_arith(op, ca[i], cb[i]) for i in sel]
    return sweep


def _compile_batch_binary(node: ast.BinaryOp, schema: Schema,
                          slots: BindingSlots | None) -> BatchFunction:
    op = node.op
    left = _compile_batch(node.left, schema, slots)
    right = _compile_batch(node.right, schema, slots)
    if op in ("and", "or"):
        # Eager evaluation of both sides; on an ExecutionError the row
        # closure takes over permanently to restore short-circuiting.
        row_fallback: list = []

        if op == "and":
            def combine(lhs: Any, rhs: Any) -> Any:
                if lhs is False or rhs is False:
                    return False
                if lhs is None or rhs is None:
                    return None
                return True
        else:
            def combine(lhs: Any, rhs: Any) -> Any:
                if lhs is True or rhs is True:
                    return True
                if lhs is None or rhs is None:
                    return None
                return False

        def batch_logic(columns: list, sel: Any) -> list:
            if row_fallback:
                return row_fallback[0](columns, sel)
            try:
                lefts = left(columns, sel)
                rights = right(columns, sel)
            except ExecutionError:
                row_fallback.append(_batch_via_rows(node, schema, slots))
                return row_fallback[0](columns, sel)
            return [combine(lhs, rhs) for lhs, rhs in zip(lefts, rights)]
        return batch_logic
    # a Literal operand folds into the closure: single-operand
    # comprehension, no broadcast vector, no per-element zip
    constant = _batch_constant_operand(node, slots)
    comparison = _COMPARISONS.get(op)
    if comparison is not None:
        if constant is not None:
            return _batch_op_with_constant(
                op, comparison, _compare, left, right, constant)

        def batch_compare(columns: list, sel: Any) -> list:
            lefts = left(columns, sel)
            rights = right(columns, sel)
            try:
                return [None if lhs is None or rhs is None
                        else comparison(lhs, rhs)
                        for lhs, rhs in zip(lefts, rights)]
            except TypeError:
                # rerun element-wise for the row path's exact error
                return [_compare(op, lhs, rhs)
                        for lhs, rhs in zip(lefts, rights)]
        return batch_compare
    if op in ("+", "-", "*"):
        arith = {"+": _operator.add, "-": _operator.sub,
                 "*": _operator.mul}[op]
        if constant is not None:
            return _batch_op_with_constant(
                op, arith, _arith, left, right, constant)
        if (isinstance(node.left, ast.ColumnRef)
                and isinstance(node.right, ast.ColumnRef)
                and (slots is None or (node.left not in slots.index
                                       and node.right not in slots.index))):
            return _batch_arith_col_col(
                op, schema.index_of(node.left.name, node.left.qualifier),
                schema.index_of(node.right.name, node.right.qualifier))

        def batch_arithmetic(columns: list, sel: Any) -> list:
            lefts = left(columns, sel)
            rights = right(columns, sel)
            try:
                return [None if lhs is None or rhs is None
                        else arith(lhs, rhs)
                        for lhs, rhs in zip(lefts, rights)]
            except TypeError:
                return [_arith(op, lhs, rhs)
                        for lhs, rhs in zip(lefts, rights)]
        return batch_arithmetic
    if op in ("/", "%", "||"):
        def batch_general(columns: list, sel: Any) -> list:
            lefts = left(columns, sel)
            rights = right(columns, sel)
            return [_arith(op, lhs, rhs)
                    for lhs, rhs in zip(lefts, rights)]
        return batch_general
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _compile_batch_unary(node: ast.UnaryOp, schema: Schema,
                         slots: BindingSlots | None) -> BatchFunction:
    operand = _compile_batch(node.operand, schema, slots)
    if node.op == "not":
        return lambda columns, sel: [None if value is None else (not value)
                                     for value in operand(columns, sel)]
    if node.op == "-":
        return lambda columns, sel: [None if value is None else -value
                                     for value in operand(columns, sel)]
    raise ExecutionError(f"unknown unary operator {node.op!r}")


def _compile_batch_between(node: ast.Between, schema: Schema,
                           slots: BindingSlots | None) -> BatchFunction:
    operand = _compile_batch(node.operand, schema, slots)
    low = _compile_batch(node.low, schema, slots)
    high = _compile_batch(node.high, schema, slots)
    negated = node.negated

    def batch_between(columns: list, sel: Any) -> list:
        out = []
        append = out.append
        for value, lower, upper in zip(operand(columns, sel),
                                       low(columns, sel),
                                       high(columns, sel)):
            lower_ok = _compare(">=", value, lower)
            upper_ok = _compare("<=", value, upper)
            if lower_ok is False or upper_ok is False:
                append(True if negated else False)
            elif lower_ok is None or upper_ok is None:
                append(None)
            else:
                append(False if negated else True)
        return out
    return batch_between


def _compile_batch_like(node: ast.Like, schema: Schema,
                        slots: BindingSlots | None) -> BatchFunction:
    operand = _compile_batch(node.operand, schema, slots)
    negated = node.negated
    if isinstance(node.pattern, ast.Literal) and node.pattern.value is not None:
        match = _like_regex(str(node.pattern.value)).match

        def batch_like_constant(columns: list, sel: Any) -> list:
            return [None if value is None
                    else ((match(str(value)) is None) if negated
                          else (match(str(value)) is not None))
                    for value in operand(columns, sel)]
        return batch_like_constant
    pattern = _compile_batch(node.pattern, schema, slots)

    def batch_like(columns: list, sel: Any) -> list:
        out = []
        for value, pat in zip(operand(columns, sel), pattern(columns, sel)):
            result = sql_like(value, pat)
            out.append(None if result is None
                       else ((not result) if negated else result))
        return out
    return batch_like


def _compile_batch_in(node: ast.InList, schema: Schema,
                      slots: BindingSlots | None) -> BatchFunction:
    if not all(isinstance(item, ast.Literal) for item in node.items):
        return _batch_via_rows(node, schema, slots)
    operand = _compile_batch(node.operand, schema, slots)
    negated = node.negated
    literals = [item.value for item in node.items]
    members = {value for value in literals if value is not None}
    saw_null = any(value is None for value in literals)
    on_hit = not negated
    on_miss = None if saw_null else negated

    def batch_in(columns: list, sel: Any) -> list:
        return [None if value is None
                else (on_hit if value in members else on_miss)
                for value in operand(columns, sel)]
    return batch_in


def _compile_batch_function(node: ast.FunctionCall, schema: Schema,
                            slots: BindingSlots | None) -> BatchFunction:
    if node.name in AGGREGATE_NAMES:
        raise ExecutionError(
            f"aggregate {node.name}() used outside GROUP BY context")
    fn = SCALAR_FUNCTIONS.get(node.name)
    if fn is None:
        raise ExecutionError(f"unknown function {node.name!r}")
    arg_fns = [_compile_batch(arg, schema, slots) for arg in node.args]
    if len(arg_fns) == 1:
        only = arg_fns[0]
        return lambda columns, sel: [fn(value)
                                     for value in only(columns, sel)]
    if not arg_fns:
        return lambda columns, sel: [fn() for _ in sel]

    def batch_call(columns: list, sel: Any) -> list:
        vectors = [arg_fn(columns, sel) for arg_fn in arg_fns]
        return [fn(*args) for args in zip(*vectors)]
    return batch_call
