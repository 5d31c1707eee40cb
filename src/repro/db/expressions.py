"""Expression evaluation with SQL three-valued logic.

:func:`compile_expression` lowers an AST once into nested Python
closures over row tuples — column references become tuple indexing,
constants are bound, comparisons and arithmetic become direct operator
calls — so the per-row cost is a chain of function calls with no
dispatch on node types. These row closures are the engine's one
implementation of expression semantics. The executor's operators
compile their expressions once in ``__init__``; the engine compiles
DML WHERE clauses, UPDATE assignments and INSERT literals the same
way. The batch entry points (:func:`compile_batch_expression`,
:func:`compile_batch_predicate`) map the row closure over a batch's
selected rows, plus three vector forms that measured faster.

:class:`Evaluator` interprets an AST against a row by re-walking the
tree. No execution path uses it: it is the reference the tests check
the compiled closures against, value for value and error for error.

Semantics: NULL (``None``) propagates through arithmetic and
comparisons; ``AND``/``OR`` follow Kleene logic; filters treat an
unknown result as false. Integer ``/`` truncates toward zero and ``%``
(integer or float) takes the dividend's sign, as in PostgreSQL.
``+`` and ``*`` are not defined on text, nor ``NOT`` on anything but a
boolean. Evaluation errors surface as one-line
:class:`ExecutionError` messages, never as raw Python exceptions.

Aggregate functions are *not* evaluated here — the aggregate operator in
:mod:`repro.db.executor` drives :class:`Accumulator` objects created by
:func:`make_accumulator` and evaluates the aggregate's argument
expression per input row. Aggregate *results* flow back into compiled
select-list/HAVING expressions through :class:`BindingSlots`.
"""

from __future__ import annotations

import math
import operator as _operator
import re
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


def _modulo(left: Any, right: Any) -> Any:
    """SQL remainder of two non-NULL values. The remainder takes the
    dividend's sign, integer or float, as in PostgreSQL, so
    ``a = (a / b) * b + a % b`` holds with the engine's truncating
    integer ``/``."""
    if right == 0:
        raise ExecutionError("division by zero")
    if isinstance(left, str) or isinstance(right, str):
        # Python's str % is string formatting, not a remainder
        raise TypeError("remainder of a string")
    if isinstance(left, int) and isinstance(right, int):
        remainder = abs(left) % abs(right)
        return remainder if left >= 0 else -remainder
    return math.fmod(left, right)


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "upper": _null_guard(lambda v: str(v).upper()),
    "lower": _null_guard(lambda v: str(v).lower()),
    "length": _null_guard(lambda v: len(str(v))),
    "abs": _null_guard(abs),
    "round": _null_guard(_fn_round),
    "floor": _null_guard(_fn_floor),
    "ceil": _null_guard(_fn_ceil),
    "mod": _null_guard(_modulo),
    "coalesce": _fn_coalesce,
    "substr": _null_guard(_fn_substr),
    "substring": _null_guard(_fn_substr),
    "concat": lambda *args: "".join(str(a) for a in args if a is not None),
}

# (fewest, most) arguments each scalar function takes; None: no limit
_ARITY: dict[str, tuple[int, int | None]] = {
    "upper": (1, 1), "lower": (1, 1), "length": (1, 1), "abs": (1, 1),
    "round": (1, 2), "floor": (1, 1), "ceil": (1, 1), "mod": (2, 2),
    "coalesce": (0, None), "substr": (2, 3), "substring": (2, 3),
    "concat": (0, None),
}


def _scalar_function(node: ast.FunctionCall) -> Callable[..., Any]:
    """The scalar function ``node`` calls, after checking its name and
    its argument count."""
    if node.name in AGGREGATE_NAMES:
        raise ExecutionError(
            f"aggregate {node.name}() used outside GROUP BY context")
    fn = SCALAR_FUNCTIONS.get(node.name)
    if fn is None:
        raise ExecutionError(f"unknown function {node.name!r}")
    fewest, most = _ARITY[node.name]
    count = len(node.args)
    if count < fewest or (most is not None and count > most):
        expected = (f"{fewest} argument{'s' if fewest > 1 else ''}"
                    if fewest == most else f"{fewest} to {most} arguments")
        raise ExecutionError(
            f"{node.name}() takes {expected}, got {count}")
    return fn


def _call_scalar(name: str, fn: Callable[..., Any], args: list) -> Any:
    """Call a scalar function, turning a Python error about its
    argument values into a one-line :class:`ExecutionError`."""
    try:
        return fn(*args)
    except (TypeError, ValueError, ArithmeticError) as exc:
        rendered = ", ".join(repr(arg) for arg in args)
        raise ExecutionError(
            f"bad arguments for {name}(): {rendered}") from exc


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


def _negate(value: Any) -> Any:
    """SQL unary minus with NULL propagation."""
    if value is None:
        return None
    try:
        return -value
    except TypeError as exc:
        raise ExecutionError(
            f"bad operand type for unary '-': {value!r}") from exc


def _bad_operands(op: str, left: Any, right: Any) -> ExecutionError:
    return ExecutionError(
        f"bad operand types for {op!r}: {left!r}, {right!r}")


def _logical_not(value: Any) -> Any:
    """SQL NOT: NULL stays NULL, and only a boolean has a negation."""
    if value is None:
        return None
    if value is True or value is False:
        return not value
    raise ExecutionError(f"bad operand type for NOT: {value!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    """SQL arithmetic with NULL propagation. ``+`` and ``*`` are not
    defined on text (Python's would concatenate or repeat it)."""
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
            return _modulo(left, right)
        if op == "||":
            return str(left) + str(right)
    except ExecutionError:
        raise
    except TypeError as exc:
        raise _bad_operands(op, left, right) from exc
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


def _unevaluable(node: ast.Expression) -> ExecutionError:
    """The error for a node no expression path evaluates. Statements
    run as text, so nothing binds a ``$n`` placeholder left in one."""
    if isinstance(node, ast.Star):
        return ExecutionError("'*' is only valid in select lists/COUNT")
    if isinstance(node, ast.Parameter):
        return ExecutionError(f"parameter ${node.index} is not bound")
    return ExecutionError(
        f"cannot evaluate expression node {type(node).__name__}")


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
    raise _unevaluable(node)


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
                value = arith(lhs, rhs)
            except TypeError as exc:
                raise _bad_operands(op, lhs, rhs) from exc
            if type(value) is str:  # text concatenated or repeated
                raise _bad_operands(op, lhs, rhs)
            return value
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
        return lambda row: _logical_not(operand(row))
    if node.op == "-":
        return lambda row: _negate(operand(row))
    raise ExecutionError(f"unknown unary operator {node.op!r}")


def _compile_between(node: ast.Between, schema: Schema,
                     slots: BindingSlots | None) -> RowFunction:
    operand = _compile(node.operand, schema, slots)
    low = _compile(node.low, schema, slots)
    high = _compile(node.high, schema, slots)
    negated = node.negated

    def between(row: tuple) -> Any:
        # all three operands evaluate before either comparison, as in
        # the Evaluator, so the same error wins when several would
        value = operand(row)
        lower = low(row)
        upper = high(row)
        lower_ok = _compare(">=", value, lower)
        upper_ok = _compare("<=", value, upper)
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
    fn = _scalar_function(node)
    name = node.name
    arg_fns = [_compile(arg, schema, slots) for arg in node.args]
    return lambda row: _call_scalar(name, fn,
                                   [arg_fn(row) for arg_fn in arg_fns])


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



# -- batch entry points -------------------------------------------------------
#
# The executor evaluates expressions one RowBatch at a time. A batch
# closure takes the batch and returns one value per selected row; a
# batch predicate returns the refined selection vector, the selected
# positions whose rows evaluate to SQL TRUE. Both map the row closure
# over the batch's row tuples (``RowBatch.all_rows``), so they share
# its semantics and its errors by construction.
#
# Three vector forms read column vectors instead, each kept because it
# measured faster on the batch pipeline benchmark (see
# docs/engine-internals.md): gathering a plain column, the
# ``<column> <cmp> <literal>`` selector sweep, and column⊕column
# ``+ - *``. The last two skip per-element type checks; a batch that
# raises a TypeError reruns through the row closure, which raises the
# first failing row's error.

BatchFunction = Callable[[Any], list]


def _gather(column: list, sel: Any) -> list:
    """Materialize ``column`` at the positions in ``sel``.

    The identity selection (``range(0, len(column))``) returns the
    column itself — callers must not mutate gathered vectors.
    """
    if (type(sel) is range and sel.start == 0 and sel.step == 1
            and sel.stop == len(column)):
        return column
    return [column[i] for i in sel]


def _mapped(fn: RowFunction) -> BatchFunction:
    """The row closure ``fn`` mapped over a batch's selected rows."""
    def mapped(batch: Any) -> list:
        rows = batch.all_rows()
        sel = batch.sel
        if sel is None:
            return list(map(fn, rows))
        return [fn(rows[index]) for index in sel]
    return mapped


def _refined(fn: RowFunction) -> BatchFunction:
    """The selected positions whose rows ``fn`` maps to SQL TRUE."""
    def refine(batch: Any) -> list:
        rows = batch.all_rows()
        return [index for index in batch.selection()
                if fn(rows[index]) is True]
    return refine


# column⊕column sweeps; ``lhs + rhs`` is written out per operator so
# the comprehension runs the native operator, not a per-element call
_COLUMN_ARITHMETIC: dict[str, Callable] = {
    "+": lambda lefts, rights, sel: [
        None if (lhs := lefts[i]) is None or (rhs := rights[i]) is None
        else lhs + rhs for i in sel],
    "-": lambda lefts, rights, sel: [
        None if (lhs := lefts[i]) is None or (rhs := rights[i]) is None
        else lhs - rhs for i in sel],
    "*": lambda lefts, rights, sel: [
        None if (lhs := lefts[i]) is None or (rhs := rights[i]) is None
        else lhs * rhs for i in sel],
}


def compile_batch_expression(expression: ast.Expression,
                             schema: Schema) -> BatchFunction:
    """Lower ``expression`` into a closure over batches.

    The returned callable takes a ``RowBatch`` and returns one value
    per selected row, equal to what the row closure from
    :func:`compile_expression` yields on that row.
    """
    if isinstance(expression, ast.ColumnRef):
        index = schema.index_of(expression.name, expression.qualifier)
        return lambda batch: _gather(batch.columns[index],
                                     batch.selection())
    mapped = _mapped(_compile(expression, schema, None))
    if not (isinstance(expression, ast.BinaryOp)
            and expression.op in _COLUMN_ARITHMETIC
            and isinstance(expression.left, ast.ColumnRef)
            and isinstance(expression.right, ast.ColumnRef)):
        return mapped
    left = schema.index_of(expression.left.name, expression.left.qualifier)
    right = schema.index_of(expression.right.name,
                            expression.right.qualifier)
    sweep = _COLUMN_ARITHMETIC[expression.op]

    def column_arithmetic(batch: Any) -> list:
        columns = batch.columns
        try:
            values = sweep(columns[left], columns[right], batch.selection())
        except TypeError:
            return mapped(batch)
        if str in map(type, values):  # text concatenated or repeated
            return mapped(batch)  # raises the row closure's error
        return values
    return column_arithmetic


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


def _column_comparison(node: ast.Expression):
    """``(column, op, value)`` for ``<column> <cmp> <literal>`` with a
    non-NULL literal on either side, oriented column first; else
    None."""
    if not (isinstance(node, ast.BinaryOp) and node.op in _SELECTOR_SWEEPS):
        return None
    if (isinstance(node.left, ast.ColumnRef)
            and isinstance(node.right, ast.Literal)
            and node.right.value is not None):
        return node.left, node.op, node.right.value
    if (isinstance(node.right, ast.ColumnRef)
            and isinstance(node.left, ast.Literal)
            and node.left.value is not None):
        return node.right, _FLIPPED_COMPARISON[node.op], node.left.value
    return None


def compile_batch_predicate(expression: ast.Expression,
                            schema: Schema) -> BatchFunction:
    """Filter form of :func:`compile_batch_expression`: the closure
    returns the *refined selection vector* — the selected positions
    whose rows evaluate to SQL TRUE (unknown counts as false)."""
    refine = _refined(_compile(expression, schema, None))
    comparison = _column_comparison(expression)
    if comparison is None:
        return refine
    column, op, value = comparison
    index = schema.index_of(column.name, column.qualifier)
    sweep = _SELECTOR_SWEEPS[op](value)

    def select(batch: Any) -> list:
        sel = batch.selection()
        try:
            return sweep(sel, _gather(batch.columns[index], sel))
        except TypeError:
            return refine(batch)
    return select
