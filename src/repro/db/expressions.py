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
rows, plus two vector forms that measured faster.

The AST interpreter the tests check these closures against, value for
value and error for error, lives with them (``tests/db/evaluator.py``).

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
    """Incremental aggregate state: feed value vectors (one batch
    worth each) with :meth:`add_many`.

    SUM/AVG keep the exact left-to-right accumulation, so float results
    are bit-identical to folding one value at a time.
    """

    def add_many(self, values: list) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def result(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


class _CountAll(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add_many(self, values: list) -> None:
        self.count += len(values)

    def result(self) -> int:
        return self.count


class _Count(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add_many(self, values: list) -> None:
        self.count += len(values) - values.count(None)

    def result(self) -> int:
        return self.count


class _Sum(Accumulator):
    def __init__(self) -> None:
        self.total: Any = None

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


class _Extreme(Accumulator):
    """MIN (``pick`` is ``min``, ``op`` is ``<``) or MAX (``max`` and
    ``>``), keeping the earlier of equal values. Values with no order
    between them raise the one-line error a WHERE comparison of the
    pair raises."""

    def __init__(self, pick: Callable, op: str) -> None:
        self.pick = pick
        self.op = op
        self.best: Any = None

    def add_many(self, values: list) -> None:
        present = [value for value in values if value is not None]
        if not present:
            return
        try:
            best = self.pick(present)
        except TypeError:
            best = self.pick(present, key=Ordered)  # raises the error
        if self.best is None or _compare(self.op, best, self.best):
            self.best = best

    def result(self) -> Any:
        return self.best


class _Distinct(Accumulator):
    """Wrap another accumulator to only feed it values not seen
    before, in the order they first appear."""

    def __init__(self, inner: Accumulator) -> None:
        self.inner = inner
        self.seen: set[Any] = set()

    def add_many(self, values: list) -> None:
        seen = self.seen
        fresh = []
        for value in values:
            if value not in seen:
                seen.add(value)
                fresh.append(value)
        self.inner.add_many(fresh)

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
        inner = _Extreme(min, "<")
    elif name == "max":
        inner = _Extreme(max, ">")
    else:
        raise ExecutionError(f"unknown aggregate function {name!r}")
    if call.distinct:
        return _Distinct(inner)
    return inner


# ---------------------------------------------------------------------------
# Scalar operators
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


class Ordered:
    """A non-NULL value as a sort or MIN/MAX key: comparing two values
    with no order between them raises the one-line
    :class:`ExecutionError` of :func:`_compare`, where the raw values
    raise a TypeError."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "Ordered") -> Any:
        return _compare("<", self.value, other.value)

    def __gt__(self, other: "Ordered") -> Any:
        return _compare(">", self.value, other.value)


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
    """SQL ``/``, ``%`` and ``||`` with NULL propagation. (``+``, ``-``
    and ``*`` compile to direct operator calls in
    :func:`_compile_binary`.)"""
    if left is None or right is None:
        return None
    try:
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
    except TypeError as exc:
        raise _bad_operands(op, left, right) from exc
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


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

    The returned callable has exactly the semantics of the tests'
    interpreter, ``Evaluator(schema).evaluate(expression, row)`` in
    ``tests/db/evaluator.py`` (NULL propagation, Kleene logic, SQL
    integer division, scalar functions), without re-walking the AST
    per row. Sub-expressions present in ``slots``
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
# closure takes the batch's row tuples and returns one value per row; a
# batch predicate returns the rows that evaluate to SQL TRUE. Both map
# the row closure over the rows, so they share its semantics and its
# errors by construction. A plain column's row closure is already
# ``itemgetter``, so mapping it is the column gather.
#
# Two vector forms sweep the rows in one comprehension with the native
# operator instead, each kept because dropping it measured slower on
# the batch pipeline benchmark (see docs/engine-internals.md): the
# ``<column> <cmp> <literal>`` selector sweep and column⊕column
# ``+ - *``. Both skip per-element type checks; a batch that raises a
# TypeError reruns through the row closure, which raises the first
# failing row's error.

BatchFunction = Callable[[list], list]


# column⊕column sweeps; ``lhs + rhs`` is written out per operator so
# the comprehension runs the native operator, not a per-element call
_COLUMN_ARITHMETIC: dict[str, Callable] = {
    "+": lambda left, right: lambda rows: [
        None if (lhs := row[left]) is None or (rhs := row[right]) is None
        else lhs + rhs for row in rows],
    "-": lambda left, right: lambda rows: [
        None if (lhs := row[left]) is None or (rhs := row[right]) is None
        else lhs - rhs for row in rows],
    "*": lambda left, right: lambda rows: [
        None if (lhs := row[left]) is None or (rhs := row[right]) is None
        else lhs * rhs for row in rows],
}


def compile_batch_expression(expression: ast.Expression,
                             schema: Schema) -> BatchFunction:
    """Lower ``expression`` into a closure over a batch's rows.

    The returned callable takes a list of row tuples and returns one
    value per row, equal to what the row closure from
    :func:`compile_expression` yields on that row.
    """
    fn = _compile(expression, schema, None)

    def mapped(rows: list) -> list:
        return list(map(fn, rows))
    if not (isinstance(expression, ast.BinaryOp)
            and expression.op in _COLUMN_ARITHMETIC
            and isinstance(expression.left, ast.ColumnRef)
            and isinstance(expression.right, ast.ColumnRef)):
        return mapped
    sweep = _COLUMN_ARITHMETIC[expression.op](
        schema.index_of(expression.left.name, expression.left.qualifier),
        schema.index_of(expression.right.name, expression.right.qualifier))

    def column_arithmetic(rows: list) -> list:
        try:
            values = sweep(rows)
        except TypeError:
            return mapped(rows)
        if str in map(type, values):  # text concatenated or repeated
            return mapped(rows)  # raises the row closure's error
        return values
    return column_arithmetic


# the single-pass selector bodies; `v <op> value` must be written out
# literally per operator so the comprehension uses the native operator
# instead of a per-element call
_SELECTOR_SWEEPS: dict[str, Callable] = {
    "=": lambda index, value: lambda rows: [
        row for row in rows if (v := row[index]) is not None
        and v == value],
    "<>": lambda index, value: lambda rows: [
        row for row in rows if (v := row[index]) is not None
        and v != value],
    "<": lambda index, value: lambda rows: [
        row for row in rows if (v := row[index]) is not None
        and v < value],
    "<=": lambda index, value: lambda rows: [
        row for row in rows if (v := row[index]) is not None
        and v <= value],
    ">": lambda index, value: lambda rows: [
        row for row in rows if (v := row[index]) is not None
        and v > value],
    ">=": lambda index, value: lambda rows: [
        row for row in rows if (v := row[index]) is not None
        and v >= value],
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
    returns the rows that evaluate to SQL TRUE (unknown counts as
    false), in order."""
    fn = _compile(expression, schema, None)

    def kept(rows: list) -> list:
        return [row for row in rows if fn(row) is True]
    comparison = _column_comparison(expression)
    if comparison is None:
        return kept
    column, op, value = comparison
    sweep = _SELECTOR_SWEEPS[op](
        schema.index_of(column.name, column.qualifier), value)

    def select(rows: list) -> list:
        try:
            return sweep(rows)
        except TypeError:
            return kept(rows)
    return select
