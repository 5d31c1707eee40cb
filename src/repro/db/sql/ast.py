"""AST node definitions for the SQL dialect.

All nodes are frozen dataclasses so they can be hashed, compared, and
safely shared between planner and provenance rewriter. Expression nodes
and statement nodes live in separate class hierarchies rooted at
:class:`Expression` and :class:`Statement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for expression AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: integer, float, string, boolean, or NULL (value=None)."""

    value: Any


@dataclass(frozen=True)
class Parameter(Expression):
    """A positional statement parameter (``$1``, ``$2``, ...), 1-based."""

    index: int


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A possibly qualified column reference (``t.col`` or ``col``)."""

    name: str
    qualifier: Optional[str] = None

    def display(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""

    qualifier: Optional[str] = None


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary operator: ``-expr`` or ``NOT expr``."""

    op: str
    operand: Expression


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary operator: arithmetic, comparison, AND/OR, ``||``."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` (pattern must be a literal or expr)."""

    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar or aggregate function call.

    ``COUNT(*)`` is represented as ``FunctionCall("count", (Star(),))``.
    """

    name: str
    args: tuple[Expression, ...]
    distinct: bool = False


@dataclass(frozen=True)
class CaseWhen(Expression):
    """``CASE WHEN cond THEN val [WHEN ...] [ELSE val] END``."""

    branches: tuple[tuple[Expression, Expression], ...]
    otherwise: Optional[Expression] = None


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """``(SELECT ...)`` used as a value (must yield ≤ 1 row, 1 col)."""

    query: "Select"


@dataclass(frozen=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)`` (one output column)."""

    operand: Expression
    query: "Select"
    negated: bool = False


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class for statement AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression plus optional alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A table in a FROM clause with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """An explicit ``JOIN ... ON`` between a left source and a table."""

    left: "FromSource"
    right: TableRef
    condition: Optional[Expression]  # None for CROSS JOIN
    kind: str = "inner"  # "inner" | "left" | "cross"


FromSource = "TableRef | Join"


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class Select(Statement):
    """A SELECT statement (optionally prefixed with PROVENANCE)."""

    items: tuple[SelectItem, ...]
    sources: tuple[Any, ...] = ()  # TableRef | Join entries (comma list)
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    provenance: bool = False


@dataclass(frozen=True)
class SetOp(Statement):
    """``<select> UNION [ALL] <select>`` (left-associative chains)."""

    op: str  # currently only "union"
    left: "Select | SetOp"
    right: Select
    all: bool = False


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO table [(cols)] VALUES rows`` or ``INSERT ... SELECT``."""

    table: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[Expression, ...], ...] = ()
    query: Optional[Select] = None


@dataclass(frozen=True)
class Update(Statement):
    """``UPDATE table SET col = expr, ... [WHERE cond]``."""

    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Delete(Statement):
    """``DELETE FROM table [WHERE cond]``."""

    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable(Statement):
    table: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTable(Statement):
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateIndex(Statement):
    """``CREATE INDEX name ON table (column)`` — hash index."""

    name: str
    table: str
    column: str
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropIndex(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class CopyFrom(Statement):
    """``COPY table FROM 'path' [WITH] [CSV] [HEADER]`` — bulk load."""

    table: str
    path: str
    header: bool = False
    delimiter: str = ","


@dataclass(frozen=True)
class CopyTo(Statement):
    """``COPY table TO 'path' [WITH] [CSV] [HEADER]`` — bulk dump."""

    table: str
    path: str
    header: bool = False
    delimiter: str = ","


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <select>`` — return the plan as text rows.

    With ``analyze`` the query is actually executed and each plan line
    carries the rows produced and wall time of its operator.
    """

    query: "Select"
    analyze: bool = False


@dataclass(frozen=True)
class Begin(Statement):
    pass


@dataclass(frozen=True)
class Commit(Statement):
    pass


@dataclass(frozen=True)
class Rollback(Statement):
    pass
