"""Uncorrelated subquery expansion.

The executor evaluates expressions row-at-a-time against one schema,
so subqueries are *expanded before planning*: each ``(SELECT ...)``
value and ``IN (SELECT ...)`` predicate is executed once (innermost
first) and replaced with the resulting literal / literal list.

Correlated subqueries (referencing outer columns) are detected when
the inner query's planner fails to resolve the column and surface as
the usual CatalogError — they are out of the supported dialect.

Lineage semantics: a subquery's input tuples influenced the enclosing
statement's result through the filter or value it computed, so when
lineage tracking is on, the union of the subquery's lineage is added
to every result row of the enclosing query. This matches the
conservative reading of Lineage for nested queries (all-or-nothing
influence through a scalar).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.db.provtypes import EMPTY_LINEAGE
from repro.db.sql import ast
from repro.errors import ExecutionError

# type of the callback that runs a Select and returns (rows, lineages)
RunSelect = Callable[[ast.Select, bool], tuple[list[tuple], list[frozenset]]]


def has_subqueries(expression: ast.Expression | None) -> bool:
    if expression is None:
        return False
    found = False

    def visit(node: ast.Expression) -> ast.Expression:
        nonlocal found
        if isinstance(node, (ast.ScalarSubquery, ast.InSubquery)):
            found = True
        return node

    _rewrite(expression, visit)
    return found


def expand_statement(statement: ast.Statement, run_select: RunSelect,
                     track_lineage: bool):
    """Expand every subquery in a statement.

    Returns ``(rewritten_statement, extra_lineage)``.
    """
    extra: set = set()

    def run_and_collect(select: ast.Select, expect_one_column: bool,
                        scalar: bool) -> Any:
        inner, inner_extra = expand_statement(select, run_select,
                                              track_lineage)
        rows, lineages = run_select(inner, track_lineage)
        extra.update(inner_extra)
        for lineage in lineages:
            extra.update(lineage)
        if expect_one_column and rows and len(rows[0]) != 1:
            raise ExecutionError(
                "subquery must return exactly one column")
        if scalar:
            if len(rows) > 1:
                raise ExecutionError(
                    "scalar subquery returned more than one row")
            return rows[0][0] if rows else None
        return [row[0] for row in rows]

    def replace(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.ScalarSubquery):
            value = run_and_collect(node.query, True, scalar=True)
            return ast.Literal(value)
        if isinstance(node, ast.InSubquery):
            values = run_and_collect(node.query, True, scalar=False)
            return ast.InList(node.operand,
                              tuple(ast.Literal(value)
                                    for value in values),
                              node.negated)
        return node

    rewritten = _rewrite_statement(statement, replace)
    return rewritten, frozenset(extra)


# ---------------------------------------------------------------------------
# AST rewriting
# ---------------------------------------------------------------------------


def _rewrite(expression: ast.Expression,
             replace: Callable[[ast.Expression], ast.Expression]
             ) -> ast.Expression:
    """Bottom-up expression rewrite (children first, then the node)."""
    node = expression
    if isinstance(node, ast.UnaryOp):
        node = ast.UnaryOp(node.op, _rewrite(node.operand, replace))
    elif isinstance(node, ast.BinaryOp):
        node = ast.BinaryOp(node.op, _rewrite(node.left, replace),
                            _rewrite(node.right, replace))
    elif isinstance(node, ast.Between):
        node = ast.Between(_rewrite(node.operand, replace),
                           _rewrite(node.low, replace),
                           _rewrite(node.high, replace), node.negated)
    elif isinstance(node, ast.Like):
        node = ast.Like(_rewrite(node.operand, replace),
                        _rewrite(node.pattern, replace), node.negated)
    elif isinstance(node, ast.InList):
        node = ast.InList(_rewrite(node.operand, replace),
                          tuple(_rewrite(item, replace)
                                for item in node.items), node.negated)
    elif isinstance(node, ast.InSubquery):
        node = ast.InSubquery(_rewrite(node.operand, replace),
                              node.query, node.negated)
    elif isinstance(node, ast.IsNull):
        node = ast.IsNull(_rewrite(node.operand, replace), node.negated)
    elif isinstance(node, ast.FunctionCall):
        node = ast.FunctionCall(node.name,
                                tuple(_rewrite(arg, replace)
                                      for arg in node.args),
                                node.distinct)
    elif isinstance(node, ast.CaseWhen):
        node = ast.CaseWhen(
            tuple((_rewrite(cond, replace), _rewrite(value, replace))
                  for cond, value in node.branches),
            _rewrite(node.otherwise, replace)
            if node.otherwise is not None else None)
    return replace(node)


def _maybe(expression: ast.Expression | None,
           replace) -> ast.Expression | None:
    if expression is None:
        return None
    return _rewrite(expression, replace)


def _rewrite_statement(statement: ast.Statement, replace):
    if isinstance(statement, ast.Select):
        return ast.Select(
            items=tuple(
                ast.SelectItem(_rewrite(item.expression, replace),
                               item.alias)
                for item in statement.items),
            sources=statement.sources,
            where=_maybe(statement.where, replace),
            group_by=tuple(_rewrite(expression, replace)
                           for expression in statement.group_by),
            having=_maybe(statement.having, replace),
            order_by=tuple(
                ast.OrderItem(_rewrite(item.expression, replace),
                              item.descending)
                for item in statement.order_by),
            limit=statement.limit,
            offset=statement.offset,
            distinct=statement.distinct,
            provenance=statement.provenance)
    if isinstance(statement, ast.SetOp):
        return ast.SetOp(statement.op,
                         _rewrite_statement(statement.left, replace),
                         _rewrite_statement(statement.right, replace),
                         statement.all)
    if isinstance(statement, ast.Update):
        return ast.Update(
            statement.table,
            tuple((name, _rewrite(value, replace))
                  for name, value in statement.assignments),
            _maybe(statement.where, replace))
    if isinstance(statement, ast.Delete):
        return ast.Delete(statement.table,
                          _maybe(statement.where, replace))
    if isinstance(statement, ast.Explain):
        return ast.Explain(_rewrite_statement(statement.query, replace),
                           statement.analyze)
    if isinstance(statement, ast.Insert):
        return ast.Insert(
            statement.table, statement.columns,
            tuple(tuple(_rewrite(value, replace) for value in row)
                  for row in statement.rows),
            _rewrite_statement(statement.query, replace)
            if statement.query is not None else None)
    return statement
