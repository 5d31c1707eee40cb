"""Render AST nodes back to SQL text.

Used by the client-side LDV monitor to construct reenactment queries
(``UPDATE t SET ... WHERE w`` → ``SELECT * FROM t WHERE w``) without
touching the server directly, and by tests for parse/render round
trips. Rendering is canonical: keywords upper-case, minimal
parenthesization driven by operator precedence.
"""

from __future__ import annotations

from repro.db.sql import ast
from repro.errors import ExecutionError

# operator precedence for minimal parenthesization (higher binds tighter)
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "not": 3,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "between": 4, "like": 4, "in": 4, "is": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6, "%": 6,
    "neg": 7,
}


def _escape_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def render_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    return _escape_string(str(value))


def _precedence_of(expression: ast.Expression) -> int:
    if isinstance(expression, ast.BinaryOp):
        return _PRECEDENCE.get(expression.op, 8)
    if isinstance(expression, ast.UnaryOp):
        return _PRECEDENCE["not"] if expression.op == "not" else _PRECEDENCE["neg"]
    if isinstance(expression, (ast.Between, ast.Like, ast.InList, ast.IsNull)):
        return 4
    return 9  # atoms


def _child(expression: ast.Expression, parent_precedence: int) -> str:
    text = render_expression(expression)
    if _precedence_of(expression) < parent_precedence:
        return f"({text})"
    return text


def render_expression(expression: ast.Expression) -> str:
    """Render an expression AST to SQL text."""
    if isinstance(expression, ast.Literal):
        return render_literal(expression.value)
    if isinstance(expression, ast.Parameter):
        return f"${expression.index}"
    if isinstance(expression, ast.ColumnRef):
        return expression.display()
    if isinstance(expression, ast.Star):
        return f"{expression.qualifier}.*" if expression.qualifier else "*"
    if isinstance(expression, ast.UnaryOp):
        if expression.op == "not":
            return f"NOT {_child(expression.operand, _PRECEDENCE['not'])}"
        inner = _child(expression.operand, _PRECEDENCE["neg"])
        if inner.startswith("-"):
            # avoid "--", which SQL lexes as a line comment
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expression, ast.BinaryOp):
        precedence = _PRECEDENCE.get(expression.op, 8)
        operator = expression.op.upper() if expression.op in ("and", "or") \
            else expression.op
        if expression.op in ("=", "<>", "<", "<=", ">", ">="):
            # comparisons are non-associative: parenthesize any
            # same-precedence operand on either side
            left = _child(expression.left, precedence + 1)
        else:
            left = _child(expression.left, precedence)
        # right side needs a strictly-higher bound for left-assoc ops
        right = _child(expression.right, precedence + 1)
        return f"{left} {operator} {right}"
    if isinstance(expression, ast.Between):
        keyword = "NOT BETWEEN" if expression.negated else "BETWEEN"
        return (f"{_child(expression.operand, 5)} {keyword} "
                f"{_child(expression.low, 5)} AND "
                f"{_child(expression.high, 5)}")
    if isinstance(expression, ast.Like):
        keyword = "NOT LIKE" if expression.negated else "LIKE"
        return (f"{_child(expression.operand, 5)} {keyword} "
                f"{_child(expression.pattern, 5)}")
    if isinstance(expression, ast.InList):
        keyword = "NOT IN" if expression.negated else "IN"
        items = ", ".join(render_expression(item)
                          for item in expression.items)
        return f"{_child(expression.operand, 5)} {keyword} ({items})"
    if isinstance(expression, ast.IsNull):
        keyword = "IS NOT NULL" if expression.negated else "IS NULL"
        return f"{_child(expression.operand, 5)} {keyword}"
    if isinstance(expression, ast.FunctionCall):
        prefix = "DISTINCT " if expression.distinct else ""
        args = ", ".join(render_expression(arg) for arg in expression.args)
        return f"{expression.name}({prefix}{args})"
    if isinstance(expression, ast.ScalarSubquery):
        return f"({render_select(expression.query)})"
    if isinstance(expression, ast.InSubquery):
        keyword = "NOT IN" if expression.negated else "IN"
        return (f"{_child(expression.operand, 5)} {keyword} "
                f"({render_select(expression.query)})")
    if isinstance(expression, ast.CaseWhen):
        parts = ["CASE"]
        for condition, value in expression.branches:
            parts.append(f"WHEN {render_expression(condition)} "
                         f"THEN {render_expression(value)}")
        if expression.otherwise is not None:
            parts.append(f"ELSE {render_expression(expression.otherwise)}")
        parts.append("END")
        return " ".join(parts)
    raise ExecutionError(
        f"cannot render expression node {type(expression).__name__}")


def _render_source(source) -> str:
    if isinstance(source, ast.TableRef):
        if source.alias:
            return f"{source.name} {source.alias}"
        return source.name
    if isinstance(source, ast.Join):
        left = _render_source(source.left)
        right = _render_source(source.right)
        if source.kind == "cross":
            return f"{left} CROSS JOIN {right}"
        keyword = "LEFT JOIN" if source.kind == "left" else "JOIN"
        return (f"{left} {keyword} {right} "
                f"ON {render_expression(source.condition)}")
    raise ExecutionError(f"cannot render FROM entry {source!r}")


def render_select(select: ast.Select) -> str:
    parts = ["SELECT"]
    if select.provenance:
        parts.append("PROVENANCE")
    if select.distinct:
        parts.append("DISTINCT")
    items = []
    for item in select.items:
        text = render_expression(item.expression)
        if item.alias:
            text += f" AS {item.alias}"
        items.append(text)
    parts.append(", ".join(items))
    if select.sources:
        parts.append("FROM")
        parts.append(", ".join(_render_source(source)
                               for source in select.sources))
    if select.where is not None:
        parts.append(f"WHERE {render_expression(select.where)}")
    if select.group_by:
        parts.append("GROUP BY " + ", ".join(
            render_expression(expression)
            for expression in select.group_by))
    if select.having is not None:
        parts.append(f"HAVING {render_expression(select.having)}")
    if select.order_by:
        rendered = []
        for item in select.order_by:
            text = render_expression(item.expression)
            if item.descending:
                text += " DESC"
            rendered.append(text)
        parts.append("ORDER BY " + ", ".join(rendered))
    if select.limit is not None:
        parts.append(f"LIMIT {select.limit}")
    if select.offset is not None:
        parts.append(f"OFFSET {select.offset}")
    return " ".join(parts)


def render_statement(statement: ast.Statement) -> str:
    """Render any statement AST to SQL text."""
    if isinstance(statement, ast.Select):
        return render_select(statement)
    if isinstance(statement, ast.Insert):
        parts = [f"INSERT INTO {statement.table}"]
        if statement.columns:
            parts.append("(" + ", ".join(statement.columns) + ")")
        if statement.query is not None:
            parts.append(render_select(statement.query))
        else:
            rows = ", ".join(
                "(" + ", ".join(render_expression(value)
                                for value in row) + ")"
                for row in statement.rows)
            parts.append(f"VALUES {rows}")
        return " ".join(parts)
    if isinstance(statement, ast.Update):
        assignments = ", ".join(
            f"{name} = {render_expression(value)}"
            for name, value in statement.assignments)
        text = f"UPDATE {statement.table} SET {assignments}"
        if statement.where is not None:
            text += f" WHERE {render_expression(statement.where)}"
        return text
    if isinstance(statement, ast.Delete):
        text = f"DELETE FROM {statement.table}"
        if statement.where is not None:
            text += f" WHERE {render_expression(statement.where)}"
        return text
    if isinstance(statement, ast.CreateTable):
        columns = []
        for column in statement.columns:
            text = f"{column.name} {column.type_name}"
            if column.primary_key:
                text += " PRIMARY KEY"
            elif column.not_null:
                text += " NOT NULL"
            columns.append(text)
        exists = "IF NOT EXISTS " if statement.if_not_exists else ""
        return (f"CREATE TABLE {exists}{statement.table} "
                f"({', '.join(columns)})")
    if isinstance(statement, ast.DropTable):
        exists = "IF EXISTS " if statement.if_exists else ""
        return f"DROP TABLE {exists}{statement.table}"
    if isinstance(statement, ast.CreateIndex):
        exists = "IF NOT EXISTS " if statement.if_not_exists else ""
        return (f"CREATE INDEX {exists}{statement.name} "
                f"ON {statement.table} ({statement.column})")
    if isinstance(statement, ast.DropIndex):
        exists = "IF EXISTS " if statement.if_exists else ""
        return f"DROP INDEX {exists}{statement.name}"
    if isinstance(statement, ast.CopyFrom):
        return _render_copy("FROM", statement)
    if isinstance(statement, ast.CopyTo):
        return _render_copy("TO", statement)
    if isinstance(statement, ast.SetOp):
        keyword = "UNION ALL" if statement.all else "UNION"
        return (f"{render_statement(statement.left)} {keyword} "
                f"{render_select(statement.right)}")
    if isinstance(statement, ast.Explain):
        analyze = "ANALYZE " if statement.analyze else ""
        return f"EXPLAIN {analyze}{render_select(statement.query)}"
    if isinstance(statement, ast.Begin):
        return "BEGIN"
    if isinstance(statement, ast.Commit):
        return "COMMIT"
    if isinstance(statement, ast.Rollback):
        return "ROLLBACK"
    raise ExecutionError(
        f"cannot render statement {type(statement).__name__}")


def _render_copy(direction: str, statement) -> str:
    text = (f"COPY {statement.table} {direction} "
            f"{_escape_string(statement.path)} WITH CSV")
    if statement.header:
        text += " HEADER"
    if statement.delimiter != ",":
        text += f" DELIMITER {_escape_string(statement.delimiter)}"
    return text
