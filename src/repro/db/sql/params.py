"""Positional statement parameters (``$1``, ``$2``, ...).

Prepared statements carry parameter placeholders through the parser as
:class:`repro.db.sql.ast.Parameter` nodes. This module provides the
operations the engine, the parser's shape cache and the wire layer
need:

* :class:`Binder` — a template compiled once into a builder that
  substitutes literal values for its parameters (used by prepared
  statements that run through the ordinary execution path, and by
  every statement-shape cache hit), and that knows how many values
  the template expects;
* :func:`bind_sql_text` — substitute rendered literals into the raw
  SQL *text*, producing the canonical statement the monitor records,
  so a prepared execution replays byte-identically to the equivalent
  text-protocol execution.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Sequence

from repro.db.sql import ast
from repro.db.sql.lexer import TokenKind, tokenize
from repro.db.sql.render import render_literal
from repro.errors import ExecutionError

_Build = Callable[[Sequence[Any]], Any]


def _compile(value: Any, indexes: list[int]) -> Optional[_Build]:
    """A function building ``value`` with its parameters bound, or None
    when ``value`` holds no parameter and is shared as it is. Appends
    each parameter index met, in document order, to ``indexes``."""
    if isinstance(value, ast.Parameter):
        slot = value.index - 1
        indexes.append(value.index)
        return lambda values: ast.Literal(values[slot])
    if isinstance(value, (tuple, list)):
        build = _compile_items(value, indexes)
        if build is None or isinstance(value, list):
            return build
        return lambda values: tuple(build(values))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # AST nodes are frozen dataclasses whose fields are all init
        # fields, so a node is rebuilt from its field values in order
        build = _compile_items(
            [getattr(value, field.name)
             for field in dataclasses.fields(value)], indexes)
        if build is None:
            return None
        cls = type(value)
        return lambda values: cls(*build(values))
    return None


def _compile_items(items: Sequence[Any],
                   indexes: list[int]) -> Optional[_Build]:
    builders = []
    for position, item in enumerate(items):
        build = _compile(item, indexes)
        if build is not None:
            builders.append((position, build))
    if not builders:
        return None
    base = list(items)

    def build_items(values: Sequence[Any]) -> list:
        out = base.copy()
        for position, build in builders:
            out[position] = build(values)
        return out

    return build_items


class Binder:
    """A statement template (or a tuple of them) compiled, once, into a
    builder that returns a copy with every :class:`ast.Parameter`
    replaced by the matching literal value (1-based indexing). Subtrees
    without parameters are shared with the template, not copied."""

    __slots__ = ("template", "param_count", "_indexes", "_build")

    def __init__(self, template: Any) -> None:
        indexes: list[int] = []
        self.template = template
        self._build = _compile(template, indexes)
        self._indexes = indexes
        self.param_count = max(indexes, default=0)

    def __call__(self, values: Sequence[Any]) -> Any:
        if len(values) < self.param_count:
            index = next(index for index in self._indexes
                         if index > len(values))
            raise ExecutionError(
                f"statement references ${index} but only "
                f"{len(values)} parameter value(s) were bound")
        if self._build is None:
            return self.template
        return self._build(values)


def bind_sql_text(sql: str, values: Sequence[Any]) -> str:
    """Substitute rendered literal values for ``$n`` placeholders in raw
    SQL text. The lexer drives the scan, so placeholders inside string
    literals, comments, and quoted identifiers are left untouched."""
    replacements = []
    for token in tokenize(sql):
        if token.kind is TokenKind.PARAM:
            index = int(token.text)
            if index < 1 or index > len(values):
                raise ExecutionError(
                    f"statement references ${index} but only "
                    f"{len(values)} parameter value(s) were bound")
            end = token.position + 1 + len(token.text)
            replacements.append(
                (token.position, end, render_literal(values[index - 1])))
    for start, end, text in reversed(replacements):
        sql = sql[:start] + text + sql[end:]
    return sql
