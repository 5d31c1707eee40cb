"""Positional statement parameters (``$1``, ``$2``, ...).

The parser's statement-shape cache (:class:`repro.db.sql.parser.ShapeCache`)
parses a statement's shape once as a template whose literals are
:class:`repro.db.sql.ast.Parameter` nodes. :class:`Binder` compiles such
a template once into a builder that substitutes literal values for its
parameters; every shape-cache hit binds the statement's literals through
it. A ``$n`` written in statement text stays a parameter that nothing
binds, so it fails when evaluated.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Sequence

from repro.db.sql import ast

_Build = Callable[[Sequence[Any]], Any]


def _compile(value: Any) -> Optional[_Build]:
    """A function building ``value`` with its parameters bound, or None
    when ``value`` holds no parameter and is shared as it is."""
    if isinstance(value, ast.Parameter):
        slot = value.index - 1
        return lambda values: ast.Literal(values[slot])
    if isinstance(value, (tuple, list)):
        build = _compile_items(value)
        if build is None or isinstance(value, list):
            return build
        return lambda values: tuple(build(values))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # AST nodes are frozen dataclasses whose fields are all init
        # fields, so a node is rebuilt from its field values in order
        build = _compile_items(
            [getattr(value, field.name)
             for field in dataclasses.fields(value)])
        if build is None:
            return None
        cls = type(value)
        return lambda values: cls(*build(values))
    return None


def _compile_items(items: Sequence[Any]) -> Optional[_Build]:
    builders = []
    for position, item in enumerate(items):
        build = _compile(item)
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

    __slots__ = ("template", "_build")

    def __init__(self, template: Any) -> None:
        self.template = template
        self._build = _compile(template)

    def __call__(self, values: Sequence[Any]) -> Any:
        if self._build is None:
            return self.template
        return self._build(values)
