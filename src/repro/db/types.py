"""SQL value types, columns, schemas, and rows.

Rows are plain Python tuples for speed; a :class:`Schema` gives each
position a name and a :class:`SQLType` and supports qualified lookup
(``lineitem.l_suppkey``) for join results.

SQL ``NULL`` is represented by Python ``None`` throughout the engine.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import CatalogError, TypeError_


class SQLType(enum.Enum):
    """The SQL types supported by the engine."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    DATE = "date"  # stored as ISO 'YYYY-MM-DD' strings

    @classmethod
    def from_name(cls, name: str) -> "SQLType":
        """Map a SQL type name (including common aliases) to a SQLType."""
        normalized = name.strip().lower()
        # strip parameterised lengths such as varchar(25) / decimal(15,2)
        if "(" in normalized:
            normalized = normalized[: normalized.index("(")].strip()
        alias = _TYPE_ALIASES.get(normalized)
        if alias is None:
            raise TypeError_(f"unknown SQL type: {name!r}")
        return alias


_TYPE_ALIASES: dict[str, SQLType] = {
    "int": SQLType.INTEGER,
    "integer": SQLType.INTEGER,
    "bigint": SQLType.INTEGER,
    "smallint": SQLType.INTEGER,
    "serial": SQLType.INTEGER,
    "float": SQLType.FLOAT,
    "real": SQLType.FLOAT,
    "double": SQLType.FLOAT,
    "double precision": SQLType.FLOAT,
    "decimal": SQLType.FLOAT,
    "numeric": SQLType.FLOAT,
    "text": SQLType.TEXT,
    "varchar": SQLType.TEXT,
    "char": SQLType.TEXT,
    "character": SQLType.TEXT,
    "character varying": SQLType.TEXT,
    "boolean": SQLType.BOOLEAN,
    "bool": SQLType.BOOLEAN,
    "date": SQLType.DATE,
}


def coerce_value(value: Any, sql_type: SQLType) -> Any:
    """Coerce a Python value into the canonical representation of a type.

    ``None`` (SQL NULL) passes through every type unchanged. Raises
    :class:`repro.errors.TypeError_` when the value cannot represent the
    target type.
    """
    if value is None:
        return None
    try:
        if sql_type is SQLType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and not value.is_integer():
                raise TypeError_(f"cannot store {value!r} in INTEGER")
            return int(value)
        if sql_type is SQLType.FLOAT:
            if isinstance(value, bool):
                raise TypeError_("cannot store boolean in FLOAT")
            return float(value)
        if sql_type is SQLType.TEXT:
            if isinstance(value, (int, float, bool)):
                raise TypeError_(f"cannot store {value!r} in TEXT")
            return str(value)
        if sql_type is SQLType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
            if isinstance(value, str) and value.lower() in ("true", "false", "t", "f"):
                return value.lower() in ("true", "t")
            raise TypeError_(f"cannot store {value!r} in BOOLEAN")
        if sql_type is SQLType.DATE:
            text = str(value)
            _validate_date(text)
            return text
    except TypeError_:
        raise
    except (ValueError, TypeError) as exc:
        raise TypeError_(f"cannot coerce {value!r} to {sql_type.value}") from exc
    raise TypeError_(f"unhandled SQL type {sql_type!r}")  # pragma: no cover


# ASCII dates that _validate_date accepts. It accepts more (other
# Unicode digits), so a cell this rejects still goes through it.
ISO_DATE = re.compile(
    r"[0-9]{4}-(?:0[1-9]|1[0-2])-(?:0[1-9]|[12][0-9]|3[01])")


def _validate_date(text: str) -> None:
    """Check 'YYYY-MM-DD' shape without pulling in datetime parsing cost."""
    parts = text.split("-")
    ok = (
        len(parts) == 3
        and len(parts[0]) == 4
        and len(parts[1]) == 2
        and len(parts[2]) == 2
        and all(part.isdigit() for part in parts)
        and 1 <= int(parts[1]) <= 12
        and 1 <= int(parts[2]) <= 31
    )
    if not ok:
        raise TypeError_(f"invalid DATE literal: {text!r}")


# the Python type of each SQL type's non-NULL values, as coerce_value
# returns them
_PYTHON_TYPES: dict[SQLType, type] = {
    SQLType.INTEGER: int,
    SQLType.FLOAT: float,
    SQLType.TEXT: str,
    SQLType.BOOLEAN: bool,
    SQLType.DATE: str,
}


def value_from_csv(text: str, sql_type: SQLType) -> Any:
    """Parse a CSV cell back into a typed value (empty string == NULL)."""
    if text == "":
        return None
    if sql_type is SQLType.INTEGER:
        return int(text)
    if sql_type is SQLType.FLOAT:
        return float(text)
    if sql_type is SQLType.BOOLEAN:
        return text.lower() in ("true", "t", "1")
    return text


def value_to_csv(value: Any) -> str:
    """Render a typed value as a CSV cell (NULL == empty string)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class Column:
    """A named, typed column in a table schema."""

    name: str
    sql_type: SQLType
    not_null: bool = False
    primary_key: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("column name must be non-empty")


class Schema:
    """An ordered list of columns with (optionally qualified) name lookup.

    Base-table schemas carry unqualified names; derived schemas (join
    results, subquery outputs) may qualify names with a table alias. Name
    resolution accepts either form and reports ambiguity.
    """

    def __init__(self, columns: Sequence[Column],
                 qualifiers: Sequence[str | None] | None = None) -> None:
        self.columns: tuple[Column, ...] = tuple(columns)
        if qualifiers is None:
            qualifiers = [None] * len(self.columns)
        if len(qualifiers) != len(self.columns):
            raise CatalogError("qualifier list does not match column list")
        self.qualifiers: tuple[str | None, ...] = tuple(qualifiers)
        self._by_name: dict[str, list[int]] = {}
        self._by_qualified: dict[tuple[str, str], int] = {}
        for index, (column, qualifier) in enumerate(zip(self.columns, qualifiers)):
            self._by_name.setdefault(column.name.lower(), []).append(index)
            if qualifier is not None:
                key = (qualifier.lower(), column.name.lower())
                if key in self._by_qualified:
                    raise CatalogError(
                        f"duplicate qualified column {qualifier}.{column.name}")
                self._by_qualified[key] = index

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of(cls, *named_types: tuple[str, SQLType]) -> "Schema":
        """Shorthand: ``Schema.of(("id", SQLType.INTEGER), ...)``."""
        return cls([Column(name, sql_type) for name, sql_type in named_types])

    def qualified(self, qualifier: str) -> "Schema":
        """Return a copy where every column is qualified by ``qualifier``."""
        return Schema(self.columns, [qualifier] * len(self.columns))

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (join output)."""
        return Schema(self.columns + other.columns,
                      self.qualifiers + other.qualifiers)

    # -- what coerce_row's one-step check compares a row against ---------------

    @cached_property
    def python_types(self) -> tuple[type, ...]:
        """The Python type of each column's non-NULL values."""
        return tuple(_PYTHON_TYPES[column.sql_type]
                     for column in self.columns)

    @cached_property
    def date_positions(self) -> tuple[int, ...]:
        """The positions of the DATE columns."""
        return tuple(index for index, column in enumerate(self.columns)
                     if column.sql_type is SQLType.DATE)

    # -- lookup ----------------------------------------------------------------

    def index_of(self, name: str, qualifier: str | None = None) -> int:
        """Resolve a column reference to a row position.

        Raises :class:`CatalogError` for unknown or ambiguous names.
        """
        if qualifier is not None:
            key = (qualifier.lower(), name.lower())
            index = self._by_qualified.get(key)
            if index is None:
                raise CatalogError(f"unknown column {qualifier}.{name}")
            return index
        indexes = self._by_name.get(name.lower())
        if not indexes:
            raise CatalogError(f"unknown column {name}")
        if len(indexes) > 1:
            raise CatalogError(f"ambiguous column reference {name}")
        return indexes[0]

    def has_column(self, name: str, qualifier: str | None = None) -> bool:
        """True if the reference resolves to exactly one column."""
        try:
            self.index_of(name, qualifier)
            return True
        except CatalogError:
            return False

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def types(self) -> list[SQLType]:
        return [column.sql_type for column in self.columns]

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(
            f"{q + '.' if q else ''}{c.name} {c.sql_type.value}"
            for c, q in zip(self.columns, self.qualifiers))
        return f"Schema({cols})"


def coerce_row(values: Iterable[Any], schema: Schema) -> tuple[Any, ...]:
    """Coerce an iterable of raw values into a typed row for ``schema``.

    Enforces arity and NOT NULL constraints. A row whose cells already
    have their columns' Python types (so no NULL) and whose DATE cells
    are ASCII ISO dates is returned as it is: coercion would give back
    the same values. Any other row is coerced cell by cell.
    """
    values = tuple(values)
    if tuple(map(type, values)) == schema.python_types:
        dates = schema.date_positions
        if not dates or all(ISO_DATE.fullmatch(values[position])
                            for position in dates):
            return values
    if len(values) != len(schema):
        raise TypeError_(
            f"row has {len(values)} values, schema expects {len(schema)}")
    out = []
    for value, column in zip(values, schema.columns):
        coerced = coerce_value(value, column.sql_type)
        if coerced is None and column.not_null:
            raise TypeError_(f"column {column.name} is NOT NULL")
        out.append(coerced)
    return tuple(out)
