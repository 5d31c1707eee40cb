"""CSV import/export of typed row sets.

Used by four consumers:

* ``COPY table FROM/TO`` in the engine,
* the LDV packager, which writes the *relevant tuple versions* of each
  table into ``db/restore/<table>.csv`` (server-included packages),
* the replayer, which decodes those files back and bulk-installs them,
* table files (:mod:`repro.db.storage`): a ``.tbl`` body, after its
  JSON header line, is the same ``(rowid, version, values)`` format,
  written and decoded by the same code as a restore CSV.

The ``(rowid, version, values)`` format is decoded column-at-a-time
(:func:`decode_versioned_rows`): the text is read and transposed once,
and each column goes through one converter.

NULL is encoded as the empty string; TEXT cells are always quoted by
the csv module when needed, so an empty *quoted* string would be
ambiguous — the engine never stores the empty string as distinct from
NULL in these files, a documented limitation shared with PostgreSQL's
default text COPY format.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.db.types import (
    ISO_DATE,
    Column,
    Schema,
    SQLType,
    _validate_date,
    value_from_csv,
    value_to_csv,
)
from repro.errors import ExecutionError, IntegrityError, TypeError_

# A TEXT value may exceed the csv module's default field limit (131,072
# characters). The limit is process-global: this raises it for every csv
# reader in the process, to the largest C long of every platform.
FIELD_SIZE_LIMIT = 2 ** 31 - 1
csv.field_size_limit(FIELD_SIZE_LIMIT)


def format_rows(rows: Iterable[tuple], schema: Schema,
                header: bool = False, delimiter: str = ",") -> str:
    """Render rows as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    if header:
        writer.writerow(schema.column_names())
    for row in rows:
        writer.writerow([value_to_csv(value) for value in row])
    return buffer.getvalue()


def parse_rows(text: str, schema: Schema,
               header: bool = False, delimiter: str = ",") -> list[tuple]:
    """Parse CSV text into typed rows for ``schema``. A row with the
    wrong number of cells raises :class:`ExecutionError` as ``line N:
    expected K cells, got M``, and a cell its column's type cannot read
    as ``line N: column c: ...``, N the file line the row starts on."""
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    columns = schema.columns
    rows: list[tuple] = []
    first = True
    line = 1
    for cells in reader:
        start, line = line, reader.line_num + 1
        if not cells:
            continue
        if first and header:
            first = False
            continue
        first = False
        if len(cells) != len(columns):
            raise ExecutionError(f"line {start}: expected {len(columns)} "
                                 f"cells, got {len(cells)}")
        row = []
        for cell, column in zip(cells, columns):
            try:
                row.append(value_from_csv(cell, column.sql_type))
            except ValueError as exc:
                raise ExecutionError(f"line {start}: column {column.name}: "
                                     f"{exc}") from None
        rows.append(tuple(row))
    return rows


def format_versioned_rows(rows: Iterable[tuple[int, int, tuple]],
                          schema: Schema) -> str:
    """Render ``(rowid, version, values)`` triples — the package restore
    format, which must preserve storage identity across replay."""
    buffer = io.StringIO()
    write_versioned_rows(buffer, rows, schema)
    return buffer.getvalue()


def write_versioned_rows(buffer: io.StringIO,
                         rows: Iterable[tuple[int, int, tuple]],
                         schema: Schema) -> None:
    """Write ``(rowid, version, values)`` triples as CSV records.

    Typed values go to ``csv.writer`` as they are: it writes ``None``
    as an empty cell, an int by ``str`` and a float by ``repr``, which
    are the cells :func:`value_to_csv` renders. Only BOOLEAN values are
    rendered first, as ``true``/``false``.
    """
    writer = csv.writer(buffer, lineterminator="\n")
    records: Iterable[Sequence[Any]] = (
        (rowid, version, *values) for rowid, version, values in rows)
    booleans = [position + 2 for position, column
                in enumerate(schema.columns)
                if column.sql_type is SQLType.BOOLEAN]
    if booleans:
        records = (_render_booleans(record, booleans)
                   for record in records)
    writer.writerows(records)


def _render_booleans(record: Sequence[Any],
                     positions: list[int]) -> list[Any]:
    cells = list(record)
    for position in positions:
        value = cells[position]
        if value is not None:
            cells[position] = "true" if value else "false"
    return cells


def parse_versioned_rows(text: str, schema: Schema) -> VersionedRows:
    """Decode the package restore format (see
    :func:`decode_versioned_rows`)."""
    return decode_versioned_rows(text, schema)


class VersionedRows:
    """A decoded ``(rowid, version, values)`` body.

    ``rowids``, ``versions`` and ``rows`` are parallel lists in file
    order; iterating yields the triples. The text is kept so that a
    fault found later, by :meth:`install_into`, can name its line.
    """

    __slots__ = ("rowids", "versions", "rows", "_text", "_first_line")

    def __init__(self, text: str, first_line: int) -> None:
        self.rowids: list[int] = []
        self.versions: list[int] = []
        self.rows: list[tuple[Any, ...]] = []
        self._text = text
        self._first_line = first_line

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[int, int, tuple[Any, ...]]]:
        return zip(self.rowids, self.versions, self.rows)

    def install_into(self, table: Any) -> None:
        """Bulk-install the rows into a :class:`HeapTable`
        (:meth:`~repro.db.storage.HeapTable.install`). A rowid or
        primary key already taken raises :class:`IntegrityError`
        naming the row's line, and installs nothing."""
        try:
            table.install(self.rowids, self.versions, self.rows)
        except IntegrityError as exc:
            raise self.fault(exc.position, str(exc),
                             IntegrityError) from exc

    def fault(self, position: int, message: str,
              kind: type[Exception] = ExecutionError) -> Exception:
        """An error ``line N: message`` for the ``position``-th row."""
        return kind(f"line {self._line_of(position)}: {message}")

    def _line_of(self, position: int) -> int:
        """The file line the ``position``-th record starts on. Cells may
        hold newlines, so the text is read again: this runs only on an
        error path."""
        reader = csv.reader(io.StringIO(self._text))
        start = 1
        for cells in reader:
            if cells:
                if position == 0:
                    break
                position -= 1
            start = reader.line_num + 1
        return self._first_line + start - 1


def _boolean(cell: str) -> bool:
    return cell.lower() in ("true", "t", "1")


# one converter per column type, as value_from_csv; TEXT and DATE cells
# stay text
_CONVERTERS: dict[SQLType, Callable[[str], Any]] = {
    SQLType.INTEGER: int,
    SQLType.FLOAT: float,
    SQLType.BOOLEAN: _boolean,
}

def decode_versioned_rows(text: str, schema: Schema,
                          first_line: int = 1) -> VersionedRows:
    """Decode a ``(rowid, version, values)`` CSV body column-at-a-time.

    The text is read once and transposed once. The rowid and version
    columns go through ``int``, each value column through one converter
    (empty is NULL, exactly as :func:`value_from_csv`); a NOT NULL
    column must hold no NULL and a DATE column only valid dates, as
    :func:`repro.db.types.coerce_row` would insist. ``first_line`` is
    the file line the text starts on. Every fault raises
    :class:`ExecutionError` as ``line N: ...``, N the line its row
    starts on.
    """
    body = VersionedRows(text, first_line)
    reader = csv.reader(io.StringIO(text))
    try:
        records = list(filter(None, reader))  # blank lines are no rows
    except csv.Error as exc:
        raise ExecutionError(
            f"line {first_line + reader.line_num - 1}: {exc}") from exc
    if not records:
        return body
    width = len(schema) + 2
    if len(records[0]) != width or len(set(map(len, records))) != 1:
        position = next(position for position, cells in enumerate(records)
                        if len(cells) != width)
        raise body.fault(
            position, f"expected {width} cells (rowid, version and "
                      f"{len(schema)} values), got {len(records[position])}")
    columns = list(zip(*records))
    body.rowids = _decode_integers(body, columns[0], "rowid")
    body.versions = _decode_integers(body, columns[1], "version")
    values = [_decode_column(body, cells, column)
              for cells, column in zip(columns[2:], schema.columns)]
    body.rows = (list(zip(*values)) if values
                 else [()] * len(records))
    return body


def _decode_integers(body: VersionedRows, cells: tuple[str, ...],
                     name: str) -> list[int]:
    try:
        return list(map(int, cells))
    except ValueError:
        position, error = _first_failure(int, cells)
        raise body.fault(position, f"{name}: {error}") from None


def _decode_column(body: VersionedRows, cells: tuple[str, ...],
                   column: Column) -> Sequence[Any]:
    convert = _CONVERTERS.get(column.sql_type)
    values: Sequence[Any]
    if convert is None:
        values = cells if "" not in cells else [cell or None
                                                for cell in cells]
    else:
        try:
            values = (list(map(convert, cells)) if "" not in cells
                      else [convert(cell) if cell else None
                            for cell in cells])
        except ValueError:
            position, error = _first_failure(
                lambda cell: cell and convert(cell), cells)
            raise body.fault(position,
                             f"column {column.name}: {error}") from None
    if column.not_null and None in values:
        raise body.fault(values.index(None),
                         f"column {column.name} is NOT NULL")
    if (column.sql_type is SQLType.DATE
            and not all(map(ISO_DATE.fullmatch, filter(None, cells)))):
        for position, cell in enumerate(cells):
            if cell and not ISO_DATE.fullmatch(cell):
                try:
                    _validate_date(cell)
                except (TypeError_, ValueError):
                    raise body.fault(
                        position, f"column {column.name}: invalid DATE "
                                  f"literal {cell!r}") from None
    return values


def _first_failure(convert: Callable[[str], Any],
                   cells: tuple[str, ...]) -> tuple[int, ValueError]:
    """The first cell ``convert`` rejects, and its error (error path
    only)."""
    for position, cell in enumerate(cells):
        try:
            convert(cell)
        except ValueError as exc:
            return position, exc
    raise AssertionError("no cell fails to convert")
