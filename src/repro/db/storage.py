"""Versioned heap storage with data-directory persistence.

Every table row carries two pieces of system metadata in addition to its
user-visible values:

* ``rowid`` — a table-unique, stable identifier (the paper's
  ``prov_rowid``), and
* ``version`` — the logical tick of the last statement that wrote the
  row (the paper's ``prov_v``).

Tables persist to one file each inside a *data directory*
(``<table>.tbl``: a JSON schema header line followed by CSV rows). The
on-disk bytes are what PTU-style packaging copies wholesale and what the
package-size experiments (Fig 9) measure.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.db.fileio import FileIO
from repro.db.types import (
    Column,
    Schema,
    SQLType,
    coerce_row,
    value_from_csv,
    value_to_csv,
)
from repro.errors import CatalogError, ExecutionError, IntegrityError

TABLE_FILE_SUFFIX = ".tbl"
WAL_FILE_NAME = "wal.log"
META_FILE_NAME = "checkpoint.json"


class HashIndex:
    """An equality index: column value → set of rowids."""

    def __init__(self, name: str, column: str, position: int) -> None:
        self.name = name.lower()
        self.column = column.lower()
        self.position = position
        self.buckets: dict[Any, set[int]] = {}

    def add(self, rowid: int, value: Any) -> None:
        if value is not None:
            self.buckets.setdefault(value, set()).add(rowid)

    def remove(self, rowid: int, value: Any) -> None:
        bucket = self.buckets.get(value)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self.buckets[value]

    def lookup(self, value: Any) -> frozenset[int]:
        if value is None:
            return frozenset()  # NULL never equals anything
        return frozenset(self.buckets.get(value, ()))


class HeapTable:
    """An in-memory heap of versioned rows with optional PK enforcement.

    ``rows``/``versions`` hold the committed state: what checkpoints
    serialize and what the WAL describes. ``mvcc`` is the
    database-wide :class:`repro.db.mvcc.MVCCState`, attached by the
    catalog; through it a scan finds the executing transaction's
    private write-set for this table (standalone tables have none and
    scan the heap directly).
    """

    def __init__(self, name: str, schema: Schema) -> None:
        if not name or not name.isidentifier():
            raise CatalogError(f"invalid table name {name!r}")
        self.name = name.lower()
        self.schema = schema
        self.rows: dict[int, tuple[Any, ...]] = {}
        self.versions: dict[int, int] = {}
        self.mvcc = None  # set by Catalog; None for standalone tables
        self.next_rowid = 1
        self._pk_positions: tuple[int, ...] = tuple(
            index for index, column in enumerate(schema.columns)
            if column.primary_key)
        self._pk_index: dict[tuple[Any, ...], int] = {}
        self.indexes: dict[str, HashIndex] = {}

    def overlay(self):
        """The executing transaction's write-set for this table
        (a :class:`~repro.db.mvcc.TableOverlay`), or None."""
        write_sets = self.mvcc.current if self.mvcc is not None else None
        return write_sets.get(self.name) if write_sets else None

    def pk_key(self, row: tuple) -> tuple[Any, ...] | None:
        """The row's primary-key value, or None for PK-less tables."""
        if not self._pk_positions:
            return None
        return tuple(row[i] for i in self._pk_positions)

    def pk_holder(self, key: tuple[Any, ...]) -> int | None:
        """The committed rowid currently holding a PK value, if any."""
        return self._pk_index.get(key)

    # -- row operations --------------------------------------------------------

    def insert(self, values: Iterable[Any], tick: int) -> int:
        """Insert a row, returning its new rowid."""
        row = coerce_row(values, self.schema)
        if self._pk_positions:
            key = tuple(row[i] for i in self._pk_positions)
            if key in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.name}")
            self._pk_index[key] = self.next_rowid
        rowid = self.next_rowid
        self.next_rowid += 1
        self.rows[rowid] = row
        self.versions[rowid] = tick
        for index in self.indexes.values():
            index.add(rowid, row[index.position])
        return rowid

    def update(self, rowid: int, values: Iterable[Any], tick: int) -> None:
        """Replace a row's values, bumping its version."""
        if rowid not in self.rows:
            raise ExecutionError(
                f"rowid {rowid} not found in table {self.name}")
        row = coerce_row(values, self.schema)
        if self._pk_positions:
            old_key = tuple(self.rows[rowid][i] for i in self._pk_positions)
            new_key = tuple(row[i] for i in self._pk_positions)
            if new_key != old_key:
                if new_key in self._pk_index:
                    raise IntegrityError(
                        f"duplicate primary key {new_key!r} in {self.name}")
                del self._pk_index[old_key]
                self._pk_index[new_key] = rowid
        old_row = self.rows[rowid]
        for index in self.indexes.values():
            index.remove(rowid, old_row[index.position])
            index.add(rowid, row[index.position])
        self.rows[rowid] = row
        self.versions[rowid] = tick

    def delete(self, rowid: int) -> None:
        """Remove a row."""
        row = self.rows.pop(rowid, None)
        if row is None:
            raise ExecutionError(
                f"rowid {rowid} not found in table {self.name}")
        self.versions.pop(rowid, None)
        if self._pk_positions:
            key = tuple(row[i] for i in self._pk_positions)
            self._pk_index.pop(key, None)
        for index in self.indexes.values():
            index.remove(rowid, row[index.position])

    def put_row(self, rowid: int, values: Iterable[Any],
                version: int) -> None:
        """Idempotently install a row at an explicit rowid/version.

        This is WAL-redo semantics: if the rowid already holds a row
        (because a checkpoint captured it before the crash), the row is
        overwritten and all bookkeeping stays consistent — replaying a
        log twice converges.
        """
        row = coerce_row(values, self.schema)
        if rowid in self.rows:
            self._detach_row(rowid)
        if self._pk_positions:
            key = tuple(row[i] for i in self._pk_positions)
            holder = self._pk_index.get(key)
            if holder is not None and holder != rowid:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.name}")
            self._pk_index[key] = rowid
        self.rows[rowid] = row
        self.versions[rowid] = version
        self.next_rowid = max(self.next_rowid, rowid + 1)
        for index in self.indexes.values():
            index.add(rowid, row[index.position])

    def remove_row(self, rowid: int) -> None:
        """Delete a row if present (idempotent WAL-redo delete)."""
        if rowid in self.rows:
            self.delete(rowid)

    def _detach_row(self, rowid: int) -> None:
        """Drop a row's PK and secondary-index entries, then the row."""
        row = self.rows.pop(rowid)
        self.versions.pop(rowid, None)
        if self._pk_positions:
            key = tuple(row[i] for i in self._pk_positions)
            if self._pk_index.get(key) == rowid:
                del self._pk_index[key]
        for index in self.indexes.values():
            index.remove(rowid, row[index.position])

    def restore_row(self, rowid: int, values: Iterable[Any],
                    version: int) -> None:
        """Install a row under an explicit rowid/version (package
        restore). Keeps the PK index and rowid counter consistent."""
        if rowid in self.rows:
            raise ExecutionError(
                f"rowid {rowid} already present in table {self.name}")
        row = coerce_row(values, self.schema)
        if self._pk_positions:
            key = tuple(row[i] for i in self._pk_positions)
            if key in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.name}")
            self._pk_index[key] = rowid
        self.rows[rowid] = row
        self.versions[rowid] = version
        self.next_rowid = max(self.next_rowid, rowid + 1)
        for index in self.indexes.values():
            index.add(rowid, row[index.position])

    def get(self, rowid: int) -> tuple[Any, ...]:
        row = self.rows.get(rowid)
        if row is None:
            raise ExecutionError(
                f"rowid {rowid} not found in table {self.name}")
        return row

    def version_of(self, rowid: int) -> int:
        version = self.versions.get(rowid)
        if version is None:
            raise ExecutionError(
                f"rowid {rowid} not found in table {self.name}")
        return version

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Yield ``(rowid, values)`` in rowid order (deterministic),
        with the executing transaction's own writes merged in."""
        for rowid, values, _version in self.scan_versions():
            yield rowid, values

    def scan_versions(self) -> Iterator[tuple[int, tuple[Any, ...], int]]:
        """Like :meth:`scan`, additionally yielding each row's version:
        the committed one, or the provisional one of a row the
        executing transaction wrote."""
        overlay = self.overlay()
        if overlay is None:
            for rowid in sorted(self.rows):
                yield rowid, self.rows[rowid], self.versions[rowid]
            return
        for rowid in sorted(self.rows.keys() | overlay.upserts.keys()):
            entry = overlay.upserts.get(rowid)
            if entry is not None:
                yield rowid, entry[0], entry[1]
            elif rowid not in overlay.deletes:
                yield rowid, self.rows[rowid], self.versions[rowid]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def visible_row_count(self) -> int:
        """The row count the executing session sees: the committed heap
        adjusted by its transaction's inserts and deletes, without
        paying a full scan (the planner calls this per table per
        plan)."""
        count = len(self.rows)
        overlay = self.overlay()
        if overlay is not None:
            for rowid in overlay.upserts:
                if rowid not in self.rows:
                    count += 1
            count -= len(overlay.deletes)
        return count

    def truncate(self) -> None:
        """Drop all rows but keep the schema and rowid counter."""
        self.rows.clear()
        self.versions.clear()
        self._pk_index.clear()
        for index in self.indexes.values():
            index.buckets.clear()

    # -- secondary indexes -------------------------------------------------------

    def create_index(self, name: str, column: str,
                     if_not_exists: bool = False) -> HashIndex:
        """Build a hash index over one column."""
        key = name.lower()
        if key in self.indexes:
            if if_not_exists:
                return self.indexes[key]
            raise CatalogError(f"index {name!r} already exists on "
                               f"{self.name}")
        position = self.schema.index_of(column)
        index = HashIndex(key, column, position)
        for rowid, row in self.rows.items():
            index.add(rowid, row[position])
        self.indexes[key] = index
        return index

    def drop_index(self, name: str) -> None:
        if name.lower() not in self.indexes:
            raise CatalogError(f"no index {name!r} on {self.name}")
        del self.indexes[name.lower()]

    def index_on(self, column: str) -> HashIndex | None:
        """An index covering ``column``, if any."""
        wanted = column.lower()
        for index in self.indexes.values():
            if index.column == wanted:
                return index
        return None

    # -- persistence -----------------------------------------------------------

    def serialize(self) -> str:
        """Render the table as its on-disk file format."""
        buffer = io.StringIO()
        header = {
            "name": self.name,
            "next_rowid": self.next_rowid,
            "indexes": [{"name": index.name, "column": index.column}
                        for index in self.indexes.values()],
            "columns": [
                {
                    "name": column.name,
                    "type": column.sql_type.value,
                    "not_null": column.not_null,
                    "primary_key": column.primary_key,
                }
                for column in self.schema.columns
            ],
        }
        buffer.write(json.dumps(header, separators=(",", ":")))
        buffer.write("\n")
        writer = csv.writer(buffer, lineterminator="\n")
        for rowid in sorted(self.rows):
            cells = [str(rowid), str(self.versions[rowid])]
            cells.extend(value_to_csv(value) for value in self.rows[rowid])
            writer.writerow(cells)
        return buffer.getvalue()

    @classmethod
    def deserialize(cls, text: str) -> "HeapTable":
        """Parse the on-disk file format back into a table.

        A malformed header, a row whose cell count does not match the
        schema, or a cell that does not parse as its column's type
        raises :class:`CatalogError`.
        """
        newline = text.find("\n")
        if newline == -1:
            raise CatalogError("table file is missing its header line")
        try:
            header = json.loads(text[:newline])
            columns = [
                Column(
                    name=column["name"],
                    sql_type=SQLType(column["type"]),
                    not_null=column["not_null"],
                    primary_key=column["primary_key"],
                )
                for column in header["columns"]
            ]
            table = cls(header["name"], Schema(columns))
            next_rowid = int(header["next_rowid"])
            index_defs = [(index["name"], index["column"])
                          for index in header.get("indexes", ())]
        except KeyError as exc:
            raise CatalogError(
                f"table file header is missing key {exc}") from exc
        except (ValueError, TypeError, AttributeError) as exc:
            raise CatalogError(
                f"table file header is malformed: {exc}") from exc
        types = table.schema.types()
        width = len(types) + 2
        reader = csv.reader(io.StringIO(text[newline + 1:]))
        for cells in reader:
            if not cells:
                continue
            try:
                if len(cells) != width:
                    raise ValueError(
                        f"expected {width} cells (rowid, version and "
                        f"{len(types)} values), got {len(cells)}")
                rowid = int(cells[0])
                version = int(cells[1])
                values = tuple(
                    value_from_csv(cell, sql_type)
                    for cell, sql_type in zip(cells[2:], types))
            except ValueError as exc:
                # the header is line 1 of the file
                raise CatalogError(
                    f"table {table.name} line {reader.line_num + 1}: "
                    f"{exc}") from exc
            table.rows[rowid] = values
            table.versions[rowid] = version
            if table._pk_positions:
                key = tuple(values[i] for i in table._pk_positions)
                table._pk_index[key] = rowid
        table.next_rowid = max(next_rowid, max(table.rows, default=0) + 1)
        for name, column in index_defs:
            table.create_index(name, column)
        return table


def read_table_file(path: Path) -> HeapTable:
    """Load one ``.tbl`` file. A malformed file, bytes that are not
    UTF-8 included, raises :class:`CatalogError` naming the file."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogError(
            f"table file {path} is not UTF-8 text: {exc}") from exc
    try:
        return HeapTable.deserialize(text)
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from exc


class DataDirectory:
    """The on-disk home of a database: one ``.tbl`` file per table,
    plus the write-ahead log and the checkpoint metadata file.

    All writes go through an injectable :class:`FileIO`; table files are
    replaced atomically (temp → fsync → rename) so a crash mid-save
    never leaves a half-written ``.tbl``.
    """

    def __init__(self, path: str | Path, io: FileIO | None = None) -> None:
        self.path = Path(path)
        self.io = io if io is not None else FileIO()
        self.path.mkdir(parents=True, exist_ok=True)

    def table_path(self, name: str) -> Path:
        return self.path / f"{name.lower()}{TABLE_FILE_SUFFIX}"

    @property
    def wal_path(self) -> Path:
        return self.path / WAL_FILE_NAME

    @property
    def meta_path(self) -> Path:
        return self.path / META_FILE_NAME

    def save_table(self, table: HeapTable) -> None:
        self.io.atomic_write_bytes(
            self.table_path(table.name),
            table.serialize().encode("utf-8"),
            point="checkpoint.table")

    def save_meta(self, meta: dict) -> None:
        """Atomically persist checkpoint metadata (the logical clock)."""
        self.io.atomic_write_bytes(
            self.meta_path,
            json.dumps(meta, separators=(",", ":")).encode("utf-8"),
            point="checkpoint.meta")

    def load_meta(self) -> dict:
        if not self.meta_path.exists():
            return {}
        try:
            meta = json.loads(self.meta_path.read_text())
        except ValueError:
            # the meta file is advisory (the WAL carries the committed
            # ticks); a torn one is ignored, not fatal
            return {}
        return meta if isinstance(meta, dict) else {}

    def load_table(self, name: str) -> HeapTable:
        path = self.table_path(name)
        if not path.exists():
            raise CatalogError(f"no stored table {name!r} in {self.path}")
        return read_table_file(path)

    def drop_table(self, name: str) -> None:
        path = self.table_path(name)
        if path.exists():
            self.io.unlink(path, point="checkpoint.drop")

    def table_names(self) -> list[str]:
        return sorted(
            path.name[: -len(TABLE_FILE_SUFFIX)]
            for path in self.path.glob(f"*{TABLE_FILE_SUFFIX}"))

    def total_bytes(self) -> int:
        """Total size of all table files (what PTU packaging copies)."""
        return sum(
            path.stat().st_size
            for path in self.path.glob(f"*{TABLE_FILE_SUFFIX}"))
