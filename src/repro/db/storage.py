"""Versioned heap storage with data-directory persistence.

Every table row carries two pieces of system metadata in addition to its
user-visible values:

* ``rowid`` — a table-unique, stable identifier (the paper's
  ``prov_rowid``), and
* ``version`` — the logical tick of the last statement that wrote the
  row (the paper's ``prov_v``).

There is one copy of each row. Writes land in the heap in place,
inside a transaction too, so every scan and index probe reads the
executing session's own writes; only one session runs statements while
a transaction is open (see :mod:`repro.db.engine`).

Tables persist to one file each inside a *data directory*
(``<table>.tbl``: a JSON schema header line followed by CSV rows). The
on-disk bytes are what PTU-style packaging copies wholesale and what the
package-size experiments (Fig 9) measure.
"""

from __future__ import annotations

import io
import json
from itertools import islice
from operator import itemgetter, lt
from pathlib import Path
from typing import (Any, Hashable, Iterable, Iterator, Mapping, Optional,
                    Sequence)

from repro.db import csvio
from repro.db.fileio import FileIO
from repro.db.types import Column, Schema, SQLType, coerce_row
from repro.errors import (CatalogError, ExecutionError, IntegrityError,
                          TypeError_)

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

    def add_many(self, rowids: Iterable[int], values: Iterable[Any]) -> None:
        """:meth:`add` each ``(rowid, value)`` pair."""
        buckets = self.buckets
        for rowid, value in zip(rowids, values):
            if value is not None:
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = {rowid}
                else:
                    bucket.add(rowid)

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

    ``rows``/``versions`` hold every write, an open transaction's
    included: the engine changes rows in place and its undo log
    (:class:`repro.db.engine.UndoLog`) puts them back on a rollback.
    Checkpoints serialize them only while no transaction is open.

    ``rowid_ordered`` says that ``rows`` (and ``versions``, which
    holds the same keys in the same order) iterates in rowid order, so
    scans need not sort: fresh rowids only grow, and :meth:`install`
    clears it when it puts in a rowid below the largest (a rollback or
    WAL redo re-installing an older row).
    """

    def __init__(self, name: str, schema: Schema) -> None:
        if not name or not name.isidentifier():
            raise CatalogError(f"invalid table name {name!r}")
        self.name = name.lower()
        self.schema = schema
        self.rows: dict[int, tuple[Any, ...]] = {}
        self.versions: dict[int, int] = {}
        self.next_rowid = 1
        self.rowid_ordered = True
        self._pk_positions: tuple[int, ...] = tuple(
            index for index, column in enumerate(schema.columns)
            if column.primary_key)
        self._pk_index: dict[tuple[Any, ...], int] = {}
        self.indexes: dict[str, HashIndex] = {}

    # -- row operations --------------------------------------------------------

    def insert(self, values: Iterable[Any], tick: int) -> int:
        """Insert a row, returning its new rowid: a batch of one
        (:meth:`insert_many`)."""
        return self.insert_many((values,), tick)[0]

    def insert_many(self, rows: Iterable[Iterable[Any]],
                    tick: int) -> range:
        """Insert rows under fresh rowids from ``next_rowid``, each at
        version ``tick``, and return their rowids.

        Each row is coerced (:func:`~repro.db.types.coerce_row`) and
        the batch goes in through :meth:`install`. The first faulty
        row in order, a cell coercion refuses or a primary key the
        table or an earlier row holds, raises its error with the rows
        before it installed, as inserting them one at a time would;
        the caller's undo log takes them out again.
        """
        coerced: list[tuple[Any, ...]] = []
        fault: Optional[Exception] = None
        try:
            for values in rows:
                coerced.append(coerce_row(values, self.schema))
        except TypeError_ as exc:
            fault = exc
        start = self.next_rowid
        rowids = range(start, start + len(coerced))
        try:
            self.install(rowids, [tick] * len(coerced), coerced)
        except IntegrityError as exc:
            end = exc.position
            self.install(rowids[:end], [tick] * end, coerced[:end])
            raise
        if fault is not None:
            raise fault
        return rowids

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

    def install(self, rowids: Sequence[int], versions: Sequence[int],
                rows: Sequence[tuple[Any, ...]]) -> None:
        """Bulk-install typed rows under explicit rowids and versions,
        in order (a package restore, a table-file load, :meth:`replace`).

        All or nothing: a rowid or primary key that the table or an
        earlier row of the batch already holds raises
        :class:`IntegrityError` with ``position`` the offending row's
        index, and changes nothing. The rows are not coerced; their
        decoder checked them.
        """
        count = len(rows)
        new_rows = dict(zip(rowids, rows))
        if len(new_rows) != count or not self.rows.keys().isdisjoint(
                new_rows.keys()):
            position = _first_repeat(rowids, self.rows)
            raise IntegrityError(
                f"duplicate rowid {rowids[position]} in table {self.name}",
                position)
        if self._pk_positions:
            keys = self._pk_keys(rows)
            new_keys = dict(zip(keys, rowids))
            if len(new_keys) != count or not self._pk_index.keys(
                    ).isdisjoint(new_keys.keys()):
                position = _first_repeat(keys, self._pk_index)
                raise IntegrityError(
                    f"duplicate primary key {keys[position]!r} in table "
                    f"{self.name}", position)
            self._pk_index.update(new_keys)
        if self.rowid_ordered and count and not (
                rowids[0] > next(reversed(self.rows), 0)
                and all(map(lt, rowids, islice(rowids, 1, None)))):
            self.rowid_ordered = False
        self.rows.update(new_rows)
        self.versions.update(zip(rowids, versions))
        for index in self.indexes.values():
            index.add_many(rowids, map(itemgetter(index.position), rows))
        if count:
            self.next_rowid = max(self.next_rowid, max(rowids) + 1)

    def replace(self, states: Mapping[int, Optional[tuple[tuple[Any, ...],
                                                          int]]]) -> None:
        """Set each named rowid to an absolute state, ``(row, version)``
        or ``None`` for no row (WAL redo, an undo-log rollback).

        Every named row comes out first, as :meth:`delete` takes it
        out, and the rest go in through :meth:`install`: primary keys
        are checked once, on the final states, so keys moved between
        named rows cannot collide on the way. A key held twice at the
        end raises :class:`IntegrityError` and leaves the named rows
        out. The rowid counter moves past every named rowid.
        """
        for rowid in states.keys() & self.rows.keys():
            self.delete(rowid)
        live = {rowid: state for rowid, state in states.items()
                if state is not None}
        rows, versions = zip(*live.values()) if live else ((), ())
        self.install(list(live), versions, rows)
        self.next_rowid = max(self.next_rowid, max(states, default=0) + 1)

    def _pk_keys(self, rows: Iterable[tuple[Any, ...]]
                 ) -> list[tuple[Any, ...]]:
        """The primary-key tuple of each row."""
        if len(self._pk_positions) == 1:
            return list(zip(map(itemgetter(self._pk_positions[0]), rows)))
        return list(map(itemgetter(*self._pk_positions), rows))

    def restore_row(self, rowid: int, values: Iterable[Any],
                    version: int) -> None:
        """Install one row under an explicit rowid/version: coerce the
        values, then :meth:`install` a batch of one."""
        self.install([rowid], [version], [coerce_row(values, self.schema)])

    def get(self, rowid: int) -> tuple[Any, ...]:
        row = self.rows.get(rowid)
        if row is None:
            raise ExecutionError(
                f"rowid {rowid} not found in table {self.name}")
        return row

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Yield ``(rowid, values)`` in rowid order (deterministic)."""
        for rowid, values, _version in self.scan_versions():
            yield rowid, values

    def scan_versions(self) -> Iterator[tuple[int, tuple[Any, ...], int]]:
        """Like :meth:`scan`, additionally yielding each row's
        version."""
        rows, versions = self.rows, self.versions
        for rowid in self.rowids():
            yield rowid, rows[rowid], versions[rowid]

    def rowids(self) -> list[int]:
        """Every rowid, ascending (sorted only when
        ``rowid_ordered`` is clear)."""
        return list(self.rows) if self.rowid_ordered else sorted(self.rows)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def truncate(self) -> None:
        """Drop all rows but keep the schema and rowid counter."""
        self.rows.clear()
        self.versions.clear()
        self._pk_index.clear()
        self.rowid_ordered = True
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
        index.add_many(self.rows, map(itemgetter(position),
                                      self.rows.values()))
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
        csvio.write_versioned_rows(
            buffer, ((rowid, self.versions[rowid], self.rows[rowid])
                     for rowid in self.rowids()), self.schema)
        return buffer.getvalue()

    @classmethod
    def deserialize(cls, text: str) -> "HeapTable":
        """Parse the on-disk file format back into a table.

        A malformed header, or a row that a restore CSV would not pass
        either (a cell count that does not match the schema, a cell
        that does not parse as its column's type, NULL in a NOT NULL
        column, an invalid DATE, a repeated rowid or primary key),
        raises :class:`CatalogError` naming the row's line.
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
        table.next_rowid = next_rowid
        try:
            # the header is line 1 of the file
            body = csvio.decode_versioned_rows(
                text[newline + 1:], table.schema, first_line=2)
            body.install_into(table)
        except (ExecutionError, IntegrityError) as exc:
            raise CatalogError(f"table {table.name} {exc}") from exc
        for name, column in index_defs:
            table.create_index(name, column)
        return table


def _first_repeat(keys: Sequence[Hashable], taken: Any) -> int:
    """Index of the first key that ``taken`` or an earlier key holds
    (error path only)."""
    seen: set[Hashable] = set()
    for position, key in enumerate(keys):
        if key in taken or key in seen:
            return position
        seen.add(key)
    raise AssertionError("no key repeats")


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
