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

    ``rows``/``versions`` hold the *committed-latest* state — what
    checkpoints serialize and what the WAL describes. While any
    transaction is open (``mvcc.has_active()``), superseded committed
    versions are additionally retained in ``history`` as
    ``(begin, end, values)`` chains so concurrent snapshots can still
    read them; history is in-memory only and is pruned as soon as no
    snapshot can reach it. ``mvcc`` is the database-wide
    :class:`repro.db.mvcc.MVCCState`, attached by the catalog
    (standalone tables never record history and scan the heap
    directly).
    """

    def __init__(self, name: str, schema: Schema) -> None:
        if not name or not name.isidentifier():
            raise CatalogError(f"invalid table name {name!r}")
        self.name = name.lower()
        self.schema = schema
        self.rows: dict[int, tuple[Any, ...]] = {}
        self.versions: dict[int, int] = {}
        self.history: dict[int, list[tuple[int, int, tuple]]] = {}
        self.mvcc = None  # set by Catalog; None for standalone tables
        # the catalog's shared columnar scan cache (see
        # repro.db.scancache); None for standalone tables, which are
        # never served from cached segments
        self.scan_cache = None
        # committed-rowid list reused across scans until a mutation
        # changes the rowid set; builds are counted so tests can probe
        # the reuse
        self._rowid_cache: list[int] | None = None
        self.rowid_cache_builds = 0
        self.next_rowid = 1
        self._pk_positions: tuple[int, ...] = tuple(
            index for index, column in enumerate(schema.columns)
            if column.primary_key)
        self._pk_index: dict[tuple[Any, ...], int] = {}
        self.indexes: dict[str, HashIndex] = {}

    # -- MVCC hooks ------------------------------------------------------------

    def active_view(self):
        """The ambient :class:`~repro.db.mvcc.ReadView`, if any."""
        return self.mvcc.current if self.mvcc is not None else None

    def _record_history(self, rowid: int, begin: int, end: int,
                        values: tuple) -> None:
        """Retain a superseded committed version for open snapshots."""
        if (self.mvcc is not None and self.mvcc.has_active()
                and end is not None):
            self.history.setdefault(rowid, []).append((begin, end, values))

    def prune_history(self, minimum: int | None, commit_stamp) -> None:
        """Drop history no active snapshot can see.

        A chain entry ``(begin, end, values)`` is only readable by
        snapshots that do *not* see ``end``; once every active snapshot
        is at or past ``commit_stamp(end)`` — or nothing is active —
        the entry is dead.
        """
        if not self.history:
            return
        if minimum is None:
            self.history.clear()
            return
        for rowid in list(self.history):
            kept = [entry for entry in self.history[rowid]
                    if commit_stamp(entry[1]) > minimum]
            if kept:
                self.history[rowid] = kept
            else:
                del self.history[rowid]

    def _note_mutation(self, rowids_changed: bool = True) -> None:
        """Heap changed: strand cached scan state.

        Every mutator calls this, so the scan cache can never serve a
        stale segment — including from paths that bypass the WAL/MVCC
        bookkeeping (direct bulk loads, WAL redo, package restore) and
        from the mid-statement window where a multi-row statement has
        already moved the commit watermark but not yet written its
        last row. UPDATE keeps the rowid-list cache (the rowid *set*
        is unchanged) but still drops segments (values changed).
        """
        if rowids_changed:
            self._rowid_cache = None
        if self.scan_cache is not None:
            self.scan_cache.invalidate_table(self.name)

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
        self._note_mutation()
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
        self._record_history(rowid, self.versions[rowid], tick, old_row)
        for index in self.indexes.values():
            index.remove(rowid, old_row[index.position])
            index.add(rowid, row[index.position])
        self.rows[rowid] = row
        self.versions[rowid] = tick
        self._note_mutation(rowids_changed=False)

    def delete(self, rowid: int, tick: int | None = None) -> None:
        """Remove a row. ``tick`` is the logical time of the removal;
        it stamps the ``end`` of the retained history entry when
        concurrent snapshots might still read the row."""
        row = self.rows.pop(rowid, None)
        if row is None:
            raise ExecutionError(
                f"rowid {rowid} not found in table {self.name}")
        version = self.versions.pop(rowid, None)
        if version is not None and tick is not None:
            self._record_history(rowid, version, tick, row)
        if self._pk_positions:
            key = tuple(row[i] for i in self._pk_positions)
            self._pk_index.pop(key, None)
        for index in self.indexes.values():
            index.remove(rowid, row[index.position])
        self._note_mutation()

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
        self._note_mutation()

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
        self._note_mutation()

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
        """Yield ``(rowid, values)`` in rowid order (deterministic).

        Under an ambient :class:`~repro.db.mvcc.ReadView` the scan is
        snapshot-correct: it merges the view's private overlay over the
        committed versions visible at the snapshot (skipping overlay
        deletes and versions committed after it).
        """
        view = self.active_view()
        if view is None:
            for rowid in sorted(self.rows):
                yield rowid, self.rows[rowid]
            return
        for rowid, values, _version in self._scan_view(view):
            yield rowid, values

    def scan_versions(self) -> Iterator[tuple[int, tuple[Any, ...], int]]:
        """Like :meth:`scan`, additionally yielding each row's begin
        stamp — for the visible version, which under a snapshot may be
        a history entry or an uncommitted overlay write."""
        view = self.active_view()
        if view is None:
            for rowid in sorted(self.rows):
                yield rowid, self.rows[rowid], self.versions[rowid]
            return
        yield from self._scan_view(view)

    def _scan_view(self, view) -> Iterator[tuple[int, tuple[Any, ...], int]]:
        overlay = view.overlay_for(self.name)
        rowids = set(self.rows)
        if self.history:
            rowids.update(self.history)
        if overlay is not None:
            rowids.update(overlay.upserts)
        for rowid in sorted(rowids):
            if overlay is not None:
                entry = overlay.upserts.get(rowid)
                if entry is not None:
                    yield rowid, entry[0], entry[1]
                    continue
                if rowid in overlay.deletes:
                    continue
            found = self.visible_version(rowid, view)
            if found is not None:
                yield rowid, found[0], found[1]

    def candidate_rowids(self) -> list[int]:
        """Every rowid the ambient view *might* see, sorted.

        This is the rowid universe :meth:`_scan_view` iterates —
        committed rows plus history chains plus the view's private
        overlay upserts.
        """
        view = self.active_view()
        if view is None:
            # reused across scans until a mutation changes the rowid
            # set; callers must not mutate the shared list
            cached = self._rowid_cache
            if cached is None:
                rowids = list(self.rows)
                cached = (rowids if rowids == sorted(rowids)
                          else sorted(rowids))
                self._rowid_cache = cached
                self.rowid_cache_builds += 1
            return cached
        universe = set(self.rows)
        if self.history:
            universe.update(self.history)
        overlay = view.overlay_for(self.name)
        if overlay is not None:
            universe.update(overlay.upserts)
        return sorted(universe)

    def visible_version(self, rowid: int,
                        view) -> tuple[tuple[Any, ...], int] | None:
        """The committed ``(values, begin)`` a view sees for a rowid,
        or None when the row did not exist (or no longer existed) at
        the snapshot."""
        version = self.versions.get(rowid)
        if version is not None and view.sees(version):
            return self.rows[rowid], version
        for begin, end, values in reversed(self.history.get(rowid, ())):
            if view.sees(begin) and not view.sees(end):
                return values, begin
        return None

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def visible_row_count(self) -> int:
        """Estimated row count as seen by the ambient read view.

        Without a view this is the committed heap size. Under a view
        the committed count is adjusted by the transaction's private
        overlay (its inserts and deletes), without paying a full scan —
        the planner calls this per table per plan. Versions committed
        after the snapshot are approximated as visible; the figure is
        a cardinality estimate, not a COUNT(*).
        """
        count = len(self.rows)
        view = self.active_view()
        if view is None:
            return count
        overlay = view.overlay_for(self.name)
        if overlay is not None:
            for rowid in overlay.upserts:
                if rowid not in self.rows:
                    count += 1
            for rowid in overlay.deletes:
                if rowid in self.rows:
                    count -= 1
        return count

    def truncate(self) -> None:
        """Drop all rows but keep the schema and rowid counter."""
        self.rows.clear()
        self.versions.clear()
        self.history.clear()
        self._pk_index.clear()
        for index in self.indexes.values():
            index.buckets.clear()
        self._note_mutation()

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
        """Parse the on-disk file format back into a table."""
        newline = text.find("\n")
        if newline == -1:
            raise CatalogError("table file is missing its header line")
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
        types = table.schema.types()
        reader = csv.reader(io.StringIO(text[newline + 1:]))
        for cells in reader:
            if not cells:
                continue
            rowid = int(cells[0])
            version = int(cells[1])
            values = tuple(
                value_from_csv(cell, sql_type)
                for cell, sql_type in zip(cells[2:], types))
            table.rows[rowid] = values
            table.versions[rowid] = version
            if table._pk_positions:
                key = tuple(values[i] for i in table._pk_positions)
                table._pk_index[key] = rowid
        table.next_rowid = max(header["next_rowid"],
                               max(table.rows, default=0) + 1)
        for index_def in header.get("indexes", ()):
            table.create_index(index_def["name"], index_def["column"])
        return table


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
        return HeapTable.deserialize(path.read_text())

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
