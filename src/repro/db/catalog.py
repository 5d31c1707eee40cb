"""Schema catalog: the set of tables known to a database instance."""

from __future__ import annotations

from typing import Iterator

from repro.db.storage import DataDirectory, HeapTable
from repro.db.types import Schema
from repro.errors import CatalogError


class Catalog:
    """Name → table mapping with optional data-directory backing.

    ``version`` is a monotonic counter bumped on every schema change
    (table and index DDL). Beside it, ``watermarks`` holds each table's
    commit watermark: the tick of the latest committed batch that wrote
    it. The server's result cache records both, so a result computed
    against an older schema or older rows is never served after they
    change.

    ``dirty_tables`` names the tables whose ``.tbl`` file may lag their
    heap: the engine marks what each WAL batch, DDL statement and
    recovery record touched, a load that bypasses the engine (dbgen,
    the HALOS loader) marks its table with :meth:`mark_dirty`, and
    :meth:`attach_table` marks the table it adopts. A package restore
    marks nothing: replay's database has no data directory.
    A checkpoint rewrites only these tables (and any with no file
    yet); every other file already equals its table's ``serialize()``.
    """

    def __init__(self, data_directory: DataDirectory | None = None) -> None:
        self._tables: dict[str, HeapTable] = {}
        self.data_directory = data_directory
        self.version = 0
        self.watermarks: dict[str, int] = {}
        self.dirty_tables: set[str] = set()
        if data_directory is not None:
            for name in data_directory.table_names():
                self._tables[name] = data_directory.load_table(name)

    def bump_version(self) -> None:
        """Record a schema change (called for index DDL, which goes
        through the table object rather than the catalog)."""
        self.version += 1

    def note_write(self, table: str, tick: int) -> None:
        """Record a committed write to ``table`` at ``tick``."""
        if tick > self.watermarks.get(table, 0):
            self.watermarks[table] = tick

    def watermark(self, table: str) -> int:
        """Commit tick of the latest write to ``table`` (0 if never
        written)."""
        return self.watermarks.get(table, 0)

    def create_table(self, name: str, schema: Schema,
                     if_not_exists: bool = False) -> HeapTable:
        key = name.lower()
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError(f"table {name!r} already exists")
        table = HeapTable(key, schema)
        self._tables[key] = table
        self.version += 1
        return table

    def attach_table(self, table: HeapTable) -> None:
        """Adopt a table built outside the engine (a PTU package's full
        table file): bump the schema version and mark it for the next
        checkpoint."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self.version += 1
        self.dirty_tables.add(table.name)

    def mark_dirty(self, *names: str) -> None:
        """Note that these tables changed since their file was written."""
        self.dirty_tables.update(name.lower() for name in names)

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self.version += 1
        # disk removal is deferred to flush()/sync_drops(): destroying
        # durable state belongs to the checkpoint, after the DROP has
        # been committed to the WAL — an uncommitted DROP must be
        # recoverable

    def get_table(self, name: str) -> HeapTable:
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError(f"table {name!r} does not exist")
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def table_of_index(self, index_name: str) -> HeapTable:
        """Find the table holding a (globally unique) index name."""
        wanted = index_name.lower()
        for table in self._tables.values():
            if wanted in table.indexes:
                return table
        raise CatalogError(f"index {index_name!r} does not exist")

    def has_index(self, index_name: str) -> bool:
        wanted = index_name.lower()
        return any(wanted in table.indexes
                   for table in self._tables.values())

    def __iter__(self) -> Iterator[HeapTable]:
        for name in sorted(self._tables):
            yield self._tables[name]

    # -- persistence -----------------------------------------------------------

    def flush(self) -> None:
        """Write every dirty table, and every table with no file yet, to
        the data directory (checkpoint); then delete files for tables
        that were dropped since the last one.

        A table's mark clears only once its own file has been renamed
        into place, so a flush that fails partway leaves every table it
        did not write still dirty for the next attempt."""
        if self.data_directory is None:
            return
        on_disk = set(self.data_directory.table_names())
        for name, table in self._tables.items():
            if name in self.dirty_tables or name not in on_disk:
                self.data_directory.save_table(table)
                self.dirty_tables.discard(name)
        # marks of dropped tables: sync_drops removes their files
        self.dirty_tables.intersection_update(self._tables)
        self.sync_drops()

    def flush_table(self, name: str) -> None:
        if self.data_directory is None:
            return
        self.data_directory.save_table(self.get_table(name))
        self.dirty_tables.discard(name.lower())

    def sync_drops(self) -> None:
        """Remove on-disk files of tables no longer in the catalog."""
        if self.data_directory is None:
            return
        for name in self.data_directory.table_names():
            if name not in self._tables:
                self.data_directory.drop_table(name)
