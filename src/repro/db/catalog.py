"""Schema catalog: the set of tables known to a database instance."""

from __future__ import annotations

from typing import Iterator

from repro.db.mvcc import MVCCState
from repro.db.stats import TableStats
from repro.db.storage import DataDirectory, HeapTable
from repro.db.types import Schema
from repro.errors import CatalogError


class Catalog:
    """Name → table mapping with optional data-directory backing.

    ``version`` is a monotonic counter bumped on every schema change
    (table and index DDL). A prepared statement's kept plan records it,
    so a plan built against an older schema is re-planned the moment
    the schema changes. ``stats_version`` plays the same role for
    ANALYZE statistics: it bumps whenever planner statistics change,
    so plans costed against stale statistics are re-planned too.

    The catalog also owns the database-wide :class:`MVCCState` and
    wires it into every table it manages, so scans anywhere in the
    engine observe the ambient read view (see :mod:`repro.db.mvcc`).
    """

    def __init__(self, data_directory: DataDirectory | None = None) -> None:
        self._tables: dict[str, HeapTable] = {}
        self.data_directory = data_directory
        self.version = 0
        self.mvcc = MVCCState()
        # ANALYZE statistics, table name → TableStats (advisory: the
        # planner falls back to rote heuristics for absent entries)
        self.stats: dict[str, TableStats] = {}
        self.stats_version = 0
        if data_directory is not None:
            for name in data_directory.table_names():
                table = data_directory.load_table(name)
                table.mvcc = self.mvcc
                self._tables[name] = table

    def bump_version(self) -> None:
        """Record a schema change (called for index DDL, which goes
        through the table object rather than the catalog)."""
        self.version += 1

    def create_table(self, name: str, schema: Schema,
                     if_not_exists: bool = False) -> HeapTable:
        key = name.lower()
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError(f"table {name!r} already exists")
        table = HeapTable(key, schema)
        table.mvcc = self.mvcc
        self._tables[key] = table
        self.version += 1
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self.version += 1
        if key in self.stats:
            del self.stats[key]
            self.stats_version += 1
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

    # -- planner statistics ------------------------------------------------------

    def set_stats(self, name: str, stats: TableStats) -> None:
        """Install ANALYZE statistics for a table and age out every
        plan costed against the previous statistics."""
        self.stats[name.lower()] = stats
        self.stats_version += 1

    def stats_for(self, name: str) -> TableStats | None:
        return self.stats.get(name.lower())

    def dump_stats(self) -> dict[str, dict]:
        """JSON-ready snapshot of all statistics (checkpoint meta)."""
        return {name: stats.to_dict()
                for name, stats in sorted(self.stats.items())}

    def load_stats(self, dumped: dict[str, dict]) -> None:
        """Restore checkpointed statistics (tables only — entries for
        tables the catalog no longer knows are dropped)."""
        for name, entry in dumped.items():
            if name.lower() in self._tables:
                self.stats[name.lower()] = TableStats.from_dict(entry)
        if dumped:
            self.stats_version += 1

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
        """Write every table to the data directory (checkpoint) and
        delete files for tables that were dropped since the last one."""
        if self.data_directory is None:
            return
        for table in self._tables.values():
            self.data_directory.save_table(table)
        self.sync_drops()

    def flush_table(self, name: str) -> None:
        if self.data_directory is None:
            return
        self.data_directory.save_table(self.get_table(name))

    def sync_drops(self) -> None:
        """Remove on-disk files of tables no longer in the catalog."""
        if self.data_directory is None:
            return
        for name in self.data_directory.table_names():
            if name not in self._tables:
                self.data_directory.drop_table(name)
