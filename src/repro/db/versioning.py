"""Tuple versioning bookkeeping (paper Section VII-B).

The LDV prototype extends each relation accessed by the application with
four attributes: ``prov_rowid`` (stable row identifier), ``prov_v``
(timestamp of the latest update), and ``prov_usedby`` / ``prov_p``
(identifiers of the query and process that used the tuple). In this
engine, ``prov_rowid`` and ``prov_v`` are native storage metadata
(:mod:`repro.db.storage`), so extending a table's schema does no work,
and the combined execution trace records each use once: a statement's
hasRead edge from the tuple version, and the run edge from the process
that issued it. This module supplies the rest:

* :meth:`VersionManager.enable` — record that the application touched
  a table. It allocates nothing per row.
* :meth:`VersionManager.mark_used` — the per-statement marking step.
  It stores nothing: the trace's edges are the marks.
* :meth:`VersionManager.used_by` and
  :meth:`VersionManager.all_used_refs` read the per-tuple
  ``prov_usedby`` / ``prov_p`` view from the trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Iterable

from repro.db.engine import Database
from repro.db.provtypes import TupleRef

if TYPE_CHECKING:
    from repro.provenance.combined import TraceBuilder


class VersionManager:
    """The ``prov_usedby`` / ``prov_p`` marks for one database, read
    from the trace ``builder`` grows."""

    def __init__(self, database: Database, builder: TraceBuilder) -> None:
        self.database = database
        self.builder = builder
        self._enabled_tables: set[str] = set()

    @property
    def enabled_tables(self) -> frozenset[str]:
        return frozenset(self._enabled_tables)

    def is_enabled(self, table: str) -> bool:
        return table.lower() in self._enabled_tables

    def enable(self, table: str) -> int:
        """Provenance-enable a table on first access.

        Returns the table's row count (0 if already enabled).
        """
        key = table.lower()
        if key in self._enabled_tables:
            return 0
        self._enabled_tables.add(key)
        return self.database.catalog.get_table(key).row_count

    def ensure_enabled(self, tables: Iterable[str]) -> int:
        """Enable every table in ``tables``; returns the total row count
        of the tables this call enabled."""
        return sum(self.enable(table) for table in tables)

    def mark_used(self, refs: Collection[TupleRef], query_id: str,
                  process_id: str) -> int:
        """Mark tuple versions as used by (query, process): the
        statement's hasRead and run edges, which the caller adds to the
        trace. Returns the number of marks."""
        return len(refs)

    def used_by(self, ref: TupleRef) -> frozenset[tuple[str, str]]:
        """The (query, process) marks of a tuple version."""
        return self.builder.used_by(ref)

    def all_used_refs(self) -> list[TupleRef]:
        """Every tuple version that carries at least one usage mark."""
        return self.builder.used_refs()
