"""Tuple versioning bookkeeping (paper Section VII-B).

The LDV prototype extends each relation accessed by the application with
four attributes: ``prov_rowid`` (stable row identifier), ``prov_v``
(timestamp of the latest update), and ``prov_usedby`` / ``prov_p``
(identifiers of the query and process that used the tuple). In this
engine, ``prov_rowid`` and ``prov_v`` are native storage metadata
(:mod:`repro.db.storage`); this module supplies the remaining half:

* :meth:`VersionManager.enable` — "extend the schema" of a table the
  first time the application touches it. As in the paper, this costs a
  pass over the whole table (every tuple must be stamped), which is the
  cold-cache overhead visible in the First Select bar of Fig 7a.
* :meth:`VersionManager.mark_used` — stamp accessed tuple versions with
  the query/process that read them, the steady-state per-query
  versioning overhead of subsequent selects.
"""

from __future__ import annotations

from typing import Iterable

from repro.db.engine import Database
from repro.db.provtypes import TupleRef


class VersionManager:
    """Maintains the ``prov_usedby`` / ``prov_p`` marks for one database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._enabled_tables: set[str] = set()
        # (table, rowid, version) -> set of (query_id, process_id)
        self._used_by: dict[TupleRef, set[tuple[str, str]]] = {}

    @property
    def enabled_tables(self) -> frozenset[str]:
        return frozenset(self._enabled_tables)

    def is_enabled(self, table: str) -> bool:
        return table.lower() in self._enabled_tables

    def enable(self, table: str) -> int:
        """Provenance-enable a table on first access.

        Returns the number of tuples stamped (0 if already enabled).
        The full-table pass mirrors the prototype's schema-extension
        cost on first access.
        """
        key = table.lower()
        if key in self._enabled_tables:
            return 0
        heap = self.database.catalog.get_table(key)
        stamped = 0
        # scan_versions pairs each row with the version the executing
        # session sees: inside a transaction, its own provisional
        # stamps for the rows it wrote
        for rowid, _values, version in heap.scan_versions():
            ref = TupleRef(key, rowid, version)
            self._used_by.setdefault(ref, set())
            stamped += 1
        self._enabled_tables.add(key)
        return stamped

    def ensure_enabled(self, tables: Iterable[str]) -> int:
        """Enable every table in ``tables``; returns total tuples stamped."""
        return sum(self.enable(table) for table in tables)

    def mark_used(self, refs: Iterable[TupleRef], query_id: str,
                  process_id: str) -> int:
        """Stamp tuple versions as used by (query, process).

        Returns the number of stamps applied.
        """
        stamp = (query_id, process_id)
        count = 0
        for ref in refs:
            self._used_by.setdefault(ref, set()).add(stamp)
            count += 1
        return count

    def used_by(self, ref: TupleRef) -> frozenset[tuple[str, str]]:
        """The (query, process) stamps recorded for a tuple version."""
        return frozenset(self._used_by.get(ref, ()))

    def all_used_refs(self) -> list[TupleRef]:
        """Every tuple version that carries at least one usage stamp."""
        return sorted(ref for ref, stamps in self._used_by.items() if stamps)
