"""Sessions and the one open transaction's private write-set.

A :class:`Database` allows one open transaction at a time. While a
session holds it, any other session that sends BEGIN, DML, DDL or COPY
FROM is refused with a one-line :class:`repro.errors.TransientError`
(see :meth:`repro.db.engine.Database.execute_statement`), so nothing
but that transaction's COMMIT can change the committed heap. The
committed heap is therefore the transaction's snapshot, and it needs
no snapshot tick, version history or commit map:

* **Private write-set.** The transaction's INSERT/UPDATE/DELETE land
  in a per-table :class:`TableOverlay`. Scans merge the overlay over
  the committed heap, which gives read-your-own-writes; ROLLBACK just
  drops the overlay. Nothing was shared, so there is nothing to undo.
* **Stable stamps.** Row versions are stamped with the *statement's*
  logical tick and keep it at COMMIT, so every
  :class:`repro.db.provtypes.TupleRef` recorded inside the transaction
  (write provenance, monitor lineage) still names the row after it
  commits.

:class:`MVCCState` is owned by the catalog and shared by every table
of one database. Its ``current`` field holds the write-set of the
session whose statement is executing, which tables consult while
scanning (see :meth:`repro.db.storage.HeapTable.overlay`).

LDV's runs never need more: the virtual OS runs a spawned child to
completion before its parent continues, so no audited, packaged or
replayed run overlaps two transactions (``docs/concurrency.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class TableOverlay:
    """One transaction's private write-set for one table.

    ``upserts`` maps rowid → ``(values, provisional version)`` for rows
    the transaction inserted or updated; ``deletes`` maps rowid → the
    tick of the DELETE statement. The two are kept disjoint.
    """

    def __init__(self) -> None:
        self.upserts: dict[int, tuple[tuple, int]] = {}
        self.deletes: dict[int, int] = {}

    @property
    def empty(self) -> bool:
        return not self.upserts and not self.deletes


@dataclass
class Session:
    """One logical connection's transaction state.

    The server opens one per wire connection; :class:`Database` keeps a
    default session so embedded (single-connection) use is unchanged.
    ``txn`` holds the open transaction's write-sets by table name, and
    is None outside a transaction.
    """

    session_id: int
    name: str
    txn: Optional[dict[str, TableOverlay]] = None

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None


class MVCCState:
    """Database-wide state shared by all tables.

    ``current`` holds the write-sets of the session whose statement is
    executing (``None`` between statements and for autocommit
    statements). Tables consult it during scans, so a plan's operators,
    which hold direct table references, see that session's own writes.
    """

    def __init__(self) -> None:
        self.current: Optional[dict[str, TableOverlay]] = None
        # highest committed write tick per table; the serving layer's
        # result cache keys on these, so invalidation falls out of the
        # same bookkeeping that stamps versions
        self.table_watermarks: dict[str, int] = {}

    def note_write(self, table: str, tick: int) -> None:
        """Record a committed write to ``table`` at ``tick``."""
        current = self.table_watermarks.get(table, 0)
        if tick > current:
            self.table_watermarks[table] = tick

    def watermark(self, table: str) -> int:
        """Commit tick of the latest write to ``table`` (0 if never
        written)."""
        return self.table_watermarks.get(table, 0)
