"""Multi-version concurrency control: sessions, snapshots, write-sets.

The engine gives each :class:`Session` snapshot isolation without ever
letting uncommitted data touch the shared heap or the WAL:

* **Snapshots.** BEGIN captures the logical clock (``snapshot``). A
  reader sees exactly the row versions committed at or before that
  tick; versions committed later — and other sessions' uncommitted
  writes — are invisible.
* **Private write-sets.** A transaction's own INSERT/UPDATE/DELETE land
  in a per-table :class:`TableOverlay` (read-your-own-writes comes from
  merging the overlay over the snapshot during scans). ROLLBACK just
  drops the overlay; nothing was ever shared, so there is nothing to
  undo.
* **Stable stamps + a commit map.** Row versions are stamped with the
  *statement's* logical tick and are never restamped at commit. Commit
  instead registers ``provisional tick → commit tick`` in a global
  ``commit map``, and visibility asks ``commit_stamp(v) <= snapshot``.
  This keeps every :class:`repro.db.provtypes.TupleRef` recorded
  mid-transaction (write provenance, monitor lineage) valid after
  commit, while still hiding a transaction's work from snapshots taken
  before its commit tick.
* **First committer wins.** Writes record the committed version they
  were based on (:attr:`TableOverlay.base_versions`); writing a row
  whose committed version has moved past the snapshot raises
  :class:`repro.errors.WriteConflictError` — eagerly at write time when
  detectable, and again at COMMIT. The losing transaction is rolled
  back; the client retries the whole transaction with a fresh snapshot.

:class:`MVCCState` is owned by the catalog and shared by every table of
one database; :class:`ReadView` is the per-statement handle tables
consult while scanning (see :meth:`repro.db.storage.HeapTable.scan`).

The engine is single-threaded per statement (the server interleaves
whole statements, never rows), so these structures need no locking —
determinism, not parallelism, is the point: the interleaving scheduler
(:mod:`repro.db.scheduler`) relies on statement-level interleavings
being exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


class TableOverlay:
    """One transaction's private write-set for one table.

    ``upserts`` maps rowid → ``(values, provisional version)`` for rows
    the transaction inserted or updated; ``deletes`` maps rowid → the
    tick of the DELETE statement (the version at which the removal
    becomes visible once committed). The two are kept disjoint.

    ``base_versions`` remembers, per touched rowid, the *committed*
    version the transaction based its write on — ``None`` for rows born
    inside the transaction. COMMIT re-checks these against the shared
    heap: any drift means another transaction committed first.
    """

    def __init__(self) -> None:
        self.upserts: dict[int, tuple[tuple, int]] = {}
        self.deletes: dict[int, int] = {}
        self.base_versions: dict[int, Optional[int]] = {}

    @property
    def empty(self) -> bool:
        return not self.upserts and not self.deletes


class TransactionContext:
    """The state of one open transaction."""

    def __init__(self, txn_id: int, snapshot: int) -> None:
        self.txn_id = txn_id
        self.snapshot = snapshot
        self.overlays: dict[str, TableOverlay] = {}

    def overlay_for(self, table_name: str,
                    create: bool = False) -> Optional[TableOverlay]:
        overlay = self.overlays.get(table_name)
        if overlay is None and create:
            overlay = TableOverlay()
            self.overlays[table_name] = overlay
        return overlay


@dataclass
class Session:
    """One logical connection's transaction state.

    The server opens one per wire connection; :class:`Database` keeps a
    default session so embedded (single-connection) use is unchanged.
    """

    session_id: int
    name: str
    txn: Optional[TransactionContext] = None

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None


class ReadView:
    """The visibility context of one executing statement.

    A statement inside a transaction sees (a) its own overlay and (b)
    every version whose commit stamp is at or before its snapshot.
    Outside a transaction there is no active view and scans read the
    committed heap directly.
    """

    __slots__ = ("snapshot", "context", "state")

    def __init__(self, snapshot: int, context: Optional[TransactionContext],
                 state: "MVCCState") -> None:
        self.snapshot = snapshot
        self.context = context
        self.state = state

    def sees(self, version: int) -> bool:
        """Is a row version (by its begin/end stamp) visible here?"""
        return self.state.commit_stamp(version) <= self.snapshot

    def overlay_for(self, table_name: str) -> Optional[TableOverlay]:
        if self.context is None:
            return None
        return self.context.overlay_for(table_name)


class MVCCState:
    """Database-wide MVCC bookkeeping, shared by all tables.

    ``current`` is the ambient :class:`ReadView` of the statement being
    executed (``None`` between statements and for autocommit reads of
    sessions with no open transaction). Tables consult it during scans,
    so a plan's operators, which hold direct table references, read
    the snapshot of whichever session is executing.
    """

    def __init__(self) -> None:
        self.current: Optional[ReadView] = None
        self._active: dict[int, int] = {}  # txn_id -> snapshot tick
        self._commit_map: dict[int, int] = {}  # provisional -> commit tick
        # highest committed write tick per table; the serving layer's
        # result cache keys on these, so invalidation falls out of the
        # same bookkeeping that stamps versions
        self.table_watermarks: dict[str, int] = {}

    # -- per-table commit watermarks ------------------------------------------

    def note_write(self, table: str, tick: int) -> None:
        """Record a committed write to ``table`` at ``tick``."""
        current = self.table_watermarks.get(table, 0)
        if tick > current:
            self.table_watermarks[table] = tick

    def watermark(self, table: str) -> int:
        """Commit tick of the latest write to ``table`` (0 if never
        written)."""
        return self.table_watermarks.get(table, 0)

    # -- transaction registry -------------------------------------------------

    def begin(self, txn_id: int, snapshot: int) -> None:
        self._active[txn_id] = snapshot

    def end(self, txn_id: int) -> None:
        self._active.pop(txn_id, None)

    def has_active(self) -> bool:
        return bool(self._active)

    def active_count(self) -> int:
        return len(self._active)

    def active_ids(self) -> list[int]:
        """Transaction ids still holding snapshots, oldest first.

        The chaos harness's leak checker uses this to name exactly
        which transactions were left pinning MVCC history after every
        connection was reaped."""
        return sorted(self._active)

    def min_active_snapshot(self) -> Optional[int]:
        if not self._active:
            return None
        return min(self._active.values())

    # -- commit stamps --------------------------------------------------------

    def commit_stamp(self, version: int) -> int:
        """The tick at which a version became committed.

        Autocommitted versions commit at their own statement tick, so
        the map only holds entries for explicitly-committed
        transactions' writes (and only until pruned).
        """
        return self._commit_map.get(version, version)

    def register_commit(self, provisional_ticks, commit_tick: int) -> None:
        for tick in provisional_ticks:
            self._commit_map[tick] = commit_tick

    def prune(self) -> None:
        """Drop commit-map entries no active snapshot can distinguish.

        An entry ``v → c`` only matters to snapshots taken before
        ``c``; once every active snapshot is at or past ``c`` (or no
        transaction is active at all) the identity mapping gives the
        same answer.
        """
        minimum = self.min_active_snapshot()
        if minimum is None:
            self._commit_map.clear()
            return
        for version in [v for v, c in self._commit_map.items()
                        if c <= minimum]:
            del self._commit_map[version]

    def commit_map_size(self) -> int:
        return len(self._commit_map)
