"""The Database façade: parse → plan → execute.

:class:`Database` owns a :class:`Catalog`, an optional on-disk data
directory, and a :class:`LogicalClock` used to stamp tuple versions.
``execute`` runs one statement and returns a :class:`StatementResult`
that carries, besides rows, the full write provenance of DML:

* ``written`` — the tuple versions the statement created,
* ``written_lineage`` — for each written version, the set of tuple
  versions it was derived from (the *old* version for UPDATE, the
  source-query lineage for INSERT ... SELECT),
* ``deleted`` — the tuple versions removed by DELETE.

Query lineage (Perm's Lineage) is produced when the statement is
``SELECT PROVENANCE ...`` or when ``provenance=True`` is passed.

Transactions follow the one-writer rule (:mod:`repro.db.mvcc`): one
session at a time may hold an open transaction. Its statements read
the committed heap merged with its private write-set; COMMIT publishes
the write-set as one WAL batch; ROLLBACK just drops it. While it is
open, any other session's BEGIN, DML, DDL or COPY FROM is refused with
a one-line :class:`repro.errors.TransientError` and has no effect, so
the committed heap is the transaction's snapshot. Other sessions may
still read: an autocommit SELECT sees committed state only. The server
opens one :class:`~repro.db.mvcc.Session` per wire connection.

Durability (when a data directory is given): every committed statement
or transaction is flushed to a write-ahead log (:mod:`repro.db.wal`)
*before* any table file is touched, and :meth:`Database.checkpoint`
rewrites the files of the tables changed since the last one atomically
(temp → fsync → rename) before resetting the log. Opening a database
therefore recovers automatically: table files are loaded, the WAL's
committed records are replayed idempotently on top, torn or
uncommitted log tails are truncated, and the logical clock resumes
past every recovered tick. All file I/O runs through an injectable
:class:`repro.db.fileio.FileIO`, which is how the fault-injection
harness (``tests/faults.py``) simulates crashes at every write, fsync,
and rename.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.clockwork import LogicalClock
from repro.db import csvio
from repro.db.catalog import Catalog
from repro.db.executor import IndexScan
from repro.db.expressions import compile_expression, compile_predicate
from repro.db.mvcc import Session, TableOverlay
from repro.db.planner import PlannedQuery, index_probe, plan_select
from repro.db.provtypes import EMPTY_LINEAGE, TupleRef
from repro.db.sql import ast
from repro.db.sql.parser import parse_sql
from repro.db.subquery import expand_statement, has_subqueries
from repro.db.fileio import FileIO
from repro.db.storage import DataDirectory, HeapTable
from repro.db.types import (
    Column,
    Schema,
    SQLType,
    coerce_row,
    value_from_csv,
    value_to_csv,
)
from repro.db.wal import (
    WALRecovery,
    WriteAheadLog,
    schema_from_wire,
    schema_to_wire,
)
from repro.errors import (
    CatalogError,
    DatabaseError,
    ExecutionError,
    IntegrityError,
    SQLSyntaxError,
    StatementTimeout,
    TransactionError,
    TransientError,
    WALCorruptionError,
)

# statements that write: refused while another session's transaction
# is open (the one-writer rule)
_WRITES = (ast.Begin, ast.Insert, ast.Update, ast.Delete, ast.CopyFrom,
           ast.CreateTable, ast.DropTable, ast.CreateIndex, ast.DropIndex)


@dataclass
class StatementResult:
    """The outcome of executing one SQL statement."""

    kind: str  # select | insert | update | delete | create | drop | copy | txn
    schema: Schema = field(default_factory=lambda: Schema([]))
    rows: list[tuple] = field(default_factory=list)
    lineages: list[frozenset] = field(default_factory=list)
    rowcount: int = 0
    written: list[TupleRef] = field(default_factory=list)
    written_lineage: dict[TupleRef, frozenset] = field(default_factory=dict)
    deleted: list[TupleRef] = field(default_factory=list)
    source_tables: list[str] = field(default_factory=list)
    # free-form measurements: EXPLAIN ANALYZE fills "analyze" with
    # per-operator counters, the server adds wire-side timing
    stats: dict[str, Any] = field(default_factory=dict)
    # engine-internal: True when the statement was a plain SELECT
    # without subqueries, whose source_tables list is complete — the
    # only results the server result cache may store. Never serialized
    # to the wire.
    cacheable: bool = False

    @property
    def column_names(self) -> list[str]:
        return self.schema.column_names()


class IdempotencyLedger:
    """Dedupe ledger for token-stamped statements (exactly-once retry).

    Clients stamp mutating statements with a globally-unique token; the
    first execution records its wire-shaped result here under that
    token, and any retry of the same token returns the recorded result
    instead of re-executing. Entries for autocommit work ride the same
    WAL batch as the statement's writes (``{"op": "ledger", ...}``), so
    after a crash the recovered ledger agrees exactly with the
    recovered data: a write that survived answers its retry from the
    ledger, a write that was lost re-executes. Checkpoints persist the
    durable entries in the directory meta, since a checkpoint resets
    the WAL they were logged in.

    Bounded LRU: retries arrive within a client's retry window, so a
    few hundred entries of memory covers them; eviction of ancient
    tokens only risks re-executing a retry delayed past ``capacity``
    newer writes, which no real retry policy produces.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.stores = 0

    def get(self, token: str) -> Optional[dict[str, Any]]:
        entry = self._entries.get(token)
        if entry is not None:
            self.hits += 1
        return entry

    def record(self, token: str, payload: dict[str, Any],
               commit: bool = False, durable: bool = False) -> None:
        self._entries[token] = {
            "result": payload, "commit": commit, "durable": durable}
        self._entries.move_to_end(token)
        self.stores += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def dump(self) -> list[list[Any]]:
        """Durable entries in insertion order (checkpoint meta form)."""
        return [[token, entry["result"], entry["commit"]]
                for token, entry in self._entries.items()
                if entry["durable"]]

    def load(self, dumped: Iterable[Iterable[Any]]) -> None:
        for token, payload, commit in dumped:
            self.record(str(token), payload, commit=bool(commit),
                        durable=True)

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "stores": self.stores,
                "size": len(self._entries)}

    def __len__(self) -> int:
        return len(self._entries)


class Database:
    """An embedded database instance.

    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE t (id integer, name text)")
    >>> _ = db.execute("INSERT INTO t VALUES (1, 'a')")
    >>> db.query("SELECT name FROM t WHERE id = 1")
    [('a',)]
    """

    # queries execute serially; kept as a constant so run metadata
    # that records the worker count stays readable
    parallel_workers = 1

    class scan_cache:
        """Read only by benchmarks/ldv, whose run record still reports
        scan-cache figures. The engine has no scan cache, so this one is
        off and all of its counters stay zero."""
        enabled = False
        max_cells = 0

        @staticmethod
        def counters() -> dict[str, int]:
            return {"hits": 0, "misses": 0, "invalidations": 0}

    class plan_cache:
        """Read only by benchmarks/ldv, whose run record still reports
        plan-cache figures. The engine keeps no plans (every statement
        is planned when it runs), so this one holds nothing and all of
        its counters stay zero."""
        capacity = 0

        @staticmethod
        def counters() -> dict[str, int]:
            return {"hits": 0, "misses": 0, "size": 0}

    def __init__(self, data_directory: str | Path | None = None,
                 clock: LogicalClock | None = None,
                 autoflush: bool = False,
                 io: FileIO | None = None,
                 timer: Callable[[], float] = time.perf_counter) -> None:
        self.io = io if io is not None else FileIO()
        directory = (DataDirectory(data_directory, io=self.io)
                     if data_directory is not None else None)
        self.catalog = Catalog(directory)
        self.clock = clock if clock is not None else LogicalClock()
        self.autoflush = autoflush
        self.timer = timer
        # MVCC state lives on the catalog so tables can consult it;
        # sessions are handed out here (one per server connection, plus
        # the default one used by the embedded single-connection API)
        self.mvcc = self.catalog.mvcc
        self._next_session_id = 1
        self.session = self.create_session("default")
        # the session holding the one open transaction, if any
        self.writer: Optional[Session] = None
        # cooperative statement deadline (see statement_deadline):
        # checked between row batches so runaway scans can be cancelled
        self._deadline: Optional[float] = None
        self._deadline_timer: Optional[Callable[[], float]] = None
        self._deadline_budget: Optional[float] = None
        # WAL batch state: redo records buffered since the last commit
        # marker, and which tables the batch touched/dropped
        self.wal: Optional[WriteAheadLog] = None
        self._wal_dirty = False
        self._touched_tables: set[str] = set()
        self._dropped_tables: set[str] = set()
        # undo state of the running statement: each changed table's
        # prior rowid counter (rows at or past it are new); in
        # autocommit each changed older row's prior (values, version),
        # inside a transaction each changed write-set entry's prior
        # (overlay, upsert, delete tick), None where there was none
        self._undo_rows: dict[tuple[str, int], tuple] = {}
        self._undo_counters: dict[str, tuple[HeapTable, int]] = {}
        self._undo_overlay: dict[tuple[str, int], tuple] = {}
        self.last_recovery: Optional[WALRecovery] = None
        # exactly-once retry support: results of token-stamped
        # statements, recoverable alongside the writes they describe
        self.dedupe_ledger = IdempotencyLedger()
        if directory is not None:
            self.wal = WriteAheadLog(directory.wal_path, io=self.io)
            self.last_recovery = self.wal.open()
            # checkpointed ledger entries predate the WAL's records;
            # load them first so replayed entries win on collision
            meta = directory.load_meta()
            self.dedupe_ledger.load(meta.get("ledger", []))
            # legacy meta keys are ignored: "partitions" (hash-partition
            # specs from when the engine had parallel scans) and
            # "stats" (planner statistics from when it had ANALYZE)
            self._replay_recovered(self.last_recovery)
            self._restore_clock(directory, self.last_recovery)
        # file access hooks so a virtual OS can interpose COPY I/O
        self.read_file: Callable[[str], str] = (
            lambda path: Path(path).read_text())
        self.write_file: Callable[[str, str], None] = (
            lambda path, text: Path(path).write_text(text))

    # -- crash recovery ----------------------------------------------------------

    def _replay_recovered(self, recovery: WALRecovery) -> None:
        """Apply the WAL's committed redo records over the loaded
        table files. Records use absolute row states, so replay is
        idempotent even when a checkpoint already captured some of
        them."""
        for record in recovery.records:
            try:
                self._apply_wal_record(record)
            except DatabaseError as exc:
                raise WALCorruptionError(
                    f"committed WAL record {record!r} cannot be "
                    f"replayed: {exc}") from exc

    def _apply_wal_record(self, record: dict) -> None:
        operation = record["op"]
        if "table" in record:
            # replayed over the loaded file, so the file is now stale
            self.catalog.mark_dirty(record["table"])
        if operation == "put":
            table = self.catalog.get_table(record["table"])
            values = tuple(
                value_from_csv(cell, sql_type)
                for cell, sql_type in zip(record["values"],
                                          table.schema.types()))
            table.put_row(record["rowid"], values, record["version"])
        elif operation == "delete":
            self.catalog.get_table(record["table"]).remove_row(
                record["rowid"])
        elif operation == "create_table":
            if not self.catalog.has_table(record["table"]):
                self.catalog.create_table(
                    record["table"], schema_from_wire(record["columns"]))
        elif operation == "drop_table":
            self.catalog.drop_table(record["table"], if_exists=True)
        elif operation == "create_index":
            self.catalog.get_table(record["table"]).create_index(
                record["name"], record["column"], if_not_exists=True)
        elif operation == "drop_index":
            if self.catalog.has_index(record["name"]):
                table = self.catalog.table_of_index(record["name"])
                self.catalog.mark_dirty(table.name)
                table.drop_index(record["name"])
        elif operation in ("analyze", "partition"):
            # legacy planner metadata, no row state: statistics from
            # when the engine had ANALYZE, hash-partition specs from
            # when it had parallel scans; skipping them recovers the
            # same tables
            pass
        elif operation == "ledger":
            self.dedupe_ledger.record(
                record["token"], record["result"],
                commit=bool(record.get("commit", False)), durable=True)
        else:
            raise WALCorruptionError(
                f"unknown WAL operation {operation!r}")

    def _restore_clock(self, directory: DataDirectory,
                       recovery: WALRecovery) -> None:
        """Resume logical time strictly after every recovered tick."""
        self.resume_clock(max(int(directory.load_meta().get("clock", 0)),
                              recovery.last_tick))

    def resume_clock(self, floor: int = 0) -> None:
        """Move the clock up to ``floor`` and to every stored version,
        so later writes stamp newer versions than rows loaded past the
        engine (a package restore)."""
        target = floor
        for table in self.catalog:
            if table.versions:
                target = max(target, max(table.versions.values()))
        if target > self.clock.now:
            self.clock.advance(target - self.clock.now)

    # -- WAL batch bookkeeping ---------------------------------------------------

    def _save_prior(self, table: HeapTable,
                    rowid: int | None = None) -> None:
        """Remember a table's rowid counter and, given ``rowid``, that
        heap row, before a statement first changes them, so that a
        statement which fails partway can be undone. Inserts need only
        the counter: every row past it is new."""
        if table.name not in self._undo_counters:
            self._undo_counters[table.name] = (table, table.next_rowid)
        if rowid is not None:
            key = (table.name, rowid)
            if key not in self._undo_rows:
                self._undo_rows[key] = (table, table.rows.get(rowid),
                                        table.versions.get(rowid))

    def _save_overlay_prior(self, overlay: TableOverlay, table: HeapTable,
                            rowid: int) -> None:
        """:meth:`_save_prior` for a statement inside a transaction:
        remember the write-set's entries for ``rowid`` before the
        statement first changes them."""
        key = (table.name, rowid)
        if key not in self._undo_overlay:
            self._undo_overlay[key] = (overlay, overlay.upserts.get(rowid),
                                       overlay.deletes.get(rowid))

    def _abort_in_transaction(self,
                              txn: dict[str, TableOverlay]) -> None:
        """Undo a failed statement inside a transaction: drop the rows
        it buffered, put back the write-set entries it changed and
        rewind the rowid counters it moved, so the transaction goes on
        as if the statement had not been sent. Nothing reached the heap
        or the WAL."""
        for table, next_rowid in self._undo_counters.values():
            overlay = txn.get(table.name)
            if overlay is not None:
                for rowid in range(next_rowid, table.next_rowid):
                    overlay.upserts.pop(rowid, None)
            table.next_rowid = next_rowid
        for (_, rowid), (overlay, upsert, delete) in (
                self._undo_overlay.items()):
            if upsert is None:
                overlay.upserts.pop(rowid, None)
            else:
                overlay.upserts[rowid] = upsert
            if delete is None:
                overlay.deletes.pop(rowid, None)
            else:
                overlay.deletes[rowid] = delete
        self._forget_undo()

    def _forget_undo(self) -> None:
        self._undo_rows.clear()
        self._undo_counters.clear()
        self._undo_overlay.clear()

    def _log_put(self, table: HeapTable, rowid: int) -> None:
        self._touched_tables.add(table.name)
        self.mvcc.note_write(table.name, self.clock.now)
        if self.wal is not None:
            self.wal.append({
                "op": "put", "table": table.name, "rowid": rowid,
                "version": table.versions[rowid],
                "values": [value_to_csv(value)
                           for value in table.rows[rowid]],
            })
            self._wal_dirty = True

    def _log_delete(self, table: HeapTable, rowid: int) -> None:
        self._touched_tables.add(table.name)
        self.mvcc.note_write(table.name, self.clock.now)
        if self.wal is not None:
            self.wal.append({"op": "delete", "table": table.name,
                             "rowid": rowid})
            self._wal_dirty = True

    def _log_ddl(self, record: dict) -> None:
        if self.wal is not None:
            self.wal.append(record)
            self._wal_dirty = True

    def _commit_wal_batch(self) -> None:
        """Durably commit the pending batch, then (with autoflush)
        mirror it into the table files — always WAL before data."""
        # marked first: a commit that fails still changed the heap
        self.catalog.dirty_tables.update(self._touched_tables)
        self._forget_undo()
        if self.wal is not None and self._wal_dirty:
            self.wal.commit(self.clock.now)
            self._wal_dirty = False
        if self.autoflush:
            for name in sorted(self._touched_tables):
                if self.catalog.has_table(name):
                    self.catalog.flush_table(name)
            if self._dropped_tables:
                self.catalog.sync_drops()
        self._touched_tables.clear()
        self._dropped_tables.clear()

    def _abort_wal_batch(self) -> None:
        """Discard a failed autocommit statement: drop its WAL records
        and put back every heap row it changed before it raised, so
        memory holds what recovery would. All changed rows come out
        before the saved ones go back in, so primary keys the statement
        moved between rows cannot collide on the way back."""
        self.catalog.dirty_tables.update(self._touched_tables)
        if self.wal is not None:
            self.wal.abort()
        counters = self._undo_counters.values()
        for table, next_rowid in counters:
            for rowid in range(next_rowid, table.next_rowid):
                table.remove_row(rowid)
        for (_, rowid), (table, _, _) in self._undo_rows.items():
            table.remove_row(rowid)
        for (_, rowid), (table, values, version) in self._undo_rows.items():
            if values is not None:
                table.put_row(rowid, values, version)
        for table, next_rowid in counters:
            table.next_rowid = next_rowid
        self._forget_undo()
        self._wal_dirty = False
        self._touched_tables.clear()
        self._dropped_tables.clear()

    # -- sessions ----------------------------------------------------------------

    def create_session(self, name: str = "session") -> Session:
        """Open an independent transaction scope (one per connection)."""
        session = Session(self._next_session_id, name)
        self._next_session_id += 1
        return session

    def abort_session(self, session: Session) -> None:
        """Roll back the session's open transaction, if any (used when
        a connection closes or the server shuts down)."""
        if session.txn is not None:
            self._end_transaction(session)

    @contextmanager
    def use_session(self, session: Session) -> Iterator[Session]:
        """Make ``session`` the default for the duration of the block.

        The server wraps each connection's statement in this, so the
        whole execute path — including code that never learned about
        sessions — runs against the connection's transaction state.
        """
        previous = self.session
        self.session = session
        try:
            yield session
        finally:
            self.session = previous

    @contextmanager
    def _write_set(self, session: Session) -> Iterator[None]:
        """Make the session's open transaction the one tables consult
        during scans for the duration of one statement, so a plan's
        operators, which hold direct table references, see the writes
        of whichever session runs them. Autocommit statements read (and
        write) the committed heap directly."""
        state = self.mvcc
        previous = state.current
        state.current = session.txn
        try:
            yield
        finally:
            state.current = previous

    @property
    def commit_count(self) -> int:
        """Commit markers written to the WAL (0 without a WAL)."""
        return self.wal.commit_count if self.wal is not None else 0

    @property
    def fsync_count(self) -> int:
        """WAL fsyncs issued (one per commit; 0 without a WAL)."""
        return self.wal.fsync_count if self.wal is not None else 0

    # -- cooperative statement deadline ------------------------------------------

    @contextmanager
    def statement_deadline(self, deadline: float,
                           timer: Callable[[], float],
                           budget: float | None = None) -> Iterator[None]:
        """Cancel statement execution once ``timer()`` passes
        ``deadline``. The check runs between row batches, so a runaway
        scan raises :class:`StatementTimeout` mid-statement instead of
        only being noticed after it finishes."""
        previous = (self._deadline, self._deadline_timer,
                    self._deadline_budget)
        self._deadline = deadline
        self._deadline_timer = timer
        self._deadline_budget = budget
        try:
            yield
        finally:
            (self._deadline, self._deadline_timer,
             self._deadline_budget) = previous

    def _check_deadline(self) -> None:
        if self._deadline is None:
            return
        now = self._deadline_timer()
        if now > self._deadline:
            budget = self._deadline_budget
            detail = (f"the {budget}s budget" if budget is not None
                      else "its deadline")
            raise StatementTimeout(
                f"statement exceeded {detail} (cancelled mid-statement)")

    # -- public API --------------------------------------------------------------

    def execute(self, sql: str, provenance: bool = False,
                session: Session | None = None,
                token: str | None = None) -> StatementResult:
        """Execute exactly one SQL statement.

        Every call parses (repeated shapes hit the parser's cache) and
        plans afresh. With no explicit ``session`` the default
        (embedded) session is used.

        A ``token`` marks the statement for exactly-once retry: if this
        token already executed, the recorded result is returned without
        re-executing (see :class:`IdempotencyLedger`).
        """
        session = session if session is not None else self.session
        if token is not None:
            replayed = self._ledger_replay(token, session)
            if replayed is not None:
                return replayed
        statements = parse_sql(sql)
        if len(statements) != 1:
            raise SQLSyntaxError(
                f"execute() expects one statement, got {len(statements)}")
        return self.execute_statement(statements[0], provenance, session,
                                      token=token)

    @staticmethod
    def _result_cacheable(statement: ast.Statement) -> bool:
        """Plain SELECTs without subqueries: the server's result cache
        may keep their result. The result of anything else (DML, DDL,
        UNION, EXPLAIN, subqueries) is never cached: subquery expansion
        inlines data-dependent values into the statement."""
        if not isinstance(statement, ast.Select):
            return False
        expressions: list[Optional[ast.Expression]] = [
            statement.where, statement.having]
        expressions.extend(item.expression for item in statement.items)
        expressions.extend(statement.group_by)
        expressions.extend(item.expression for item in statement.order_by)
        for source in statement.sources:
            while isinstance(source, ast.Join):
                expressions.append(source.condition)
                source = source.left
        return not any(has_subqueries(expression)
                       for expression in expressions)

    def execute_script(self, sql: str,
                       session: Session | None = None) -> list[StatementResult]:
        """Execute a multi-statement script, returning all results."""
        return [self.execute_statement(statement, False, session)
                for statement in parse_sql(sql)]

    def query(self, sql: str,
              session: Session | None = None) -> list[tuple]:
        """Shorthand: run a SELECT and return the rows."""
        result = self.execute(sql, session=session)
        if result.kind != "select":
            raise ExecutionError("query() requires a SELECT statement")
        return result.rows

    def execute_statement(self, statement: ast.Statement,
                          provenance: bool = False,
                          session: Session | None = None,
                          token: str | None = None) -> StatementResult:
        session = session if session is not None else self.session
        if token is not None:
            replayed = self._ledger_replay(token, session)
            if replayed is not None:
                return replayed
        writer = self.writer
        if (writer is not None and writer is not session
                and isinstance(statement, _WRITES)):
            raise TransientError(
                f"session {writer.name!r} has a transaction open and "
                f"one session writes at a time; retry after it ends")
        # classified as parsed: expansion below inlines subquery
        # results, after which a subquery SELECT would look plain. A
        # cacheable SELECT has no subqueries, so it skips expansion.
        cacheable = self._result_cacheable(statement)
        # planned inside the session's write-set: cardinality estimates
        # must see the transaction's own overlay (a bulk insert into
        # one join side steers the plan's build side)
        with self._write_set(session):
            extra_lineage: frozenset = EMPTY_LINEAGE
            if not cacheable and isinstance(
                    statement, (ast.Select, ast.SetOp, ast.Update,
                                ast.Delete, ast.Insert)):
                # DML always records write provenance, so its subqueries
                # must track lineage too; queries only when asked
                track = (provenance
                         or bool(getattr(statement, "provenance", False))
                         or isinstance(statement, (ast.Update, ast.Delete,
                                                   ast.Insert)))
                statement, extra_lineage = expand_statement(
                    statement, self._run_subquery, track)
            try:
                result = self._dispatch_statement(statement, provenance,
                                                  session)
            except Exception:
                if session.txn is None:
                    # a failed autocommit statement never commits:
                    # whatever it logged must not survive recovery
                    self._abort_wal_batch()
                else:
                    # inside a transaction only the statement is undone
                    self._abort_in_transaction(session.txn)
                raise
            if extra_lineage:
                result.lineages = [lineage | extra_lineage
                                   for lineage in result.lineages]
                result.written_lineage = {
                    ref: deps | extra_lineage
                    for ref, deps in result.written_lineage.items()}
        result.cacheable = cacheable
        if token is not None:
            # record before the batch commits so the ledger entry is
            # atomic with the writes it deduplicates
            self._ledger_record(token, statement, result, session)
        if session.txn is None:
            # autocommit (or the COMMIT statement itself): make the
            # batch durable before any table file is rewritten
            self._commit_wal_batch()
        else:
            self._forget_undo()  # the statement stands
        return result

    # -- exactly-once retry ledger -------------------------------------------------

    def _ledger_replay(self, token: str,
                       session: Session) -> Optional[StatementResult]:
        """The recorded result of an already-executed token, or None.

        A ledger hit consumes no clock tick and touches no state —
        except when the replayed token was a COMMIT and the retrying
        client has (re)opened a transaction: that duplicate transaction
        is rolled back, since the work it would redo already committed.
        """
        entry = self.dedupe_ledger.get(token)
        if entry is None:
            return None
        if entry["commit"] and session.txn is not None:
            self._end_transaction(session)
        from repro.db import protocol  # local import: protocol imports engine

        result = protocol.result_from_wire(entry["result"])
        result.stats = dict(result.stats)
        result.stats["replayed_token"] = token
        return result

    def _ledger_record(self, token: str, statement: ast.Statement,
                       result: StatementResult, session: Session) -> None:
        from repro.db import protocol  # local import: protocol imports engine

        payload = protocol.result_to_wire(result)
        # the server annotates result.stats in place after execution;
        # snapshot it so the recorded payload stays what was executed
        payload["stats"] = dict(payload.get("stats") or {})
        committing = isinstance(statement, ast.Commit)
        durable = (session.txn is None and self.wal is not None
                   and self._wal_dirty)
        if durable:
            self.wal.append({"op": "ledger", "token": token,
                             "result": payload, "commit": committing})
        self.dedupe_ledger.record(token, payload, commit=committing,
                                  durable=durable)

    def _run_subquery(self, select: ast.Select, track_lineage: bool):
        result = self._execute_select(select, track_lineage)
        return result.rows, result.lineages

    def _dispatch_statement(self, statement: ast.Statement,
                            provenance: bool,
                            session: Session) -> StatementResult:
        if isinstance(statement, ast.Select):
            return self._execute_select(
                statement, provenance or statement.provenance)
        if isinstance(statement, ast.SetOp):
            return self._execute_setop(statement, provenance)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, provenance, session)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, session)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, session)
        if isinstance(statement, (ast.CreateTable, ast.DropTable,
                                  ast.CreateIndex, ast.DropIndex)):
            if session.txn is not None:
                # schema changes are not buffered in the write-set;
                # forcing them to autocommit keeps the transaction's
                # view of the catalog the committed one
                raise TransactionError(
                    "DDL is not allowed inside a transaction; "
                    "COMMIT or ROLLBACK first")
            if isinstance(statement, ast.CreateTable):
                return self._execute_create(statement)
            if isinstance(statement, ast.DropTable):
                return self._execute_drop_table(statement)
            if isinstance(statement, ast.CreateIndex):
                return self._execute_create_index(statement)
            return self._execute_drop_index(statement)
        if isinstance(statement, ast.CopyFrom):
            return self._execute_copy_from(statement, session)
        if isinstance(statement, ast.CopyTo):
            return self._execute_copy_to(statement)
        if isinstance(statement, ast.Explain):
            return self._execute_explain(statement)
        if isinstance(statement, ast.Begin):
            return self._execute_begin(session)
        if isinstance(statement, ast.Commit):
            return self._execute_commit(session)
        if isinstance(statement, ast.Rollback):
            return self._execute_rollback(session)
        raise ExecutionError(
            f"unsupported statement type {type(statement).__name__}")

    def require_no_open_transaction(self, action: str) -> None:
        """Refuse ``action`` while a session has a transaction open:
        it must see committed state only."""
        if self.writer is not None:
            raise TransactionError(
                f"cannot {action} during an open transaction")

    def checkpoint(self) -> None:
        """Write a crash-consistent on-disk image.

        The file of every table changed since the last checkpoint (the
        catalog's ``dirty_tables``, plus any table with no file yet) is
        rewritten atomically (temp → fsync → rename); every other file
        already holds its table's current image. Dropped tables' files
        are removed, the logical clock is persisted, and only then is
        the WAL reset. A crash at any intermediate point leaves a
        directory that recovery repairs: the not-yet-reset WAL simply
        replays (idempotently) on top of whichever table files made it,
        and a table whose file did not make it stays dirty.
        """
        self.require_no_open_transaction("checkpoint")
        self.catalog.flush()
        directory = self.catalog.data_directory
        if directory is not None:
            # the WAL reset below discards the logged ledger entries;
            # persist them with the clock so recovery still dedupes
            directory.save_meta({"clock": self.clock.now,
                                 "ledger": self.dedupe_ledger.dump()})
        if self.wal is not None:
            self.wal.reset()

    def close(self) -> None:
        """Checkpoint and release (no open handles are held otherwise)."""
        self.checkpoint()

    # -- SELECT --------------------------------------------------------------------

    def _execute_select(self, select: ast.Select,
                        track_lineage: bool) -> StatementResult:
        planned = plan_select(select, self.catalog, track_lineage)
        return self._run_planned_select(planned)

    def _materialize_root(self, root) -> tuple[list[tuple], list[frozenset]]:
        """Pull an operator tree to completion.

        Drains whole :class:`RowBatch`es — the result rows/lineages are
        identical to the row view, without paying a generator
        round-trip per tuple. An installed statement deadline
        (:meth:`statement_deadline`) is checked between batches, which
        is what lets the server cancel runaway scans mid-statement."""
        rows: list[tuple] = []
        lineages: list[frozenset] = []
        check = self._deadline is not None
        for batch in root.batches():
            if check:
                self._check_deadline()
            rows.extend(batch.rows())
            lineages.extend(batch.picked_lineages())
        return rows, lineages

    def _run_planned_select(self, planned: PlannedQuery) -> StatementResult:
        """Pull a planned SELECT's operator tree to completion into a
        result."""
        rows, lineages = self._materialize_root(planned.root)
        return StatementResult(
            kind="select", schema=planned.schema, rows=rows,
            lineages=lineages, rowcount=len(rows),
            source_tables=list(planned.source_tables))

    def _execute_setop(self, setop: ast.SetOp,
                       track_lineage: bool) -> StatementResult:
        from repro.db.planner import plan_setop

        planned = plan_setop(setop, self.catalog, track_lineage)
        rows, lineages = self._materialize_root(planned.root)
        return StatementResult(
            kind="select", schema=planned.schema, rows=rows,
            lineages=lineages, rowcount=len(rows),
            source_tables=planned.source_tables)

    def _execute_explain(self, explain: ast.Explain) -> StatementResult:
        from repro.db.executor import instrument_plan
        from repro.db.planner import analyze_stats, explain_plan

        # always planned fresh, never a kept plan: ANALYZE rewires
        # the tree in place with Instrumented wrappers
        planned = plan_select(explain.query, self.catalog, False)
        root = planned.root
        stats: dict[str, Any] = {}
        if explain.analyze:
            root = instrument_plan(root, self.timer)
            for _ in root:  # run the query, discarding its output
                pass
            operators = analyze_stats(root)
            stats["analyze"] = {
                "operators": operators,
                "rows": operators[0]["rows"] if operators else 0,
                "total_seconds": (operators[0]["seconds"]
                                  if operators else 0.0),
            }
        lines = explain_plan(root)
        return StatementResult(
            kind="explain",
            schema=Schema([Column("plan", SQLType.TEXT)]),
            rows=[(line,) for line in lines],
            lineages=[EMPTY_LINEAGE] * len(lines),
            rowcount=len(lines),
            source_tables=planned.source_tables,
            stats=stats)

    # -- INSERT --------------------------------------------------------------------

    def _execute_insert(self, insert: ast.Insert, provenance: bool,
                        session: Session) -> StatementResult:
        table = self.catalog.get_table(insert.table)
        result = StatementResult(kind="insert")
        if insert.query is not None:
            planned = plan_select(insert.query, self.catalog, provenance)
            source_rows = [(values, lineage)
                           for values, lineage in planned.root]
            result.source_tables = planned.source_tables
        else:
            empty = Schema([])
            source_rows = []
            for expression_row in insert.rows:
                values = tuple(compile_expression(expression, empty)(())
                               for expression in expression_row)
                source_rows.append((values, EMPTY_LINEAGE))
        positions = self._column_positions(table, insert.columns)
        tick = self.clock.tick()
        overlay = self._overlay_of(session, table)
        self._save_prior(table)
        for values, lineage in source_rows:
            full_values = self._spread_values(table, positions, values)
            if overlay is None:
                rowid = table.insert(full_values, tick)
                self._log_put(table, rowid)
            else:
                rowid = self._overlay_insert(overlay, table,
                                             full_values, tick)
            ref = TupleRef(table.name, rowid, tick)
            result.written.append(ref)
            result.written_lineage[ref] = lineage
        result.rowcount = len(source_rows)
        return result

    def _column_positions(self, table: HeapTable,
                          columns: tuple[str, ...]) -> list[int] | None:
        if not columns:
            return None
        return [table.schema.index_of(name) for name in columns]

    def _spread_values(self, table: HeapTable,
                       positions: list[int] | None,
                       values: tuple) -> tuple:
        if positions is None:
            if len(values) != len(table.schema):
                raise ExecutionError(
                    f"INSERT has {len(values)} values for "
                    f"{len(table.schema)} columns")
            return values
        if len(values) != len(positions):
            raise ExecutionError("INSERT column/value count mismatch")
        full: list[Any] = [None] * len(table.schema)
        for position, value in zip(positions, values):
            full[position] = value
        return tuple(full)

    # -- UPDATE / DELETE --------------------------------------------------------------

    def _matching_rows(
            self, table: HeapTable, where: Optional[ast.Expression]
    ) -> list[tuple[int, tuple, int]]:
        """``(rowid, values, version)`` of the rows a DML statement
        targets: inside a transaction, the committed heap merged with
        its write-set.

        When a hash index answers one WHERE conjunct
        (:func:`repro.db.planner.index_probe`), only the rows it
        fetches are candidates; every candidate is re-checked against
        the whole compiled WHERE, so the matched set equals the full
        scan's by construction.
        """
        if where is None:
            return list(table.scan_versions())
        schema = table.schema.qualified(table.name)
        matches = compile_predicate(where, schema)
        probe = index_probe(table, schema, where)
        if probe is None:
            candidates = table.scan_versions()
        else:
            candidates = IndexScan(
                table, table.name, probe.index, probe.values, False,
                bounds=probe.bounds).scan_versions()
        return [entry for entry in candidates if matches(entry[1])]

    def _execute_update(self, update: ast.Update,
                        session: Session) -> StatementResult:
        table = self.catalog.get_table(update.table)
        schema = table.schema.qualified(table.name)
        assignments = [
            (table.schema.index_of(name),
             compile_expression(expression, schema))
            for name, expression in update.assignments]
        matched = self._matching_rows(table, update.where)
        result = StatementResult(kind="update",
                                 source_tables=[table.name])
        if not matched:
            return result
        tick = self.clock.tick()
        overlay = self._overlay_of(session, table)
        for rowid, old_values, old_version in matched:
            new_values = list(old_values)
            for position, value_fn in assignments:
                new_values[position] = value_fn(old_values)
            if overlay is None:
                self._save_prior(table, rowid)
                table.update(rowid, tuple(new_values), tick)
                self._log_put(table, rowid)
            else:
                self._save_overlay_prior(overlay, table, rowid)
                row = coerce_row(new_values, table.schema)
                self._check_overlay_pk(overlay, table, rowid, row)
                overlay.upserts[rowid] = (row, tick)
            old_ref = TupleRef(table.name, rowid, old_version)
            new_ref = TupleRef(table.name, rowid, tick)
            result.written.append(new_ref)
            result.written_lineage[new_ref] = frozenset((old_ref,))
        result.rowcount = len(matched)
        return result

    def _execute_delete(self, delete: ast.Delete,
                        session: Session) -> StatementResult:
        table = self.catalog.get_table(delete.table)
        matched = self._matching_rows(table, delete.where)
        result = StatementResult(kind="delete",
                                 source_tables=[table.name])
        if not matched:
            return result
        tick = self.clock.tick()
        overlay = self._overlay_of(session, table)
        for rowid, old_values, old_version in matched:
            if overlay is None:
                self._save_prior(table, rowid)
                table.delete(rowid)
                self._log_delete(table, rowid)
            else:
                self._save_overlay_prior(overlay, table, rowid)
                overlay.upserts.pop(rowid, None)
                # a row born and deleted inside the transaction leaves
                # no trace
                if rowid in table.rows:
                    overlay.deletes[rowid] = tick
            result.deleted.append(TupleRef(table.name, rowid, old_version))
        result.rowcount = len(matched)
        return result

    # -- transactional write-set helpers ------------------------------------------

    @staticmethod
    def _overlay_of(session: Session,
                    table: HeapTable) -> Optional[TableOverlay]:
        """The session's write-set for ``table`` when it has a
        transaction open (created on first use); None in autocommit."""
        if session.txn is None:
            return None
        return session.txn.setdefault(table.name, TableOverlay())

    def _overlay_insert(self, overlay: TableOverlay, table: HeapTable,
                        values: tuple, tick: int) -> int:
        """Buffer an INSERT in the transaction's private write-set.

        The rowid is reserved from the table's counter at once (a
        rollback leaves a gap, which rowids explicitly permit).
        """
        row = coerce_row(values, table.schema)
        self._check_overlay_pk(overlay, table, None, row)
        rowid = table.next_rowid
        table.next_rowid += 1
        # the counter is in the table file's header, and no WAL record
        # carries the move
        self.catalog.mark_dirty(table.name)
        overlay.upserts[rowid] = (row, tick)
        return rowid

    @staticmethod
    def _check_overlay_pk(overlay: TableOverlay, table: HeapTable,
                          rowid: Optional[int], row: tuple) -> None:
        """Primary-key admission for a buffered write: the key must be
        free in the committed heap merged with the write-set. No other
        session writes while the transaction is open, so COMMIT needs
        no second check."""
        key = table.pk_key(row)
        if key is None:
            return
        for other, (other_row, _tick) in overlay.upserts.items():
            if other != rowid and table.pk_key(other_row) == key:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {table.name}")
        holder = table.pk_holder(key)
        # a committed holder we delete, or whose key we move away in
        # this transaction, frees the key
        if (holder is not None and holder != rowid
                and holder not in overlay.deletes
                and holder not in overlay.upserts):
            raise IntegrityError(
                f"duplicate primary key {key!r} in table {table.name}")

    # -- DDL / COPY --------------------------------------------------------------------

    def _execute_create(self, create: ast.CreateTable) -> StatementResult:
        columns = [
            Column(
                name=definition.name.lower(),
                sql_type=SQLType.from_name(definition.type_name),
                not_null=definition.not_null or definition.primary_key,
                primary_key=definition.primary_key,
            )
            for definition in create.columns
        ]
        existed = self.catalog.has_table(create.table)
        table = self.catalog.create_table(
            create.table, Schema(columns), create.if_not_exists)
        if not existed:
            self._touched_tables.add(table.name)
            self._log_ddl({"op": "create_table", "table": table.name,
                           "columns": schema_to_wire(table.schema)})
        return StatementResult(kind="create")

    def _execute_drop_table(self, drop: ast.DropTable) -> StatementResult:
        existed = self.catalog.has_table(drop.table)
        self.catalog.drop_table(drop.table, drop.if_exists)
        if existed:
            key = drop.table.lower()
            self._dropped_tables.add(key)
            self._touched_tables.discard(key)
            self._log_ddl({"op": "drop_table", "table": key})
        return StatementResult(kind="drop")

    def _execute_create_index(self,
                              create: ast.CreateIndex) -> StatementResult:
        if self.catalog.has_index(create.name):
            if create.if_not_exists:
                return StatementResult(kind="create")
            raise CatalogError(f"index {create.name!r} already exists")
        table = self.catalog.get_table(create.table)
        index = table.create_index(create.name, create.column,
                                   create.if_not_exists)
        self.catalog.bump_version()
        self._touched_tables.add(table.name)
        self._log_ddl({"op": "create_index", "table": table.name,
                       "name": index.name, "column": index.column})
        return StatementResult(kind="create",
                               source_tables=[table.name])

    def _execute_drop_index(self, drop: ast.DropIndex) -> StatementResult:
        if not self.catalog.has_index(drop.name):
            if drop.if_exists:
                return StatementResult(kind="drop")
            raise CatalogError(f"index {drop.name!r} does not exist")
        table = self.catalog.table_of_index(drop.name)
        table.drop_index(drop.name)
        self.catalog.bump_version()
        self._touched_tables.add(table.name)
        self._log_ddl({"op": "drop_index", "name": drop.name.lower()})
        return StatementResult(kind="drop", source_tables=[table.name])

    def _execute_copy_from(self, copy: ast.CopyFrom,
                           session: Session) -> StatementResult:
        table = self.catalog.get_table(copy.table)
        text = self.read_file(copy.path)
        rows = csvio.parse_rows(text, table.schema,
                                header=copy.header,
                                delimiter=copy.delimiter)
        tick = self.clock.tick()
        overlay = self._overlay_of(session, table)
        result = StatementResult(kind="copy", source_tables=[table.name])
        self._save_prior(table)
        for values in rows:
            if overlay is None:
                rowid = table.insert(values, tick)
                self._log_put(table, rowid)
            else:
                rowid = self._overlay_insert(overlay, table,
                                             tuple(values), tick)
            result.written.append(TupleRef(table.name, rowid, tick))
        result.rowcount = len(result.written)
        return result

    def _execute_copy_to(self, copy: ast.CopyTo) -> StatementResult:
        table = self.catalog.get_table(copy.table)
        exported = [values for _rowid, values in table.scan()]
        text = csvio.format_rows(exported, table.schema,
                                 header=copy.header,
                                 delimiter=copy.delimiter)
        self.write_file(copy.path, text)
        return StatementResult(kind="copy", rowcount=len(exported),
                               source_tables=[table.name])

    # -- transactions --------------------------------------------------------------------

    def _execute_begin(self, session: Session) -> StatementResult:
        if session.txn is not None:
            raise TransactionError("transaction already in progress")
        session.txn = {}
        self.writer = session
        return StatementResult(kind="txn")

    def _execute_commit(self, session: Session) -> StatementResult:
        """Publish the transaction's write-set.

        No other session wrote while it was open, so there is nothing
        to validate. The apply phase detaches every overwritten
        committed row (freeing its PK and index slots), then installs
        the write-set in sorted rowid order and logs it as one WAL
        batch, committed atomically by the autocommit epilogue's single
        commit marker + fsync. A non-empty write-set consumes one clock
        tick, the commit's.
        """
        txn = session.txn
        if txn is None:
            raise TransactionError("no transaction in progress")
        writes = {name: overlay
                  for name, overlay in txn.items()
                  if not overlay.empty}
        self._end_transaction(session)  # the epilogue commits the batch
        if writes:
            self.clock.tick()
            for name in sorted(writes):
                overlay = writes[name]
                table = self.catalog.get_table(name)
                # detach phase: freeing the PK/index slots of updated
                # rows first keeps the install phase from tripping over
                # transient in-transaction PK moves
                for rowid in sorted(overlay.upserts):
                    self._save_prior(table, rowid)
                    if rowid in table.rows:
                        table.delete(rowid)
                for rowid in sorted(overlay.deletes):
                    self._save_prior(table, rowid)
                    table.delete(rowid)
                    self._log_delete(table, rowid)
                for rowid in sorted(overlay.upserts):
                    row, tick = overlay.upserts[rowid]
                    table.put_row(rowid, row, tick)
                    self._log_put(table, rowid)
        return StatementResult(kind="txn")

    def _execute_rollback(self, session: Session) -> StatementResult:
        if session.txn is None:
            raise TransactionError("no transaction in progress")
        # the write-set was private: dropping it *is* the rollback —
        # no shared structure (heap, indexes, WAL) ever saw it
        self._end_transaction(session)
        return StatementResult(kind="txn")

    def _end_transaction(self, session: Session) -> None:
        session.txn = None
        self.writer = None
