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

Every write, in autocommit or inside a transaction, changes the heap
in place and buffers its redo records in the open WAL batch, under an
:class:`UndoLog` that keeps each changed row's prior state. A statement
that fails is rolled back to its own mark, so it has no effect; COMMIT
(or the end of an autocommit statement) commits the batch, and
ROLLBACK rolls the heap and the batch back to the transaction's start.
One session at a time may hold an open transaction, and while it is
open any statement of another session, reads included, is refused with
a one-line :class:`repro.errors.TransientError` and has no effect: the
heap then holds the transaction's own writes, which no other session
may see. The server opens one :class:`Session` per wire connection.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from repro.clockwork import LogicalClock
from repro.db import csvio
from repro.db.catalog import Catalog
from repro.db.executor import IndexScan
from repro.db.expressions import compile_expression, compile_predicate
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
    TransactionError,
    TransientError,
    WALCorruptionError,
)

@dataclass
class Session:
    """One logical connection's transaction state.

    The server opens one per wire connection; :class:`Database` keeps a
    default session so embedded (single-connection) use is unchanged.
    """

    session_id: int
    name: str
    in_transaction: bool = False


class UndoLog:
    """The prior state of every heap row the open WAL batch changed.

    Before a statement changes a row it calls :meth:`save_row`, and
    before its first insert into a table :meth:`save_counter` (every
    row at or past that rowid counter is new). A mark is the log's
    length; :meth:`rollback` puts the heap back as it was at a mark: a
    failed statement's own, or its transaction's start.
    """

    def __init__(self) -> None:
        # (table, rowid, prior values, prior version) for a row, and
        # (table, None, prior next_rowid, None) for a counter
        self._entries: list[tuple[HeapTable, Optional[int], Any, Any]] = []

    def mark(self) -> int:
        return len(self._entries)

    def save_row(self, table: HeapTable, rowid: int) -> None:
        self._entries.append((table, rowid, table.rows[rowid],
                              table.versions[rowid]))

    def save_counter(self, table: HeapTable) -> None:
        self._entries.append((table, None, table.next_rowid, None))

    def clear(self) -> None:
        self._entries.clear()

    def rollback(self, mark: int = 0) -> None:
        """Restore every row changed since ``mark``: one
        :meth:`HeapTable.replace` per table."""
        counters: dict[HeapTable, int] = {}
        states: dict[HeapTable, dict[int, Any]] = {}
        # the first entry after the mark holds the state at the mark
        for table, rowid, values, version in self._entries[mark:]:
            if rowid is None:
                counters.setdefault(table, values)
            else:
                states.setdefault(table, {}).setdefault(
                    rowid, (values, version))
        del self._entries[mark:]
        for table, counter in counters.items():
            # a row born after the mark stays out
            states.setdefault(table, {}).update(
                dict.fromkeys(range(counter, table.next_rowid)))
        for table, table_states in states.items():
            table.replace(table_states)
        for table, counter in counters.items():
            table.next_rowid = counter


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


# the field types of the row records the engine logs; recovery refuses
# any other shape in one line (``bool`` is refused where ``int`` is due)
_ROW_RECORD_FIELDS = {
    "put": (("table", str), ("rowid", int), ("version", int),
            ("values", list)),
    "delete": (("table", str), ("rowid", int)),
}


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
        # sessions are handed out here (one per server connection, plus
        # the default one used by the embedded single-connection API)
        self._next_session_id = 1
        self.session = self.create_session("default")
        # the session holding the one open transaction, if any
        self.writer: Optional[Session] = None
        # WAL batch state: redo records buffered since the last commit
        # marker, which tables the batch touched/dropped, and the prior
        # state of the heap rows it changed
        self.wal: Optional[WriteAheadLog] = None
        self._touched_tables: set[str] = set()
        self._dropped_tables: set[str] = set()
        self._undo = UndoLog()
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
        """Apply the WAL's committed records over the loaded table
        files. Only each row's last ``put``/``delete`` state counts:
        one :meth:`HeapTable.replace` per table installs them after the
        last record, so a key that a newer table image (a checkpoint cut
        before its log reset) gives another row cannot collide."""
        pending: dict[str, dict[int, Any]] = {}
        for record in recovery.records:
            try:
                self._apply_wal_record(record, pending)
            except (DatabaseError, ValueError) as exc:
                raise WALCorruptionError(
                    f"committed WAL record {record!r} cannot be "
                    f"replayed: {exc}") from exc
        for name, states in pending.items():
            try:
                self.catalog.get_table(name).replace(states)
            except DatabaseError as exc:
                raise WALCorruptionError(
                    f"committed WAL records cannot be replayed: {exc}"
                ) from exc

    def _apply_wal_record(self, record: dict,
                          pending: dict[str, dict[int, Any]]) -> None:
        """Apply one record; a row state goes to ``pending`` (table →
        rowid → ``(row, version)`` or ``None``)."""
        operation = record["op"]
        if operation in ("put", "delete"):
            for field, kind in _ROW_RECORD_FIELDS[operation]:
                value = record.get(field)
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise WALCorruptionError(
                        f"{operation} record field {field!r} must be "
                        f"{kind.__name__}, not {value!r}")
        if operation == "put":
            for cell in record["values"]:
                if not isinstance(cell, str):
                    raise WALCorruptionError(
                        f"put record cell must be str, not {cell!r}")
        if "table" in record:
            # replayed over the loaded file, so the file is now stale
            self.catalog.mark_dirty(record["table"])
        if operation in ("put", "delete"):
            table = self.catalog.get_table(record["table"])
            state = None
            if operation == "put":
                state = (coerce_row(map(value_from_csv, record["values"],
                                        table.schema.types()),
                                    table.schema), record["version"])
            pending.setdefault(table.name, {})[record["rowid"]] = state
        elif operation == "create_table":
            if not self.catalog.has_table(record["table"]):
                self.catalog.create_table(
                    record["table"], schema_from_wire(record["columns"]))
        elif operation == "drop_table":
            self.catalog.drop_table(record["table"], if_exists=True)
            pending.pop(record["table"], None)
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

    def _log_put(self, table: HeapTable, rowid: int) -> None:
        self._touched_tables.add(table.name)
        if self.wal is not None:
            self.wal.append({
                "op": "put", "table": table.name, "rowid": rowid,
                "version": table.versions[rowid],
                "values": [value_to_csv(value)
                           for value in table.rows[rowid]],
            })

    def _log_delete(self, table: HeapTable, rowid: int) -> None:
        self._touched_tables.add(table.name)
        if self.wal is not None:
            self.wal.append({"op": "delete", "table": table.name,
                             "rowid": rowid})

    def _log_ddl(self, record: dict) -> None:
        if self.wal is not None:
            self.wal.append(record)

    def _wal_dirty(self) -> bool:
        return self.wal is not None and self.wal.buffered > 0

    def _batch_marks(self) -> tuple[int, int]:
        """Where the open batch stands: the undo log's length and the
        WAL buffer's, which a failed statement is rolled back to."""
        return (self._undo.mark(),
                self.wal.buffered if self.wal is not None else 0)

    def _commit_wal_batch(self) -> None:
        """Durably commit the pending batch, then (with autoflush)
        mirror it into the table files — always WAL before data. The
        tables it touched move their commit watermarks to the commit's
        tick."""
        # marked first: a commit that fails still changed the heap
        self.catalog.dirty_tables.update(self._touched_tables)
        self._undo.clear()
        for name in self._touched_tables:
            self.catalog.note_write(name, self.clock.now)
        if self._wal_dirty():
            self.wal.commit(self.clock.now)
        if self.autoflush:
            for name in sorted(self._touched_tables):
                if self.catalog.has_table(name):
                    self.catalog.flush_table(name)
            if self._dropped_tables:
                self.catalog.sync_drops()
        self._touched_tables.clear()
        self._dropped_tables.clear()

    def _abort_wal_batch(self, marks: tuple[int, int] = (0, 0)) -> None:
        """Take back what the open batch did since ``marks`` (see
        :meth:`_batch_marks`; by default its start): cut its WAL
        records and put back every heap row it changed, so memory
        holds what recovery would. Once no transaction is open, no
        batch carries on."""
        self.catalog.dirty_tables.update(self._touched_tables)
        undo_mark, wal_mark = marks
        self._undo.rollback(undo_mark)
        if self.wal is not None:
            self.wal.abort(wal_mark)
        if self.writer is None:
            self._touched_tables.clear()
            self._dropped_tables.clear()

    # -- sessions ----------------------------------------------------------------

    def create_session(self, name: str = "session") -> Session:
        """Open an independent transaction scope (one per connection)."""
        session = Session(self._next_session_id, name)
        self._next_session_id += 1
        return session

    def abort_session(self, session: Session) -> None:
        """Roll back the session's open transaction, if any (ROLLBACK,
        and a connection that closes or a server that shuts down)."""
        if session.in_transaction:
            self._end_transaction(session)
            self._abort_wal_batch()

    @property
    def commit_count(self) -> int:
        """Commit markers written to the WAL (0 without a WAL)."""
        return self.wal.commit_count if self.wal is not None else 0

    @property
    def fsync_count(self) -> int:
        """WAL fsyncs issued (one per commit; 0 without a WAL)."""
        return self.wal.fsync_count if self.wal is not None else 0

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
        if writer is not None and writer is not session:
            raise TransientError(
                f"session {writer.name!r} has a transaction open, and "
                f"no other session runs statements until it ends; "
                f"retry after it ends")
        # classified as parsed: expansion below inlines subquery
        # results, after which a subquery SELECT would look plain. A
        # cacheable SELECT has no subqueries, so it skips expansion.
        cacheable = self._result_cacheable(statement)
        extra_lineage: frozenset = EMPTY_LINEAGE
        if not cacheable and isinstance(
                statement, (ast.Select, ast.SetOp, ast.Update,
                            ast.Delete, ast.Insert, ast.Explain)):
            # DML always records write provenance, so its subqueries
            # must track lineage too; queries only when asked
            track = (provenance
                     or bool(getattr(statement, "provenance", False))
                     or isinstance(statement, (ast.Update, ast.Delete,
                                               ast.Insert)))
            statement, extra_lineage = expand_statement(
                statement, self._run_subquery, track)
        marks = self._batch_marks()
        try:
            result = self._dispatch_statement(statement, provenance,
                                              session)
        except Exception:
            # a failed statement has no effect, inside a transaction
            # or out: whatever it logged must not survive recovery
            self._abort_wal_batch(marks)
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
        if not session.in_transaction:
            # autocommit (or the COMMIT statement itself): make the
            # batch durable before any table file is rewritten
            self._commit_wal_batch()
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
        if entry["commit"]:
            self.abort_session(session)
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
        durable = not session.in_transaction and self._wal_dirty()
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
            return self._execute_insert(statement, provenance)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, (ast.CreateTable, ast.DropTable,
                                  ast.CreateIndex, ast.DropIndex)):
            if session.in_transaction:
                # the undo log takes back rows, not schema changes:
                # DDL runs in autocommit only
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
            return self._execute_copy_from(statement)
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
        round-trip per tuple."""
        rows: list[tuple] = []
        lineages: list[frozenset] = []
        for batch in root.batches():
            rows.extend(batch.rows)
            lineages.extend(batch.lineages
                            or [EMPTY_LINEAGE] * len(batch.rows))
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
        from repro.db.planner import analyze_stats, explain_plan, plan_setop

        # always planned fresh, never a kept plan: ANALYZE rewires
        # the tree in place with Instrumented wrappers
        plan = (plan_setop if isinstance(explain.query, ast.SetOp)
                else plan_select)
        planned = plan(explain.query, self.catalog, False)
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

    def _execute_insert(self, insert: ast.Insert,
                        provenance: bool) -> StatementResult:
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
        self._undo.save_counter(table)
        for values, lineage in source_rows:
            full_values = self._spread_values(table, positions, values)
            rowid = table.insert(full_values, tick)
            self._log_put(table, rowid)
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
        targets.

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

    def _execute_update(self, update: ast.Update) -> StatementResult:
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
        for rowid, old_values, old_version in matched:
            new_values = list(old_values)
            for position, value_fn in assignments:
                new_values[position] = value_fn(old_values)
            self._undo.save_row(table, rowid)
            table.update(rowid, tuple(new_values), tick)
            self._log_put(table, rowid)
            old_ref = TupleRef(table.name, rowid, old_version)
            new_ref = TupleRef(table.name, rowid, tick)
            result.written.append(new_ref)
            result.written_lineage[new_ref] = frozenset((old_ref,))
        result.rowcount = len(matched)
        return result

    def _execute_delete(self, delete: ast.Delete) -> StatementResult:
        table = self.catalog.get_table(delete.table)
        matched = self._matching_rows(table, delete.where)
        result = StatementResult(kind="delete",
                                 source_tables=[table.name])
        if not matched:
            return result
        self.clock.tick()
        for rowid, _values, old_version in matched:
            self._undo.save_row(table, rowid)
            table.delete(rowid)
            self._log_delete(table, rowid)
            result.deleted.append(TupleRef(table.name, rowid, old_version))
        result.rowcount = len(matched)
        return result

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

    def _execute_copy_from(self, copy: ast.CopyFrom) -> StatementResult:
        table = self.catalog.get_table(copy.table)
        text = self.read_file(copy.path)
        rows = csvio.parse_rows(text, table.schema,
                                header=copy.header,
                                delimiter=copy.delimiter)
        tick = self.clock.tick()
        result = StatementResult(kind="copy", source_tables=[table.name])
        self._undo.save_counter(table)
        for values in rows:
            rowid = table.insert(values, tick)
            self._log_put(table, rowid)
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
        if session.in_transaction:
            raise TransactionError("transaction already in progress")
        session.in_transaction = True
        self.writer = session
        return StatementResult(kind="txn")

    def _execute_commit(self, session: Session) -> StatementResult:
        """End the transaction. Its writes are already in the heap and
        its redo records in the open WAL batch, which the autocommit
        epilogue commits under one marker + fsync. A transaction that
        wrote consumes one clock tick, the commit's."""
        if not session.in_transaction:
            raise TransactionError("no transaction in progress")
        self._end_transaction(session)
        if self._undo.mark():
            self.clock.tick()
        return StatementResult(kind="txn")

    def _execute_rollback(self, session: Session) -> StatementResult:
        if not session.in_transaction:
            raise TransactionError("no transaction in progress")
        self.abort_session(session)
        return StatementResult(kind="txn")

    def _end_transaction(self, session: Session) -> None:
        session.in_transaction = False
        self.writer = None
