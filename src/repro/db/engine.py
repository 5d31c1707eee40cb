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

Transactions are MVCC snapshots (:mod:`repro.db.mvcc`): BEGIN captures
the logical clock; statements read that snapshot merged with the
session's private write-set; COMMIT validates first-committer-wins
(raising :class:`repro.errors.WriteConflictError`, a transient error
the client retries as a whole transaction) and publishes the write-set
as one WAL batch; ROLLBACK just drops it. Each
:class:`~repro.db.mvcc.Session` carries its own transaction state, so
any number of connections — the server opens one session per wire
connection — interleave statements without observing each other's
uncommitted work.

Durability (when a data directory is given): every committed statement
or transaction is flushed to a write-ahead log (:mod:`repro.db.wal`)
*before* any table file is touched, and :meth:`Database.checkpoint`
rewrites table files atomically (temp → fsync → rename) before
resetting the log. Opening a database therefore recovers automatically:
table files are loaded, the WAL's committed records are replayed
idempotently on top, torn or uncommitted log tails are truncated, and
the logical clock resumes past every recovered tick. All file I/O runs
through an injectable :class:`repro.db.fileio.FileIO`, which is how the
fault-injection harness (:mod:`repro.faults`) simulates crashes at
every write, fsync, and rename.
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
from repro.db.executor import IndexScan, MaterializedSource
from repro.db.expressions import (
    bound_parameters,
    compile_expression,
    compile_predicate,
)
from repro.db.mvcc import (
    ReadView,
    Session,
    TableOverlay,
    TransactionContext,
)
from repro.db.planner import PlannedQuery, index_probe, plan_select
from repro.db.provtypes import EMPTY_LINEAGE, TupleRef
from repro.db.stats import TableStats, compute_table_stats
from repro.db.sql import ast
from repro.db.sql.params import Binder
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
    WALCorruptionError,
    WriteConflictError,
)


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


@dataclass
class PreparedStatement:
    """A statement parsed once, executed many times with ``$n``
    parameter values (the engine half of the wire's prepare /
    bind-execute / deallocate cycle)."""

    sql: str
    statement: ast.Statement
    cacheable: bool
    # the statement compiled for binding ``$n`` values, once
    binder: Binder = field(init=False, repr=False)
    # provenance flag -> ((catalog, catalog version, stats version),
    # plan): a cacheable statement's plan, reused while the catalog it
    # was planned against is unchanged (see Database._planned_for)
    plans: dict[bool, tuple[tuple, PlannedQuery]] = field(
        init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.binder = Binder(self.statement)

    @property
    def param_count(self) -> int:
        return self.binder.param_count


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
        plan-cache figures. The engine has no shared plan cache (a
        prepared statement keeps its own plan), so this one holds
        nothing and all of its counters stay zero."""
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
        self._next_txn_id = 1
        self.session = self.create_session("default")
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
        self.last_recovery: Optional[WALRecovery] = None
        # exactly-once retry support: results of token-stamped
        # statements, recoverable alongside the writes they describe
        self.dedupe_ledger = IdempotencyLedger()
        if directory is not None:
            self.wal = WriteAheadLog(directory.wal_path, io=self.io)
            self.last_recovery = self.wal.open()
            # checkpointed ledger entries predate the WAL's records;
            # load them first so replayed entries win on collision —
            # same for checkpointed ANALYZE statistics, which any
            # replayed "analyze" record overrides
            meta = directory.load_meta()
            self.dedupe_ledger.load(meta.get("ledger", []))
            self.catalog.load_stats(meta.get("stats", {}))
            # a legacy "partitions" meta key (hash-partition specs
            # from when the engine had parallel scans) is ignored
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
                self.catalog.table_of_index(record["name"]).drop_index(
                    record["name"])
        elif operation == "analyze":
            if self.catalog.has_table(record["table"]):
                self.catalog.set_stats(
                    record["table"],
                    TableStats.from_dict(record["stats"]))
        elif operation == "partition":
            # legacy hash-partition spec from when the engine had
            # parallel scans: physical-plan metadata only, no row
            # state, so skipping it recovers the same tables
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
        target = max(int(directory.load_meta().get("clock", 0)),
                     recovery.last_tick)
        for table in self.catalog:
            if table.versions:
                target = max(target, max(table.versions.values()))
        if target > self.clock.now:
            self.clock.advance(target - self.clock.now)

    # -- WAL batch bookkeeping ---------------------------------------------------

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
        if self.wal is not None:
            self.wal.abort()
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
            self._abort_transaction(session)

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
    def _read_view(self, session: Session) -> Iterator[None]:
        """Make the session's snapshot the ambient read view for the
        duration of one statement. Tables consult it during scans, so
        kept plans — whose operators hold direct table references —
        are automatically snapshot-correct for whichever session runs
        them. No view is installed outside a transaction: autocommit
        statements read (and write) the committed heap directly."""
        state = self.mvcc
        previous = state.current
        context = session.txn
        state.current = (ReadView(context.snapshot, context, state)
                         if context is not None else None)
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
        plans afresh; :meth:`prepare` keeps a SELECT's plan across
        executions. With no explicit ``session`` the default (embedded)
        session is used.

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

    # -- prepared statements ---------------------------------------------------

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse (and classify) one statement for repeated execution
        with ``$n`` parameters."""
        statements = parse_sql(sql)
        if len(statements) != 1:
            raise SQLSyntaxError(
                f"prepare() expects one statement, got {len(statements)}")
        statement = statements[0]
        return PreparedStatement(
            sql=sql, statement=statement,
            cacheable=self._plan_cacheable(statement))

    def _check_param_count(self, prepared: PreparedStatement,
                           params: tuple) -> None:
        if len(params) != prepared.param_count:
            raise ExecutionError(
                f"prepared statement expects {prepared.param_count} "
                f"parameter(s), got {len(params)}")

    def _planned_for(self, prepared: PreparedStatement,
                     provenance: bool,
                     session: Session | None = None) -> PlannedQuery:
        """The plan for a cacheable prepared statement, kept on the
        statement per provenance flag. A kept plan is reused while this
        database's catalog and statistics versions are unchanged, so DDL
        and ANALYZE re-plan on the next execution. Plans costed under an
        open transaction's overlay (``session`` given and in a
        transaction) are used but not kept."""
        provenance = bool(provenance)
        catalog = self.catalog
        versions = (catalog, catalog.version, catalog.stats_version)
        kept = prepared.plans.get(provenance)
        if kept is not None and kept[0] == versions:
            return kept[1]
        planned = plan_select(prepared.statement, catalog,
                              provenance or prepared.statement.provenance)
        if session is None or session.txn is None:
            prepared.plans[provenance] = (versions, planned)
        return planned

    def execute_prepared(self, prepared: PreparedStatement,
                         params: Iterable[Any] = (),
                         provenance: bool = False,
                         session: Session | None = None,
                         token: str | None = None) -> StatementResult:
        """Bind ``params`` to a prepared statement and execute it.

        Cacheable SELECT templates skip parse *and* plan: the kept
        plan's compiled closures read the parameter values from the
        ambient binding installed for the duration of the statement.
        Everything else (DML, subqueries) substitutes literals into the
        stored AST and runs the ordinary execution path — still
        skipping the per-call parse.
        """
        session = session if session is not None else self.session
        if token is not None:
            replayed = self._ledger_replay(token, session)
            if replayed is not None:
                return replayed
        params = tuple(params)
        self._check_param_count(prepared, params)
        if prepared.cacheable:
            with self._read_view(session), bound_parameters(params):
                planned = self._planned_for(prepared, provenance,
                                            session)
                result = self._run_planned_select(planned)
            result.cacheable = True
            return result
        statement = prepared.binder(params)
        return self.execute_statement(statement, provenance, session,
                                      token=token)

    @staticmethod
    def _plan_cacheable(statement: ast.Statement) -> bool:
        """Plain SELECTs without subqueries: a prepared statement may
        keep their plan and the server's result cache their result.
        Everything else (DML, DDL, UNION, EXPLAIN, subqueries) plans
        per call, and its result is never cached: subquery expansion
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
        # classified as parsed: expansion below inlines subquery
        # results, after which a subquery SELECT would look plain. A
        # cacheable SELECT has no subqueries, so it skips expansion.
        cacheable = self._plan_cacheable(statement)
        # planned inside the session's read view: cardinality estimates
        # must see the transaction's own overlay (a bulk insert into
        # one join side steers the plan's build side)
        with self._read_view(session):
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
            except Exception as exc:
                if (isinstance(exc, WriteConflictError)
                        and session.txn is not None):
                    # first committer won: the losing transaction is
                    # dead; roll it back so the client can BEGIN afresh
                    self._abort_transaction(session)
                if session.txn is None:
                    # a failed autocommit statement never commits:
                    # whatever it logged must not survive recovery
                    self._abort_wal_batch()
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
            self._abort_transaction(session)
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
                                  ast.CreateIndex, ast.DropIndex,
                                  ast.Analyze)):
            if session.txn is not None:
                # schema changes are not versioned by the snapshot
                # machinery; forcing them to autocommit keeps every
                # open snapshot's view of the catalog coherent (and
                # ANALYZE, which scans the committed heap, follows the
                # same rule)
                raise TransactionError(
                    "DDL is not allowed inside a transaction; "
                    "COMMIT or ROLLBACK first")
            if isinstance(statement, ast.CreateTable):
                return self._execute_create(statement)
            if isinstance(statement, ast.DropTable):
                return self._execute_drop_table(statement)
            if isinstance(statement, ast.CreateIndex):
                return self._execute_create_index(statement)
            if isinstance(statement, ast.DropIndex):
                return self._execute_drop_index(statement)
            return self._execute_analyze(statement)
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

    def checkpoint(self) -> None:
        """Write a crash-consistent on-disk image.

        Every table file is rewritten atomically (temp → fsync →
        rename), dropped tables' files are removed, the logical clock
        is persisted, and only then is the WAL reset. A crash at any
        intermediate point leaves a directory that recovery repairs:
        the not-yet-reset WAL simply replays (idempotently) on top of
        whichever table files made it.
        """
        if self.mvcc.has_active():
            raise TransactionError(
                "cannot checkpoint during an open transaction")
        self.catalog.flush()
        directory = self.catalog.data_directory
        if directory is not None:
            # the WAL reset below discards the logged ledger entries
            # and "analyze" records; persist both with the clock so
            # recovery still dedupes and the planner keeps its stats
            directory.save_meta({"clock": self.clock.now,
                                 "ledger": self.dedupe_ledger.dump(),
                                 "stats": self.catalog.dump_stats()})
        if self.wal is not None:
            self.wal.reset()

    def close(self) -> None:
        """Checkpoint and release (no open handles are held otherwise)."""
        self.checkpoint()

    def vacuum(self) -> None:
        """Force an MVCC history/commit-map prune (normally automatic
        after each commit; exposed for leak checks and tests)."""
        self._prune_mvcc()

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
        """Pull a planned operator tree to completion. Plans are
        re-iterable (scans read current table state on each run), which
        is what lets a prepared statement reuse its plan."""
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
        # the tree in place with Instrumented wrappers. ANALYZE also
        # plans unfused so each Scan/Filter/Project keeps its own node
        # (and measurement) in the tree.
        planned = plan_select(explain.query, self.catalog, False,
                              fuse=not explain.analyze)
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
        context = session.txn
        for values, lineage in source_rows:
            full_values = self._spread_values(table, positions, values)
            if context is None:
                rowid = table.insert(full_values, tick)
                self._log_put(table, rowid)
            else:
                rowid = self._overlay_insert(context, table,
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
        targets — read through the ambient view, so inside a
        transaction this is the snapshot merged with the write-set.

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
        context = session.txn
        for rowid, old_values, old_version in matched:
            new_values = list(old_values)
            for position, value_fn in assignments:
                new_values[position] = value_fn(old_values)
            if context is None:
                table.update(rowid, tuple(new_values), tick)
                self._log_put(table, rowid)
            else:
                self._overlay_update(context, table, rowid, old_version,
                                     tuple(new_values), tick)
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
        context = session.txn
        for rowid, old_values, old_version in matched:
            if context is None:
                table.delete(rowid, tick)
                self._log_delete(table, rowid)
            else:
                self._overlay_delete(context, table, rowid,
                                     old_version, tick)
            result.deleted.append(TupleRef(table.name, rowid, old_version))
        result.rowcount = len(matched)
        return result

    # -- transactional write-set helpers ------------------------------------------

    def _overlay_insert(self, context: TransactionContext,
                        table: HeapTable, values: tuple,
                        tick: int) -> int:
        """Buffer an INSERT in the transaction's private write-set.

        The rowid is reserved from the shared counter immediately so
        concurrent transactions never collide (aborts leave gaps,
        which rowids explicitly permit).
        """
        row = coerce_row(values, table.schema)
        self._check_overlay_pk(context, table, None, row)
        rowid = table.next_rowid
        table.next_rowid += 1
        overlay = context.overlay_for(table.name, create=True)
        overlay.upserts[rowid] = (row, tick)
        overlay.base_versions.setdefault(rowid, None)
        return rowid

    def _overlay_update(self, context: TransactionContext,
                        table: HeapTable, rowid: int, seen_version: int,
                        values: tuple, tick: int) -> None:
        row = coerce_row(values, table.schema)
        overlay = context.overlay_for(table.name, create=True)
        if rowid not in overlay.upserts:
            # first touch of a committed row: it must still be exactly
            # the version our snapshot read, else somebody committed
            # in between and the first committer has already won
            if table.versions.get(rowid) != seen_version:
                raise WriteConflictError(
                    f"row {rowid} of table {table.name!r} was modified "
                    f"by a concurrent transaction")
            overlay.base_versions.setdefault(rowid, seen_version)
        self._check_overlay_pk(context, table, rowid, row)
        overlay.upserts[rowid] = (row, tick)

    def _overlay_delete(self, context: TransactionContext,
                        table: HeapTable, rowid: int, seen_version: int,
                        tick: int) -> None:
        overlay = context.overlay_for(table.name, create=True)
        if rowid in overlay.upserts:
            del overlay.upserts[rowid]
            if overlay.base_versions.get(rowid) is None:
                # born and deleted inside this transaction: no trace
                overlay.base_versions.pop(rowid, None)
            else:
                overlay.deletes[rowid] = tick
            return
        if table.versions.get(rowid) != seen_version:
            raise WriteConflictError(
                f"row {rowid} of table {table.name!r} was modified "
                f"by a concurrent transaction")
        overlay.base_versions.setdefault(rowid, seen_version)
        overlay.deletes[rowid] = tick

    def _check_overlay_pk(self, context: TransactionContext,
                          table: HeapTable, rowid: Optional[int],
                          row: tuple) -> None:
        """Primary-key admission for a buffered write: duplicates
        visible at the snapshot (or inside the write-set) are integrity
        errors; keys taken by not-yet-visible concurrent commits are
        write conflicts (retrying with a fresh snapshot reports them
        properly)."""
        key = table.pk_key(row)
        if key is None:
            return
        overlay = context.overlay_for(table.name, create=True)
        for other, (other_row, _tick) in overlay.upserts.items():
            if other != rowid and table.pk_key(other_row) == key:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {table.name}")
        holder = table.pk_holder(key)
        if holder is None or holder == rowid:
            return
        if holder in overlay.deletes or holder in overlay.upserts:
            # we delete that row, or move its key away, in this txn
            return
        view = table.active_view()
        found = table.visible_version(holder, view) if view else None
        if found is not None and table.pk_key(found[0]) == key:
            raise IntegrityError(
                f"duplicate primary key {key!r} in table {table.name}")
        raise WriteConflictError(
            f"primary key {key!r} in table {table.name!r} was taken "
            f"by a concurrent transaction")

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

    def _execute_analyze(self, analyze: ast.Analyze) -> StatementResult:
        """Collect planner statistics for one table (or all of them).

        Runs like DDL: autocommit only, scanning the committed heap.
        The new statistics are WAL-logged (an ``"analyze"`` record per
        table) so they survive a crash, and the stats-version bump
        makes every prepared statement re-plan on its next execution.
        """
        names = ([analyze.table.lower()] if analyze.table is not None
                 else self.catalog.table_names())
        summary: dict[str, Any] = {}
        for name in names:
            table = self.catalog.get_table(name)
            table_stats = compute_table_stats(table)
            self.catalog.set_stats(table.name, table_stats)
            self._log_ddl({"op": "analyze", "table": table.name,
                           "stats": table_stats.to_dict()})
            summary[table.name] = {
                "row_count": table_stats.row_count,
                "columns": len(table_stats.columns),
            }
        return StatementResult(kind="analyze", rowcount=len(names),
                               source_tables=list(names),
                               stats={"analyzed": summary})

    def _execute_copy_from(self, copy: ast.CopyFrom,
                           session: Session) -> StatementResult:
        table = self.catalog.get_table(copy.table)
        text = self.read_file(copy.path)
        rows = csvio.parse_rows(text, table.schema,
                                header=copy.header,
                                delimiter=copy.delimiter)
        tick = self.clock.tick()
        context = session.txn
        result = StatementResult(kind="copy", source_tables=[table.name])
        for values in rows:
            if context is None:
                rowid = table.insert(values, tick)
                self._log_put(table, rowid)
            else:
                rowid = self._overlay_insert(context, table,
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
        context = TransactionContext(self._next_txn_id, self.clock.now)
        self._next_txn_id += 1
        session.txn = context
        self.mvcc.begin(context.txn_id, context.snapshot)
        return StatementResult(kind="txn")

    def _execute_commit(self, session: Session) -> StatementResult:
        """Validate and publish the transaction's write-set.

        First-committer-wins validation runs before a single shared
        structure is touched; on conflict the raised
        :class:`WriteConflictError` makes ``execute_statement`` abort
        the transaction, so a failed COMMIT leaves no partial state.
        The apply phase detaches every overwritten committed row (the
        pre-images join the history chains for still-open snapshots),
        then installs the write-set and logs it as one WAL batch —
        committed atomically by the autocommit epilogue's single
        commit-marker + fsync. Finally the provisional statement ticks
        are mapped to one fresh commit tick, which is the instant the
        writes become visible to later snapshots.
        """
        context = session.txn
        if context is None:
            raise TransactionError("no transaction in progress")
        self._check_conflicts(context)
        writes = {name: overlay
                  for name, overlay in context.overlays.items()
                  if not overlay.empty}
        session.txn = None  # the epilogue now commits the WAL batch
        if writes:
            commit_tick = self.clock.tick()
            provisional: set[int] = set()
            for name in sorted(writes):
                overlay = writes[name]
                table = self.catalog.get_table(name)
                # detach phase: pre-images of updated rows move into
                # the history chains (ending at the statement's tick)
                # and free their PK/index slots, so the install phase
                # cannot trip over transient in-transaction PK moves
                for rowid in sorted(overlay.upserts):
                    if rowid in table.rows:
                        table.delete(rowid, overlay.upserts[rowid][1])
                for rowid in sorted(overlay.deletes):
                    tick = overlay.deletes[rowid]
                    table.delete(rowid, tick)
                    self._log_delete(table, rowid)
                    provisional.add(tick)
                for rowid in sorted(overlay.upserts):
                    row, tick = overlay.upserts[rowid]
                    table.put_row(rowid, row, tick)
                    self._log_put(table, rowid)
                    provisional.add(tick)
            self.mvcc.register_commit(provisional, commit_tick)
        self.mvcc.end(context.txn_id)
        self._prune_mvcc()
        return StatementResult(kind="txn")

    def _execute_rollback(self, session: Session) -> StatementResult:
        if session.txn is None:
            raise TransactionError("no transaction in progress")
        # the write-set was private: dropping it *is* the rollback —
        # no shared structure (heap, indexes, WAL) ever saw it
        self._abort_transaction(session)
        return StatementResult(kind="txn")

    def _abort_transaction(self, session: Session) -> None:
        context = session.txn
        session.txn = None
        if context is not None:
            self.mvcc.end(context.txn_id)
            self._prune_mvcc()

    def _check_conflicts(self, context: TransactionContext) -> None:
        """First-committer-wins validation at COMMIT.

        Re-checks every base version recorded at write time (eager
        checks cannot see commits that happen *after* the write), and
        re-validates primary keys against the committed state so the
        apply phase cannot fail halfway."""
        for name in sorted(context.overlays):
            overlay = context.overlays[name]
            if overlay.empty:
                continue
            if not self.catalog.has_table(name):
                raise WriteConflictError(
                    f"table {name!r} was dropped while the "
                    f"transaction was open")
            table = self.catalog.get_table(name)
            for rowid, base in sorted(overlay.base_versions.items()):
                if base is None:
                    continue
                if table.versions.get(rowid) != base:
                    raise WriteConflictError(
                        f"row {rowid} of table {name!r} was modified "
                        f"by a concurrent transaction")
            seen_keys: dict[tuple, int] = {}
            for rowid in sorted(overlay.upserts):
                key = table.pk_key(overlay.upserts[rowid][0])
                if key is None:
                    continue
                if key in seen_keys:
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in table {name}")
                seen_keys[key] = rowid
                holder = table.pk_holder(key)
                if (holder is None or holder == rowid
                        or holder in overlay.deletes
                        or holder in overlay.upserts):
                    continue
                raise WriteConflictError(
                    f"primary key {key!r} in table {name!r} was taken "
                    f"by a concurrent transaction")

    def _prune_mvcc(self) -> None:
        """Garbage-collect history chains and commit-map entries no
        remaining snapshot can observe (everything, when idle)."""
        minimum = self.mvcc.min_active_snapshot()
        for table in self.catalog:
            table.prune_history(minimum, self.mvcc.commit_stamp)
        self.mvcc.prune()
