"""Client-side DB monitoring (paper Sections VII-B and VII-C).

:class:`DBMonitor` interposes on the DB client library (the
:class:`repro.db.client.Interceptor` surface, our libpq) and, per
executed statement:

* assigns a unique query id and links the statement into the combined
  execution trace with a ``run`` edge from the issuing process,
* **provenance mode** (server-included packaging): retrieves the
  statement's provenance — a second, PROVENANCE-rewritten execution of
  queries (Perm), and a pre-state reenactment query for UPDATE / DELETE
  / INSERT...SELECT (GProM) issued *before* the modification runs —
  records hasRead / hasReturned / readFromDB edges with per-result
  Lineage attribution, maintains the versioning marks of Section VII-B,
  and streams relevant tuple versions into a
  :class:`RelevantTupleStore` (with in-memory dedup, as the prototype
  does),
* **record mode** (server-excluded packaging): appends the statement
  and its full wire result to a :class:`ReplayLog`.

Both modes deliberately pay their costs through the same client/server
wire path the application uses, so audit overhead in the benchmarks has
the same shape as the paper's Figure 7a/8a.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.clockwork import LogicalClock
from repro.db import protocol
from repro.db.client import DBClient, Interceptor
from repro.db.engine import Database, StatementResult
from repro.db.provtypes import TupleRef
from repro.db.sql import ast
from repro.db.sql.parser import parse_sql
from repro.db.sql.render import render_select
from repro.db.versioning import VersionManager
from repro.errors import AuditError, PackageError
from repro.provenance.combined import TraceBuilder
from repro.provenance.interval import TimeInterval
from repro.vos.process import Process

MODE_PROVENANCE = "provenance"
MODE_RECORD = "record"


class RelevantTupleStore:
    """Relevant tuple versions collected during audit.

    Mirrors the prototype: one logical CSV per table, an in-memory
    hash (here a dict) for duplicate elimination.
    """

    def __init__(self) -> None:
        # keyed by plain (table, rowid, version) tuples, which equal
        # their TupleRefs: the collector stops tracking those, but not
        # namedtuples, and the store lives as long as the audit
        self._rows: dict[tuple[str, int, int], tuple] = {}

    def __contains__(self, ref: TupleRef) -> bool:
        return ref in self._rows

    def add(self, ref: TupleRef, values: tuple) -> bool:
        """Record one tuple version; returns False if already present."""
        if ref in self._rows:
            return False
        self._rows[tuple(ref)] = values
        return True

    def tables(self) -> list[str]:
        return sorted({table for table, _rowid, _version in self._rows})

    def rows_for(self, table: str) -> list[tuple[int, int, tuple]]:
        """``(rowid, version, values)`` triples, in rowid order."""
        return sorted((rowid, version, values)
                      for (ref_table, rowid, version), values
                      in self._rows.items() if ref_table == table)

    def refs(self) -> set[TupleRef]:
        return {TupleRef(*key) for key in self._rows}

    @property
    def tuple_count(self) -> int:
        return len(self._rows)


@dataclass
class ReplayLogEntry:
    """One recorded statement with its full wire result.

    ``kind`` records the wire path the statement took ("text" or
    "prepared"; logs recorded while the client could stream results
    may also say "stream"). Prepared executions are recorded under
    their canonical bound SQL text, so replay matching is
    path-agnostic; the kind is observability metadata. It is
    serialized only when it differs from "text", keeping logs recorded
    by older monitors — and logs of plain text traffic — byte-identical.
    """

    index: int
    sql: str
    provenance: bool
    result_frame: dict[str, Any]
    kind: str = "text"

    def to_json(self) -> dict[str, Any]:
        data = {"index": self.index, "sql": self.sql,
                "provenance": self.provenance,
                "result": self.result_frame}
        if self.kind != "text":
            data["kind"] = self.kind
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ReplayLogEntry":
        return cls(data["index"], data["sql"], data["provenance"],
                   data["result"], data.get("kind", "text"))


class ReplayLog:
    """The ordered statement/result log of a server-excluded package."""

    def __init__(self) -> None:
        self.entries: list[ReplayLogEntry] = []

    def append(self, sql: str, provenance: bool,
               result: StatementResult,
               kind: str = "text") -> ReplayLogEntry:
        entry = ReplayLogEntry(len(self.entries), sql, provenance,
                               protocol.result_to_wire(result), kind)
        self.entries.append(entry)
        return entry

    def to_jsonl(self) -> str:
        return "".join(json.dumps(entry.to_json(), separators=(",", ":"))
                       + "\n" for entry in self.entries)

    @classmethod
    def from_jsonl(cls, text: str) -> "ReplayLog":
        """Parse a log; a malformed line raises :class:`PackageError`
        naming the line."""
        log = cls()
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise PackageError(
                    f"replay log line {number} is not valid JSON: "
                    f"{exc}") from exc
            if not isinstance(data, dict):
                raise PackageError(
                    f"replay log line {number} is not a JSON object")
            try:
                entry = ReplayLogEntry.from_json(data)
            except KeyError as exc:
                raise PackageError(
                    f"replay log line {number} is missing key "
                    f"{exc}") from exc
            if (not isinstance(entry.sql, str)
                    or not isinstance(entry.result_frame, dict)):
                raise PackageError(
                    f"replay log line {number}: 'sql' must be a string "
                    f"and 'result' an object")
            log.entries.append(entry)
        return log

    def __len__(self) -> int:
        return len(self.entries)


_STATEMENT_TYPE = {
    ast.Select: "query",
    ast.SetOp: "query",  # UNION chains are queries
    ast.Insert: "insert",
    ast.Update: "update",
    ast.Delete: "delete",
    ast.CopyFrom: "insert",  # bulk load creates tuples
}


class DBMonitor:
    """Shared state of DB-side monitoring for one audited run."""

    def __init__(self, builder: TraceBuilder, mode: str,
                 database: Database | None = None,
                 clock: "LogicalClock | None" = None) -> None:
        if mode not in (MODE_PROVENANCE, MODE_RECORD):
            raise AuditError(f"unknown DB monitoring mode {mode!r}")
        if mode == MODE_PROVENANCE and database is None:
            raise AuditError(
                "provenance mode needs access to the server database")
        self.builder = builder
        self.mode = mode
        self.database = database
        if clock is None:
            clock = database.clock if database is not None else LogicalClock()
        self.clock = clock
        self.versions = (VersionManager(database)
                         if database is not None else None)
        self.relevant = RelevantTupleStore()
        self.replay_log = ReplayLog()
        self.created_refs: set[TupleRef] = set()
        # files the *server* read on the application's behalf
        # (COPY ... FROM): ptrace on the client processes cannot see
        # them, so the client-side monitor must flag them as inputs
        self.copy_input_paths: set[str] = set()
        self.statement_count = 0
        self.provenance_queries_run = 0

    # -- wiring -------------------------------------------------------------------

    def interceptor_for(self, process: Process) -> Interceptor:
        """The per-client interceptor (bound to the issuing process)."""
        return _MonitorInterceptor(self, process)

    def next_statement_id(self) -> str:
        self.statement_count += 1
        return f"q{self.statement_count}"

    # -- provenance-mode helpers ------------------------------------------------------

    def record_relevant(self, refs: Iterable[TupleRef],
                        rows: Sequence[tuple] | None = None) -> int:
        """Add tuple versions to the relevant store, excluding versions
        the application itself created (Section II / VII-D). ``rows``
        holds each ref's values; without it, the values of new
        versions are read from the server database. Returns the number
        of new entries."""
        added = 0
        for index, ref in enumerate(refs):
            if (ref in self.relevant or ref in self.created_refs
                    or ref.table.startswith("_result")):
                continue  # stored, app-created, or a query result
            values = (rows[index] if rows is not None
                      else self._current_values(ref))
            self.relevant.add(ref, values)
            added += 1
        return added

    def _current_values(self, ref: TupleRef) -> tuple:
        assert self.database is not None
        return self.database.catalog.get_table(ref.table).get(ref.rowid)


class _MonitorInterceptor(Interceptor):
    """Interceptor attached to one client connection."""

    def __init__(self, monitor: DBMonitor, process: Process) -> None:
        self.monitor = monitor
        self.process = process
        self._guard = False  # suppress recursion for our own queries
        self._parsed: Optional[tuple[str, ast.Statement]] = None
        self._pending_reenactment: Optional[tuple[list[TupleRef],
                                                  list[tuple]]] = None

    # -- hooks ---------------------------------------------------------------------

    def before_execute(self, client: DBClient, sql: str,
                       provenance: bool) -> Optional[StatementResult]:
        if self._guard or self.monitor.mode != MODE_PROVENANCE:
            return None
        statement = self._parse_single(sql)
        self._parsed = (sql, statement)  # reused by after_execute
        reenact_query = self._reenactment_query(statement)
        if reenact_query is not None:
            # GProM reenactment: retrieve the modification's provenance
            # BEFORE executing it (Section VII-B, first problem)
            self._guard = True
            try:
                pre = client.execute(render_select(reenact_query),
                                     provenance=True)
            finally:
                self._guard = False
            self.monitor.provenance_queries_run += 1
            refs: list[TupleRef] = []
            rows: list[tuple] = []
            for row, lineage in zip(pre.rows, pre.lineages):
                for ref in lineage:
                    refs.append(ref)
                    rows.append(row)
            self._pending_reenactment = (refs, rows)
        return None

    def after_execute(self, client: DBClient, sql: str,
                      provenance: bool, result: StatementResult) -> None:
        if self._guard:
            return
        if self._parsed is not None and self._parsed[0] == sql:
            statement: ast.Statement | None = self._parsed[1]
        else:
            try:
                statement = self._parse_single(sql)
            except Exception:
                statement = None
        self._parsed = None
        if statement is not None:
            self._note_copy_input(statement)
        if self.monitor.mode == MODE_RECORD:
            self.monitor.replay_log.append(
                sql, provenance, result,
                kind=getattr(client, "last_execution_path", "text"))
            if statement is not None:
                self._record_statement_node(statement, sql, result)
            return
        if statement is not None:
            self._provenance_after(client, statement, sql, result)

    def _note_copy_input(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.CopyFrom):
            self.monitor.copy_input_paths.add(statement.path)
            # conservative P_BB attribution: the issuing process read
            # the file (through the server)
            self.monitor.builder.read_from(
                self.process.pid, statement.path,
                TimeInterval.point(self.monitor.clock.now))

    # -- provenance mode ---------------------------------------------------------------

    def _provenance_after(self, client: DBClient,
                          statement: ast.Statement, sql: str,
                          result: StatementResult) -> None:
        statement_type = _STATEMENT_TYPE.get(type(statement))
        if statement_type is None:
            return  # DDL / txn control: no P_Lin activity
        monitor = self.monitor
        builder = monitor.builder
        statement_id = monitor.next_statement_id()
        node = builder.statement(statement_id, statement_type, sql=sql)
        builder.run(self.process.pid, node,
                    TimeInterval.point(monitor.clock.now))

        if monitor.versions is not None and result.source_tables:
            monitor.versions.ensure_enabled(
                table for table in result.source_tables
                if monitor.database.catalog.has_table(table))

        if statement_type == "query":
            self._handle_query(client, sql, result, node, statement_id)
        else:
            self._handle_modification(result, node, statement_id)

    def _handle_query(self, client: DBClient, sql: str,
                      result: StatementResult, node: str,
                      statement_id: str) -> None:
        monitor = self.monitor
        builder = monitor.builder
        # Perm: re-execute the query in PROVENANCE mode over the wire
        self._guard = True
        try:
            prov = client.execute(sql, provenance=True)
        finally:
            self._guard = False
        monitor.provenance_queries_run += 1
        if len(prov.rows) != len(result.rows):
            raise AuditError(
                "provenance query returned a different result "
                f"({len(prov.rows)} vs {len(result.rows)} rows)")
        tick = monitor.clock.now
        result_table = f"_result_{statement_id}"
        result_refs = [TupleRef(result_table, index, tick)
                       for index in range(1, len(prov.rows) + 1)]
        builder.has_returned(node, result_refs, tick, prov.lineages,
                             reader=self.process.pid)
        all_read = dict.fromkeys(ref for lineage in prov.lineages
                                 for ref in lineage)
        builder.has_read(node, all_read, tick)
        # versioning marks + relevant tuple collection
        if monitor.versions is not None:
            monitor.versions.mark_used(all_read, statement_id,
                                       str(self.process.pid))
        monitor.record_relevant(all_read)

    def _handle_modification(self, result: StatementResult, node: str,
                             statement_id: str) -> None:
        monitor = self.monitor
        builder = monitor.builder
        tick = monitor.clock.now
        pre_refs: list[TupleRef] = []
        pre_rows: list[tuple] = []
        if self._pending_reenactment is not None:
            pre_refs, pre_rows = self._pending_reenactment
            self._pending_reenactment = None
        # only DELETE removes versions, and it writes none, so reading
        # them with the pre-state keeps the edge order of the statement
        read = pre_refs + result.deleted
        if read:  # a plain INSERT ... VALUES reads nothing
            builder.has_read(node, read, tick)
        builder.has_returned(
            node, result.written, tick,
            [result.written_lineage.get(ref, frozenset())
             for ref in result.written])
        monitor.created_refs.update(result.written)
        if monitor.versions is not None and pre_refs:
            monitor.versions.mark_used(pre_refs, statement_id,
                                       str(self.process.pid))
        if pre_refs:
            monitor.record_relevant(pre_refs, pre_rows)

    # -- record mode --------------------------------------------------------------------

    def _record_statement_node(self, statement: ast.Statement, sql: str,
                               result: StatementResult) -> None:
        statement_type = _STATEMENT_TYPE.get(type(statement))
        if statement_type is None:
            return
        monitor = self.monitor
        statement_id = monitor.next_statement_id()
        node = monitor.builder.statement(statement_id, statement_type,
                                         sql=sql)
        monitor.builder.run(self.process.pid, node,
                            TimeInterval.point(monitor.clock.now))

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _parse_single(sql: str) -> ast.Statement:
        statements = parse_sql(sql)
        if len(statements) != 1:
            raise AuditError("client sent a multi-statement string")
        return statements[0]

    @staticmethod
    def _reenactment_query(statement: ast.Statement) -> Optional[ast.Select]:
        """The pre-state provenance query for a modification, or None
        when no reenactment is needed (plain INSERT ... VALUES)."""
        if isinstance(statement, (ast.Update, ast.Delete)):
            return ast.Select(
                items=(ast.SelectItem(ast.Star()),),
                sources=(ast.TableRef(statement.table),),
                where=statement.where)
        if isinstance(statement, ast.Insert) and statement.query is not None:
            return statement.query
        return None
