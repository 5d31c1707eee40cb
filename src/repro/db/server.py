"""The database server: owns a Database and answers protocol frames.

One :class:`DBServer` serves any number of in-process connections. Its
:meth:`handle_wire` method consumes and produces *encoded* frames
(JSON text), which is the transport handed to clients — every exchange
pays real serialization, like a socket would, and gives interceptors a
faithful wire view.

The wire boundary is a hard error wall: :meth:`handle_wire` never lets
an exception escape. Malformed frames, traffic after :meth:`shutdown`,
statement failures, even unexpected internal errors all come back as
protocol ``error`` frames (transient ones flagged so clients may
retry). The only thing that crosses the wall is a simulated crash from
the fault-injection harness, which — like a real ``kill -9`` — no
handler may absorb.

The serving fast path (protocol version 2) adds four per-connection
facilities on top of plain query frames:

* **prepared statements** — ``prepare`` parses and classifies once;
  ``bind-execute`` binds ``$n`` values and runs the template with the
  plan the prepared statement keeps, skipping parse and plan per call;
* **pipelining** — a ``pipeline`` envelope executes N frames in one
  exchange under one group-commit window (per-frame error isolation,
  one shared WAL fsync);
* **streamed result sets** — a ``fetch`` budget on query/bind-execute
  answers with a cursor id plus the first chunk; ``fetch`` /
  ``close-cursor`` frames drain it under the pinned snapshot;
* **result cache** — read-only statements are served from
  :class:`ResultCache`, keyed on (normalized SQL, params, catalog
  version, per-table MVCC commit watermarks), so invalidation falls
  out of the commit bookkeeping and hits are snapshot-correct by
  construction.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Optional

from repro.clockwork import LogicalClock
from repro.db import protocol
from repro.db.engine import Cursor, Database, PreparedStatement
from repro.db.mvcc import MVCCState, Session
from repro.errors import (
    DatabaseError,
    GroupCommitError,
    OverloadedError,
    ProtocolError,
    ReproError,
    StatementTimeout,
    TransientError,
    WriteConflictError,
)


def _frame_transient(exc: Exception) -> bool:
    """Should an error frame carry the ``transient`` retry flag?

    A :class:`WriteConflictError` is transient for the *transaction*,
    not for the frame: resending the failed statement verbatim would
    land outside any transaction (the server already rolled it back).
    Clients retry it through
    :meth:`repro.db.client.DBClient.run_transaction` instead.
    """
    return (isinstance(exc, TransientError)
            and not isinstance(exc, WriteConflictError))


def _looks_like_select(sql: str) -> bool:
    """Cheap syntactic gate for result-cache consultation. Only plain
    SELECTs can produce cacheable results, so other statements skip
    the lookup entirely (and never inflate the miss counter)."""
    return sql.lstrip().lower().startswith("select")


def _typed_field(request: dict[str, Any], name: str, kind: type) -> Any:
    """``request[name]`` if it is exactly a ``kind`` (``int`` or
    ``str``; a JSON true/false is not an integer), else a one-line
    :class:`ProtocolError` naming the field."""
    value = request.get(name)
    if type(value) is not kind:
        expected = "an integer" if kind is int else "a string"
        raise ProtocolError(
            f"{request.get('frame')} frame: {name} must be {expected}, "
            f"not {type(value).__name__}")
    return value


_SCALARS = (type(None), bool, int, float, str)


def _bind_params(request: dict[str, Any]) -> tuple:
    """A bind-execute frame's ``params``: a JSON array of scalars
    (missing means none), else a one-line :class:`ProtocolError`."""
    params = request.get("params")
    if params is None:
        return ()
    if not (isinstance(params, list)
            and all(type(value) in _SCALARS for value in params)):
        raise ProtocolError(
            "bind-execute frame: params must be an array of null, "
            "boolean, number or string values")
    return tuple(params)


class ResultCache:
    """Read-through cache of ``result`` frames for read-only statements.

    An entry records, besides the frame, the ``catalog.version`` and
    the per-source-table MVCC commit watermarks at store time. A
    lookup is a hit only when every watermark (and the catalog
    version) still matches — i.e. the cached frame reflects the
    *latest committed state* of every table it was derived from.
    Invalidation therefore falls out of the commit map: any commit to
    a source table moves that table's watermark and strands the entry.

    Snapshot correctness inside an open transaction needs one more
    check: the transaction's snapshot must actually *see* the latest
    commit to every source table (``watermark <= snapshot``) and must
    not have private writes overlaying them. When either fails, the
    lookup misses — without evicting, since the entry is still right
    for current-state readers — and the statement executes under the
    transaction's own snapshot. Results computed inside a transaction
    are never stored.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ProtocolError("result cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._entries: OrderedDict[tuple, dict] = OrderedDict()

    @staticmethod
    def normalize(sql: str) -> str:
        """Collapse insignificant whitespace so trivially reformatted
        statements share a cache entry. Statements containing string
        literals are kept verbatim — whitespace inside quotes is
        significant and a lexer-free normalizer cannot tell it apart.
        """
        if "'" in sql:
            return sql.strip()
        return " ".join(sql.split())

    @staticmethod
    def key(sql: str, params: tuple, provenance: bool) -> tuple:
        return (ResultCache.normalize(sql), tuple(params), bool(provenance))

    def _stale(self, entry: dict, mvcc: MVCCState,
               catalog_version: int) -> bool:
        if entry["catalog_version"] != catalog_version:
            return True
        return any(mvcc.watermark(table) != watermark
                   for table, watermark in entry["watermarks"].items())

    def lookup(self, key: tuple, mvcc: MVCCState, catalog_version: int,
               session: Session) -> Optional[dict]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if self._stale(entry, mvcc, catalog_version):
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        context = session.txn
        if context is not None:
            visible = all(watermark <= context.snapshot
                          for watermark in entry["watermarks"].values())
            overlaid = any(
                not overlay.empty
                for table, overlay in context.overlays.items()
                if table in entry["watermarks"])
            if not visible or overlaid:
                # correct for current-state readers, not for this
                # snapshot: bypass without evicting
                self.misses += 1
                return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry["frame"]

    def store(self, key: tuple, frame: dict, source_tables: list[str],
              mvcc: MVCCState, catalog_version: int) -> None:
        self._entries[key] = {
            "frame": frame,
            "catalog_version": catalog_version,
            "watermarks": {table: mvcc.watermark(table)
                           for table in source_tables},
        }
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def revalidate(self, mvcc: MVCCState, catalog_version: int) -> int:
        """Eagerly evict every entry stranded by a commit or DDL; the
        return value is the number of invalidations, which is exact:
        only entries whose source-table watermarks (or the catalog
        version) actually moved are dropped."""
        stale = [key for key, entry in self._entries.items()
                 if self._stale(entry, mvcc, catalog_version)]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "size": len(self._entries)}

    def __len__(self) -> int:
        return len(self._entries)


class AdmissionControl:
    """Token-bucket admission control: the server's bounded work queue.

    Each work-bearing frame (query, bind-execute, fetch; pipeline
    envelopes charge per inner frame) spends one token; the bucket
    refills at ``refill_per_second`` up to ``capacity``. When the
    bucket is dry the frame is *shed before any execution* — no
    statement runs, no clock tick is consumed — with an
    ``OverloadedError`` frame carrying a ``retry_after`` hint sized to
    when the bucket will hold a token again. The timer is injectable
    so tests and the chaos harness drive load deterministically.
    """

    def __init__(self, capacity: int, refill_per_second: float,
                 timer: Callable[[], float] = time.monotonic) -> None:
        if capacity < 1:
            raise ProtocolError("admission capacity must be positive")
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self.timer = timer
        self.tokens = float(capacity)
        self._last = timer()
        self.admitted = 0
        self.shed = 0

    def try_admit(self, cost: float = 1.0) -> Optional[float]:
        """None when admitted; otherwise the retry-after hint in
        seconds until ``cost`` tokens will have refilled."""
        now = self.timer()
        if now > self._last and self.refill_per_second > 0:
            self.tokens = min(self.capacity,
                              self.tokens + (now - self._last)
                              * self.refill_per_second)
        self._last = now
        if self.tokens >= cost:
            self.tokens -= cost
            self.admitted += 1
            return None
        self.shed += 1
        if self.refill_per_second <= 0:
            return 1.0
        return max((cost - self.tokens) / self.refill_per_second, 0.001)

    def counters(self) -> dict[str, Any]:
        return {"admitted": self.admitted, "shed": self.shed,
                "tokens": self.tokens, "capacity": self.capacity}


class _CursorState:
    """A server-side cursor plus exactly-once chunk-replay bookkeeping.

    ``served`` counts rows handed to this connection (including the
    opening chunk); ``last_frame`` retains the most recent chunk so a
    fetch whose ``position`` shows the previous response never arrived
    is answered by replaying that chunk instead of silently skipping
    the rows the dropped frame carried.
    """

    __slots__ = ("cursor", "served", "last_start", "last_frame")

    def __init__(self, cursor: Cursor, first_chunk_rows: int) -> None:
        self.cursor = cursor
        self.served = first_chunk_rows
        self.last_start = 0
        self.last_frame: Optional[dict] = None


class _ConnectionState:
    """Everything the server tracks per wire connection."""

    __slots__ = ("process_id", "session", "protocol_version", "prepared",
                 "cursors", "finished_chunks", "open_frames",
                 "next_cursor_id", "frames_served", "bytes_in",
                 "bytes_out", "last_active")

    # final chunks / opening frames retained per connection for
    # lost-response replay
    FINISHED_RETAINED = 8

    def __init__(self, process_id: str, session: Session,
                 protocol_version: int, last_active: float = 0.0) -> None:
        self.process_id = process_id
        self.session = session
        self.protocol_version = protocol_version
        self.prepared: dict[str, PreparedStatement] = {}
        self.cursors: dict[int, _CursorState] = {}
        # cursor_id -> {"start", "frame"}: the done-chunk of recently
        # exhausted cursors, so a retried final fetch can be answered
        self.finished_chunks: "OrderedDict[int, dict]" = OrderedDict()
        # stream token -> retained opening cursor frame: a retried
        # stream open (its response was lost before the client learned
        # the cursor id) replays the original frame instead of opening
        # a second cursor whose snapshot pin nobody would ever release
        self.open_frames: "OrderedDict[str, dict]" = OrderedDict()
        self.next_cursor_id = 1
        self.frames_served = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.last_active = last_active

    def retain_finished(self, cursor_id: int, start: int,
                        frame: dict) -> None:
        self.finished_chunks[cursor_id] = {"start": start,
                                           "frame": frame}
        while len(self.finished_chunks) > self.FINISHED_RETAINED:
            self.finished_chunks.popitem(last=False)

    def retain_open(self, token: str, frame: dict) -> None:
        self.open_frames[token] = frame
        while len(self.open_frames) > self.FINISHED_RETAINED:
            self.open_frames.popitem(last=False)

    def reap_cursors(self) -> None:
        """Close cursors whose pinning transaction ended (commit or
        rollback tears down the snapshot they were reading)."""
        dead = [cursor_id for cursor_id, holder in self.cursors.items()
                if holder.cursor.defunct]
        for cursor_id in dead:
            self.cursors.pop(cursor_id).cursor.close()

    def close_cursors(self) -> None:
        for holder in self.cursors.values():
            holder.cursor.close()
        self.cursors.clear()
        self.finished_chunks.clear()
        self.open_frames.clear()


class DBServer:
    """A single-process database server.

    ``statement_timeout`` is a per-statement wall-time budget in
    seconds; a statement that overruns it answers with a
    ``StatementTimeout`` error frame instead of its result. The budget
    is enforced *cooperatively during execution* — the engine checks
    the deadline between row batches — so a runaway scan is cancelled
    mid-statement rather than merely reported late. The clock used to
    measure it is injectable (``timer``) so tests — and the fault
    harness — can drive timeouts deterministically.
    """

    def __init__(self, database: Database | None = None,
                 data_directory: str | Path | None = None,
                 clock: LogicalClock | None = None,
                 statement_timeout: float | None = None,
                 timer: Callable[[], float] = time.monotonic,
                 result_cache_size: int = 128,
                 result_cache_max_rows: int | None = None,
                 admission: AdmissionControl | None = None,
                 max_pipeline_depth: int | None = None,
                 max_cursors_per_connection: int | None = None,
                 connection_timeout: float | None = None,
                 retry_after_hint: float = 0.05) -> None:
        if database is not None and data_directory is not None:
            raise ProtocolError(
                "pass either a Database or a data_directory, not both")
        if database is None:
            database = Database(data_directory=data_directory, clock=clock)
        self.database = database
        self.statement_timeout = statement_timeout
        self.timer = timer
        self.result_cache = ResultCache(result_cache_size)
        # memory-pressure limit: results wider than this are served
        # but never cached (one giant SELECT must not evict the cache)
        self.result_cache_max_rows = result_cache_max_rows
        self.admission = admission
        self.max_pipeline_depth = max_pipeline_depth
        self.max_cursors_per_connection = max_cursors_per_connection
        # connections idle longer than this are reaped — their cursors
        # closed and transactions rolled back — so a dead client can
        # never pin MVCC history forever
        self.connection_timeout = connection_timeout
        self.retry_after_hint = retry_after_hint
        self._states: dict[int, _ConnectionState] = {}
        self._next_connection_id = 1
        self.started = True
        self.draining = False
        # True while dispatching a pipeline envelope's inner frames —
        # they were admitted as one unit with the envelope
        self._in_pipeline = False
        # server-wide observability counters (per-connection ones live
        # on the _ConnectionState); pipeline envelopes count both the
        # envelope and each inner frame
        self.frames_served = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.connections_reaped = 0
        self.drain_rejections = 0
        self.group_aborts = 0

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Checkpoint data files and refuse further traffic.

        Open cursors are closed and open transactions of
        still-connected clients are rolled back first — exactly what a
        crashed server's recovery would decide, since nothing
        uncommitted ever reached the WAL.

        Idempotent: a second shutdown is a no-op, and later frames get
        a ``ConnectionClosedError`` error frame rather than an
        exception.
        """
        if not self.started:
            return
        for connection_id in sorted(self._states):
            state = self._states[connection_id]
            state.close_cursors()
            self.database.abort_session(state.session)
        self.database.close()
        self.started = False
        self._states.clear()

    def drain(self) -> None:
        """Enter drain mode: finish in-flight work, reject new work.

        Open transactions may still run statements and COMMIT, open
        cursors may still be fetched and closed, connections may
        disconnect — but new connections, new statements on idle
        sessions, and new prepares are rejected with a retryable
        ``ServerDrainingError`` frame carrying a retry-after hint.
        Once :attr:`drained` is true, :meth:`shutdown` is a clean stop
        with nothing to abort.
        """
        self.draining = True

    def undrain(self) -> None:
        """Cancel drain mode and accept new work again."""
        self.draining = False

    @property
    def drained(self) -> bool:
        """True when draining and no in-flight work remains."""
        return self.draining and not any(
            state.session.in_transaction or state.cursors
            for state in self._states.values())

    def disconnect(self, connection_id: int) -> bool:
        """Forcibly tear down one connection (a dead client): close
        its cursors and roll back its open transaction so it cannot
        pin MVCC history or snapshots. Returns True if it existed."""
        state = self._states.pop(connection_id, None)
        if state is None:
            return False
        state.close_cursors()
        self.database.abort_session(state.session)
        self.connections_reaped += 1
        return True

    def reap_idle(self, now: float | None = None) -> list[int]:
        """Disconnect every connection idle past ``connection_timeout``
        (no-op when no timeout is configured). Returns the reaped ids."""
        if self.connection_timeout is None:
            return []
        now = self.timer() if now is None else now
        dead = [connection_id
                for connection_id, state in self._states.items()
                if now - state.last_active > self.connection_timeout]
        for connection_id in dead:
            self.disconnect(connection_id)
        return dead

    # -- frame handling ----------------------------------------------------------

    def transport(self) -> Callable[[str], str]:
        """The wire-level transport handed to clients."""
        return self.handle_wire

    def handle_wire(self, request_text: str) -> str:
        """Handle one encoded frame, returning an encoded response.

        Never raises: whatever goes wrong becomes an ``error`` frame.
        (A :class:`repro.faults.SimulatedCrash` still propagates — it
        derives from BaseException precisely so that no server-side
        handler can survive it.)
        """
        request: dict[str, Any] | None = None
        try:
            request = protocol.decode_frame(request_text)
        except ProtocolError as exc:
            response = protocol.error_frame("ProtocolError", str(exc))
        else:
            try:
                response = self.handle(request)
            except Exception as exc:  # the wall: no raw exception on the wire
                response = protocol.error_frame(
                    type(exc).__name__, str(exc),
                    transient=_frame_transient(exc))
        response_text = protocol.encode_frame(response)
        self.bytes_in += len(request_text)
        self.bytes_out += len(response_text)
        if request is not None:
            state = self._state_of(request)
            if state is not None:
                state.bytes_in += len(request_text)
                state.bytes_out += len(response_text)
        return response_text

    def handle_wire_many(self, request_texts: list[str]) -> list[str]:
        """Handle a batch of encoded frames under one group-commit
        window: each transaction still appends its own WAL batch, but
        they all share a single fsync at the end of the batch —
        responses are only returned once that durable barrier holds.

        If that shared fsync fails, the WAL aborts the *whole group*
        (see :meth:`repro.db.wal.WriteAheadLog.end_group`): every
        response in the batch — including ones already computed — is
        replaced by a transient ``GroupCommitError`` frame, because no
        acknowledgement in the batch is durably backed anymore."""
        try:
            with self.database.group_commit():
                return [self.handle_wire(text) for text in request_texts]
        except GroupCommitError as exc:
            self.group_aborts += 1
            error_text = protocol.encode_frame(protocol.error_frame(
                "GroupCommitError", str(exc), transient=True))
            return [error_text for _ in request_texts]

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Handle one decoded frame, returning a decoded response."""
        if not self.started:
            return protocol.error_frame(
                "ConnectionClosedError", "server is shut down")
        kind = request.get("frame")
        self.frames_served += 1
        state = self._state_of(request)
        if state is not None:
            state.frames_served += 1
        if self.connection_timeout is not None:
            # idle tracking only consults the timer when reaping is
            # configured — scripted test timers stay untouched
            if state is not None:
                state.last_active = self.timer()
            # the requesting connection just refreshed last_active, so
            # this sweep only ever reaps *other*, genuinely idle peers
            self.reap_idle()
        if self.database.failed:
            frame = protocol.error_frame(
                "GroupCommitError",
                "the server's database failed after an aborted group "
                "commit; retry once it has been restarted",
                transient=True, retry_after=self.retry_after_hint)
            return frame
        if self.draining and self._drain_rejects(kind, state):
            self.drain_rejections += 1
            frame = protocol.error_frame(
                "ServerDrainingError",
                "server is draining; retry against another server or "
                "after the drain completes",
                transient=True, retry_after=self.retry_after_hint)
            self._attach_txn_status(frame, request)
            return frame
        if (self.admission is not None and not self._in_pipeline
                and kind in ("query", "bind-execute", "fetch",
                             "pipeline")):
            # a pipeline envelope is one admission unit, charged by its
            # depth (inner frames are exempt — the shed must happen
            # before anything executes, or a partially-executed batch
            # would not be safely retryable as a whole)
            cost = 1.0
            if kind == "pipeline":
                depth = len(request.get("frames") or ())
                cost = float(min(max(depth, 1), int(self.admission.capacity)))
            hint = self.admission.try_admit(cost)
            if hint is not None:
                frame = protocol.error_frame(
                    "OverloadedError",
                    f"server overloaded; retry in {hint:.3f}s",
                    transient=True, retry_after=hint)
                self._attach_txn_status(frame, request)
                return frame
        try:
            if kind == "connect":
                return self._handle_connect(request)
            if kind == "query":
                return self._handle_query(request)
            if kind == "prepare":
                return self._handle_prepare(request)
            if kind == "bind-execute":
                return self._handle_bind_execute(request)
            if kind == "deallocate":
                return self._handle_deallocate(request)
            if kind == "fetch":
                return self._handle_fetch(request)
            if kind == "close-cursor":
                return self._handle_close_cursor(request)
            if kind == "pipeline":
                return self._handle_pipeline(request)
            if kind == "stats":
                return self._handle_stats(request)
            if kind == "close":
                return self._handle_close(request)
        except DatabaseError as exc:
            frame = protocol.error_frame(
                type(exc).__name__, str(exc),
                transient=_frame_transient(exc),
                retry_after=getattr(exc, "retry_after", None))
            self._attach_txn_status(frame, request)
            return frame
        except ReproError as exc:  # pragma: no cover - defensive
            return protocol.error_frame(type(exc).__name__, str(exc))
        return protocol.error_frame(
            "ProtocolError", f"unknown frame type {kind!r}")

    @staticmethod
    def _drain_rejects(kind: str,
                       state: Optional[_ConnectionState]) -> bool:
        """Which frames a draining server bounces: new connections and
        prepares always; statements and pipelines unless the session
        has an open transaction to finish. Fetch, close-cursor,
        deallocate, stats, and close always pass — they only wind
        down existing work."""
        if kind in ("connect", "prepare"):
            return True
        if kind in ("query", "bind-execute", "pipeline"):
            return state is None or not state.session.in_transaction
        return False

    def _attach_txn_status(self, frame: dict[str, Any],
                           request: dict[str, Any]) -> None:
        """Stamp a response with the connection's transaction state so
        clients track BEGIN/COMMIT/conflict-abort without guessing."""
        state = self._state_of(request)
        if state is not None:
            frame["txn"] = ("open" if state.session.in_transaction
                            else "idle")

    def _handle_connect(self, request: dict[str, Any]) -> dict[str, Any]:
        connection_id = self._next_connection_id
        self._next_connection_id += 1
        client_version = request.get("version", 1)
        if not isinstance(client_version, int) or client_version < 1:
            raise ProtocolError(
                f"bad protocol version {client_version!r}")
        negotiated = min(protocol.PROTOCOL_VERSION, client_version)
        self._states[connection_id] = _ConnectionState(
            str(request.get("process_id", "unknown")),
            self.database.create_session(f"conn-{connection_id}"),
            negotiated,
            last_active=(self.timer()
                         if self.connection_timeout is not None else 0.0))
        limits: dict[str, Any] = {}
        if self.max_pipeline_depth is not None:
            limits["max_pipeline_depth"] = self.max_pipeline_depth
        if self.max_cursors_per_connection is not None:
            limits["max_cursors"] = self.max_cursors_per_connection
        return protocol.connected_frame(connection_id, negotiated,
                                        limits=limits or None)

    def _state_of(self,
                  request: dict[str, Any]) -> Optional[_ConnectionState]:
        """The state of the connection a frame names, or None. Only an
        integer (not a JSON true/false) can name a connection."""
        connection_id = request.get("connection_id")
        if type(connection_id) is not int:
            return None
        return self._states.get(connection_id)

    def _require_state(self, request: dict[str, Any]) -> _ConnectionState:
        state = self._state_of(request)
        if state is None:
            raise ProtocolError(
                f"unknown connection {request.get('connection_id')!r}")
        return state

    @staticmethod
    def _require_version(state: _ConnectionState, kind: str) -> None:
        if state.protocol_version < 2:
            raise ProtocolError(
                f"{kind} frames require protocol version 2, but this "
                f"connection negotiated version "
                f"{state.protocol_version}")

    def _timed_execute(self, state: _ConnectionState,
                       run: Callable[[], Any]) -> tuple[Any, float]:
        """Run one statement under the session and (when configured)
        the cooperative statement deadline. Returns (result, elapsed);
        the post-execution check is kept as a backstop for statements
        that finish between deadline checks."""
        database = self.database
        started = self.timer()
        with database.use_session(state.session):
            if self.statement_timeout is not None:
                with database.statement_deadline(
                        started + self.statement_timeout, self.timer,
                        self.statement_timeout):
                    result = run()
            else:
                result = run()
        elapsed = self.timer() - started
        if (self.statement_timeout is not None
                and elapsed > self.statement_timeout):
            raise StatementTimeout(
                f"statement exceeded the {self.statement_timeout}s "
                f"budget (took {elapsed:.6f}s)")
        return result, elapsed

    def _maybe_revalidate(self, result) -> None:
        """Sweep the result cache after statements that may have moved
        a commit watermark (or the catalog version)."""
        if (result.written or result.deleted
                or result.kind in ("txn", "create", "drop", "copy")):
            self.result_cache.revalidate(self.database.mvcc,
                                         self.database.catalog.version)

    def _finish_result(self, state: _ConnectionState,
                       request: dict[str, Any], result,
                       elapsed: float,
                       cache_key: tuple | None) -> dict[str, Any]:
        """Shared epilogue of query and bind-execute: cache bookkeeping,
        EXPLAIN ANALYZE server stats, wire encoding, txn stamping."""
        self._maybe_revalidate(result)
        state.reap_cursors()
        if "analyze" in result.stats:
            # EXPLAIN ANALYZE results also report the server-side wall
            # time plus cache health, so clients can see wire overhead
            # vs execution time and whether the fast paths engage
            result.stats["server"] = {
                "seconds": elapsed,
                "result_cache": self.result_cache.counters(),
            }
        frame = protocol.result_to_wire(result)
        if (cache_key is not None and result.cacheable
                and state.session.txn is None
                and (self.result_cache_max_rows is None
                     or len(result.rows) <= self.result_cache_max_rows)):
            # store a private copy: the outgoing frame gets a txn stamp
            self.result_cache.store(
                cache_key, dict(frame), result.source_tables,
                self.database.mvcc, self.database.catalog.version)
        self._attach_txn_status(frame, request)
        return frame

    def _handle_query(self, request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        sql = request.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("query frame is missing its sql text")
        provenance = bool(request.get("provenance"))
        fetch = request.get("fetch")
        if fetch is not None:
            self._require_version(state, "streamed query")
            return self._open_cursor(state, request, sql, (), fetch,
                                     provenance)
        cache_key = None
        if _looks_like_select(sql):
            cache_key = ResultCache.key(sql, (), provenance)
            cached = self.result_cache.lookup(
                cache_key, self.database.mvcc,
                self.database.catalog.version, state.session)
            if cached is not None:
                frame = dict(cached)
                self._attach_txn_status(frame, request)
                return frame
        token = request.get("token")
        # token passed only when present, so tests that stub
        # database.execute with a two-argument fake keep working
        kwargs = ({"token": str(token)} if token is not None else {})
        result, elapsed = self._timed_execute(
            state, lambda: self.database.execute(
                sql, provenance=provenance, **kwargs))
        return self._finish_result(state, request, result, elapsed,
                                   cache_key)

    # -- prepared statements -----------------------------------------------------

    def _handle_prepare(self, request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        self._require_version(state, "prepare")
        name = request.get("name")
        sql = request.get("sql")
        if not isinstance(name, str) or not name:
            raise ProtocolError("prepare frame needs a statement name")
        if not isinstance(sql, str):
            raise ProtocolError("prepare frame is missing its sql text")
        prepared = self.database.prepare(sql)
        state.prepared[name] = prepared
        frame = protocol.prepared_frame(name, prepared.param_count)
        self._attach_txn_status(frame, request)
        return frame

    def _handle_bind_execute(self,
                             request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        self._require_version(state, "bind-execute")
        name = _typed_field(request, "name", str)
        prepared = state.prepared.get(name)
        if prepared is None:
            raise ProtocolError(f"unknown prepared statement {name!r}")
        params = _bind_params(request)
        provenance = bool(request.get("provenance"))
        fetch = request.get("fetch")
        if fetch is not None:
            return self._open_cursor(state, request, prepared, params,
                                     fetch, provenance)
        cache_key = None
        if prepared.cacheable:
            cache_key = ResultCache.key(prepared.sql, params, provenance)
            cached = self.result_cache.lookup(
                cache_key, self.database.mvcc,
                self.database.catalog.version, state.session)
            if cached is not None:
                frame = dict(cached)
                self._attach_txn_status(frame, request)
                return frame
        token = request.get("token")
        kwargs = ({"token": str(token)} if token is not None else {})
        result, elapsed = self._timed_execute(
            state, lambda: self.database.execute_prepared(
                prepared, params, provenance=provenance,
                session=state.session, **kwargs))
        return self._finish_result(state, request, result, elapsed,
                                   cache_key)

    def _handle_deallocate(self,
                           request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        self._require_version(state, "deallocate")
        name = _typed_field(request, "name", str)
        state.prepared.pop(name, None)  # idempotent, like close-cursor
        frame = protocol.deallocated_frame(name)
        self._attach_txn_status(frame, request)
        return frame

    # -- streamed result sets ----------------------------------------------------

    def _open_cursor(self, state: _ConnectionState,
                     request: dict[str, Any],
                     source, params: tuple, fetch: Any,
                     provenance: bool) -> dict[str, Any]:
        if not isinstance(fetch, int) or isinstance(fetch, bool) or fetch < 1:
            raise ProtocolError("fetch size must be a positive integer")
        token = request.get("token")
        if token is not None and str(token) in state.open_frames:
            # a retried stream open whose cursor frame was lost: replay
            # the original instead of opening (and leaking) a second
            # cursor pinned to its own snapshot
            frame = dict(state.open_frames[str(token)])
            self._attach_txn_status(frame, request)
            return frame
        if (self.max_cursors_per_connection is not None
                and len(state.cursors) >= self.max_cursors_per_connection):
            raise OverloadedError(
                f"connection already holds "
                f"{len(state.cursors)} open cursor(s), the server cap; "
                f"close one and retry",
                retry_after=self.retry_after_hint)
        database = self.database
        with database.use_session(state.session):
            cursor = database.open_cursor(source, params,
                                          session=state.session,
                                          provenance=provenance)
            rows, lineages = cursor.fetch(fetch)
        cursor_id = state.next_cursor_id
        state.next_cursor_id += 1
        if cursor.done:
            cursor.close()
        else:
            state.cursors[cursor_id] = _CursorState(cursor, len(rows))
        frame = protocol.cursor_frame(cursor_id, cursor.schema, rows,
                                      lineages, cursor.done,
                                      cursor.source_tables)
        if token is not None:
            # retain the pre-txn-status copy: txn state is re-derived
            # per request when the frame is replayed
            state.retain_open(str(token), dict(frame))
        self._attach_txn_status(frame, request)
        return frame

    def _handle_fetch(self, request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        self._require_version(state, "fetch")
        cursor_id = _typed_field(request, "cursor_id", int)
        position = request.get("position")
        holder = state.cursors.get(cursor_id)
        if holder is None:
            # a retried final fetch whose done-chunk response was
            # dropped: the cursor is gone but its last chunk is
            # retained for exactly this replay
            finished = state.finished_chunks.get(cursor_id)
            if finished is not None and (position is None
                                         or position == finished["start"]):
                frame = dict(finished["frame"])
                self._attach_txn_status(frame, request)
                return frame
            raise ProtocolError(f"unknown cursor {cursor_id!r}")
        max_rows = request.get("max_rows")
        if (not isinstance(max_rows, int) or isinstance(max_rows, bool)
                or max_rows < 1):
            raise ProtocolError("max_rows must be a positive integer")
        if (position is not None and holder.last_frame is not None
                and position == holder.last_start):
            # the previous chunk's response never arrived: replay it
            # instead of advancing (and silently skipping its rows)
            frame = dict(holder.last_frame)
            self._attach_txn_status(frame, request)
            return frame
        if position is not None and position != holder.served:
            raise ProtocolError(
                f"fetch position {position} does not match the "
                f"{holder.served} row(s) served on cursor {cursor_id}")
        cursor = holder.cursor
        try:
            with self.database.use_session(state.session):
                rows, lineages = cursor.fetch(max_rows)
        except DatabaseError:
            state.cursors.pop(cursor_id, None)  # reap the dead cursor
            raise
        holder.last_start = holder.served
        holder.served += len(rows)
        frame = protocol.chunk_frame(cursor_id, rows, lineages,
                                     cursor.done)
        holder.last_frame = dict(frame)
        if cursor.done:
            state.cursors.pop(cursor_id, None)
            state.retain_finished(cursor_id, holder.last_start,
                                  dict(frame))
        self._attach_txn_status(frame, request)
        return frame

    def _handle_close_cursor(self,
                             request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        self._require_version(state, "close-cursor")
        cursor_id = _typed_field(request, "cursor_id", int)
        holder = state.cursors.pop(cursor_id, None)
        if holder is not None:
            holder.cursor.close()
        state.finished_chunks.pop(cursor_id, None)
        # idempotent: the server reaps cursors on exhaustion and txn
        # end, so a close for an already-gone cursor is not an error
        frame = protocol.cursor_closed_frame(cursor_id)
        self._attach_txn_status(frame, request)
        return frame

    # -- pipelining --------------------------------------------------------------

    def _handle_pipeline(self, request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        self._require_version(state, "pipeline")
        frames = request.get("frames")
        if not isinstance(frames, list):
            raise ProtocolError("pipeline frame carries no frames list")
        if (self.max_pipeline_depth is not None
                and len(frames) > self.max_pipeline_depth):
            # in-flight cap: rejected before anything executes, so the
            # client can split the batch and resend it all
            raise OverloadedError(
                f"pipeline depth {len(frames)} exceeds the server cap "
                f"of {self.max_pipeline_depth}",
                retry_after=self.retry_after_hint)
        connection_id = request.get("connection_id")
        responses: list[dict[str, Any]] = []
        self._in_pipeline = True
        try:
            with self.database.group_commit():
                for inner in frames:
                    if not isinstance(inner, dict):
                        responses.append(protocol.error_frame(
                            "ProtocolError",
                            "pipeline items must be frames"))
                        continue
                    if inner.get("frame") == "pipeline":
                        responses.append(protocol.error_frame(
                            "ProtocolError",
                            "pipeline frames cannot nest"))
                        continue
                    inner = dict(inner)
                    inner.setdefault("connection_id", connection_id)
                    # handle() isolates each inner frame's failure as
                    # its own error frame (with txn status); later
                    # frames in the batch still execute
                    responses.append(self.handle(inner))
        except GroupCommitError as exc:
            # the shared fsync failed: every commit in this envelope
            # was aborted together, so no already-computed response
            # may be delivered — each would acknowledge work the WAL
            # no longer promises
            self.group_aborts += 1
            error = protocol.error_frame("GroupCommitError", str(exc),
                                         transient=True)
            responses = [dict(error) for _ in frames]
        finally:
            self._in_pipeline = False
        return protocol.pipeline_result_frame(responses)

    # -- observability -----------------------------------------------------------

    def _handle_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        self._require_version(state, "stats")
        return {
            "frame": "stats-result",
            "server": self.server_counters(),
            "connection": {
                "connection_id": request.get("connection_id"),
                "protocol_version": state.protocol_version,
                "frames_served": state.frames_served,
                "bytes_in": state.bytes_in,
                "bytes_out": state.bytes_out,
                "open_cursors": len(state.cursors),
                "prepared_statements": len(state.prepared),
            },
        }

    def server_counters(self) -> dict[str, Any]:
        counters = {
            "frames_served": self.frames_served,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "open_connections": len(self._states),
            "open_cursors": sum(len(state.cursors)
                                for state in self._states.values()),
            "prepared_statements": sum(len(state.prepared)
                                       for state in self._states.values()),
            "result_cache": self.result_cache.counters(),
            "dedupe_ledger": self.database.dedupe_ledger.counters(),
            "draining": self.draining,
            "drain_rejections": self.drain_rejections,
            "connections_reaped": self.connections_reaped,
            "group_aborts": self.group_aborts,
        }
        if self.admission is not None:
            counters["admission"] = self.admission.counters()
        return counters

    # -- teardown ----------------------------------------------------------------

    def _handle_close(self, request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        del self._states[request.get("connection_id")]
        state.close_cursors()
        # a vanished client must not pin its snapshot (or leave a
        # half-done transaction ambiguous): roll it back
        self.database.abort_session(state.session)
        return protocol.closed_frame()

    @property
    def open_connections(self) -> int:
        return len(self._states)
