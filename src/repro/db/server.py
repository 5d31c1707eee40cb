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
the fault-injection harness (``tests/faults.py``), which, like a real
``kill -9``, no handler may absorb.

Connections share one :class:`~repro.db.engine.Database` and its
rule: while one connection has a transaction open, any statement of
another connection, reads included, answers a one-line error frame
flagged ``transient``, and the connection keeps serving.

The server answers one statement per frame, the way libpq sends them:
every statement arrives as SQL text in a ``query`` frame and runs
through :meth:`repro.db.engine.Database.execute` under the
connection's session. While no transaction is open, read-only
statements are served from :class:`ResultCache`, whose entries hold
while the catalog version and the per-table commit watermarks they
were stored under hold, so invalidation falls out of the commit
bookkeeping.
Protocol version 2 adds a ``stats`` frame reporting the serving
counters; version 3 sends lineage as a per-frame ref dictionary and
answers lineage-only provenance queries (see :mod:`repro.db.protocol`).
The server answers every frame it is sent: it
neither sheds nor caps load. Its only refusals are malformed or
unknown frames and traffic after :meth:`DBServer.shutdown`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Optional

from repro.clockwork import LogicalClock
from repro.db import protocol
from repro.db.catalog import Catalog
from repro.db.engine import Database, Session
from repro.errors import (
    DatabaseError,
    ProtocolError,
    ReproError,
    TransientError,
)


# entries the server's result cache holds
RESULT_CACHE_CAPACITY = 128


def _looks_like_select(sql: str) -> bool:
    """Cheap syntactic gate for result-cache consultation. Only plain
    SELECTs can produce cacheable results, so other statements skip
    the lookup entirely (and never inflate the miss counter)."""
    return sql.lstrip().lower().startswith("select")


_EXPECTED = {str: "a string", bool: "a boolean"}


def _typed_field(request: dict[str, Any], name: str, kind: type) -> Any:
    """``request[name]`` if it is exactly a ``kind`` (``str`` or
    ``bool``; the string "false" is not a boolean, nor is a JSON
    true/false a string), else a one-line :class:`ProtocolError` naming
    the field."""
    value = request.get(name)
    if type(value) is not kind:
        expected = _EXPECTED[kind]
        raise ProtocolError(
            f"{request.get('frame')} frame: {name} must be {expected}, "
            f"not {type(value).__name__}")
    return value


def _statement_fields(request: dict[str, Any],
                      version: int) -> tuple[bool, bool, Optional[str]]:
    """A query frame's ``provenance`` flag (a JSON boolean, missing
    means false), its ``rows`` flag and its ``token`` (a string, or
    None when missing). A frame still asking for a streamed result
    (``fetch``) is refused.

    ``rows`` (missing means true) is a version-3 field: a JSON boolean
    sent with ``provenance: true``; ``rows: false`` asks for a
    lineage-only answer."""
    if "fetch" in request:
        raise ProtocolError(
            f"{request.get('frame')} frame: fetch is not supported; "
            f"the server answers each statement with one result")
    provenance = False
    if request.get("provenance") is not None:
        provenance = _typed_field(request, "provenance", bool)
    rows = True
    if "rows" in request:
        if version < 3:
            raise ProtocolError(
                f"query frame: rows requires protocol version 3, but "
                f"this connection negotiated version {version}")
        rows = _typed_field(request, "rows", bool)
        if not provenance:
            raise ProtocolError(
                "query frame: rows is only allowed with provenance: true")
    if request.get("token") is None:
        return provenance, rows, None
    return provenance, rows, _typed_field(request, "token", str)


class ResultCache:
    """Read-through cache of encoded ``result`` frames for read-only
    statements.

    An entry holds the frame's JSON text without its ``txn`` stamp, so
    a hit answers without serializing again. It records, besides the
    text, the ``catalog.version`` and
    the per-source-table commit watermarks at store time. A lookup is
    a hit only when every watermark (and the catalog version) still
    matches — i.e. the cached frame reflects the *latest committed
    state* of every table it was derived from. Any commit to a source
    table moves that table's watermark and strands the entry.

    The server consults and fills the cache only while no transaction
    is open: inside one, the heap holds uncommitted writes. A
    rolled-back transaction moves no watermark, so it strands nothing.
    """

    def __init__(self) -> None:
        self.capacity = RESULT_CACHE_CAPACITY
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
    def key(sql: str, provenance: bool, version: int,
            rows: bool) -> tuple:
        """Entries are per wire form: the negotiated protocol version
        and the ``rows`` flag shape the encoded frame."""
        return (ResultCache.normalize(sql), bool(provenance), version,
                rows)

    @staticmethod
    def _stale(entry: dict, catalog: Catalog) -> bool:
        if entry["catalog_version"] != catalog.version:
            return True
        return any(catalog.watermark(table) != watermark
                   for table, watermark in entry["watermarks"].items())

    def lookup(self, key: tuple, catalog: Catalog) -> Optional[str]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if self._stale(entry, catalog):
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry["text"]

    def store(self, key: tuple, text: str, source_tables: list[str],
              catalog: Catalog) -> None:
        self._entries[key] = {
            "text": text,
            "catalog_version": catalog.version,
            "watermarks": {table: catalog.watermark(table)
                           for table in source_tables},
        }
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def revalidate(self, catalog: Catalog) -> int:
        """Eagerly evict every entry stranded by a commit or DDL; the
        return value is the number of invalidations, which is exact:
        only entries whose source-table watermarks (or the catalog
        version) actually moved are dropped."""
        stale = [key for key, entry in self._entries.items()
                 if self._stale(entry, catalog)]
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


class _ConnectionState:
    """Everything the server tracks per wire connection."""

    __slots__ = ("process_id", "session", "protocol_version",
                 "frames_served", "bytes_in", "bytes_out")

    def __init__(self, process_id: str, session: Session,
                 protocol_version: int) -> None:
        self.process_id = process_id
        self.session = session
        self.protocol_version = protocol_version
        self.frames_served = 0
        self.bytes_in = 0
        self.bytes_out = 0


class DBServer:
    """A single-process database server.

    ``timer`` is the clock the server measures statements with (the
    server-side seconds EXPLAIN ANALYZE reports); it is injectable so
    tests see fixed figures.
    """

    def __init__(self, database: Database | None = None,
                 data_directory: str | Path | None = None,
                 clock: LogicalClock | None = None,
                 timer: Callable[[], float] = time.monotonic) -> None:
        if database is not None and data_directory is not None:
            raise ProtocolError(
                "pass either a Database or a data_directory, not both")
        if database is None:
            database = Database(data_directory=data_directory, clock=clock)
        self.database = database
        self.timer = timer
        self.result_cache = ResultCache()
        self._states: dict[int, _ConnectionState] = {}
        self._next_connection_id = 1
        self.started = True
        # server-wide observability counters (per-connection ones live
        # on the _ConnectionState)
        self.frames_served = 0
        self.bytes_in = 0
        self.bytes_out = 0

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Checkpoint data files and refuse further traffic.

        Open transactions of still-connected clients are rolled back
        first — exactly what a crashed server's recovery would decide,
        since nothing uncommitted ever reached the WAL.

        Idempotent: a second shutdown is a no-op, and later frames get
        a ``ConnectionClosedError`` error frame rather than an
        exception.
        """
        if not self.started:
            return
        for connection_id in sorted(self._states):
            self.database.abort_session(self._states[connection_id].session)
        self.database.close()
        self.started = False
        self._states.clear()

    # -- frame handling ----------------------------------------------------------

    def transport(self) -> Callable[[str], str]:
        """The wire-level transport handed to clients."""
        return self.handle_wire

    def handle_wire(self, request_text: str) -> str:
        """Handle one encoded frame, returning an encoded response.

        Never raises: whatever goes wrong becomes an ``error`` frame.
        (A ``SimulatedCrash`` from ``tests/faults.py`` still propagates:
        it derives from BaseException precisely so that no server-side
        handler can survive it.)
        """
        request: dict[str, Any] | None = None
        try:
            request = protocol.decode_frame(request_text)
        except ProtocolError as exc:
            response = protocol.error_frame("ProtocolError", str(exc))
        else:
            try:
                response = self._respond(request)
            except Exception as exc:  # the wall: no raw exception on the wire
                response = protocol.error_frame(
                    type(exc).__name__, str(exc),
                    transient=isinstance(exc, TransientError))
        response_text = (response if type(response) is str
                         else protocol.encode_frame(response))
        self.bytes_in += len(request_text)
        self.bytes_out += len(response_text)
        if request is not None:
            state = self._state_of(request)
            if state is not None:
                state.bytes_in += len(request_text)
                state.bytes_out += len(response_text)
        return response_text

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Handle one decoded frame, returning a decoded response."""
        response = self._respond(request)
        if type(response) is str:
            return protocol.decode_frame(response)
        return response

    def _respond(self, request: dict[str, Any]) -> dict[str, Any] | str:
        """The response to one decoded frame: a frame dict, or, for a
        ``result`` frame, its encoded text (the result cache's form)."""
        if not self.started:
            return protocol.error_frame(
                "ConnectionClosedError", "server is shut down")
        kind = request.get("frame")
        self.frames_served += 1
        state = self._state_of(request)
        if state is not None:
            state.frames_served += 1
        try:
            if kind == "connect":
                return self._handle_connect(request)
            if kind == "query":
                return self._handle_query(request)
            if kind == "stats":
                return self._handle_stats(request)
            if kind == "close":
                return self._handle_close(request)
        except DatabaseError as exc:
            frame = protocol.error_frame(
                type(exc).__name__, str(exc),
                transient=isinstance(exc, TransientError))
            self._attach_txn_status(frame, request)
            return frame
        except ReproError as exc:  # pragma: no cover - defensive
            return protocol.error_frame(type(exc).__name__, str(exc))
        return protocol.error_frame(
            "ProtocolError", f"unknown frame type {kind!r}")

    def _attach_txn_status(self, frame: dict[str, Any],
                           request: dict[str, Any]) -> None:
        """Stamp a response with the connection's transaction state so
        clients track BEGIN/COMMIT/ROLLBACK without guessing."""
        state = self._state_of(request)
        if state is not None:
            frame["txn"] = ("open" if state.session.in_transaction
                            else "idle")

    def _handle_connect(self, request: dict[str, Any]) -> dict[str, Any]:
        client_version = request.get("version", 1)
        # a JSON true/false is not a version number
        if type(client_version) is not int or client_version < 1:
            raise ProtocolError(
                f"bad protocol version {client_version!r}")
        connection_id = self._next_connection_id
        self._next_connection_id += 1
        negotiated = min(protocol.PROTOCOL_VERSION, client_version)
        self._states[connection_id] = _ConnectionState(
            str(request.get("process_id", "unknown")),
            self.database.create_session(f"conn-{connection_id}"),
            negotiated)
        return protocol.connected_frame(connection_id, negotiated)

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

    def _maybe_revalidate(self, result) -> None:
        """Sweep the result cache after statements that may have moved
        a commit watermark (or the catalog version)."""
        if (result.written or result.deleted
                or result.kind in ("txn", "create", "drop", "copy")):
            self.result_cache.revalidate(self.database.catalog)

    def _handle_query(self, request: dict[str, Any]) -> str:
        state = self._require_state(request)
        sql = request.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("query frame is missing its sql text")
        version = state.protocol_version
        provenance, rows, token = _statement_fields(request, version)
        database = self.database
        cache_key = None
        if database.writer is None and _looks_like_select(sql):
            cache_key = ResultCache.key(sql, provenance, version, rows)
            cached = self.result_cache.lookup(cache_key, database.catalog)
            if cached is not None:
                return self._stamped(cached, state)
        started = self.timer()
        result = database.execute(sql, provenance=provenance,
                                  session=state.session, token=token)
        elapsed = self.timer() - started
        self._maybe_revalidate(result)
        if "analyze" in result.stats:
            # EXPLAIN ANALYZE results also report the server-side wall
            # time plus cache health, so clients can see wire overhead
            # vs execution time and whether the fast paths engage
            result.stats["server"] = {
                "seconds": elapsed,
                "result_cache": self.result_cache.counters(),
            }
        text = protocol.encode_frame(
            protocol.result_to_wire(result, version, rows))
        if cache_key is not None and result.cacheable:
            self.result_cache.store(cache_key, text, result.source_tables,
                                    database.catalog)
        return self._stamped(text, state)

    @staticmethod
    def _stamped(text: str, state: _ConnectionState) -> str:
        """An encoded frame with the connection's ``txn`` stamp as its
        last field: the same bytes as encoding the stamped dict."""
        if state.session.in_transaction:
            return text[:-1] + ',"txn":"open"}'
        return text[:-1] + ',"txn":"idle"}'

    # -- observability -----------------------------------------------------------

    def _handle_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        if state.protocol_version < 2:
            raise ProtocolError(
                f"stats frames require protocol version 2, but this "
                f"connection negotiated version "
                f"{state.protocol_version}")
        return {
            "frame": "stats-result",
            "server": self.server_counters(),
            "connection": {
                "connection_id": request.get("connection_id"),
                "protocol_version": state.protocol_version,
                "frames_served": state.frames_served,
                "bytes_in": state.bytes_in,
                "bytes_out": state.bytes_out,
            },
        }

    def server_counters(self) -> dict[str, Any]:
        return {
            "frames_served": self.frames_served,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "open_connections": len(self._states),
            "result_cache": self.result_cache.counters(),
            "dedupe_ledger": self.database.dedupe_ledger.counters(),
        }

    # -- teardown ----------------------------------------------------------------

    def _handle_close(self, request: dict[str, Any]) -> dict[str, Any]:
        state = self._require_state(request)
        del self._states[request.get("connection_id")]
        # a vanished client must not keep the one open transaction
        # (and with it every other connection's writes): roll it back
        self.database.abort_session(state.session)
        return protocol.closed_frame()

    @property
    def open_connections(self) -> int:
        return len(self._states)
