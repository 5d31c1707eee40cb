"""Client/server wire protocol (the engine's "libpq").

All traffic between :class:`repro.db.client.DBClient` and
:class:`repro.db.server.DBServer` is a request/response exchange of
JSON-serializable frame dictionaries. Frames round-trip through
:func:`encode_frame` / :func:`decode_frame` on every call, so the
interposition layer (the LDV monitor and replayer) observes exactly the
bytes-on-the-wire view a real libpq interceptor would.

Frame types::

    connect      {frame, client_name, process_id, version}
    connected    {frame, connection_id, version}
    query        {frame, connection_id, sql, provenance[, token]}
    result       {frame, kind, columns, types, rows, lineages, rowcount,
                  written, written_lineage, deleted, source_tables,
                  stats, txn}
    error        {frame, error_type, message, transient, txn}
    close        {frame, connection_id}
    closed       {frame}

    stats        {frame, connection_id}
    stats-result {frame, server, connection}

The server answers one statement per frame, as libpq sends them, and
any other frame type with a ``ProtocolError`` frame. Version 2 of the
protocol adds the ``stats`` frame. ``connect`` carries the client's
version and ``connected`` echoes the negotiated one (the minimum of
both sides); version-1 recordings — whose ``connected`` frames lack
the field — still decode and replay, as do version-1 clients against
a version-2 server.

Transactions run over plain query frames (``BEGIN`` / ``COMMIT`` /
``ROLLBACK`` SQL); the server stamps every per-connection response
with ``txn`` (``"open"`` or ``"idle"``) so clients can track their
transaction state. ``result_from_wire`` ignores the field, so frames
recorded by older monitors still replay.

An error frame with ``transient`` set marks a failure the client may
safely retry: an injected wire fault, a failed fsync, or a write
refused because another connection holds the one open transaction.
The server guarantees the statement had no effect. Clients with a
``RetryPolicy`` resend such requests with bounded backoff.

``provenance``, when present, must be a JSON boolean. ``token`` on a
query frame (optional, and ignored by older peers) must be a string:
it stamps a mutating statement with a globally-unique idempotency
token. The engine's dedupe ledger makes resending the same token
exactly-once: a retry whose original response frame was lost gets the
recorded result back instead of re-executing (see
:class:`repro.db.engine.IdempotencyLedger`).
"""

from __future__ import annotations

import json
from typing import Any

from repro.db.engine import StatementResult
from repro.db.provtypes import TupleRef
from repro.db.types import Column, Schema, SQLType
from repro.errors import ProtocolError

PROTOCOL_VERSION = 2


def _ref_to_wire(ref: TupleRef) -> list:
    return [ref.table, ref.rowid, ref.version]


def _ref_from_wire(data: list) -> TupleRef:
    return TupleRef(str(data[0]), int(data[1]), int(data[2]))


def _lineages_to_wire(lineages: list) -> list:
    """Wire form of the per-row lineage column.

    The no-provenance common case (every lineage empty — exactly what
    batch plans report via a ``None`` annotation vector) skips the
    per-row sort/encode entirely; the emitted JSON is byte-identical
    to the slow path.
    """
    if not any(lineages):
        return [[] for _ in lineages]
    return [sorted(_ref_to_wire(ref) for ref in lineage)
            for lineage in lineages]


def result_to_wire(result: StatementResult) -> dict[str, Any]:
    """Serialize a StatementResult into a ``result`` frame."""
    return {
        "frame": "result",
        "kind": result.kind,
        "columns": result.schema.column_names(),
        "types": [sql_type.value for sql_type in result.schema.types()],
        "rows": [list(row) for row in result.rows],
        "lineages": _lineages_to_wire(result.lineages),
        "rowcount": result.rowcount,
        "written": [_ref_to_wire(ref) for ref in result.written],
        "written_lineage": [
            [_ref_to_wire(ref), sorted(_ref_to_wire(dep) for dep in deps)]
            for ref, deps in result.written_lineage.items()],
        "deleted": [_ref_to_wire(ref) for ref in result.deleted],
        "source_tables": list(result.source_tables),
        "stats": result.stats,
    }


def result_from_wire(frame: dict[str, Any]) -> StatementResult:
    """Deserialize a ``result`` frame back into a StatementResult.

    A missing field, an unknown SQL type or a malformed tuple reference
    raises :class:`ProtocolError`.
    """
    if frame.get("frame") != "result":
        raise ProtocolError(f"expected result frame, got {frame.get('frame')!r}")
    try:
        columns = [Column(name, SQLType(type_name))
                   for name, type_name in zip(frame["columns"],
                                              frame["types"])]
        return StatementResult(
            kind=frame["kind"],
            schema=Schema(columns),
            rows=[tuple(row) for row in frame["rows"]],
            lineages=[frozenset(_ref_from_wire(item) for item in lineage)
                      for lineage in frame["lineages"]],
            rowcount=frame["rowcount"],
            written=[_ref_from_wire(item) for item in frame["written"]],
            written_lineage={
                _ref_from_wire(ref): frozenset(_ref_from_wire(dep)
                                               for dep in deps)
                for ref, deps in frame["written_lineage"]},
            deleted=[_ref_from_wire(item) for item in frame["deleted"]],
            source_tables=list(frame["source_tables"]),
            # absent in frames recorded by older monitors: default to
            # empty
            stats=dict(frame.get("stats") or {}),
        )
    except KeyError as exc:
        raise ProtocolError(
            f"result frame is missing field {exc}") from exc
    except (ValueError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed result frame: {exc}") from exc


def connect_frame(client_name: str, process_id: str) -> dict[str, Any]:
    return {"frame": "connect", "client_name": client_name,
            "process_id": process_id, "version": PROTOCOL_VERSION}


def connected_frame(connection_id: int,
                    version: int = PROTOCOL_VERSION) -> dict[str, Any]:
    return {"frame": "connected", "connection_id": connection_id,
            "version": version}


def query_frame(connection_id: int, sql: str,
                provenance: bool = False,
                token: str | None = None) -> dict[str, Any]:
    frame = {"frame": "query", "connection_id": connection_id,
             "sql": sql, "provenance": provenance}
    if token is not None:
        frame["token"] = token
    return frame


def stats_frame(connection_id: int) -> dict[str, Any]:
    return {"frame": "stats", "connection_id": connection_id}


def error_frame(error_type: str, message: str,
                transient: bool = False) -> dict[str, Any]:
    frame = {"frame": "error", "error_type": error_type,
             "message": message}
    if transient:
        frame["transient"] = True
    return frame


def is_transient_error(frame: dict[str, Any]) -> bool:
    """True for an error frame a client may retry."""
    return bool(frame.get("frame") == "error" and frame.get("transient"))


def close_frame(connection_id: int) -> dict[str, Any]:
    return {"frame": "close", "connection_id": connection_id}


def closed_frame() -> dict[str, Any]:
    return {"frame": "closed"}


def encode_frame(frame: dict[str, Any]) -> str:
    """Serialize a frame to its wire representation (JSON text)."""
    return json.dumps(frame, separators=(",", ":"))


def decode_frame(text: str) -> dict[str, Any]:
    """Parse a wire representation back into a frame dictionary."""
    try:
        frame = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(frame, dict) or "frame" not in frame:
        raise ProtocolError("frame is missing its type tag")
    return frame
