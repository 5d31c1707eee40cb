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
    query        {frame, connection_id, sql, provenance[, rows][, token]}
    result       {frame, kind, columns, types, rows, lineages[, refs],
                  rowcount, written, written_lineage, deleted,
                  source_tables, stats, txn}
    error        {frame, error_type, message, transient, txn}
    close        {frame, connection_id}
    closed       {frame}

    stats        {frame, connection_id}
    stats-result {frame, server, connection}

The server answers one statement per frame, as libpq sends them, and
any other frame type with a ``ProtocolError`` frame. ``connect``
carries the client's version and ``connected`` echoes the negotiated
one (the minimum of both sides); version-1 recordings — whose
``connected`` frames lack the field — still decode and replay, as do
version-1 and version-2 clients against a version-3 server.

* Version 2 adds the ``stats`` frame.
* Version 3 sends lineage as a per-frame ref dictionary. A version-2
  ``result`` frame carries each row's lineage as a sorted list of
  ``[table, rowid, version]`` triples. A version-3 one lists each
  distinct ref once, in integer columns, under ``refs``::

      refs   {tables: [name, ...], table: [int, ...],
              rowid: [int, ...], version: [int, ...]}

  ref ``i`` is ``(tables[table[i]], rowid[i], version[i])``, and each
  row's lineage is a list of indices into those columns, in the
  version-2 sorted-ref order. ``written``, ``written_lineage`` and
  ``deleted`` keep their triples.
* Version 3 also adds ``rows`` to ``query``: a JSON boolean, allowed
  only with ``provenance: true``. ``rows: false`` asks for a
  lineage-only answer: ``rows`` is ``[]``, ``rowcount`` is the real
  row count, and ``lineages`` holds one lineage per result row.
* A version-3 frame whose lineages are all empty omits ``refs`` (its
  lineage column reads the same in both forms), unless it is a
  lineage-only answer.

:func:`result_to_wire` writes the version-2 form unless asked for
version 3, so replay logs and idempotency-ledger payloads keep their
version-2 bytes; :func:`result_from_wire` reads both (a ``refs`` field
marks version 3).

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
from itertools import chain, repeat
from typing import Any

from repro.db.engine import StatementResult
from repro.db.provtypes import EMPTY_LINEAGE, TupleRef
from repro.db.types import Column, Schema, SQLType
from repro.errors import ProtocolError

PROTOCOL_VERSION = 3

# the result-frame form of the replay log and the dedupe ledger
_LOGGED_VERSION = 2


def _ref_to_wire(ref: TupleRef) -> list:
    return [ref.table, ref.rowid, ref.version]


def _ref_from_wire(data: list) -> TupleRef:
    """A ``[table, rowid, version]`` triple: a string table and integer
    (not boolean) rowid and version, nothing coerced."""
    if type(data) is not list or len(data) != 3:
        raise ProtocolError(
            f"malformed result frame: tuple reference {data!r} is not "
            f"a [table, rowid, version] triple: field count out of range")
    table, rowid, version = data
    if (type(table) is not str or type(rowid) is not int
            or type(version) is not int):
        raise ProtocolError(
            f"malformed result frame: invalid literal in tuple "
            f"reference {data!r}: the table must be a string, the rowid "
            f"and version integers")
    return TupleRef(table, rowid, version)


def _lineage_from_wire(items: list) -> frozenset:
    if type(items) is not list:
        raise ProtocolError(
            f"malformed result frame: a lineage must be a list, not "
            f"{type(items).__name__}")
    if not items:
        return EMPTY_LINEAGE
    return frozenset([_ref_from_wire(item) for item in items])


def _lineages_to_wire(lineages: list) -> list:
    """Version-2 wire form of the per-row lineage column.

    The no-provenance common case (every lineage empty — exactly what
    batch plans report via a ``None`` annotation vector) skips the
    per-row sort/encode entirely; the emitted JSON is byte-identical
    to the slow path.
    """
    if not any(lineages):
        return [[] for _ in lineages]
    return [sorted(_ref_to_wire(ref) for ref in lineage)
            for lineage in lineages]


def _lineages_to_v3(lineages: list) -> tuple[list, dict[str, list]]:
    """Version-3 wire form of the lineage column: per-row index lists
    and the ``refs`` columns they index. Indices are handed out in
    first-seen order, and each row lists its refs in the version-2
    sorted order (a TupleRef sorts as its triple does)."""
    index_of: dict[TupleRef, int] = {}
    add = index_of.setdefault
    rows = [[add(ref, len(index_of)) for ref in sorted(lineage)]
            if lineage else [] for lineage in lineages]
    tables, rowids, versions = zip(*index_of) if index_of else ((), (), ())
    table_index: dict[str, int] = {}
    name = table_index.setdefault
    table_column = [name(table, len(table_index)) for table in tables]
    return rows, {"tables": list(table_index), "table": table_column,
                  "rowid": list(rowids), "version": list(versions)}


def result_to_wire(result: StatementResult, version: int = _LOGGED_VERSION,
                   rows: bool = True) -> dict[str, Any]:
    """Serialize a StatementResult into a ``result`` frame of protocol
    ``version`` (the version-2 form below version 3). ``rows=False``
    (version 3) leaves the rows out: a lineage-only answer."""
    frame: dict[str, Any] = {
        "frame": "result",
        "kind": result.kind,
        "columns": result.schema.column_names(),
        "types": [sql_type.value for sql_type in result.schema.types()],
        "rows": [list(row) for row in result.rows] if rows else [],
    }
    if version >= 3 and (not rows or any(result.lineages)):
        frame["lineages"], frame["refs"] = _lineages_to_v3(result.lineages)
    else:
        # version 2, or version 3 with no ref to list: an all-empty
        # lineage column reads the same in both forms
        frame["lineages"] = _lineages_to_wire(result.lineages)
    frame.update({
        "rowcount": result.rowcount,
        "written": [_ref_to_wire(ref) for ref in result.written],
        "written_lineage": [
            [_ref_to_wire(ref), sorted(_ref_to_wire(dep) for dep in deps)]
            for ref, deps in result.written_lineage.items()],
        "deleted": [_ref_to_wire(ref) for ref in result.deleted],
        "source_tables": list(result.source_tables),
        "stats": result.stats,
    })
    return frame


def _only(values: Any, kind: type, what: str) -> list:
    """``values`` if it is a list of exactly ``kind`` (an int column
    holds no JSON true/false), else a :class:`ProtocolError`."""
    if type(values) is not list:
        raise ProtocolError(
            f"malformed result frame: {what} must be a list, not "
            f"{type(values).__name__}")
    if not set(map(type, values)) <= {kind}:
        raise ProtocolError(
            f"malformed result frame: {what} must hold only "
            f"{kind.__name__} values")
    return values


def _refs_from_v3(refs: Any) -> list[TupleRef]:
    """The interned TupleRefs of a version-3 ``refs`` dictionary."""
    if type(refs) is not dict:
        raise ProtocolError(
            f"malformed result frame: refs must be an object, not "
            f"{type(refs).__name__}")
    names = _only(refs["tables"], str, "refs.tables")
    tables = _only(refs["table"], int, "refs.table")
    rowids = _only(refs["rowid"], int, "refs.rowid")
    versions = _only(refs["version"], int, "refs.version")
    if not len(tables) == len(rowids) == len(versions):
        raise ProtocolError(
            f"malformed result frame: refs columns differ in length "
            f"({len(tables)} tables, {len(rowids)} rowids, "
            f"{len(versions)} versions)")
    if tables and (min(tables) < 0 or max(tables) >= len(names)):
        raise ProtocolError(
            f"malformed result frame: refs.table index out of range "
            f"of {len(names)} table names")
    # TupleRef's own __new__ is tuple.__new__ on the triple; mapped
    # directly it builds each ref without a Python frame per ref
    return list(map(tuple.__new__, repeat(TupleRef),
                    zip(map(names.__getitem__, tables), rowids, versions)))


def _lineages_from_v3(lineages: Any, refs: list[TupleRef]) -> list:
    """Each row's index list as a frozenset of the interned refs,
    inserted in the row's order (so it iterates as the version-2
    decode of the same row does)."""
    _only(lineages, list, "lineages")
    indices = _only(list(chain.from_iterable(lineages)), int,
                    "lineage indices")
    if indices and (min(indices) < 0 or max(indices) >= len(refs)):
        raise ProtocolError(
            f"malformed result frame: lineage index out of range of "
            f"{len(refs)} refs")
    ref_at = refs.__getitem__
    return [frozenset(map(ref_at, row)) if row else EMPTY_LINEAGE
            for row in lineages]


def _rows_from_wire(rows: Any, width: int) -> list[tuple]:
    """A frame's rows as tuples; each must be a JSON list of ``width``
    values (a string would decode into its characters)."""
    decoded = list(map(tuple, rows))
    for row in rows:
        if type(row) is not list:
            raise ProtocolError(
                f"malformed result frame: a row must be a list, "
                f"not {type(row).__name__}")
        if len(row) != width:
            raise ProtocolError(
                f"malformed result frame: a row has {len(row)} values "
                f"for {width} columns")
    return decoded


def result_from_wire(frame: dict[str, Any]) -> StatementResult:
    """Deserialize a ``result`` frame (version 2 or 3) back into a
    StatementResult.

    A missing field, an unknown SQL type, a row that is not a list as
    long as ``columns``, a malformed tuple reference or ref column, or
    a lineage count that is not one per row (or, in a version-3
    lineage-only answer, one per ``rowcount``) raises
    :class:`ProtocolError`. Every empty lineage decodes to the shared
    ``EMPTY_LINEAGE``.
    """
    if frame.get("frame") != "result":
        raise ProtocolError(f"expected result frame, got {frame.get('frame')!r}")
    try:
        columns = [Column(name, SQLType(type_name))
                   for name, type_name in zip(frame["columns"],
                                              frame["types"])]
        rows = _rows_from_wire(frame["rows"], len(frame["columns"]))
        rowcount = frame["rowcount"]
        if "refs" in frame:
            lineages = _lineages_from_v3(frame["lineages"],
                                         _refs_from_v3(frame["refs"]))
            lineage_only = not rows and len(lineages) == rowcount
        else:
            lineages = [_lineage_from_wire(lineage)
                        for lineage in frame["lineages"]]
            lineage_only = False
        if len(lineages) != len(rows) and not lineage_only:
            raise ProtocolError(
                f"malformed result frame: {len(lineages)} lineages for "
                f"{len(rows)} rows")
        return StatementResult(
            kind=frame["kind"],
            schema=Schema(columns),
            rows=rows,
            lineages=lineages,
            rowcount=rowcount,
            written=[_ref_from_wire(item) for item in frame["written"]],
            written_lineage={
                _ref_from_wire(ref): _lineage_from_wire(deps)
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
                token: str | None = None,
                rows: bool | None = None) -> dict[str, Any]:
    frame = {"frame": "query", "connection_id": connection_id,
             "sql": sql, "provenance": provenance}
    if rows is not None:
        frame["rows"] = rows
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
