"""Write-ahead log: redo records, commit markers, crash recovery.

The engine makes every committed statement durable *before* any table
file is rewritten: logical redo records accumulate in memory while a
statement (or explicit transaction) runs and are flushed to the log in
one framed batch, terminated by a ``commit`` marker carrying the logical
clock tick, followed by an fsync. Uncommitted work therefore never
reaches the log at all, and a crash mid-flush leaves a *torn tail* that
recovery truncates.

On-disk layout::

    LDVWAL1\\n                                 8-byte magic header
    <u32 length><u32 crc32><payload bytes>    repeated, little-endian

Payloads are compact JSON objects. Data records use *absolute* ("put")
semantics — table, rowid, version, full cell values — so replay is
idempotent: recovering twice, or replaying records already captured by a
later checkpoint, converges to the same state. Record operations::

    put          {op, table, rowid, version, values}
    delete       {op, table, rowid}
    create_table {op, table, columns}
    drop_table   {op, table}
    create_index {op, table, name, column}
    drop_index   {op, name}
    ledger       {op, token, result, commit}
                                 idempotency-ledger entry; rides in the
                                 same batch as the statement's writes so
                                 the dedupe decision is atomic with them
    commit       {op, tick}      batch terminator
    abort        {op}            batch discard (kept for format
                                 completeness; the buffering writer
                                 normally drops aborted batches before
                                 they reach disk)

Recovery (:meth:`WriteAheadLog.open`) scans the file sequentially,
buffering records until each ``commit`` marker, and stops at the first
incomplete or checksum-failing frame. Everything after the last marker —
torn bytes and complete-but-uncommitted records alike — is truncated,
never replayed. A bad magic header or a checksummed-but-unparsable
payload raises :class:`repro.errors.WALCorruptionError` instead: that is
writer corruption, not a torn write.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.db.fileio import FileIO
from repro.db.types import Column, Schema, SQLType
from repro.errors import WALCorruptionError

WAL_MAGIC = b"LDVWAL1\n"
_FRAME = struct.Struct("<II")
MAX_RECORD_BYTES = 1 << 28  # sanity bound on one record's length field


def schema_to_wire(schema: Schema) -> list[dict[str, Any]]:
    """Render a schema as the JSON column list stored in WAL records."""
    return [
        {
            "name": column.name,
            "type": column.sql_type.value,
            "not_null": column.not_null,
            "primary_key": column.primary_key,
        }
        for column in schema.columns
    ]


def schema_from_wire(columns: list[dict[str, Any]]) -> Schema:
    """Parse a WAL column list back into a schema."""
    return Schema([
        Column(
            name=column["name"],
            sql_type=SQLType(column["type"]),
            not_null=column["not_null"],
            primary_key=column["primary_key"],
        )
        for column in columns
    ])


def encode_record(record: dict[str, Any]) -> bytes:
    """Frame one record: length + crc32 header, JSON payload."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class WALRecovery:
    """What :meth:`WriteAheadLog.open` found and repaired."""

    records: list[dict] = field(default_factory=list)
    last_tick: int = 0
    committed_batches: int = 0
    dropped_records: int = 0  # complete but uncommitted, discarded
    torn_bytes: int = 0  # incomplete/corrupt tail bytes truncated

    @property
    def truncated(self) -> bool:
        return self.dropped_records > 0 or self.torn_bytes > 0


class WriteAheadLog:
    """An append-only redo log for one data directory.

    ``append`` only buffers; ``commit`` writes the whole batch plus its
    marker in a single append and fsyncs, so the log never holds a
    half-batch except when a crash tears the final write.
    """

    def __init__(self, path: str | Path, io: FileIO | None = None) -> None:
        self.path = Path(path)
        self.io = io if io is not None else FileIO()
        self._buffer: list[bytes] = []
        self._buffered_records: list[dict] = []
        self.commit_count = 0
        self.fsync_count = 0
    # -- recovery ----------------------------------------------------------------

    def open(self) -> WALRecovery:
        """Create the log if absent, else recover it.

        Replayable (committed) records are returned in log order; the
        uncommitted/torn tail is truncated in place so a subsequent
        reader sees a clean log.
        """
        if not self.io.exists(self.path):
            self.io.write_bytes(self.path, WAL_MAGIC, point="wal.create")
            self.io.fsync(self.path, point="wal.create.fsync")
            return WALRecovery()
        data = self.io.read_bytes(self.path)
        if len(data) < len(WAL_MAGIC):
            if WAL_MAGIC.startswith(data):  # torn during creation
                self.io.write_bytes(self.path, WAL_MAGIC,
                                    point="wal.recover.rewrite")
                self.io.fsync(self.path, point="wal.recover.fsync")
                return WALRecovery(torn_bytes=len(data))
            raise WALCorruptionError(
                f"{self.path} does not start with the WAL magic header")
        if not data.startswith(WAL_MAGIC):
            raise WALCorruptionError(
                f"{self.path} does not start with the WAL magic header")

        recovery = WALRecovery()
        buffer: list[dict] = []
        offset = len(WAL_MAGIC)
        keep_until = offset  # end of the last commit/abort marker
        last_complete = offset  # end of the last whole frame
        while True:
            frame = self._read_frame(data, offset)
            if frame is None:
                break
            record, offset = frame
            last_complete = offset
            operation = record.get("op")
            if operation == "commit":
                recovery.records.extend(buffer)
                recovery.last_tick = max(recovery.last_tick,
                                         int(record.get("tick", 0)))
                recovery.committed_batches += 1
                buffer = []
                keep_until = offset
            elif operation == "abort":
                buffer = []
                keep_until = offset
            else:
                buffer.append(record)
        recovery.dropped_records = len(buffer)
        recovery.torn_bytes = len(data) - last_complete
        if keep_until < len(data):
            self.io.truncate(self.path, keep_until,
                             point="wal.recover.truncate")
            self.io.fsync(self.path, point="wal.recover.fsync")
        return recovery

    def _read_frame(self, data: bytes,
                    offset: int) -> tuple[dict, int] | None:
        """Decode one frame at ``offset``; ``None`` on a torn tail."""
        if offset + _FRAME.size > len(data):
            return None
        length, checksum = _FRAME.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            return None  # garbage length: treat as torn
        start = offset + _FRAME.size
        if start + length > len(data):
            return None
        payload = data[start:start + length]
        if zlib.crc32(payload) != checksum:
            return None
        try:
            record = json.loads(payload)
        except ValueError as exc:
            raise WALCorruptionError(
                f"checksummed WAL record at byte {offset} is not valid "
                f"JSON: {exc}") from exc
        if not isinstance(record, dict) or "op" not in record:
            raise WALCorruptionError(
                f"WAL record at byte {offset} has no operation tag")
        return record, start + length

    # -- writing -----------------------------------------------------------------

    def append(self, record: dict[str, Any]) -> None:
        """Buffer one redo record for the current batch (no I/O yet)."""
        self._buffer.append(encode_record(record))
        self._buffered_records.append(record)

    def commit(self, tick: int) -> None:
        """Durably flush the buffered batch under a commit marker."""
        self._buffer.append(encode_record({"op": "commit", "tick": tick}))
        batch = b"".join(self._buffer)
        self._discard()
        self.io.append_bytes(self.path, batch, point="wal.append")
        self.commit_count += 1
        self._fsync()

    def _fsync(self) -> None:
        self.io.fsync(self.path, point="wal.fsync")
        self.fsync_count += 1

    def abort(self, mark: int = 0) -> None:
        """Discard the records buffered since ``mark`` (a past
        :attr:`buffered`; by default the whole batch). Nothing of them
        ever reached disk."""
        del self._buffer[mark:]
        del self._buffered_records[mark:]

    def _discard(self) -> None:
        self._buffer = []
        self._buffered_records = []

    def reset(self) -> None:
        """Empty the log after a checkpoint (atomic rewrite)."""
        self._discard()
        self.io.atomic_write_bytes(self.path, WAL_MAGIC, point="wal.reset")

    # -- introspection -----------------------------------------------------------

    @property
    def buffered(self) -> int:
        """How many records the open batch has buffered."""
        return len(self._buffer)

    @property
    def pending_records(self) -> list[dict]:
        """Records buffered but not yet committed (for tests/tools)."""
        return list(self._buffered_records)

    def iter_disk_records(self) -> Iterator[dict]:
        """Yield every complete record currently on disk (debug aid)."""
        data = self.io.read_bytes(self.path)
        offset = len(WAL_MAGIC)
        while True:
            frame = self._read_frame(data, offset)
            if frame is None:
                return
            record, offset = frame
            yield record
