"""Exception hierarchy for the LDV reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class. Sub-hierarchies mirror the subsystems:
the relational engine (:class:`DatabaseError` and descendants, including
:class:`TransientError` for retryable failures: wire faults, failed
fsyncs, and writes refused while another session holds the one open
transaction; :class:`StatementTimeout`; and
:class:`WALCorruptionError`), the
virtual OS (:class:`VosError`), the provenance models
(:class:`ProvenanceError`), and the LDV packaging/replay core
(:class:`PackageError`, :class:`ReplayError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Relational engine (repro.db)
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for errors raised by the relational engine."""


class SQLSyntaxError(DatabaseError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so client tools can point at it.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class CatalogError(DatabaseError):
    """A schema object (table, column) is missing or already exists."""


class TypeError_(DatabaseError):
    """A value or expression has an inadmissible SQL type."""


class IntegrityError(DatabaseError):
    """A constraint (primary key, not-null) would be violated."""


class ExecutionError(DatabaseError):
    """A statement failed during execution (not a syntax/catalog issue)."""


class TransactionError(DatabaseError):
    """Invalid transaction state transition (e.g. commit without begin)."""


class TransientError(DatabaseError):
    """A temporary failure that may succeed if retried: a wire fault,
    a failed fsync, or a write refused because another session holds
    the one open transaction (the one-writer rule; see
    :mod:`repro.db.mvcc`).

    :class:`repro.db.client.DBClient` retries these with bounded
    exponential backoff when given a ``RetryPolicy``; everything else
    treats them as ordinary database errors.
    """


class StatementTimeout(DatabaseError):
    """A statement exceeded the server's per-statement time budget."""


class WALCorruptionError(DatabaseError):
    """The write-ahead log is unreadable beyond torn-tail damage.

    Torn tails (a crash mid-append) are *expected* and silently
    truncated during recovery; this error marks real corruption — a bad
    magic header, or a record whose checksum validates but whose
    payload cannot be interpreted.
    """


class ProtocolError(DatabaseError):
    """A malformed or out-of-sequence wire-protocol frame was seen."""


class ConnectionClosedError(ProtocolError):
    """The client or server side of a connection has gone away."""


# ---------------------------------------------------------------------------
# Virtual OS (repro.vos)
# ---------------------------------------------------------------------------


class VosError(ReproError):
    """Base class for virtual-OS errors."""


class FileSystemError(VosError):
    """Base class for virtual filesystem errors."""


class FileNotFoundVosError(FileSystemError):
    """Path does not exist in the virtual filesystem."""


class FileExistsVosError(FileSystemError):
    """Path already exists and exclusive creation was requested."""


class NotADirectoryVosError(FileSystemError):
    """A path component that must be a directory is not one."""


class IsADirectoryVosError(FileSystemError):
    """A file operation was attempted on a directory."""


class BadFileDescriptorError(VosError):
    """An operation used a closed or foreign file descriptor."""


class ProcessError(VosError):
    """Invalid process operation (double exit, unknown pid, ...)."""


class ProgramNotFoundError(VosError):
    """exec() named a binary path that holds no registered program."""


# ---------------------------------------------------------------------------
# Provenance models (repro.provenance)
# ---------------------------------------------------------------------------


class ProvenanceError(ReproError):
    """Base class for provenance-model errors."""


class ModelViolationError(ProvenanceError):
    """A trace node or edge violates its provenance model's type rules."""


class UnknownNodeError(ProvenanceError):
    """An operation referenced a node that is not part of the trace."""


# ---------------------------------------------------------------------------
# LDV core (repro.core)
# ---------------------------------------------------------------------------


class PackageError(ReproError):
    """A package could not be created, loaded, or validated."""


class ManifestError(PackageError):
    """The package manifest is missing or malformed."""


class ReplayError(ReproError):
    """Re-execution of a package failed."""


class ReplayMismatchError(ReplayError):
    """A replayed statement did not match the recorded execution trace.

    Raised by the server-excluded replayer when the application issues a
    statement in a different order, or with different text, than during
    the audited run (Section VIII of the paper).
    """

    def __init__(self, message: str, expected: str | None = None,
                 actual: str | None = None) -> None:
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class AuditError(ReproError):
    """The audited application run failed or monitoring broke down."""
