"""The client library ("libpq") with interposition hooks.

:class:`DBClient` is the only way applications in this reproduction talk
to a database server, exactly as libpq is for PostgreSQL clients. LDV
instruments this layer (paper Section VII-C): an :class:`Interceptor`
registered on a client sees every connect, every statement before it is
sent, and every result after it returns — and may *substitute* a result
without contacting the server at all, which is how server-excluded
replay works (Section VIII). Like libpq's synchronous calls, every
statement is one request frame answered by one result frame.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.db import protocol
from repro.db.engine import StatementResult
from repro.errors import (
    ConnectionClosedError,
    DatabaseError,
    ProtocolError,
    TransientError,
)
from repro import errors as errors_module

Transport = Callable[[str], str]


@dataclass
class RetryPolicy:
    """Bounded exponential backoff for transient wire failures.

    A round trip is retried when the transport raises
    :class:`repro.errors.TransientError` or the server answers with an
    error frame flagged ``transient`` (a wire fault, a failed fsync, or
    a statement refused while another connection holds the one open
    transaction) — all guarantee the statement either had no durable
    effect or is idempotency-token-deduped, so a resend is safe. The
    ``sleep`` hook is injectable so tests can assert the backoff
    sequence without actually waiting.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.5
    sleep: Callable[[float], None] = field(default=time.sleep)

    def delay_for(self, attempt: int) -> float:
        """The pause before retry number ``attempt + 1`` (0-based)."""
        return min(self.base_delay * self.multiplier ** attempt,
                   self.max_delay)

    def backoff(self, attempt: int) -> float:
        """Compute the delay for ``attempt``, sleep it, return it."""
        delay = self.delay_for(attempt)
        self.sleep(delay)
        return delay


class Interceptor:
    """Base class for client-side interposition.

    Subclass and override any subset of the hooks. ``before_execute``
    may return a :class:`StatementResult` to short-circuit the server
    round trip (replay), or ``None`` to let the call proceed.
    """

    def on_connect(self, client: "DBClient") -> None:
        """Called after a connection is established."""

    def before_execute(self, client: "DBClient", sql: str,
                       provenance: bool) -> Optional[StatementResult]:
        """Called before a statement is sent; may substitute the result."""
        return None

    def after_execute(self, client: "DBClient", sql: str,
                      provenance: bool, result: StatementResult) -> None:
        """Called after a result arrives (or was substituted)."""

    def on_close(self, client: "DBClient") -> None:
        """Called when the connection closes."""


_READONLY_KEYWORDS = frozenset({"select", "explain"})


def _statement_mutates(sql: str) -> bool:
    """Heuristic: does this statement need an idempotency token?

    Anything whose leading keyword is not a pure read (SELECT /
    EXPLAIN) may change server state when re-executed — DML, DDL,
    COPY, and the transaction-control verbs all qualify. Stamping a
    read would be harmless but wasteful (its result would be recorded
    in the dedupe ledger for nothing).
    """
    head = sql.lstrip().split(None, 1)
    return bool(head) and head[0].lower() not in _READONLY_KEYWORDS


def _error_from_frame(frame: dict[str, Any]) -> Exception:
    """Build the local exception matching a server-side error frame."""
    error_type = frame.get("error_type", "DatabaseError")
    message = frame.get("message", "unknown server error")
    exception_class = getattr(errors_module, error_type, None)
    if exception_class is None or not (
            isinstance(exception_class, type)
            and issubclass(exception_class, Exception)):
        exception_class = DatabaseError
    return exception_class(message)


class DBClient:
    """A connection-oriented database client.

    >>> server = DBServer()                                # doctest: +SKIP
    >>> client = DBClient(server.transport(), "app", "p1") # doctest: +SKIP
    >>> client.connect()                                   # doctest: +SKIP
    >>> client.execute("SELECT 1").rows                    # doctest: +SKIP
    [(1,)]
    """

    def __init__(self, transport: Transport, client_name: str = "client",
                 process_id: str = "0",
                 retry_policy: RetryPolicy | None = None,
                 idempotency_tokens: bool = True) -> None:
        self.transport = transport
        self.client_name = client_name
        self.process_id = process_id
        self.retry_policy = retry_policy
        # stamp mutating statements with session-unique tokens so a
        # frame-level retry after a lost response is deduped by the
        # server instead of applied twice; off only for tests that
        # want to demonstrate the double-apply failure mode
        self.idempotency_tokens = idempotency_tokens
        self.connection_id: Optional[int] = None
        self.interceptors: list[Interceptor] = []
        self.statements_sent = 0
        self.retries_performed = 0
        # mirrors the server's view, updated from the txn field the
        # server stamps on per-connection responses
        self.in_transaction = False
        # negotiated on connect: min(client, server); None until then
        self.protocol_version: Optional[int] = None
        # monotonic across reconnects — a token must never be reused
        # for a *different* statement within this client's lifetime
        self._token_seq = 0

    # -- interposition -----------------------------------------------------------

    def add_interceptor(self, interceptor: Interceptor) -> None:
        self.interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        self.interceptors.remove(interceptor)

    # -- connection lifecycle ------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self.connection_id is not None

    def connect(self) -> None:
        if self.connected:
            raise ProtocolError("client is already connected")
        response = self._round_trip(
            protocol.connect_frame(self.client_name, self.process_id))
        if response.get("frame") != "connected":
            raise ProtocolError(
                f"unexpected connect response {response.get('frame')!r}")
        self.connection_id = int(response["connection_id"])
        # a version-1 server's connected frame lacks the field
        self.protocol_version = int(response.get("version", 1))
        for interceptor in self.interceptors:
            interceptor.on_connect(self)

    def close(self) -> None:
        if not self.connected:
            return
        try:
            self._round_trip(protocol.close_frame(self.connection_id))
        finally:
            self.connection_id = None
            self.in_transaction = False  # the server rolled it back
            for interceptor in self.interceptors:
                interceptor.on_close(self)

    def __enter__(self) -> "DBClient":
        if not self.connected:
            self.connect()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- statement execution ----------------------------------------------------------

    def execute(self, sql: str, provenance: bool = False,
                token: str | None = None,
                rows: bool = True) -> StatementResult:
        """Send one statement and return its result.

        Interceptors run in registration order; the first one that
        substitutes a result wins and the server is never contacted.
        Mutating statements are stamped with an idempotency ``token``
        (auto-generated unless given) so wire-level retries are
        exactly-once. ``rows=False`` with ``provenance`` asks a
        version-3 server for a lineage-only answer (no rows, one
        lineage per result row); an older server answers with rows.
        """
        if not self.connected:
            raise ConnectionClosedError("client is not connected")
        result = self._substitute(sql, provenance)
        if result is None:
            lineage_only = not rows and self.protocol_version >= 3
            response = self._round_trip(
                protocol.query_frame(self.connection_id, sql, provenance,
                                     token=self._token_for(sql, token),
                                     rows=False if lineage_only else None))
            if response.get("frame") == "error":
                raise _error_from_frame(response)
            result = protocol.result_from_wire(response)
        self._after_execute(sql, provenance, result)
        return result

    def query(self, sql: str) -> list[tuple]:
        """Shorthand: run a SELECT and return its rows."""
        return self.execute(sql).rows

    # -- idempotency tokens ---------------------------------------------------------

    def _token_for(self, sql: str,
                   explicit: str | None) -> Optional[str]:
        """The idempotency token to stamp on a statement frame.

        An explicit token always wins (the chaos harness pins tokens
        so an oracle re-run replays the same dedupe decisions). Reads
        are never stamped; mutating statements get a fresh
        client-unique token per *logical* execution — frame-level
        resends reuse the same encoded frame, so they carry the same
        token, which is the whole point.
        """
        if explicit is not None:
            return explicit
        if not self.idempotency_tokens or not _statement_mutates(sql):
            return None
        self._token_seq += 1
        return f"{self.client_name}/{self.process_id}#{self._token_seq}"

    # -- server observability -----------------------------------------------------------

    def server_stats(self) -> dict[str, Any]:
        """Server- and connection-level serving counters."""
        if not self.connected:
            raise ConnectionClosedError("client is not connected")
        response = self._round_trip(
            protocol.stats_frame(self.connection_id))
        if response.get("frame") != "stats-result":
            raise ProtocolError(
                f"unexpected stats response {response.get('frame')!r}")
        return {"server": response["server"],
                "connection": response["connection"]}

    # -- interceptor plumbing -----------------------------------------------------------

    def _substitute(self, sql: str,
                    provenance: bool) -> Optional[StatementResult]:
        """Offer ``sql`` to the interceptors; the first substituted
        result (server-excluded replay) wins."""
        for interceptor in self.interceptors:
            result = interceptor.before_execute(self, sql, provenance)
            if result is not None:
                return result
        return None

    def _after_execute(self, sql: str, provenance: bool,
                       result: StatementResult) -> None:
        self.statements_sent += 1
        for interceptor in self.interceptors:
            interceptor.after_execute(self, sql, provenance, result)

    # -- transactions -----------------------------------------------------------------

    def begin(self) -> StatementResult:
        return self.execute("BEGIN")

    def commit(self) -> StatementResult:
        return self.execute("COMMIT")

    def rollback(self) -> StatementResult:
        return self.execute("ROLLBACK")

    @contextmanager
    def transaction(self) -> Iterator["DBClient"]:
        """BEGIN on entry; COMMIT on success, ROLLBACK on error."""
        self.begin()
        try:
            yield self
        except BaseException:
            if self.in_transaction:
                self.rollback()
            raise
        self.commit()

    # -- plumbing ---------------------------------------------------------------------

    def _round_trip(self, frame: dict[str, Any]) -> dict[str, Any]:
        request_text = protocol.encode_frame(frame)
        response = self._send_with_retry(request_text)
        status = response.get("txn")
        if status is not None:
            # the server stamps its transaction state on every
            # per-connection response
            self.in_transaction = status == "open"
        if response.get("frame") == "error" and frame.get("frame") != "query":
            raise _error_from_frame(response)
        return response

    def _send_with_retry(self, request_text: str) -> dict[str, Any]:
        """One logical send: transient failures are retried with
        backoff until the policy is exhausted, then surfaced.

        The *same* encoded request text is resent on every attempt —
        so a mutating statement's idempotency token is stable across
        retries and the server's dedupe ledger can recognise the
        resend.
        """
        attempt = 0
        while True:
            try:
                response = protocol.decode_frame(
                    self.transport(request_text))
            except TransientError:
                if not self._backoff(attempt):
                    raise
                attempt += 1
                continue
            if (protocol.is_transient_error(response)
                    and self._backoff(attempt)):
                attempt += 1
                continue
            return response

    def _backoff(self, attempt: int) -> bool:
        """Sleep before retry ``attempt + 1``; False when out of
        attempts (or no policy is configured)."""
        policy = self.retry_policy
        if policy is None or attempt + 1 >= policy.max_attempts:
            return False
        policy.backoff(attempt)
        self.retries_performed += 1
        return True
