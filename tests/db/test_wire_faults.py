"""Wire-path robustness: error frames, timeouts, client retry/backoff."""

import json

import pytest

from repro.db import Database, DBClient, DBServer, RetryPolicy
from repro.db import protocol
from repro.db.client import _error_from_frame
from repro.errors import (
    DatabaseError,
    StatementTimeout,
    TransientError,
)
from repro.faults import FaultInjector, FlakyTransport


@pytest.fixture
def server():
    database = Database()
    database.execute("CREATE TABLE t (x integer)")
    database.execute("INSERT INTO t VALUES (1)")
    return DBServer(database)


def make_client(server, **kwargs):
    client = DBClient(server.transport(), "app", "p1", **kwargs)
    client.connect()
    return client


class TestServerErrorWall:
    def test_malformed_json_returns_error_frame(self, server):
        response = protocol.decode_frame(server.handle_wire("{not json"))
        assert response["frame"] == "error"
        assert response["error_type"] == "ProtocolError"

    def test_untagged_frame_returns_error_frame(self, server):
        response = protocol.decode_frame(server.handle_wire('{"x": 1}'))
        assert response["frame"] == "error"

    def test_query_frame_missing_sql_returns_error_frame(self, server):
        connected = server.handle(protocol.connect_frame("a", "p"))
        broken = json.dumps({"frame": "query",
                             "connection_id": connected["connection_id"]})
        response = protocol.decode_frame(server.handle_wire(broken))
        assert response["frame"] == "error"
        assert response["error_type"] == "ProtocolError"

    def test_unexpected_internal_error_becomes_error_frame(self, server):
        def explode(sql, provenance=False):
            raise RuntimeError("internal invariant violated")

        server.database.execute = explode
        connected = server.handle(protocol.connect_frame("a", "p"))
        request = protocol.encode_frame(protocol.query_frame(
            connected["connection_id"], "SELECT 1"))
        response = protocol.decode_frame(server.handle_wire(request))
        assert response["frame"] == "error"
        assert response["error_type"] == "RuntimeError"

    def test_traffic_after_shutdown_returns_error_frame(self, server):
        server.shutdown()
        request = protocol.encode_frame(protocol.connect_frame("a", "p"))
        response = protocol.decode_frame(server.handle_wire(request))
        assert response["frame"] == "error"
        assert response["error_type"] == "ConnectionClosedError"

    def test_shutdown_is_idempotent(self, server):
        server.shutdown()
        server.shutdown()
        assert not server.started

    def test_transient_error_frame_is_flagged(self, server):
        def flaky(sql, provenance=False):
            raise TransientError("disk hiccup")

        server.database.execute = flaky
        connected = server.handle(protocol.connect_frame("a", "p"))
        response = server.handle(protocol.query_frame(
            connected["connection_id"], "SELECT 1"))
        assert protocol.is_transient_error(response)


def _with(frame, **fields):
    return {**frame, **fields}


# each builds, from a live connection id, a frame whose field has the
# wrong JSON type, or a frame (or field) the server no longer serves;
# the connection holds prepared statement "p"
HOSTILE_FRAMES = [
    pytest.param(lambda cid: _with(protocol.connect_frame("a", "p"),
                                   version=True),
                 id="connect-version-true"),
    pytest.param(lambda cid: _with(protocol.connect_frame("a", "p"),
                                   version=False),
                 id="connect-version-false"),
    pytest.param(lambda cid: protocol.query_frame([cid], "SELECT 1"),
                 id="query-connection_id-array"),
    pytest.param(lambda cid: protocol.query_frame({"id": cid}, "SELECT 1"),
                 id="query-connection_id-object"),
    pytest.param(lambda cid: protocol.query_frame(True, "SELECT 1"),
                 id="query-connection_id-true"),
    pytest.param(lambda cid: protocol.stats_frame([cid]),
                 id="stats-connection_id-array"),
    pytest.param(lambda cid: protocol.close_frame({"id": cid}),
                 id="close-connection_id-object"),
    pytest.param(lambda cid: {"frame": "pipeline", "connection_id": [cid],
                              "frames": [protocol.query_frame(
                                  cid, "SELECT 1")]},
                 id="pipeline-connection_id-array"),
    pytest.param(lambda cid: {"frame": "fetch", "connection_id": cid,
                              "cursor_id": [1], "max_rows": 1},
                 id="fetch-cursor_id-array"),
    pytest.param(lambda cid: {"frame": "fetch", "connection_id": cid,
                              "cursor_id": {"id": 1}, "max_rows": 1},
                 id="fetch-cursor_id-object"),
    pytest.param(lambda cid: {"frame": "close-cursor",
                              "connection_id": cid, "cursor_id": [1]},
                 id="close-cursor-cursor_id-array"),
    pytest.param(lambda cid: _with(protocol.query_frame(
        cid, "SELECT x FROM t"), fetch=2),
                 id="query-fetch"),
    pytest.param(lambda cid: _with(protocol.query_frame(
        cid, "SELECT x FROM t"), provenance="false"),
                 id="query-provenance-string"),
    pytest.param(lambda cid: _with(protocol.bind_execute_frame(
        cid, "p", [1]), provenance="false"),
                 id="bind-execute-provenance-string"),
    pytest.param(lambda cid: _with(protocol.query_frame(
        cid, "INSERT INTO t VALUES (2)"), token=5),
                 id="query-token-int"),
    pytest.param(lambda cid: protocol.bind_execute_frame(cid, ["p"], [1]),
                 id="bind-execute-name-array"),
    pytest.param(lambda cid: protocol.bind_execute_frame(cid, {"p": 1}, [1]),
                 id="bind-execute-name-object"),
    pytest.param(lambda cid: protocol.deallocate_frame(cid, ["p"]),
                 id="deallocate-name-array"),
    pytest.param(lambda cid: _with(protocol.bind_execute_frame(cid, "p"),
                                   params="1"),
                 id="bind-execute-params-string"),
    pytest.param(lambda cid: _with(protocol.bind_execute_frame(cid, "p"),
                                   params={"1": 1}),
                 id="bind-execute-params-object"),
    pytest.param(lambda cid: _with(protocol.bind_execute_frame(cid, "p"),
                                   params=1),
                 id="bind-execute-params-number"),
    pytest.param(lambda cid: _with(protocol.bind_execute_frame(cid, "p"),
                                   params=True),
                 id="bind-execute-params-true"),
    pytest.param(lambda cid: protocol.bind_execute_frame(cid, "p", [[1]]),
                 id="bind-execute-params-nested-array"),
    pytest.param(lambda cid: protocol.bind_execute_frame(cid, "p",
                                                         [{"x": 1}]),
                 id="bind-execute-params-nested-object"),
]


class TestHostileFrames:
    @pytest.mark.parametrize("build", HOSTILE_FRAMES)
    def test_hostile_frame_answers_a_protocol_error(self, server, build):
        cid = server.handle(protocol.connect_frame("a", "p"))[
            "connection_id"]
        server.handle(protocol.prepare_frame(
            cid, "p", "SELECT x FROM t WHERE x = $1"))
        response = protocol.decode_frame(server.handle_wire(
            protocol.encode_frame(build(cid))))
        assert response["frame"] == "error"
        assert response["error_type"] == "ProtocolError"
        assert "\n" not in response["message"]
        # no connection was opened or closed, and the live one and its
        # prepared statement are untouched
        assert server.open_connections == 1
        result = server.handle(protocol.bind_execute_frame(cid, "p", [1]))
        assert result["frame"] == "result"
        assert result["rows"] == [[1]]


class TestStatementTimeout:
    def make_timed_server(self, elapsed):
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        ticks = iter([0.0, elapsed])
        return DBServer(database, statement_timeout=1.0,
                        timer=lambda: next(ticks))

    def test_overrunning_statement_times_out(self):
        server = self.make_timed_server(elapsed=5.0)
        client = make_client(server)
        with pytest.raises(StatementTimeout):
            client.execute("SELECT x FROM t")

    def test_fast_statement_passes(self):
        server = self.make_timed_server(elapsed=0.5)
        client = make_client(server)
        assert client.execute("SELECT x FROM t").rows == []

    def test_timeout_is_not_marked_transient(self):
        # retrying a timed-out DML could double-apply it
        server = self.make_timed_server(elapsed=5.0)
        connected = server.handle(protocol.connect_frame("a", "p"))
        response = server.handle(protocol.query_frame(
            connected["connection_id"], "SELECT x FROM t"))
        assert response["error_type"] == "StatementTimeout"
        assert not protocol.is_transient_error(response)


# a transient error frame as an older server sent it: an error type this
# library no longer defines, with an advisory retry_after hint
_OLD_SERVER_BUSY = {**protocol.error_frame("OverloadedError", "busy",
                                           transient=True),
                    "retry_after": 0.5}


class TestClientRetry:
    def policy(self, **kwargs):
        delays = []
        kwargs.setdefault("base_delay", 0.01)
        policy = RetryPolicy(sleep=delays.append, **kwargs)
        return policy, delays

    def test_retries_transport_faults_until_success(self, server):
        injector = FaultInjector().fail_at("wire.send", occurrence=2,
                                          times=1).fail_at(
                                              "wire.send", occurrence=3,
                                              times=1)
        policy, delays = self.policy(max_attempts=4)
        client = DBClient(FlakyTransport(server.transport(), injector),
                          retry_policy=policy)
        client.connect()  # occurrence 1: clean
        assert client.query("SELECT x FROM t") == [(1,)]
        assert client.retries_performed == 2
        assert delays == [0.01, 0.02]  # exponential backoff

    def test_exhausted_retries_raise_transient_error(self, server):
        injector = FaultInjector()
        for occurrence in range(1, 10):
            injector.fail_at("wire.send", occurrence=occurrence, times=1)
        policy, delays = self.policy(max_attempts=3)
        client = DBClient(FlakyTransport(server.transport(), injector),
                          retry_policy=policy)
        with pytest.raises(TransientError):
            client.connect()
        assert len(delays) == 2  # max_attempts - 1 sleeps

    def test_no_policy_means_no_retry(self, server):
        injector = FaultInjector().fail_at("wire.send", occurrence=1)
        client = DBClient(FlakyTransport(server.transport(), injector))
        with pytest.raises(TransientError):
            client.connect()

    def test_transient_error_frames_are_retried(self, server):
        real = server.transport()
        failures = {"left": 2}

        def sometimes_transient(request_text):
            frame = protocol.decode_frame(request_text)
            if frame.get("frame") == "query" and failures["left"] > 0:
                failures["left"] -= 1
                return protocol.encode_frame(protocol.error_frame(
                    "TransientError", "busy", transient=True))
            return real(request_text)

        policy, delays = self.policy(max_attempts=4)
        client = DBClient(sometimes_transient, retry_policy=policy)
        client.connect()
        assert client.query("SELECT x FROM t") == [(1,)]
        assert client.retries_performed == 2

    def test_exhausted_transient_frames_raise(self, server):
        real = server.transport()

        def always_transient(request_text):
            frame = protocol.decode_frame(request_text)
            if frame.get("frame") == "query":
                return protocol.encode_frame(protocol.error_frame(
                    "TransientError", "busy", transient=True))
            return real(request_text)

        policy, _ = self.policy(max_attempts=2)
        client = DBClient(always_transient, retry_policy=policy)
        client.connect()
        with pytest.raises(TransientError):
            client.query("SELECT x FROM t")

    def test_non_transient_errors_are_never_retried(self, server):
        policy, delays = self.policy(max_attempts=5)
        client = make_client(server, retry_policy=policy)
        with pytest.raises(DatabaseError):
            client.execute("SELECT nope FROM no_such_table")
        assert delays == []

    def test_backoff_delay_is_capped(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=10.0,
                             max_delay=0.5, sleep=lambda _: None)
        assert policy.delay_for(0) == pytest.approx(0.1)
        assert policy.delay_for(3) == pytest.approx(0.5)

    def test_default_policy_has_no_jitter(self):
        # the delay is the exact exponential sequence, with no random
        # spread
        policy = RetryPolicy(base_delay=0.01, sleep=lambda _: None)
        assert policy.delay_for(0) == pytest.approx(0.01)
        assert policy.delay_for(1) == pytest.approx(0.02)

    def test_run_transaction_backs_off_with_jitter(self, server):
        delays = []
        policy = RetryPolicy(max_attempts=4, base_delay=0.1,
                             multiplier=1.0, sleep=delays.append)
        client = make_client(server, retry_policy=policy)
        attempts = {"count": 0}

        def body(txn_client):
            attempts["count"] += 1
            if attempts["count"] < 3:
                raise TransientError("synthetic conflict")
            txn_client.execute("INSERT INTO t VALUES (2)")

        client.run_transaction(body)
        assert attempts["count"] == 3
        assert client.transactions_retried == 2
        assert delays == [pytest.approx(0.1), pytest.approx(0.1)]
        assert client.query("SELECT x FROM t ORDER BY x") == [(1,), (2,)]

    def test_unknown_error_type_falls_back_to_database_error(self):
        # an error type this library does not define, e.g. from an
        # older server or a recorded frame
        exc = _error_from_frame(protocol.error_frame(
            "OverloadedError", "server overloaded"))
        assert type(exc) is DatabaseError
        assert str(exc) == "server overloaded"

    def test_unknown_transient_error_type_is_retried(self, server):
        real = server.transport()
        failures = {"left": 2}

        def unknown_transient(request_text):
            frame = protocol.decode_frame(request_text)
            if frame.get("frame") == "query" and failures["left"] > 0:
                failures["left"] -= 1
                return protocol.encode_frame(_OLD_SERVER_BUSY)
            return real(request_text)

        policy, delays = self.policy(max_attempts=4)
        client = DBClient(unknown_transient, retry_policy=policy)
        client.connect()
        assert client.query("SELECT x FROM t") == [(1,)]
        assert client.retries_performed == 2
        # an older server's retry_after hint is ignored: the plain
        # exponential backoff applies
        assert delays == [0.01, 0.02]

    def test_exhausted_unknown_error_type_raises_database_error(
            self, server):
        real = server.transport()

        def always_unknown(request_text):
            frame = protocol.decode_frame(request_text)
            if frame.get("frame") == "query":
                return protocol.encode_frame(_OLD_SERVER_BUSY)
            return real(request_text)

        policy, delays = self.policy(max_attempts=2)
        client = DBClient(always_unknown, retry_policy=policy)
        client.connect()
        with pytest.raises(DatabaseError) as info:
            client.query("SELECT x FROM t")
        assert type(info.value) is DatabaseError
        assert not hasattr(info.value, "retry_after")
        assert delays == [0.01]

    def test_seeded_wire_faults_reproduce(self, server):
        def run(seed):
            injector = FaultInjector(seed=seed).wire_fault_rate(
                0.4, limit=5)
            policy = RetryPolicy(max_attempts=10, sleep=lambda _: None)
            client = DBClient(
                FlakyTransport(server.transport(), injector),
                retry_policy=policy)
            client.connect()
            for _ in range(5):
                client.query("SELECT x FROM t")
            client.close()
            return client.retries_performed

        assert run(3) == run(3)
