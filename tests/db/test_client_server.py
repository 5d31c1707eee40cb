"""Protocol, server, and client (with interceptors) tests."""

import pytest

from repro.db import Database, DBClient, DBServer, Interceptor
from repro.db import protocol
from repro.db.engine import StatementResult
from repro.db.types import Column, Schema, SQLType
from repro.errors import (
    CatalogError,
    ConnectionClosedError,
    ProtocolError,
    SQLSyntaxError,
)


@pytest.fixture
def server():
    database = Database()
    database.execute("CREATE TABLE t (x integer, s text)")
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    return DBServer(database)


@pytest.fixture
def client(server):
    db_client = DBClient(server.transport(), "test-app", "pid-1")
    db_client.connect()
    yield db_client
    db_client.close()


class TestProtocolFrames:
    def test_result_round_trip(self, server):
        result = server.database.execute("SELECT x, s FROM t")
        frame = protocol.result_to_wire(result)
        encoded = protocol.encode_frame(frame)
        decoded = protocol.result_from_wire(protocol.decode_frame(encoded))
        assert decoded.rows == result.rows
        assert decoded.column_names == result.column_names
        assert decoded.schema.types() == result.schema.types()

    def test_result_round_trip_with_lineage(self, server):
        result = server.database.execute("SELECT x FROM t", provenance=True)
        decoded = protocol.result_from_wire(
            protocol.decode_frame(protocol.encode_frame(
                protocol.result_to_wire(result))))
        assert decoded.lineages == result.lineages

    def test_dml_result_round_trip(self, server):
        result = server.database.execute("UPDATE t SET x = x + 1")
        decoded = protocol.result_from_wire(
            protocol.decode_frame(protocol.encode_frame(
                protocol.result_to_wire(result))))
        assert decoded.written == result.written
        assert decoded.written_lineage == result.written_lineage

    def test_malformed_frame_raises(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame("{not json")

    def test_frame_without_tag_raises(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame('{"x": 1}')


class TestServer:
    def test_connect_assigns_ids(self, server):
        first = server.handle(protocol.connect_frame("a", "p1"))
        second = server.handle(protocol.connect_frame("b", "p2"))
        assert first["connection_id"] != second["connection_id"]
        assert server.open_connections == 2

    def test_query_requires_connection(self, server):
        response = server.handle(protocol.query_frame(999, "SELECT 1"))
        assert response["frame"] == "error"

    def test_database_error_becomes_error_frame(self, server):
        conn = server.handle(protocol.connect_frame("a", "p1"))
        response = server.handle(protocol.query_frame(
            conn["connection_id"], "SELECT * FROM ghost"))
        assert response["frame"] == "error"
        assert response["error_type"] == "CatalogError"

    def test_shutdown_refuses_traffic(self, server):
        server.shutdown()
        response = server.handle(protocol.connect_frame("a", "p1"))
        assert response["frame"] == "error"

    def test_shutdown_checkpoints(self, tmp_path):
        database = Database(data_directory=tmp_path / "d")
        database.execute("CREATE TABLE t (x integer)")
        database.execute("INSERT INTO t VALUES (5)")
        DBServer(database).shutdown()
        reloaded = Database(data_directory=tmp_path / "d")
        assert reloaded.query("SELECT x FROM t") == [(5,)]


class TestClient:
    def test_query_round_trip(self, client):
        assert client.query("SELECT x FROM t ORDER BY x") == [(1,), (2,)]

    def test_execute_with_provenance(self, client):
        result = client.execute("SELECT x FROM t WHERE x = 1",
                                provenance=True)
        assert len(result.lineages[0]) == 1

    def test_server_error_raises_matching_exception(self, client):
        with pytest.raises(CatalogError):
            client.execute("SELECT * FROM ghost")

    @pytest.mark.parametrize("sql, char", [("SELECT ²", "²"),
                                           ("SELECT ١٢", "١")])
    def test_non_ascii_digits_get_a_one_line_error_frame(
            self, server, sql, char):
        responses = []

        def recording(request_text):
            responses.append(server.handle_wire(request_text))
            return responses[-1]

        db_client = DBClient(recording, "test-app", "pid-1")
        db_client.connect()
        with pytest.raises(SQLSyntaxError) as info:
            db_client.execute(sql)
        frame = protocol.decode_frame(responses[-1])
        assert frame["frame"] == "error"
        assert frame["error_type"] == "SQLSyntaxError"
        assert frame["message"] == f"unexpected character {char!r}"
        assert str(info.value) == frame["message"]
        assert "\n" not in responses[-1] and "Traceback" not in responses[-1]
        # the connection survives the rejected statement
        assert db_client.query("SELECT x FROM t ORDER BY x") == [(1,), (2,)]
        db_client.close()

    def test_overlong_integer_gets_a_one_line_error_frame(self, server):
        responses = []

        def recording(request_text):
            responses.append(server.handle_wire(request_text))
            return responses[-1]

        db_client = DBClient(recording, "test-app", "pid-1")
        db_client.connect()
        with pytest.raises(SQLSyntaxError) as info:
            db_client.execute("SELECT x FROM t WHERE x = " + "9" * 5000)
        frame = protocol.decode_frame(responses[-1])
        assert frame["frame"] == "error"
        assert frame["error_type"] == "SQLSyntaxError"
        assert frame["message"] == "number too long (5000 digits)"
        assert str(info.value) == frame["message"]
        assert "\n" not in responses[-1] and "Traceback" not in responses[-1]
        # the connection survives the rejected statement
        assert db_client.query("SELECT x FROM t ORDER BY x") == [(1,), (2,)]
        db_client.close()

    def test_execute_before_connect_raises(self, server):
        fresh = DBClient(server.transport())
        with pytest.raises(ConnectionClosedError):
            fresh.execute("SELECT 1")

    def test_double_connect_raises(self, client):
        with pytest.raises(ProtocolError):
            client.connect()

    def test_close_is_idempotent(self, server):
        db_client = DBClient(server.transport())
        db_client.connect()
        db_client.close()
        db_client.close()

    def test_context_manager(self, server):
        with DBClient(server.transport()) as db_client:
            assert db_client.query("SELECT 1") == [(1,)]
        assert not db_client.connected

    def test_statements_sent_counter(self, client):
        client.query("SELECT 1")
        client.query("SELECT 2")
        assert client.statements_sent == 2


class RecordingInterceptor(Interceptor):
    def __init__(self):
        self.events = []

    def on_connect(self, client):
        self.events.append(("connect",))

    def before_execute(self, client, sql, provenance):
        self.events.append(("before", sql))
        return None

    def after_execute(self, client, sql, provenance, result):
        self.events.append(("after", sql, result.kind))

    def on_close(self, client):
        self.events.append(("close",))


class SubstitutingInterceptor(Interceptor):
    def __init__(self, canned):
        self.canned = canned

    def before_execute(self, client, sql, provenance):
        return self.canned


class TestInterceptors:
    def test_hooks_fire_in_order(self, server):
        recorder = RecordingInterceptor()
        db_client = DBClient(server.transport())
        db_client.add_interceptor(recorder)
        db_client.connect()
        db_client.query("SELECT 1")
        db_client.close()
        kinds = [event[0] for event in recorder.events]
        assert kinds == ["connect", "before", "after", "close"]

    def test_substitution_short_circuits_server(self, server):
        canned = StatementResult(
            kind="select",
            schema=Schema([Column("x", SQLType.INTEGER)]),
            rows=[(42,)], lineages=[frozenset()], rowcount=1)
        db_client = DBClient(server.transport())
        db_client.add_interceptor(SubstitutingInterceptor(canned))
        db_client.connect()
        result = db_client.execute("SELECT * FROM ghost")  # never sent
        assert result.rows == [(42,)]

    def test_after_execute_sees_substituted_result(self, server):
        canned = StatementResult(kind="select", rows=[(7,)])
        recorder = RecordingInterceptor()
        db_client = DBClient(server.transport())
        db_client.add_interceptor(SubstitutingInterceptor(canned))
        db_client.add_interceptor(recorder)
        db_client.connect()
        db_client.execute("SELECT 1")
        assert ("after", "SELECT 1", "select") in recorder.events

    def test_remove_interceptor(self, server):
        recorder = RecordingInterceptor()
        db_client = DBClient(server.transport())
        db_client.add_interceptor(recorder)
        db_client.remove_interceptor(recorder)
        db_client.connect()
        assert recorder.events == []
