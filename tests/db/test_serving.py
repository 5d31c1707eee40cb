"""The serving layer: prepared statements, the snapshot-correct result
cache, serving observability, protocol-version negotiation, and the
mid-statement cooperative timeout."""

import pytest

from repro.db import Database, DBClient, DBServer
from repro.db import protocol
from repro.db.sql.params import bind_sql_text
from repro.errors import (
    ExecutionError,
    ProtocolError,
    SQLSyntaxError,
    StatementTimeout,
)


@pytest.fixture
def server():
    database = Database()
    database.execute("CREATE TABLE t (x integer, s text)")
    database.execute("CREATE TABLE u (y integer)")
    database.execute(
        "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')")
    database.execute("INSERT INTO u VALUES (10), (20)")
    return DBServer(database)


@pytest.fixture
def client(server):
    db_client = DBClient(server.transport(), "test-app", "pid-1")
    db_client.connect()
    yield db_client
    if db_client.connected:
        db_client.close()


def second_client(server, name="other"):
    other = DBClient(server.transport(), name, f"pid-{name}")
    other.connect()
    return other


class TestParameters:
    def test_engine_prepare_and_execute(self):
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        database.execute("INSERT INTO t VALUES (1), (2), (3)")
        prepared = database.prepare("SELECT x FROM t WHERE x >= $1")
        assert prepared.param_count == 1
        assert database.execute_prepared(prepared, [2]).rows == [(2,), (3,)]
        assert database.execute_prepared(prepared, [3]).rows == [(3,)]

    def test_wrong_parameter_count_rejected(self):
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        prepared = database.prepare("SELECT x FROM t WHERE x = $1")
        with pytest.raises(ExecutionError):
            database.execute_prepared(prepared, [])

    def test_bind_sql_text_quotes_strings(self):
        assert (bind_sql_text("SELECT * FROM t WHERE s = $1", ["o'brien"])
                == "SELECT * FROM t WHERE s = 'o''brien'")

    def test_bind_sql_text_skips_literals_and_comments(self):
        sql = "SELECT '$1', x -- $1 here too\nFROM t WHERE x = $1"
        bound = bind_sql_text(sql, [7])
        assert bound.endswith("x = 7")
        assert "'$1'" in bound and "-- $1 here too" in bound

    def test_parameters_use_index_scans(self):
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        database.execute("CREATE INDEX ix ON t (x)")
        database.execute("INSERT INTO t VALUES (1), (2), (3)")
        prepared = database.prepare("SELECT x FROM t WHERE x = $1")
        explain = database.execute("EXPLAIN SELECT x FROM t WHERE x = $1")
        assert any("IndexScan" in row[0] for row in explain.rows)
        assert database.execute_prepared(prepared, [2]).rows == [(2,)]


class TestPreparedStatements:
    def test_prepare_execute_deallocate(self, client):
        prepared = client.prepare("SELECT s FROM t WHERE x = $1")
        assert prepared.param_count == 1
        assert prepared.query([2]) == [('b',)]
        assert prepared.query([4]) == [('d',)]
        prepared.deallocate()
        with pytest.raises(ProtocolError):
            prepared.execute([1])

    def test_prepared_dml(self, client):
        insert = client.prepare("INSERT INTO t VALUES ($1, $2)")
        insert.execute([9, 'nine'])
        assert client.query("SELECT s FROM t WHERE x = 9") == [('nine',)]

    def test_plan_is_reused_across_executions(self, client, plans):
        prepared = client.prepare("SELECT x FROM t WHERE x = $1")
        assert prepared.query([1]) == [(1,)]
        assert prepared.query([2]) == [(2,)]
        assert prepared.query([3]) == [(3,)]
        assert len(plans) == 1

    def test_unknown_statement_name_errors(self, client):
        response = protocol.decode_frame(client.transport(
            protocol.encode_frame(protocol.bind_execute_frame(
                client.connection_id, "nope", [1]))))
        assert response["frame"] == "error"
        assert "nope" in response["message"]

    def test_prepared_survive_other_connections(self, server, client):
        prepared = client.prepare("SELECT count(*) FROM t")
        other = second_client(server)
        other.execute("INSERT INTO t VALUES (50, 'z')")
        other.close()
        assert prepared.query([]) == [(5,)]


class TestResultCache:
    def test_repeated_read_hits_cache(self, server, client):
        sql = "SELECT sum(x) FROM t"
        first = client.query(sql)
        counters = server.result_cache.counters()
        assert counters["misses"] >= 1
        assert client.query(sql) == first
        assert server.result_cache.counters()["hits"] == 1

    def test_write_invalidates_dependent_entry(self, server, client):
        sql = "SELECT sum(x) FROM t"
        assert client.query(sql) == [(10,)]
        client.execute("INSERT INTO t VALUES (100, 'z')")
        assert client.query(sql) == [(110,)]
        counters = server.result_cache.counters()
        assert counters["invalidations"] >= 1

    def test_invalidation_is_exact(self, server, client):
        client.query("SELECT sum(x) FROM t")
        client.query("SELECT sum(y) FROM u")
        assert server.result_cache.counters()["size"] == 2
        before = server.result_cache.counters()["invalidations"]
        client.execute("INSERT INTO t VALUES (5, 'e')")
        # only the t-dependent entry is dropped; u still answers
        # from cache
        hits_before = server.result_cache.counters()["hits"]
        assert client.query("SELECT sum(y) FROM u") == [(30,)]
        counters = server.result_cache.counters()
        assert counters["hits"] == hits_before + 1
        assert counters["invalidations"] == before + 1

    def test_cached_read_inside_snapshot_is_isolated(self, server, client):
        sql = "SELECT count(*) FROM t"
        assert client.query(sql) == [(4,)]  # warm the cache
        client.begin()
        assert client.query(sql) == [(4,)]
        other = second_client(server)
        other.execute("INSERT INTO t VALUES (99, 'late')")
        other.close()
        # the committed insert moved t's watermark past our snapshot:
        # the cache must not serve the refreshed entry to this
        # transaction, nor the stale one to anyone else
        assert client.query(sql) == [(4,)]
        client.commit()
        assert client.query(sql) == [(5,)]

    def test_own_uncommitted_writes_bypass_cache(self, client):
        sql = "SELECT count(*) FROM t"
        assert client.query(sql) == [(4,)]
        client.begin()
        client.execute("INSERT INTO t VALUES (77, 'mine')")
        # read-your-own-writes: the overlay makes the cached (committed)
        # answer wrong for this session only
        assert client.query(sql) == [(5,)]
        client.rollback()
        assert client.query(sql) == [(4,)]

    def test_subquery_select_is_served_fresh_after_inner_write(
            self, server, client):
        """A subquery SELECT is never stored: its source tables, once
        the subquery is inlined, no longer name the inner table, so a
        stored frame would outlive a write to it."""
        sql = "SELECT count(*) FROM t WHERE x <= (SELECT count(*) FROM u)"
        assert client.query(sql) == [(2,)]
        assert client.query(sql) == [(2,)]
        assert server.result_cache.counters()["size"] == 0
        client.execute("INSERT INTO u VALUES (30)")
        assert client.query(sql) == [(3,)]
        prepared = client.prepare(
            "SELECT count(*) FROM t WHERE x <= (SELECT count(*) FROM u) "
            "+ $1")
        assert prepared.query([0]) == [(3,)]
        client.execute("INSERT INTO u VALUES (40)")
        assert prepared.query([0]) == [(4,)]
        assert server.result_cache.counters()["size"] == 0

    def test_prepared_executions_share_cache_entries(self, server, client):
        prepared = client.prepare("SELECT s FROM t WHERE x = $1")
        prepared.execute([2])
        prepared.execute([2])
        prepared.execute([3])
        counters = server.result_cache.counters()
        assert counters["hits"] == 1  # same params hit, new params miss

    def test_explain_analyze_reports_cache_counters(self, client):
        client.query("SELECT sum(x) FROM t")
        result = client.explain_analyze("SELECT sum(x) FROM t")
        assert "result_cache" in result.stats["server"]
        assert set(result.stats["server"]["result_cache"]) >= {
            "hits", "misses", "invalidations"}


class TestServingStats:
    def test_counters_accumulate(self, server, client):
        client.query("SELECT x FROM t")
        prepared = client.prepare("SELECT x FROM t WHERE x = $1")
        prepared.execute([1])
        stats = client.server_stats()
        assert stats["server"]["frames_served"] >= 4
        assert stats["server"]["bytes_in"] > 0
        assert stats["server"]["bytes_out"] > 0
        assert stats["connection"]["prepared_statements"] == 1
        assert stats["connection"]["protocol_version"] == 2

    def test_per_connection_counters_are_separate(self, server, client):
        other = second_client(server)
        other.query("SELECT x FROM t")
        mine = client.server_stats()["connection"]
        assert mine["connection_id"] == client.connection_id
        assert mine["frames_served"] < \
            server.server_counters()["frames_served"]
        other.close()


class TestVersionNegotiation:
    def test_negotiated_version_is_minimum(self, client):
        assert client.protocol_version == 2

    def test_v1_connect_frame_negotiates_v1(self, server):
        transport = server.transport()
        response = protocol.decode_frame(transport(protocol.encode_frame(
            {"frame": "connect", "client_name": "old", "process_id": "p"})))
        assert response["frame"] == "connected"
        assert response["version"] == 1

    def test_v1_connection_cannot_use_v2_frames(self, server):
        transport = server.transport()
        connected = protocol.decode_frame(transport(protocol.encode_frame(
            {"frame": "connect", "client_name": "old", "process_id": "p"})))
        connection_id = connected["connection_id"]
        for frame in (
                protocol.prepare_frame(connection_id, "p1", "SELECT 1"),
                protocol.deallocate_frame(connection_id, "p1"),
                protocol.stats_frame(connection_id)):
            response = protocol.decode_frame(transport(
                protocol.encode_frame(frame)))
            assert response["frame"] == "error"
            assert "protocol version" in response["message"]

    def test_v1_connected_frame_still_decodes(self):
        # a v1 server's connected frame has no version field
        def v1_transport(request_text):
            frame = protocol.decode_frame(request_text)
            if frame["frame"] == "connect":
                return protocol.encode_frame(
                    {"frame": "connected", "connection_id": 7})
            return protocol.encode_frame(protocol.closed_frame())

        old = DBClient(v1_transport, "app", "p")
        old.connect()
        assert old.protocol_version == 1

    def test_v1_query_frames_still_serve(self, server):
        transport = server.transport()
        connected = protocol.decode_frame(transport(protocol.encode_frame(
            {"frame": "connect", "client_name": "old", "process_id": "p"})))
        response = protocol.decode_frame(transport(protocol.encode_frame(
            {"frame": "query", "connection_id":
             connected["connection_id"], "sql": "SELECT count(*) FROM t",
             "provenance": False})))
        assert response["frame"] == "result"
        assert response["rows"] == [[4]]


class TestMidStatementTimeout:
    def test_long_scan_is_cancelled_cooperatively(self):
        database = Database()
        database.execute("CREATE TABLE big (x integer)")
        for start in range(0, 6000, 1000):
            values = ", ".join(f"({i})" for i in range(start, start + 1000))
            database.execute(f"INSERT INTO big VALUES {values}")

        calls = {"n": 0}

        def timer():
            # the statement "runs" 0.4s per observation: the deadline
            # passes while the scan is still producing batches
            calls["n"] += 1
            return calls["n"] * 0.4

        server = DBServer(database, statement_timeout=1.0, timer=timer)
        client = DBClient(server.transport(), "app", "p1")
        client.connect()
        with pytest.raises(StatementTimeout) as excinfo:
            client.query("SELECT x FROM big WHERE x >= 0")
        assert "cancelled mid-statement" in str(excinfo.value)
        # the engine stayed usable afterwards
        server.timer = lambda: 0.0
        assert client.query("SELECT count(*) FROM big") == [(6000,)]
        client.close()

    def test_fast_statement_not_cancelled(self):
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        database.execute("INSERT INTO t VALUES (1)")
        ticks = iter([0.0, 0.5])
        server = DBServer(database, statement_timeout=1.0,
                          timer=lambda: next(ticks, 0.5))
        client = DBClient(server.transport(), "app", "p1")
        client.connect()
        assert client.query("SELECT x FROM t") == [(1,)]
        client.close()


class TestReplayLogCompat:
    def test_text_entries_serialize_without_kind(self):
        from repro.monitor.dbmonitor import ReplayLog, ReplayLogEntry
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        result = database.execute("SELECT x FROM t")
        log = ReplayLog()
        log.append("SELECT x FROM t", False, result)
        entry_json = log.entries[0].to_json()
        assert "kind" not in entry_json
        restored = ReplayLogEntry.from_json(entry_json)
        assert restored.kind == "text"

    def test_prepared_entries_round_trip_kind(self):
        from repro.monitor.dbmonitor import ReplayLog, ReplayLogEntry
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        result = database.execute("SELECT x FROM t")
        log = ReplayLog()
        log.append("SELECT x FROM t", False, result, kind="prepared")
        entry_json = log.entries[0].to_json()
        assert entry_json["kind"] == "prepared"
        assert ReplayLogEntry.from_json(entry_json).kind == "prepared"


class TestAnalyzeIsNotAStatement:
    """The engine keeps no planner statistics, so ``ANALYZE`` is not a
    statement: it fails to parse, embedded and over the wire, with a
    one-line message."""

    @pytest.mark.parametrize("sql", ["ANALYZE", "ANALYZE t"])
    def test_embedded(self, server, sql):
        with pytest.raises(SQLSyntaxError) as info:
            server.database.execute(sql)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("sql", ["ANALYZE", "ANALYZE t"])
    def test_over_the_wire(self, client, sql):
        response = protocol.decode_frame(client.transport(
            protocol.encode_frame(protocol.query_frame(
                client.connection_id, sql))))
        assert response["frame"] == "error"
        assert response["error_type"] == "SQLSyntaxError"
        assert "\n" not in response["message"]
        # the connection stays usable
        assert client.query("SELECT count(*) FROM t") == [(4,)]
