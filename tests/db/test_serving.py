"""The serving layer: one text statement per frame, the result cache,
serving observability and protocol-version negotiation."""

import pytest

from repro.db import Database, DBClient, DBServer
from repro.db import protocol
from repro.errors import (
    ExecutionError,
    SQLSyntaxError,
    TransientError,
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
    """Statements travel as text, so a ``$n`` written in one is bound by
    nothing: it fails as one line, embedded and over the wire, before
    the statement has any effect."""

    def test_wrong_parameter_count_rejected(self, server):
        database = server.database
        for sql in ("SELECT x FROM t WHERE x = $1",
                    "SELECT $1 FROM t",
                    "UPDATE t SET s = $1 WHERE x = 1",
                    "INSERT INTO t VALUES ($1, 'z')"):
            with pytest.raises(ExecutionError) as info:
                database.execute(sql)
            assert str(info.value) == "parameter $1 is not bound", sql
        assert database.query("SELECT x, s FROM t WHERE x = 1") == \
            [(1, "a")]
        assert database.query("SELECT count(*) FROM t") == [(4,)]

    def test_unbound_parameter_over_the_wire(self, server, client):
        server.database.execute("CREATE INDEX ix_t_x ON t (x)")
        response = protocol.decode_frame(client.transport(
            protocol.encode_frame(protocol.query_frame(
                client.connection_id, "SELECT s FROM t WHERE x = $1"))))
        assert response["frame"] == "error"
        assert response["error_type"] == "ExecutionError"
        assert response["message"] == "parameter $1 is not bound"
        # the connection keeps serving
        assert client.query("SELECT s FROM t WHERE x = 2") == [("b",)]


class TestRemovedFrames:
    """The statement frames that once served prepared statements
    (``prepare``, ``bind-execute``, ``deallocate``) are unknown frame
    types on every protocol version."""

    FRAMES = [
        {"frame": "prepare", "name": "p1",
         "sql": "SELECT s FROM t WHERE x = $1"},
        {"frame": "bind-execute", "name": "p1", "params": [2],
         "provenance": False},
        {"frame": "deallocate", "name": "p1"},
    ]

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("frame", FRAMES,
                             ids=[frame["frame"] for frame in FRAMES])
    def test_answers_a_one_line_protocol_error(self, server, version,
                                               frame):
        transport = server.transport()
        connected = protocol.decode_frame(transport(protocol.encode_frame(
            {"frame": "connect", "client_name": "app", "process_id": "p",
             "version": version})))
        assert connected["version"] == version
        cid = connected["connection_id"]
        response = protocol.decode_frame(transport(protocol.encode_frame(
            dict(frame, connection_id=cid))))
        assert response == {
            "frame": "error", "error_type": "ProtocolError",
            "message": f"unknown frame type {frame['frame']!r}"}
        # the connection keeps serving
        result = protocol.decode_frame(transport(protocol.encode_frame(
            protocol.query_frame(cid, "SELECT s FROM t WHERE x = 2"))))
        assert result["frame"] == "result"
        assert result["rows"] == [["b"]]
        assert server.open_connections == 1


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
        # inside a transaction the cache is neither consulted nor
        # filled: the statement runs over the heap
        counters = server.result_cache.counters()
        assert client.query(sql) == [(4,)]
        assert server.result_cache.counters() == counters
        other = second_client(server)
        with pytest.raises(TransientError):
            other.execute("INSERT INTO t VALUES (99, 'late')")
        # another connection's read is refused too, cached or not
        with pytest.raises(TransientError):
            other.query(sql)
        assert client.query(sql) == [(4,)]
        client.commit()
        # a transaction that wrote nothing strands no entry
        hits = server.result_cache.hits
        assert other.query(sql) == [(4,)]
        assert server.result_cache.hits == hits + 1
        other.execute("INSERT INTO t VALUES (99, 'late')")
        other.close()
        assert client.query(sql) == [(5,)]

    def test_own_uncommitted_writes_bypass_cache(self, client):
        sql = "SELECT count(*) FROM t"
        assert client.query(sql) == [(4,)]
        client.begin()
        client.execute("INSERT INTO t VALUES (77, 'mine')")
        # read-your-own-writes: the statement runs over the heap, not
        # the cached (committed) answer
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
        assert server.result_cache.counters()["size"] == 0

    def test_explain_analyze_reports_cache_counters(self, client):
        client.query("SELECT sum(x) FROM t")
        result = client.execute("EXPLAIN ANALYZE SELECT sum(x) FROM t")
        assert "result_cache" in result.stats["server"]
        assert set(result.stats["server"]["result_cache"]) >= {
            "hits", "misses", "invalidations"}


class TestServingStats:
    def test_counters_accumulate(self, server, client):
        client.query("SELECT x FROM t")
        client.query("SELECT x FROM t WHERE x = 1")
        stats = client.server_stats()
        assert stats["server"]["frames_served"] >= 4
        assert stats["server"]["bytes_in"] > 0
        assert stats["server"]["bytes_out"] > 0
        assert stats["connection"]["protocol_version"] == 3

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
        assert client.protocol_version == 3

    def test_v1_connect_frame_negotiates_v1(self, server):
        transport = server.transport()
        response = protocol.decode_frame(transport(protocol.encode_frame(
            {"frame": "connect", "client_name": "old", "process_id": "p"})))
        assert response["frame"] == "connected"
        assert response["version"] == 1

    def test_v2_connect_frame_negotiates_v2(self, server):
        connected = server.handle(_connect(2))
        assert connected["version"] == 2

    def test_v1_connection_cannot_use_v2_frames(self, server):
        transport = server.transport()
        connected = protocol.decode_frame(transport(protocol.encode_frame(
            {"frame": "connect", "client_name": "old", "process_id": "p"})))
        connection_id = connected["connection_id"]
        response = protocol.decode_frame(transport(protocol.encode_frame(
            protocol.stats_frame(connection_id))))
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


def _connect(version):
    return {"frame": "connect", "client_name": "old", "process_id": "p",
            "version": version}


def _wire(server, frame):
    return server.handle_wire(protocol.encode_frame(frame))


JOIN = "SELECT t.x, u.y FROM t, u WHERE t.x >= 3 AND u.y = 20"

# a version-2 connection's answer to a provenance SELECT, as version-2
# servers sent it
JOIN_V2_TEXT = (
    '{"frame":"result","kind":"select","columns":["x","y"],'
    '"types":["integer","integer"],"rows":[[3,20],[4,20]],'
    '"lineages":[[["t",3,1],["u",2,2]],[["t",4,1],["u",2,2]]],'
    '"rowcount":2,"written":[],"written_lineage":[],"deleted":[],'
    '"source_tables":["t","u"],"stats":{},"txn":"idle"}')


class TestProtocolV3:
    """Version 3: lineage as a per-frame ref dictionary, lineage-only
    answers, and a result cache of encoded frames per wire form."""

    def query(self, server, version, sql=JOIN, **fields):
        cid = server.handle(_connect(version))["connection_id"]
        frame = {**protocol.query_frame(cid, sql, True), **fields}
        return cid, _wire(server, frame)

    def test_v2_provenance_result_keeps_its_bytes(self, server):
        _, text = self.query(server, 2)
        assert text == JOIN_V2_TEXT
        _, hit = self.query(server, 2)
        assert hit == JOIN_V2_TEXT

    def test_v3_result_lists_each_ref_once(self, server):
        _, text = self.query(server, 3)
        frame = protocol.decode_frame(text)
        assert frame["refs"] == {"tables": ["t", "u"], "table": [0, 1, 0],
                                 "rowid": [3, 2, 4], "version": [1, 2, 1]}
        assert frame["lineages"] == [[0, 1], [2, 1]]
        v3 = protocol.result_from_wire(frame)
        v2 = protocol.result_from_wire(protocol.decode_frame(JOIN_V2_TEXT))
        assert v3.rows == v2.rows and v3.lineages == v2.lineages
        assert [list(lineage) for lineage in v3.lineages] == \
            [list(lineage) for lineage in v2.lineages]
        # one TupleRef per distinct ref: both rows hold the same u ref
        (first,), (second,) = ([ref for ref in lineage if ref.table == "u"]
                               for lineage in v3.lineages)
        assert first is second

    def test_plain_v3_result_omits_refs(self, server):
        cid = server.handle(_connect(3))["connection_id"]
        frame = protocol.decode_frame(_wire(
            server, protocol.query_frame(cid, JOIN)))
        assert "refs" not in frame
        assert frame["lineages"] == [[], []]

    def test_lineage_only_answer(self, server, client):
        _, text = self.query(server, 3, rows=False)
        frame = protocol.decode_frame(text)
        assert frame["rows"] == [] and frame["rowcount"] == 2
        assert frame["lineages"] == [[0, 1], [2, 1]]
        result = client.execute(JOIN, provenance=True, rows=False)
        full = client.execute(JOIN, provenance=True)
        assert result.rows == [] and result.rowcount == 2
        assert result.lineages == full.lineages
        assert full.rows == [(3, 20), (4, 20)]

    def test_lineage_only_on_an_older_server_answers_rows(self, server):
        old = DBClient(server.transport(), "app", "p")
        old.connect()
        old.protocol_version = 2  # as a version-2 server would answer
        result = old.execute(JOIN, provenance=True, rows=False)
        assert result.rows == [(3, 20), (4, 20)]
        assert len(result.lineages) == 2

    def test_each_wire_form_has_its_own_cache_entry(self, server):
        texts = {}
        for version, rows in ((2, None), (3, None), (3, False)):
            fields = {} if rows is None else {"rows": rows}
            _, miss = self.query(server, version, **fields)
            hits = server.result_cache.hits
            _, hit = self.query(server, version, **fields)
            assert server.result_cache.hits == hits + 1
            assert hit == miss
            texts[version, rows] = miss
        assert len(set(texts.values())) == 3
        assert server.result_cache.counters()["size"] == 3
        assert texts[2, None] == JOIN_V2_TEXT

    def test_hit_bytes_equal_miss_bytes_inside_a_transaction(self, server):
        """Inside a transaction the cache is bypassed; the frame it
        computes is the stored frame's bytes, stamped ``open``."""
        cid, stored = self.query(server, 3)
        assert stored.endswith(',"txn":"idle"}')
        _wire(server, protocol.query_frame(cid, "BEGIN"))
        counters = server.result_cache.counters()
        miss = _wire(server, protocol.query_frame(cid, JOIN, True))
        assert server.result_cache.counters() == counters
        assert miss == stored[:-len('"idle"}')] + '"open"}'
        server.result_cache.clear()
        again = _wire(server, protocol.query_frame(cid, JOIN, True))
        assert again == miss
        # a result computed inside a transaction is not stored
        assert server.result_cache.counters()["size"] == 0
        # and the text is what encoding the stamped frame gives
        assert miss == protocol.encode_frame(protocol.decode_frame(miss))

    def test_handle_returns_a_frame_dict(self, server):
        cid = server.handle(_connect(3))["connection_id"]
        for _ in range(2):  # a miss, then a hit
            frame = server.handle(protocol.query_frame(cid, JOIN, True))
            assert frame["frame"] == "result" and frame["txn"] == "idle"
            assert frame["rows"] == [[3, 20], [4, 20]]


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
        assert restored.to_json() == entry_json

    @pytest.mark.parametrize("kind", ["prepared", "stream"])
    def test_legacy_kind_entries_read_back(self, kind):
        """Older clients tagged the wire path an entry took; the entry
        still holds its statement text, so it reads back as text."""
        from repro.monitor.dbmonitor import ReplayLog, ReplayLogEntry
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        result = database.execute("SELECT x FROM t")
        log = ReplayLog()
        log.append("SELECT x FROM t", False, result)
        entry_json = log.entries[0].to_json()
        restored = ReplayLogEntry.from_json(dict(entry_json, kind=kind))
        assert restored.sql == "SELECT x FROM t"
        assert restored.to_json() == entry_json


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
