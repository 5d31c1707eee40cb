"""DB-monitor tests: provenance retrieval, versioning, relevant-tuple
collection, replay-log recording."""

import pytest

from repro.db import Database, DBServer, csvio
from repro.db.provtypes import TupleRef
from repro.db.sql import ast
from repro.db.sql.parser import parse_sql
from repro.db.sql.render import render_select
from repro.errors import AuditError
from repro.monitor import AuditSession
from repro.monitor.dbmonitor import (
    MODE_PROVENANCE,
    DBMonitor,
    RelevantTupleStore,
    ReplayLog,
    _MonitorInterceptor,
)
from repro.provenance.combined import TraceBuilder
from repro.vos import VirtualOS


@pytest.fixture
def world():
    vos = VirtualOS()
    database = Database(clock=vos.clock)
    database.execute("CREATE TABLE t (id integer, v integer)")
    database.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    vos.register_db_server("main", DBServer(database).transport())
    return vos, database


def run_client_app(vos, statements):
    results = []
    def app(ctx):
        client = ctx.connect_db("main")
        for sql in statements:
            results.append(client.execute(sql))
        client.close()
    vos.register_program("/bin/app", app)
    vos.run("/bin/app")
    return results


class TestProvenanceMode:
    def test_query_creates_statement_node_with_run_edge(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["SELECT id FROM t WHERE v > 15"])
        trace = s.trace
        (query,) = trace.activities("query")
        runs = [e for e in trace.edges() if e.target == query.node_id
                and e.label == "run"]
        assert len(runs) == 1

    def test_query_lineage_edges(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["SELECT id FROM t WHERE v > 15"])
        trace = s.trace
        read_tuples = {e.source for e in trace.edges("hasRead")}
        assert read_tuples == {"tuple:t:2:v1", "tuple:t:3:v1"}
        returned = trace.edges("hasReturned")
        assert len(returned) == 2  # two result tuples
        lineages = sorted(tuple(e.attrs["lineage"]) for e in returned)
        assert lineages == [("tuple:t:2:v1",), ("tuple:t:3:v1",)]

    def test_result_tuples_flow_to_process(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["SELECT id FROM t WHERE v > 25"])
        consumed = s.trace.edges("readFromDB")
        assert len(consumed) == 1
        assert consumed[0].source.startswith("tuple:_result_q1")

    def test_relevant_tuples_collected_with_values(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["SELECT id FROM t WHERE v > 15"])
        store = s.relevant_tuples
        assert store.tables() == ["t"]
        rows = store.rows_for("t")
        assert [(rowid, values) for rowid, _v, values in rows] == [
            (2, (2, 20)), (3, (3, 30))]

    def test_app_created_tuples_excluded(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, [
                "INSERT INTO t VALUES (4, 99)",
                "SELECT id FROM t WHERE v > 50",
            ])
        assert s.relevant_tuples.tuple_count == 0  # only row 4 matched
        assert TupleRef("t", 4, 10) not in s.relevant_tuples.refs()

    def test_update_reenactment_captures_pre_state(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["UPDATE t SET v = 0 WHERE v > 15"])
        rows = s.relevant_tuples.rows_for("t")
        # pre-state values captured before the update destroyed them
        assert sorted(values[1] for _r, _v, values in rows) == [20, 30]

    def test_update_trace_links_versions(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["UPDATE t SET v = 0 WHERE id = 1"])
        (update,) = s.trace.activities("update")
        returned = [e for e in s.trace.edges()
                    if e.source == update.node_id
                    and e.label == "hasReturned_update"]
        assert len(returned) == 1
        (lineage_entry,) = returned[0].attrs["lineage"]
        assert lineage_entry.startswith("tuple:t:1:")

    def test_delete_pre_state_captured(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["DELETE FROM t WHERE id = 2"])
        rows = s.relevant_tuples.rows_for("t")
        assert [(values) for _r, _v, values in rows] == [(2, 20)]
        assert database.query("SELECT count(*) FROM t") == [(2,)]

    def test_insert_needs_no_provenance_query(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["INSERT INTO t VALUES (9, 90)"])
        assert s.db_monitor.provenance_queries_run == 0

    def test_select_runs_one_provenance_query(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["SELECT * FROM t"] * 3)
        assert s.db_monitor.provenance_queries_run == 3

    def test_versioning_enabled_on_first_access(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["SELECT * FROM t"])
        assert s.db_monitor.versions.is_enabled("t")

    def test_mark_used_stamps_recorded(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["SELECT id FROM t WHERE id = 1"])
        stamped = s.db_monitor.versions.all_used_refs()
        assert TupleRef("t", 1, 1) in stamped

    def test_insert_select_lineage(self, world):
        vos, database = world
        database.execute("CREATE TABLE archive (id integer, v integer)")
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, [
                "INSERT INTO archive SELECT id, v FROM t WHERE v > 25"])
        # the read source tuple is relevant; the archived copy is not
        refs = s.relevant_tuples.refs()
        assert refs == {TupleRef("t", 3, 1)}

    def test_dedup_across_queries(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database) as s:
            run_client_app(vos, ["SELECT * FROM t", "SELECT * FROM t"])
        assert s.relevant_tuples.tuple_count == 3  # not 6


class TestReenactmentThroughTheIndex:
    """With an index on the WHERE column, the statement and its
    reenactment SELECT both go through the index; the pre-state refs
    the monitor records must be exactly the statement's old refs."""

    STATEMENTS = [
        "UPDATE t SET v = v + 1 WHERE id BETWEEN 3 AND 6",
        "UPDATE t SET v = 0 WHERE id IN (2, 9, NULL) AND v > 25",
        "DELETE FROM t WHERE id BETWEEN 4 AND 5 OR id = 8",
        "DELETE FROM t WHERE id = 7",
    ]

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_reenactment_refs_equal_the_old_refs(self, world, sql):
        vos, database = world
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({k}, {k * 10})" for k in range(4, 11)))
        database.execute("CREATE INDEX t_id ON t (id)")
        statement = parse_sql(sql)[0]
        reenactment = render_select(
            _MonitorInterceptor._reenactment_query(statement))
        if " OR " not in sql:
            assert "IndexScan on t using t_id" in "\n".join(
                row[0] for row in
                database.execute("EXPLAIN " + reenactment).rows)
        with AuditSession(vos, "server-included", database=database) as s:
            (result,) = run_client_app(vos, [sql])
        if isinstance(statement, ast.Update):
            old_refs = {ref for deps in result.written_lineage.values()
                        for ref in deps}
        else:
            old_refs = set(result.deleted)
        assert old_refs and result.rowcount == len(old_refs)
        assert s.relevant_tuples.refs() == old_refs


class TestRecordMode:
    def test_log_records_statements_in_order(self, world):
        vos, database = world
        statements = ["SELECT id FROM t WHERE v > 15",
                      "INSERT INTO t VALUES (4, 40)",
                      "SELECT count(*) FROM t"]
        with AuditSession(vos, "server-excluded", database=database) as s:
            run_client_app(vos, statements)
        log = s.replay_log
        assert [entry.sql for entry in log.entries] == statements
        assert log.entries[0].result_frame["rows"] == [[2], [3]]
        assert log.entries[2].result_frame["rows"] == [[4]]

    def test_no_provenance_queries_in_record_mode(self, world):
        vos, database = world
        with AuditSession(vos, "server-excluded", database=database) as s:
            run_client_app(vos, ["SELECT * FROM t"])
        assert s.db_monitor.provenance_queries_run == 0
        assert s.relevant_tuples.tuple_count == 0

    def test_log_jsonl_round_trip(self, world):
        vos, database = world
        with AuditSession(vos, "server-excluded", database=database) as s:
            run_client_app(vos, ["SELECT * FROM t"])
        text = s.replay_log.to_jsonl()
        restored = ReplayLog.from_jsonl(text)
        assert len(restored) == 1
        assert restored.entries[0].sql == "SELECT * FROM t"
        assert restored.entries[0].result_frame == \
            s.replay_log.entries[0].result_frame

    def test_statement_nodes_still_traced(self, world):
        vos, database = world
        with AuditSession(vos, "server-excluded", database=database) as s:
            run_client_app(vos, ["SELECT * FROM t"])
        assert len(s.trace.activities("query")) == 1


class TestSessionModes:
    def test_os_only_has_no_db_monitor(self, world):
        vos, database = world
        with AuditSession(vos, "os-only") as s:
            run_client_app(vos, ["SELECT * FROM t"])
        assert s.db_monitor is None
        assert s.relevant_tuples.tuple_count == 0
        assert len(s.replay_log) == 0
        # OS half still captured
        assert len(s.trace.activities("process")) == 1

    def test_server_included_requires_database(self, world):
        vos, _database = world
        with pytest.raises(AuditError):
            AuditSession(vos, "server-included")

    def test_unknown_mode_rejected(self, world):
        vos, database = world
        with pytest.raises(AuditError):
            AuditSession(vos, "bogus", database=database)

    def test_nested_sessions_rejected(self, world):
        vos, database = world
        session = AuditSession(vos, "server-included", database=database)
        with session:
            with pytest.raises(AuditError):
                session.__enter__()

    def test_detach_restores_clean_state(self, world):
        vos, database = world
        with AuditSession(vos, "server-included", database=database):
            pass
        assert vos.client_decorators == []
        assert vos.tracers == []

    def test_monitor_constructor_validation(self, world):
        _vos, _database = world
        with pytest.raises(AuditError):
            DBMonitor(TraceBuilder(), "provenance", None)
        with pytest.raises(AuditError):
            DBMonitor(TraceBuilder(), "bogus", None)


class TestRecordRelevant:
    """Refs already stored, created by the app, or synthetic query
    results are skipped before any value is read from the server."""

    @pytest.fixture
    def monitor(self, world, monkeypatch):
        _vos, database = world
        monitor = DBMonitor(TraceBuilder(), MODE_PROVENANCE, database)
        reads = []
        current_values = monitor._current_values
        monkeypatch.setattr(monitor, "_current_values",
                            lambda ref: (reads.append(ref),
                                         current_values(ref))[1])
        monitor.reads = reads
        return monitor

    @staticmethod
    def stored(monitor, database):
        schema = database.catalog.get_table("t").schema
        rows = monitor.relevant.rows_for("t")
        return rows, csvio.format_versioned_rows(rows, schema)

    def test_values_are_read_once_per_new_version(self, world, monitor):
        _vos, database = world
        result = database.execute("SELECT * FROM t", provenance=True)
        refs = [ref for lineage in result.lineages for ref in lineage]
        assert monitor.record_relevant(refs) == 3
        assert sorted(monitor.reads) == sorted(refs)
        first = self.stored(monitor, database)
        assert first[0] == [(ref.rowid, ref.version, row)
                            for ref, row in sorted(zip(refs, result.rows))]
        assert monitor.record_relevant(refs + refs) == 0
        assert len(monitor.reads) == 3
        assert self.stored(monitor, database) == first

    def test_created_and_result_refs_are_never_read(self, world, monitor):
        _vos, database = world
        result = database.execute("SELECT * FROM t WHERE id = 1",
                                  provenance=True)
        (ref,) = result.lineages[0]
        monitor.created_refs.add(ref)
        synthetic = TupleRef("_result_q1", 1, 9)
        assert monitor.record_relevant([ref, synthetic]) == 0
        assert monitor.reads == []
        assert monitor.relevant.tuple_count == 0

    def test_given_rows_are_stored_without_reads(self, world, monitor):
        ref = TupleRef("t", 1, 1)
        assert monitor.record_relevant([ref, ref], [(1, 10), (1, 99)]) == 1
        assert monitor.reads == []
        assert monitor.relevant.rows_for("t") == [(1, 1, (1, 10))]


class TestRelevantTupleStore:
    def test_membership(self):
        store = RelevantTupleStore()
        store.add(TupleRef("t", 1, 1), (1,))
        assert TupleRef("t", 1, 1) in store
        assert TupleRef("t", 1, 2) not in store
        assert TupleRef("u", 1, 1) not in store

    def test_add_dedups(self):
        store = RelevantTupleStore()
        ref = TupleRef("t", 1, 1)
        assert store.add(ref, (1, 2)) is True
        assert store.add(ref, (1, 2)) is False
        assert store.tuple_count == 1

    def test_versions_are_distinct_entries(self):
        store = RelevantTupleStore()
        store.add(TupleRef("t", 1, 1), (1, 2))
        store.add(TupleRef("t", 1, 5), (1, 9))
        assert store.tuple_count == 2

    def test_rows_sorted_by_rowid(self):
        store = RelevantTupleStore()
        store.add(TupleRef("t", 5, 1), (5,))
        store.add(TupleRef("t", 2, 1), (2,))
        assert [rowid for rowid, _v, _r in store.rows_for("t")] == [2, 5]
