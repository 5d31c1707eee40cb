"""Audit → package → replay round trips, relevance validation,
partial re-execution, and failure injection."""

import json

import pytest

from repro.core import ldv_audit, ldv_exec, relevant_tuple_versions
from repro.core.package import Package, PackageKind
from repro.core.replay import ReplaySession, normalize_sql
from repro.db.provtypes import TupleRef
from repro.errors import (
    AuditError,
    PackageError,
    ReplayError,
    ReplayMismatchError,
)
from repro.monitor import AuditSession

from tests.core.conftest import SERVER_BINARIES, sales_app


def audit_included(world, out_dir, argv=None):
    return ldv_audit(world.vos, "/bin/app", out_dir,
                     mode="server-included", argv=argv,
                     database=world.database, server_name="main",
                     server_binary_paths=SERVER_BINARIES)


def audit_excluded(world, out_dir):
    return ldv_audit(world.vos, "/bin/app", out_dir,
                     mode="server-excluded", database=world.database,
                     server_name="main")


class TestServerIncludedRoundTrip:
    def test_replay_reproduces_outputs(self, world, tmp_path):
        report = audit_included(world, tmp_path / "pkg")
        original = world.vos.fs.read_file("/data/report.txt")
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.outputs["/data/report.txt"] == original
        assert result.process.exit_code == 0

    def test_package_contents_match_table3(self, world, tmp_path):
        audit_included(world, tmp_path / "pkg")
        summary = Package.load(tmp_path / "pkg").contents_summary()
        assert summary == {
            "software_binaries": True,
            "db_server": True,
            "full_data_files": False,
            "empty_data_dir": True,
            "db_provenance": True,
        }

    def test_only_relevant_tuples_shipped(self, world, tmp_path):
        report = audit_included(world, tmp_path / "pkg")
        # count(*) reads all 4 pre-existing rows; all are relevant;
        # the app-inserted row 100 and updated version are not
        assert report.packaging.tuple_count == 4
        package = Package.load(tmp_path / "pkg")
        restore = package.read_text("db/restore/sales.csv")
        assert "new" not in restore  # app-created tuple excluded

    def test_streaming_relevance_matches_trace_relevance(
            self, world, tmp_path):
        report = audit_included(world, tmp_path / "pkg")
        streamed = report.session.relevant_tuples.refs()
        declarative = relevant_tuple_versions(report.session.trace)
        assert streamed == declarative

    def test_replay_restores_original_rowids_and_versions(
            self, world, tmp_path):
        audit_included(world, tmp_path / "pkg")
        session = ReplaySession(tmp_path / "pkg", world.registry)
        session.prepare()
        heap = session.database.catalog.get_table("sales")
        assert set(heap.rows) == {1, 2, 3, 4}
        assert heap.get(2) == (2, 11.0, "west")  # pre-update version

    def test_replay_does_not_touch_source_database(self, world, tmp_path):
        audit_included(world, tmp_path / "pkg")
        before = world.database.query("SELECT count(*) FROM sales")
        ldv_exec(tmp_path / "pkg", world.registry)
        assert world.database.query(
            "SELECT count(*) FROM sales") == before

    def test_replay_twice_from_same_package(self, world, tmp_path):
        audit_included(world, tmp_path / "pkg")
        first = ldv_exec(tmp_path / "pkg", world.registry)
        second = ldv_exec(tmp_path / "pkg", world.registry)
        assert first.outputs == second.outputs

    def test_schema_sql_recreates_constraints(self, world, tmp_path):
        audit_included(world, tmp_path / "pkg")
        schema = Package.load(tmp_path / "pkg").read_text("db/schema.sql")
        assert "PRIMARY KEY" in schema
        assert "sales" in schema

    def test_trace_shipped_and_loadable(self, world, tmp_path):
        audit_included(world, tmp_path / "pkg")
        from repro.provenance import COMBINED_MODEL
        trace = Package.load(tmp_path / "pkg").read_trace(COMBINED_MODEL)
        assert trace.activities("process")
        assert trace.activities("query")


class TestServerExcludedRoundTrip:
    def test_replay_reproduces_outputs(self, memory_world, tmp_path):
        world = memory_world
        audit_excluded(world, tmp_path / "pkg")
        original = world.vos.fs.read_file("/data/report.txt")
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.outputs["/data/report.txt"] == original
        assert result.replayed_statements == 4

    def test_no_server_in_package(self, memory_world, tmp_path):
        audit_excluded(memory_world, tmp_path / "pkg")
        summary = Package.load(tmp_path / "pkg").contents_summary()
        assert summary["db_server"] is False
        assert summary["full_data_files"] is False
        assert summary["db_provenance"] is True

    def test_writes_are_not_executed_anywhere(self, memory_world,
                                              tmp_path):
        world = memory_world
        audit_excluded(world, tmp_path / "pkg")
        before = world.database.query("SELECT count(*) FROM sales")
        ldv_exec(tmp_path / "pkg", world.registry)
        # replay never contacts the original server
        assert world.database.query(
            "SELECT count(*) FROM sales") == before

    def test_mismatched_statement_fails(self, memory_world, tmp_path):
        world = memory_world
        audit_excluded(world, tmp_path / "pkg")

        def deviant(ctx):
            client = ctx.connect_db("main")
            client.execute("SELECT max(price) FROM sales")  # not recorded
            client.close()

        with pytest.raises(ReplayMismatchError):
            ldv_exec(tmp_path / "pkg", {"/bin/app": deviant})

    def test_out_of_order_statements_fail(self, memory_world, tmp_path):
        world = memory_world
        audit_excluded(world, tmp_path / "pkg")

        def reordered(ctx):
            client = ctx.connect_db("main")
            # the recorded run INSERTs first; querying first must fail
            client.execute("SELECT count(*) FROM sales")
            client.close()

        with pytest.raises(ReplayMismatchError):
            ldv_exec(tmp_path / "pkg", {"/bin/app": reordered})

    def test_whitespace_differences_tolerated(self, memory_world,
                                              tmp_path):
        world = memory_world
        audit_excluded(world, tmp_path / "pkg")

        def respaced(ctx):
            client = ctx.connect_db("main")
            client.execute(
                "INSERT INTO sales  VALUES (100, 50.0, 'new') ;")
            client.close()

        result = ldv_exec(tmp_path / "pkg", {"/bin/app": respaced})
        assert result.replayed_statements == 1

    def test_log_exhaustion_fails(self, memory_world, tmp_path):
        world = memory_world
        audit_excluded(world, tmp_path / "pkg")

        def greedy(ctx):
            client = ctx.connect_db("main")
            client.execute("INSERT INTO sales VALUES (100, 50.0, 'new')")
            client.execute(
                "SELECT sum(price) FROM sales WHERE price > 10")
            client.execute("UPDATE sales SET region = 'x' WHERE id = 2")
            client.execute("SELECT count(*) FROM sales")
            client.execute("SELECT count(*) FROM sales")  # one too many
            client.close()

        with pytest.raises(ReplayMismatchError):
            ldv_exec(tmp_path / "pkg", {"/bin/app": greedy},
                     allow_skip=True)


class TestPartialReExecution:
    @pytest.fixture
    def two_step_world(self, memory_world):
        world = memory_world

        def step_one(ctx):
            client = ctx.connect_db("main")
            client.execute("INSERT INTO sales VALUES (100, 50.0, 'new')")
            client.close()

        def step_two(ctx):
            client = ctx.connect_db("main")
            rows = client.execute(
                "SELECT count(*) FROM sales WHERE price > 10").rows
            ctx.write_file("/data/count.txt", str(rows[0][0]))
            client.close()

        def pipeline(ctx):
            ctx.spawn("/bin/step1")
            ctx.spawn("/bin/step2")

        world.vos.register_program("/bin/step1", step_one)
        world.vos.register_program("/bin/step2", step_two)
        world.vos.register_program("/bin/pipeline", pipeline)
        world.registry = {"/bin/step1": step_one,
                          "/bin/step2": step_two,
                          "/bin/pipeline": pipeline}
        return world

    def test_partial_replay_server_excluded(self, two_step_world,
                                            tmp_path):
        world = two_step_world
        ldv_audit(world.vos, "/bin/pipeline", tmp_path / "pkg",
                  mode="server-excluded", database=world.database,
                  server_name="main")
        original = world.vos.fs.read_file("/data/count.txt")
        # re-execute only P2: requires skipping P1's recorded insert
        result = ldv_exec(tmp_path / "pkg", world.registry,
                          binary="/bin/step2", allow_skip=True)
        assert result.outputs["/data/count.txt"] == original

    def test_partial_replay_server_included(self, two_step_world,
                                            tmp_path):
        world = two_step_world
        ldv_audit(world.vos, "/bin/pipeline", tmp_path / "pkg",
                  mode="server-included", database=world.database,
                  server_name="main",
                  server_binary_paths=SERVER_BINARIES)
        result = ldv_exec(tmp_path / "pkg", world.registry,
                          binary="/bin/step2")
        # without P1's insert the count drops by one relative to the
        # full pipeline — partial execution runs, on restored state
        assert result.process.exit_code == 0
        assert "/data/count.txt" in result.outputs


class TestFailureInjection:
    def test_missing_entry_binary(self, memory_world, tmp_path):
        world = memory_world
        audit_excluded(world, tmp_path / "pkg")
        binary = tmp_path / "pkg" / "files" / "bin" / "app"
        binary.unlink()
        with pytest.raises(PackageError):
            ldv_exec(tmp_path / "pkg", world.registry)

    def test_registry_missing_program(self, memory_world, tmp_path):
        audit_excluded(memory_world, tmp_path / "pkg")
        with pytest.raises(PackageError):
            ldv_exec(tmp_path / "pkg", {})

    def test_truncated_replay_log(self, memory_world, tmp_path):
        world = memory_world
        audit_excluded(world, tmp_path / "pkg")
        log_path = tmp_path / "pkg" / "replay" / "log.jsonl"
        lines = log_path.read_text().splitlines()
        log_path.write_text("\n".join(lines[:2]) + "\n")
        with pytest.raises(ReplayMismatchError):
            ldv_exec(tmp_path / "pkg", world.registry)

    def test_missing_restore_csv_fails_prepare(self, world, tmp_path):
        # replayed over an empty table the run would write 50.0|1, and
        # only the output digest check would notice afterwards
        audit_included(world, tmp_path / "pkg")
        (tmp_path / "pkg" / "db" / "restore" / "sales.csv").unlink()
        session = ReplaySession(tmp_path / "pkg", world.registry)
        with pytest.raises(PackageError,
                           match="hold 0 tuple versions.* records 4"):
            session.prepare()

    def test_short_restore_csv_fails_prepare(self, world, tmp_path):
        # half the relevant tuples would replay as 61.0|3
        audit_included(world, tmp_path / "pkg")
        csv_path = tmp_path / "pkg" / "db" / "restore" / "sales.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:len(lines) // 2]))
        session = ReplaySession(tmp_path / "pkg", world.registry)
        with pytest.raises(PackageError,
                           match="hold 2 tuple versions.* records 4"):
            session.prepare()

    def test_full_restore_csvs_restore_the_relevant_count(self, world,
                                                          tmp_path):
        report = audit_included(world, tmp_path / "pkg")
        session = ReplaySession(tmp_path / "pkg", world.registry)
        session.prepare()
        assert session.restored_tuples == \
            report.session.relevant_tuples.tuple_count == 4

    def test_run_before_prepare_raises(self, world, tmp_path):
        audit_included(world, tmp_path / "pkg")
        session = ReplaySession(tmp_path / "pkg", world.registry)
        with pytest.raises(ReplayError):
            session.run()

    def test_double_prepare_raises(self, world, tmp_path):
        audit_included(world, tmp_path / "pkg")
        session = ReplaySession(tmp_path / "pkg", world.registry)
        session.prepare()
        with pytest.raises(ReplayError):
            session.prepare()

    def test_audit_mode_validation(self, memory_world, tmp_path):
        with pytest.raises(AuditError):
            ldv_audit(memory_world.vos, "/bin/app", tmp_path / "p",
                      mode="os-only")


class TestNormalizeSql:
    def test_collapses_whitespace(self):
        assert normalize_sql("SELECT  1\n FROM   t ;") == \
            "SELECT 1 FROM t"

    def test_case_preserved(self):
        assert normalize_sql("select A") == "select A"


def serving_app(ctx):
    """Reads, writes and reads again, one text statement per frame."""
    client = ctx.connect_db("main")
    west = client.query("SELECT price FROM sales WHERE id = 2")
    client.execute("INSERT INTO sales VALUES (101, 7.5, 'south')")
    total = client.query("SELECT sum(price) FROM sales WHERE price > 5")
    ids = client.query("SELECT id FROM sales")
    ctx.write_file(
        "/data/serving.txt",
        f"{west[0][0]}|{total[0][0]}|{len(ids)}\n")
    client.close()
    return 0


class TestServingPathsReplay:
    """Text traffic records under its SQL and replays byte-identically
    server-excluded, also from logs that older clients tagged with the
    wire path each statement took."""

    @pytest.fixture
    def serving_world(self, memory_world):
        world = memory_world
        world.vos.register_program("/bin/app", serving_app)
        world.registry = {"/bin/app": serving_app}
        return world

    def test_outputs_reproduced_without_server(self, serving_world,
                                               tmp_path):
        world = serving_world
        audit_excluded(world, tmp_path / "pkg")
        original = world.vos.fs.read_file("/data/serving.txt")
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.outputs["/data/serving.txt"] == original
        # 4 statements: select, insert, select, select
        assert result.replayed_statements == 4
        # logs recorded while the client could prepare statements, or
        # stream results, mark those entries "kind": "prepared" or
        # "stream" (and hold their bound text); the kind is metadata
        # only, so such a log replays like any other
        log_path = tmp_path / "pkg" / "replay" / "log.jsonl"
        entries = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        entries[0]["kind"] = "prepared"
        entries[2]["kind"] = "prepared"
        entries[-1]["kind"] = "stream"
        log_path.write_text("".join(json.dumps(entry) + "\n"
                                    for entry in entries))
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.outputs["/data/serving.txt"] == original
        assert result.replayed_statements == 4

    def test_source_database_untouched_by_replay(self, serving_world,
                                                 tmp_path):
        world = serving_world
        audit_excluded(world, tmp_path / "pkg")
        before = world.database.query("SELECT count(*) FROM sales")
        ldv_exec(tmp_path / "pkg", world.registry)
        assert world.database.query(
            "SELECT count(*) FROM sales") == before

    def test_log_records_text_without_kind(self, serving_world,
                                           tmp_path):
        world = serving_world
        audit_excluded(world, tmp_path / "pkg")
        log_path = tmp_path / "pkg" / "replay" / "log.jsonl"
        entries = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        assert [entry["sql"] for entry in entries] == [
            "SELECT price FROM sales WHERE id = 2",
            "INSERT INTO sales VALUES (101, 7.5, 'south')",
            "SELECT sum(price) FROM sales WHERE price > 5",
            "SELECT id FROM sales"]
        assert not any("kind" in entry for entry in entries)

    def test_server_included_replay_of_serving_app(self, tmp_path):
        from tests.core.conftest import World
        world = World(data_dir=tmp_path / "pgdata")
        world.vos.register_program("/bin/app", serving_app)
        world.registry = {"/bin/app": serving_app}
        audit_included(world, tmp_path / "pkg")
        original = world.vos.fs.read_file("/data/serving.txt")
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.outputs["/data/serving.txt"] == original


def archiving_app(ctx):
    """Archives a join's sums with INSERT ... SELECT, then reports the
    archive."""
    client = ctx.connect_db("main")
    client.execute("INSERT INTO archive SELECT s.price + b.bonus "
                   "FROM sales s, bonus b WHERE s.id = b.id")
    rows = client.query("SELECT v FROM archive ORDER BY v")
    ctx.write_file("/data/archive.txt",
                   "".join(f"{value}\n" for (value,) in rows))
    client.close()
    return 0


class TestInsertSelectReplay:
    """INSERT ... SELECT reads source tuples whose values differ from
    the rows it inserts; the server-included package ships the source
    values, so the replayed archive matches the audited one."""

    def test_replay_reproduces_the_archive(self, world, tmp_path):
        world.database.execute("CREATE TABLE bonus (id integer, "
                               "bonus float)")
        world.database.execute("INSERT INTO bonus VALUES (2, 0.5), "
                               "(3, 1.5)")
        world.database.execute("CREATE TABLE archive (v float)")
        world.vos.register_program("/bin/app", archiving_app)
        world.registry = {"/bin/app": archiving_app}
        audit_included(world, tmp_path / "pkg")
        original = world.vos.fs.read_file("/data/archive.txt")
        assert original == b"11.5\n15.5\n"
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.outputs["/data/archive.txt"] == original
        assert result.validated
