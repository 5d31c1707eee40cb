"""Output validation (digest checks) and package archiving tests."""

import json

import pytest

from repro.core import ldv_audit, ldv_exec
from repro.core.cli import audit_main, exec_main
from repro.core.package import Package
from repro.core.replay import ReplaySession
from repro.db import Database, protocol
from repro.errors import PackageError, ProtocolError
from repro.monitor.dbmonitor import ReplayLog

from tests.core.conftest import SERVER_BINARIES


class TestOutputValidation:
    def test_digests_recorded_at_audit(self, memory_world, tmp_path):
        world = memory_world
        ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=world.database,
                  server_name="main")
        manifest = Package.load(tmp_path / "pkg").manifest
        digests = manifest.notes["output_digests"]
        assert "/data/report.txt" in digests
        assert len(digests["/data/report.txt"]) == 64  # sha256 hex

    def test_faithful_replay_validates(self, memory_world, tmp_path):
        world = memory_world
        ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=world.database,
                  server_name="main")
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.output_matches["/data/report.txt"] is True
        assert result.validated

    def test_tampered_replay_log_fails_validation(self, memory_world,
                                                  tmp_path):
        world = memory_world
        ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=world.database,
                  server_name="main")
        # tamper: swap a recorded result value in the log
        log_path = tmp_path / "pkg" / "replay" / "log.jsonl"
        log_path.write_text(
            log_path.read_text().replace("[[75.0]]", "[[999.0]]"))
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.output_matches["/data/report.txt"] is False
        assert not result.validated

    def test_tampered_restore_csv_fails_validation(self, world,
                                                   tmp_path):
        ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
                  mode="server-included", database=world.database,
                  server_name="main",
                  server_binary_paths=SERVER_BINARIES)
        csv_path = tmp_path / "pkg" / "db" / "restore" / "sales.csv"
        csv_path.write_text(csv_path.read_text().replace("11.0", "999.0"))
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert not result.validated

    def test_validated_true_without_digests(self, memory_world,
                                            tmp_path):
        """Old packages (or baselines without digests) validate
        vacuously."""
        world = memory_world
        ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=world.database,
                  server_name="main")
        package = Package.load(tmp_path / "pkg")
        package.manifest.notes.pop("output_digests")
        package.write_manifest()
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.validated
        assert result.output_matches == {}

    def test_cli_reports_validation_failure(self, tmp_path, capsys):
        from tests.core.test_cli import SCENARIO_SPEC
        audit_main([SCENARIO_SPEC, "--mode", "server-excluded",
                    "--out", str(tmp_path / "pkg")])
        log_path = tmp_path / "pkg" / "replay" / "log.jsonl"
        log_path.write_text(
            log_path.read_text().replace("[[75.0]]", "[[999.0]]"))
        code = exec_main([str(tmp_path / "pkg"), SCENARIO_SPEC])
        assert code == 3
        captured = capsys.readouterr()
        assert "DIFFERS" in captured.out
        assert "validation FAILED" in captured.err


class TestHostileReplayLog:
    """A damaged server-excluded replay log fails with one-line
    PackageError naming the line, never a JSON/Key/TypeError."""

    GOOD = json.dumps({
        "index": 0, "sql": "SELECT 1", "provenance": False,
        "result": protocol.result_to_wire(
            Database().execute("SELECT 1"))})

    BAD_LINES = [
        ('{"index":1,"sql":"SELECT 2","provenance":fal',
         "line 2 is not valid JSON"),
        ('{"index":1,"provenance":false,"result":{}}',
         "line 2 is missing key 'sql'"),
        ('{"index":1,"sql":"SELECT 2","provenance":false}',
         "line 2 is missing key 'result'"),
        ('["SELECT 2", {}]', "line 2 is not a JSON object"),
        ('42', "line 2 is not a JSON object"),
        ('{"index":1,"sql":7,"provenance":false,"result":{}}',
         "line 2: 'sql' must be a string"),
        ('{"index":1,"sql":"SELECT 2","provenance":false,"result":[]}',
         "line 2: 'sql' must be a string and 'result' an object"),
    ]

    @pytest.mark.parametrize("line,message", BAD_LINES)
    def test_from_jsonl_raises_package_error(self, line, message):
        with pytest.raises(PackageError, match=message) as info:
            ReplayLog.from_jsonl(self.GOOD + "\n" + line + "\n")
        assert "\n" not in str(info.value)

    def test_intact_log_parses(self):
        log = ReplayLog.from_jsonl(self.GOOD + "\n\n")
        assert [entry.sql for entry in log.entries] == ["SELECT 1"]

    def excluded_package(self, world, tmp_path):
        ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=world.database,
                  server_name="main")
        return tmp_path / "pkg" / "replay" / "log.jsonl"

    def test_prepare_refuses_truncated_log(self, memory_world, tmp_path):
        log_path = self.excluded_package(memory_world, tmp_path)
        text = log_path.read_text()
        log_path.write_text(text[:len(text) - 40])
        session = ReplaySession(tmp_path / "pkg", memory_world.registry)
        with pytest.raises(PackageError, match="line 4 is not valid JSON"):
            session.prepare()

    @staticmethod
    def frame(version=2):
        database = Database()
        database.execute("CREATE TABLE t (k integer)")
        database.execute("INSERT INTO t VALUES (1)")
        return protocol.result_to_wire(
            database.execute("SELECT k FROM t", True), version)

    @staticmethod
    def v3(**fields):
        """Damage that turns the frame into its version-3 form, then
        replaces ``fields`` (``refs_<column>`` names a refs column)."""
        def damage(frame):
            frame.clear()
            frame.update(TestHostileReplayLog.frame(3))
            for name, value in fields.items():
                if name.startswith("refs_"):
                    frame["refs"][name[len("refs_"):]] = value
                else:
                    frame[name] = value
        return damage

    @pytest.mark.parametrize("damage,message", [
        (lambda frame: frame.pop("rowcount"), "missing field 'rowcount'"),
        (lambda frame: frame.update(types=["blob"]), "'blob'"),
        (lambda frame: frame.update(lineages=[[["t", 1]]]),
         "out of range"),
        (lambda frame: frame.update(written=[["t", "one", 1]]),
         "invalid literal"),
        (lambda frame: frame.update(rows=5), "not iterable"),
        # a row is a list as long as columns
        pytest.param(lambda frame: frame.update(rows=["ab"]),
                     "a row must be a list, not str", id="v2-string-row"),
        pytest.param(lambda frame: frame.update(rows=[[1, 2, 3]]),
                     "a row has 3 values for 1 columns", id="v2-wide-row"),
        pytest.param(lambda frame: frame.update(rows=[[]]),
                     "a row has 0 values for 1 columns", id="v2-empty-row"),
        # nothing is coerced: a float or boolean rowid or version, a
        # numeric table, a string rowid
        pytest.param(lambda frame: frame.update(
            lineages=[[["t", 1.7, True]]]), "invalid literal",
                     id="v2-float-rowid-bool-version"),
        pytest.param(lambda frame: frame.update(lineages=[[[5, 1, 2]]]),
                     "invalid literal", id="v2-numeric-table"),
        pytest.param(lambda frame: frame.update(lineages=[[["t", "7", 2]]]),
                     "invalid literal", id="v2-string-rowid"),
        pytest.param(lambda frame: frame.update(deleted=[["t", 1, False]]),
                     "invalid literal", id="v2-bool-version"),
        pytest.param(lambda frame: frame.update(lineages=[None]),
                     "a lineage must be a list, not NoneType",
                     id="v2-null-lineage"),
        pytest.param(lambda frame: frame.update(
            lineages=[[["t", 1, 2, 3]]]),
                     "not a \\[table, rowid, version\\] triple",
                     id="v2-four-field-ref"),
        # one lineage per row
        pytest.param(lambda frame: frame.update(lineages=[[], []]),
                     "2 lineages for 1 rows", id="v2-extra-lineage"),
        pytest.param(lambda frame: frame.update(lineages=[]),
                     "0 lineages for 1 rows", id="v2-no-lineages"),
        pytest.param(lambda frame: frame.update(rows=[], rowcount=1),
                     "1 lineages for 0 rows", id="v2-rows-dropped"),
        # version 3: the refs columns and the lineage indices
        pytest.param(v3(lineages=[[-1]]), "lineage index out of range",
                     id="v3-negative-index"),
        pytest.param(v3(lineages=[[1]]), "lineage index out of range",
                     id="v3-index-past-refs"),
        pytest.param(v3(lineages=[[True]]),
                     "lineage indices must hold only int",
                     id="v3-bool-index"),
        pytest.param(v3(lineages=[["0"]]),
                     "lineage indices must hold only int",
                     id="v3-string-index"),
        pytest.param(v3(lineages=[0]), "lineages must hold only list",
                     id="v3-lineage-not-a-list"),
        pytest.param(v3(lineages=5), "lineages must be a list",
                     id="v3-lineages-not-a-list"),
        pytest.param(v3(lineages=[[0], [0]]), "2 lineages for 1 rows",
                     id="v3-extra-lineage"),
        pytest.param(v3(rows=[], rowcount=2), "1 lineages for 0 rows",
                     id="v3-lineage-only-count"),
        pytest.param(v3(refs=[]), "refs must be an object",
                     id="v3-refs-array"),
        pytest.param(v3(refs={"tables": ["t"]}), "missing field 'table'",
                     id="v3-refs-missing-column"),
        pytest.param(v3(refs_table=[1]), "refs.table index out of range",
                     id="v3-table-index-past-names"),
        pytest.param(v3(refs_table=[-1]), "refs.table index out of range",
                     id="v3-negative-table-index"),
        pytest.param(v3(refs_rowid=[1, 2]), "refs columns differ in length",
                     id="v3-unequal-columns"),
        pytest.param(v3(refs_version=5), "refs.version must be a list",
                     id="v3-column-not-a-list"),
        pytest.param(v3(refs_rowid=[1.0]), "refs.rowid must hold only int",
                     id="v3-float-rowid"),
        pytest.param(v3(refs_version=[False]),
                     "refs.version must hold only int",
                     id="v3-bool-version"),
        pytest.param(v3(refs_tables=[5]), "refs.tables must hold only str",
                     id="v3-numeric-table-name"),
    ])
    def test_result_from_wire_raises_protocol_error(self, damage, message):
        frame = self.frame()
        assert protocol.result_from_wire(frame).rows == [(1,)]
        damage(frame)
        with pytest.raises(ProtocolError, match=message) as info:
            protocol.result_from_wire(frame)
        assert "\n" not in str(info.value)

    def test_lineage_only_frame_decodes(self):
        frame = self.frame(3)
        frame["rows"] = []
        result = protocol.result_from_wire(frame)
        assert result.rows == [] and result.rowcount == 1
        assert result.lineages == protocol.result_from_wire(
            self.frame(2)).lineages

    def test_replay_names_the_damaged_entry(self, memory_world, tmp_path):
        log_path = self.excluded_package(memory_world, tmp_path)
        log_path.write_text(log_path.read_text().replace(
            '"types":["float"]', '"types":["money"]'))
        with pytest.raises(PackageError,
                           match="replay log entry 1: malformed"):
            ldv_exec(tmp_path / "pkg", memory_world.registry)

    def test_cli_reports_one_line(self, tmp_path, capsys):
        from tests.core.test_cli import SCENARIO_SPEC
        audit_main([SCENARIO_SPEC, "--mode", "server-excluded",
                    "--out", str(tmp_path / "pkg")])
        log_path = tmp_path / "pkg" / "replay" / "log.jsonl"
        log_path.write_text(log_path.read_text() + "[]\n")
        capsys.readouterr()
        code = exec_main([str(tmp_path / "pkg"), SCENARIO_SPEC])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("ldv-exec: error: PackageError")
        assert "is not a JSON object" in captured.err


class TestArchives:
    @pytest.fixture
    def package_dir(self, memory_world, tmp_path):
        world = memory_world
        ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=world.database,
                  server_name="main")
        return tmp_path / "pkg", world

    def test_archive_round_trip(self, package_dir, tmp_path):
        pkg_path, world = package_dir
        package = Package.load(pkg_path)
        archive = package.archive(tmp_path / "share" / "pkg.tar.gz")
        assert archive.exists()
        restored = Package.from_archive(archive, tmp_path / "restored")
        assert restored.manifest == package.manifest
        result = ldv_exec(tmp_path / "restored", world.registry)
        assert result.validated

    def test_archive_excludes_scratch_state(self, world, tmp_path):
        ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
                  mode="server-included", database=world.database,
                  server_name="main",
                  server_binary_paths=SERVER_BINARIES)
        # packages replayed by earlier versions still carry their
        # runtime scratch state; replay itself no longer writes any
        (tmp_path / "pkg" / ".runtime" / "pgdata").mkdir(parents=True)
        (tmp_path / "pkg" / ".runtime" / "pgdata" / "x").write_text("x")
        (tmp_path / "pkg" / ".scratch-old").mkdir()
        package = Package.load(tmp_path / "pkg")
        archive = package.archive(tmp_path / "pkg.tar.gz")
        restored = Package.from_archive(archive, tmp_path / "clean")
        assert restored.manifest == package.manifest
        assert not (tmp_path / "clean" / ".runtime").exists()
        assert not (tmp_path / "clean" / ".scratch-old").exists()

    def test_from_archive_refuses_nonempty_target(self, package_dir,
                                                  tmp_path):
        pkg_path, _world = package_dir
        archive = Package.load(pkg_path).archive(tmp_path / "a.tar.gz")
        target = tmp_path / "busy"
        target.mkdir()
        (target / "junk").write_text("x")
        with pytest.raises(PackageError):
            Package.from_archive(archive, target)

    def test_from_archive_rejects_garbage(self, tmp_path):
        garbage = tmp_path / "not-a-package.tar.gz"
        garbage.write_bytes(b"definitely not gzip")
        with pytest.raises(PackageError):
            Package.from_archive(garbage, tmp_path / "out")

    def test_archive_smaller_than_directory(self, package_dir,
                                            tmp_path):
        pkg_path, _world = package_dir
        package = Package.load(pkg_path)
        archive = package.archive(tmp_path / "pkg.tar.gz")
        assert archive.stat().st_size < package.total_bytes()


class TestExplain:
    @pytest.fixture
    def db(self):
        from repro.db import Database
        database = Database()
        database.execute("CREATE TABLE a (x integer, y float)")
        database.execute("CREATE TABLE b (x integer, z text)")
        return database

    def test_explain_returns_plan_rows(self, db):
        result = db.execute("EXPLAIN SELECT * FROM a WHERE x > 1")
        assert result.kind == "explain"
        text = "\n".join(row[0] for row in result.rows)
        assert "SeqScan on a" in text
        assert "Filter" in text

    def test_explain_shows_hash_join(self, db):
        result = db.execute(
            "EXPLAIN SELECT 1 FROM a, b WHERE a.x = b.x")
        text = "\n".join(row[0] for row in result.rows)
        assert "HashJoin" in text

    def test_explain_shows_aggregate(self, db):
        result = db.execute(
            "EXPLAIN SELECT x, count(*) FROM a GROUP BY x "
            "ORDER BY x LIMIT 2")
        text = "\n".join(row[0] for row in result.rows)
        assert "GroupAggregate" in text
        assert "Sort" in text
        assert "Limit" in text

    def test_explain_does_not_execute(self, db):
        db.execute("INSERT INTO a VALUES (1, 1.0)")
        db.execute("EXPLAIN SELECT * FROM a")
        assert db.query("SELECT count(*) FROM a") == [(1,)]

    def test_explain_render_round_trip(self):
        from repro.db.sql.parser import parse_one
        from repro.db.sql.render import render_statement
        tree = parse_one("EXPLAIN SELECT x FROM a WHERE x > 1")
        assert parse_one(render_statement(tree)) == tree

    def test_explain_through_client(self, db):
        from repro.db import DBClient, DBServer
        client = DBClient(DBServer(db).transport())
        client.connect()
        rows = client.query("EXPLAIN SELECT * FROM a")
        assert rows
        client.close()
