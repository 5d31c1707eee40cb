"""Monitor edge cases: transactions, COPY, multiple connections and
servers, PROVENANCE issued by the application itself."""

import pytest

from repro.core import ldv_audit, ldv_exec
from repro.db import Database, DBServer
from repro.monitor import AuditSession
from repro.vos import VirtualOS


def make_world(extra_servers=()):
    vos = VirtualOS()
    database = Database(clock=vos.clock)
    database.execute("CREATE TABLE t (id integer PRIMARY KEY, v integer)")
    database.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    vos.register_db_server("main", DBServer(database).transport())
    extra = {}
    for name in extra_servers:
        other = Database(clock=vos.clock)
        other.execute("CREATE TABLE side (k integer)")
        other.execute("INSERT INTO side VALUES (7)")
        vos.register_db_server(name, DBServer(other).transport())
        extra[name] = other
    vos.fs.write_file("/usr/lib/dbms/pg", b"\x7fELF" + b"\0" * 256,
                      create_parents=True)
    return vos, database, extra


class TestTransactionsUnderAudit:
    def test_committed_transaction_round_trips(self, tmp_path):
        vos, database, _ = make_world()

        def app(ctx):
            client = ctx.connect_db("main")
            client.execute("BEGIN")
            client.execute("INSERT INTO t VALUES (10, 100)")
            client.execute("UPDATE t SET v = v + 1 WHERE id = 1")
            client.execute("COMMIT")
            rows = client.query("SELECT sum(v) FROM t")
            ctx.write_file("/out.txt", str(rows[0][0]))
            client.close()

        vos.register_program("/bin/app", app)
        ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                  mode="server-included", database=database,
                  server_name="main",
                  server_binary_paths=["/usr/lib/dbms/pg"])
        original = vos.fs.read_file("/out.txt")
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        assert result.outputs["/out.txt"] == original
        assert result.validated

    def test_rolled_back_transaction_round_trips(self, tmp_path):
        vos, database, _ = make_world()

        def app(ctx):
            client = ctx.connect_db("main")
            client.execute("BEGIN")
            client.execute("INSERT INTO t VALUES (10, 100)")
            client.execute("ROLLBACK")
            rows = client.query("SELECT count(*) FROM t")
            ctx.write_file("/out.txt", str(rows[0][0]))
            client.close()

        vos.register_program("/bin/app", app)
        ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                  mode="server-included", database=database,
                  server_name="main",
                  server_binary_paths=["/usr/lib/dbms/pg"])
        assert vos.fs.read_text("/out.txt") == "3"
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        assert result.outputs["/out.txt"] == b"3"
        assert result.validated

    def test_rollback_round_trips_server_excluded(self, tmp_path):
        vos, database, _ = make_world()

        def app(ctx):
            client = ctx.connect_db("main")
            client.execute("BEGIN")
            client.execute("DELETE FROM t WHERE id = 1")
            client.execute("ROLLBACK")
            rows = client.query("SELECT count(*) FROM t")
            ctx.write_file("/out.txt", str(rows[0][0]))
            client.close()

        vos.register_program("/bin/app", app)
        ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=database,
                  server_name="main")
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        assert result.outputs["/out.txt"] == b"3"


class TestCopyUnderAudit:
    def test_copy_from_counts_as_app_created(self, tmp_path):
        vos, database, _ = make_world()
        database.write_file = lambda path, text: vos.fs.write_text(
            path, text, create_parents=True)
        database.read_file = lambda path: vos.fs.read_text(path)
        vos.fs.write_file("/data/in.csv", "50,500\n51,501\n",
                          create_parents=True)

        def app(ctx):
            client = ctx.connect_db("main")
            client.execute("COPY t FROM '/data/in.csv'")
            rows = client.query("SELECT count(*) FROM t")
            ctx.write_file("/out.txt", str(rows[0][0]))
            client.close()

        vos.register_program("/bin/app", app)
        report = ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                           mode="server-included", database=database,
                           server_name="main",
                           server_binary_paths=["/usr/lib/dbms/pg"])
        # the bulk-loaded rows are app-created: only the 3 pre-existing
        # rows (read by count(*)) are relevant
        assert report.packaging.tuple_count == 3
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        assert result.outputs["/out.txt"] == b"5"


class TestMultipleConnections:
    def test_two_sequential_connections_one_log(self, tmp_path):
        vos, database, _ = make_world()

        def app(ctx):
            first = ctx.connect_db("main")
            first.execute("INSERT INTO t VALUES (10, 1)")
            first.close()
            second = ctx.connect_db("main")
            rows = second.query("SELECT count(*) FROM t")
            ctx.write_file("/out.txt", str(rows[0][0]))
            second.close()

        vos.register_program("/bin/app", app)
        ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=database,
                  server_name="main")
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        assert result.outputs["/out.txt"] == b"4"
        assert result.replayed_statements == 2

    def test_two_servers_server_excluded(self, tmp_path):
        vos, database, extra = make_world(extra_servers=["side"])

        def app(ctx):
            main = ctx.connect_db("main")
            side = ctx.connect_db("side")
            (total,) = main.query("SELECT sum(v) FROM t")[0]
            (k,) = side.query("SELECT k FROM side")[0]
            ctx.write_file("/out.txt", f"{total},{k}")
            main.close()
            side.close()

        vos.register_program("/bin/app", app)
        ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=database,
                  server_name="main")
        original = vos.fs.read_file("/out.txt")
        # replay provisions stubs for *both* recorded servers
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        assert result.outputs["/out.txt"] == original

    def test_connected_servers_recorded_in_manifest(self, tmp_path):
        from repro.core.package import Package
        vos, database, _ = make_world(extra_servers=["side"])

        def app(ctx):
            ctx.connect_db("main").close()
            ctx.connect_db("side").close()

        vos.register_program("/bin/app", app)
        ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=database,
                  server_name="main")
        manifest = Package.load(tmp_path / "pkg").manifest
        assert manifest.notes["db_servers"] == ["main", "side"]


class TestAppIssuedProvenance:
    def test_app_can_use_provenance_keyword(self, tmp_path):
        """An application that itself asks for provenance still audits
        and replays cleanly."""
        vos, database, _ = make_world()

        def app(ctx):
            client = ctx.connect_db("main")
            result = client.execute(
                "SELECT PROVENANCE id FROM t WHERE v > 15")
            lineage_size = sum(len(l) for l in result.lineages)
            ctx.write_file("/out.txt", f"{len(result.rows)}:{lineage_size}")
            client.close()

        vos.register_program("/bin/app", app)
        ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                  mode="server-excluded", database=database,
                  server_name="main")
        assert vos.fs.read_text("/out.txt") == "2:2"
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        assert result.outputs["/out.txt"] == b"2:2"
