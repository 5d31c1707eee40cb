"""UNION / UNION ALL tests."""

import pytest

from repro.db import Database
from repro.db.sql import ast
from repro.db.sql.parser import parse_one
from repro.db.sql.render import render_statement
from repro.errors import ExecutionError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE a (x integer)")
    database.execute("CREATE TABLE b (x integer)")
    database.execute("INSERT INTO a VALUES (1), (2), (3)")
    database.execute("INSERT INTO b VALUES (3), (4)")
    return database


class TestParsing:
    def test_union_parses_to_setop(self):
        tree = parse_one("SELECT x FROM a UNION SELECT x FROM b")
        assert isinstance(tree, ast.SetOp)
        assert tree.all is False

    def test_union_all(self):
        tree = parse_one("SELECT x FROM a UNION ALL SELECT x FROM b")
        assert tree.all is True

    def test_chain_left_associative(self):
        tree = parse_one("SELECT 1 UNION SELECT 2 UNION SELECT 3")
        assert isinstance(tree.left, ast.SetOp)
        assert isinstance(tree.right, ast.Select)

    def test_render_round_trip(self):
        for sql in ("SELECT x FROM a UNION SELECT x FROM b",
                    "SELECT x FROM a UNION ALL SELECT x FROM b",
                    "SELECT 1 UNION SELECT 2 UNION ALL SELECT 3",
                    "EXPLAIN ANALYZE SELECT x FROM a UNION SELECT x FROM b"):
            tree = parse_one(sql)
            assert parse_one(render_statement(tree)) == tree


class TestExecution:
    def test_union_deduplicates(self, db):
        rows = db.query("SELECT x FROM a UNION SELECT x FROM b")
        assert sorted(rows) == [(1,), (2,), (3,), (4,)]

    def test_union_all_keeps_duplicates(self, db):
        rows = db.query("SELECT x FROM a UNION ALL SELECT x FROM b")
        assert sorted(rows) == [(1,), (2,), (3,), (3,), (4,)]

    def test_union_of_expressions(self, db):
        rows = db.query("SELECT x * 10 FROM a WHERE x = 1 "
                        "UNION SELECT x FROM b WHERE x = 4")
        assert sorted(rows) == [(4,), (10,)]

    def test_union_schema_from_first_branch(self, db):
        result = db.execute(
            "SELECT x AS left_name FROM a UNION SELECT x FROM b")
        assert result.column_names == ["left_name"]

    def test_arity_mismatch_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT x FROM a UNION SELECT x, x FROM b")

    def test_three_way_chain(self, db):
        rows = db.query("SELECT 1 UNION SELECT 2 UNION SELECT 1")
        assert sorted(rows) == [(1,), (2,)]


class TestUnionLineage:
    def test_union_all_passes_lineage_through(self, db):
        result = db.execute(
            "SELECT x FROM a WHERE x = 1 UNION ALL "
            "SELECT x FROM b WHERE x = 4", provenance=True)
        tables = sorted(ref.table for lineage in result.lineages
                        for ref in lineage)
        assert tables == ["a", "b"]

    def test_union_merges_duplicate_lineages(self, db):
        result = db.execute(
            "SELECT x FROM a WHERE x = 3 UNION "
            "SELECT x FROM b WHERE x = 3", provenance=True)
        assert len(result.rows) == 1
        tables = sorted(ref.table for ref in result.lineages[0])
        assert tables == ["a", "b"]  # both branches contributed

    def test_union_in_audited_application(self, tmp_path):
        from repro.core import ldv_audit, ldv_exec
        from repro.db import DBServer
        from repro.vos import VirtualOS

        vos = VirtualOS()
        database = Database(clock=vos.clock)
        database.execute("CREATE TABLE a (x integer)")
        database.execute("CREATE TABLE b (x integer)")
        database.execute("INSERT INTO a VALUES (1), (2)")
        database.execute("INSERT INTO b VALUES (2), (9)")
        vos.register_db_server("main", DBServer(database).transport())
        vos.fs.write_file("/usr/lib/dbms/pg", b"\x7fELF" + b"\0" * 512,
                          create_parents=True)

        def app(ctx):
            client = ctx.connect_db("main")
            rows = client.query(
                "SELECT x FROM a UNION SELECT x FROM b")
            ctx.write_file("/out.txt", str(sorted(rows)))
            client.close()

        vos.register_program("/bin/app", app)
        report = ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                           mode="server-included", database=database,
                           server_name="main",
                           server_binary_paths=["/usr/lib/dbms/pg"])
        # all four source tuples are relevant (both tables sliced)
        tables = {ref.table
                  for ref in report.session.relevant_tuples.refs()}
        assert tables == {"a", "b"}
        original = vos.fs.read_file("/out.txt")
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        assert result.outputs["/out.txt"] == original
