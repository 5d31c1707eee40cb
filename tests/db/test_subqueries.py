"""Uncorrelated subquery tests: scalar and IN subqueries."""

import pytest

from repro.db import Database
from repro.db.sql import ast
from repro.db.sql.parser import parse_expression, parse_one
from repro.db.sql.render import render_statement
from repro.errors import CatalogError, ExecutionError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id integer, v integer)")
    database.execute("CREATE TABLE u (id integer, w integer)")
    database.execute(
        "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    database.execute("INSERT INTO u VALUES (1, 100), (3, 300)")
    return database


class TestParsing:
    def test_scalar_subquery(self):
        tree = parse_expression("(SELECT max(v) FROM t)")
        assert isinstance(tree, ast.ScalarSubquery)

    def test_in_subquery(self):
        tree = parse_expression("id IN (SELECT id FROM u)")
        assert isinstance(tree, ast.InSubquery)
        assert not tree.negated

    def test_not_in_subquery(self):
        assert parse_expression("id NOT IN (SELECT id FROM u)").negated

    def test_parenthesized_expression_still_works(self):
        tree = parse_expression("(1 + 2)")
        assert tree == ast.BinaryOp("+", ast.Literal(1), ast.Literal(2))

    @pytest.mark.parametrize("sql", [
        "SELECT id FROM t WHERE v > (SELECT avg(v) FROM t)",
        "SELECT id FROM t WHERE id IN (SELECT id FROM u)",
        "SELECT id FROM t WHERE id NOT IN (SELECT id FROM u)",
        "DELETE FROM t WHERE id IN (SELECT id FROM u)",
        "UPDATE t SET v = (SELECT max(w) FROM u) WHERE id = 1",
    ])
    def test_render_round_trip(self, sql):
        tree = parse_one(sql)
        assert parse_one(render_statement(tree)) == tree


class TestExecution:
    def test_scalar_subquery_in_where(self, db):
        rows = db.query(
            "SELECT id FROM t WHERE v > (SELECT avg(v) FROM t)")
        assert rows == [(3,)]

    def test_scalar_subquery_in_select_list(self, db):
        rows = db.query("SELECT id, (SELECT max(w) FROM u) FROM t "
                        "WHERE id = 1")
        assert rows == [(1, 300)]

    def test_in_subquery(self, db):
        rows = db.query(
            "SELECT id FROM t WHERE id IN (SELECT id FROM u) "
            "ORDER BY id")
        assert rows == [(1,), (3,)]

    def test_not_in_subquery(self, db):
        rows = db.query(
            "SELECT id FROM t WHERE id NOT IN (SELECT id FROM u)")
        assert rows == [(2,)]

    def test_empty_in_subquery_matches_nothing(self, db):
        rows = db.query(
            "SELECT id FROM t WHERE id IN (SELECT id FROM u "
            "WHERE w > 999)")
        assert rows == []

    def test_empty_scalar_subquery_is_null(self, db):
        rows = db.query(
            "SELECT id FROM t WHERE v > (SELECT v FROM t WHERE id = 99)")
        assert rows == []  # NULL comparison filters everything

    def test_nested_subqueries(self, db):
        rows = db.query(
            "SELECT id FROM t WHERE v > (SELECT avg(w) FROM u WHERE "
            "id IN (SELECT id FROM t WHERE v < 15))")
        # inner: t ids with v<15 -> {1}; avg(w) over u id in {1} = 100
        assert rows == []

    def test_delete_with_in_subquery(self, db):
        db.execute("DELETE FROM t WHERE id IN (SELECT id FROM u)")
        assert db.query("SELECT id FROM t") == [(2,)]

    def test_update_with_scalar_subquery(self, db):
        db.execute("UPDATE t SET v = (SELECT max(w) FROM u) "
                   "WHERE id = 2")
        assert db.query("SELECT v FROM t WHERE id = 2") == [(300,)]

    def test_multi_row_scalar_subquery_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT id FROM t WHERE v > (SELECT v FROM t)")

    def test_multi_column_subquery_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT id FROM t WHERE id IN "
                     "(SELECT id, w FROM u)")

    def test_correlated_subquery_rejected(self, db):
        # t.v is not visible inside the inner query: correlated
        # subqueries are outside the dialect
        with pytest.raises(CatalogError):
            db.query("SELECT id FROM t WHERE v > "
                     "(SELECT avg(w) FROM u WHERE u.id = t.id)")


class TestSubqueryLineage:
    def test_subquery_lineage_flows_to_results(self, db):
        result = db.execute(
            "SELECT id FROM t WHERE v > (SELECT avg(v) FROM t)",
            provenance=True)
        assert result.rows == [(3,)]
        tables_read = {ref.rowid for ref in result.lineages[0]
                       if ref.table == "t"}
        # row 3 (the match) plus all rows the avg() read
        assert tables_read == {1, 2, 3}

    def test_in_subquery_lineage_includes_inner_table(self, db):
        result = db.execute(
            "SELECT id FROM t WHERE id IN (SELECT id FROM u)",
            provenance=True)
        inner = {ref.table for lineage in result.lineages
                 for ref in lineage}
        assert inner == {"t", "u"}

    def test_update_lineage_includes_subquery(self, db):
        result = db.execute(
            "UPDATE t SET v = (SELECT max(w) FROM u) WHERE id = 2")
        (new_ref,) = result.written
        tables = {ref.table for ref in result.written_lineage[new_ref]}
        assert "u" in tables  # the subquery inputs
        assert "t" in tables  # the old version

    def test_audited_app_with_subquery_round_trips(self, tmp_path):
        from repro.core import ldv_audit, ldv_exec
        from repro.db import DBServer
        from repro.vos import VirtualOS

        vos = VirtualOS()
        database = Database(clock=vos.clock)
        database.execute("CREATE TABLE t (id integer, v integer)")
        database.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        vos.register_db_server("main", DBServer(database).transport())
        vos.fs.write_file("/usr/lib/dbms/pg", b"\x7fELF" + b"\0" * 128,
                          create_parents=True)

        def app(ctx):
            client = ctx.connect_db("main")
            rows = client.query(
                "SELECT id FROM t WHERE v > (SELECT avg(v) FROM t)")
            ctx.write_file("/out.txt", str(rows))
            client.close()

        vos.register_program("/bin/app", app)
        report = ldv_audit(vos, "/bin/app", tmp_path / "pkg",
                           mode="server-included", database=database,
                           server_name="main",
                           server_binary_paths=["/usr/lib/dbms/pg"])
        # the avg() inputs are relevant: all three rows ship
        assert report.packaging.tuple_count == 3
        original = vos.fs.read_file("/out.txt")
        result = ldv_exec(tmp_path / "pkg", {"/bin/app": app})
        assert result.outputs["/out.txt"] == original
