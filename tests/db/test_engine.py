"""End-to-end engine tests: DDL, DML, queries, transactions, COPY."""

import pytest

from repro.db import Database
from repro.db.provtypes import TupleRef
from repro.errors import (
    CatalogError,
    ExecutionError,
    IntegrityError,
    SQLSyntaxError,
    TransactionError,
)


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE sales (id integer PRIMARY KEY, price float, "
        "region text)")
    database.execute(
        "INSERT INTO sales VALUES (1, 5, 'east'), (2, 11, 'west'), "
        "(3, 14, 'west')")
    return database


class TestBasicQueries:
    def test_select_all(self, db):
        assert len(db.query("SELECT * FROM sales")) == 3

    def test_projection_and_filter(self, db):
        assert db.query("SELECT id FROM sales WHERE price > 10") == [
            (2,), (3,)]

    def test_paper_figure5_sum(self, db):
        # Figure 5 of the paper: sum over price > 10 is 25
        assert db.query(
            "SELECT sum(price) AS ttl FROM sales WHERE price > 10") == [
                (25.0,)]

    def test_expression_in_select(self, db):
        rows = db.query("SELECT price * 2 FROM sales WHERE id = 1")
        assert rows == [(10.0,)]

    def test_column_alias_in_schema(self, db):
        result = db.execute("SELECT price AS p FROM sales WHERE id = 1")
        assert result.column_names == ["p"]

    def test_order_by_desc(self, db):
        rows = db.query("SELECT id FROM sales ORDER BY price DESC")
        assert rows == [(3,), (2,), (1,)]

    def test_order_by_non_projected_column(self, db):
        rows = db.query("SELECT region FROM sales ORDER BY price DESC")
        assert rows == [("west",), ("west",), ("east",)]

    def test_order_by_positional(self, db):
        rows = db.query("SELECT id FROM sales ORDER BY 1 DESC")
        assert rows == [(3,), (2,), (1,)]

    def test_limit_offset(self, db):
        rows = db.query("SELECT id FROM sales ORDER BY id LIMIT 1 OFFSET 1")
        assert rows == [(2,)]

    def test_distinct(self, db):
        rows = db.query("SELECT DISTINCT region FROM sales ORDER BY region")
        assert rows == [("east",), ("west",)]

    def test_select_without_from(self, db):
        assert db.query("SELECT 1 + 2") == [(3,)]

    def test_like_filter(self, db):
        rows = db.query("SELECT id FROM sales WHERE region LIKE 'w%'")
        assert rows == [(2,), (3,)]

    def test_in_filter(self, db):
        rows = db.query("SELECT id FROM sales WHERE id IN (1, 3)")
        assert rows == [(1,), (3,)]

    def test_between_filter(self, db):
        rows = db.query("SELECT id FROM sales WHERE price BETWEEN 10 AND 12")
        assert rows == [(2,)]


class TestAggregation:
    def test_group_by(self, db):
        rows = db.query(
            "SELECT region, count(*), avg(price) FROM sales "
            "GROUP BY region ORDER BY region")
        assert rows == [("east", 1, 5.0), ("west", 2, 12.5)]

    def test_global_aggregate(self, db):
        assert db.query("SELECT count(*) FROM sales") == [(3,)]

    def test_global_aggregate_on_empty_table(self, db):
        db.execute("CREATE TABLE empty (x integer)")
        assert db.query("SELECT count(*) FROM empty") == [(0,)]
        assert db.query("SELECT sum(x) FROM empty") == [(None,)]

    def test_group_by_on_empty_table_yields_no_rows(self, db):
        db.execute("CREATE TABLE empty (x integer)")
        assert db.query("SELECT x, count(*) FROM empty GROUP BY x") == []

    def test_having(self, db):
        rows = db.query(
            "SELECT region FROM sales GROUP BY region "
            "HAVING count(*) > 1")
        assert rows == [("west",)]

    def test_having_without_group_raises(self, db):
        with pytest.raises(SQLSyntaxError):
            db.query("SELECT id FROM sales HAVING id > 1")

    def test_aggregate_expression(self, db):
        rows = db.query("SELECT max(price) - min(price) FROM sales")
        assert rows == [(9.0,)]

    def test_count_distinct(self, db):
        assert db.query(
            "SELECT count(DISTINCT region) FROM sales") == [(2,)]


class TestJoins:
    @pytest.fixture(autouse=True)
    def orders(self, db):
        db.execute("CREATE TABLE orders (oid integer, sid integer, "
                   "qty integer)")
        db.execute("INSERT INTO orders VALUES (10, 1, 3), (11, 2, 7), "
                   "(12, 9, 1)")

    def test_comma_join_with_where(self, db):
        rows = db.query(
            "SELECT s.region, o.qty FROM sales s, orders o "
            "WHERE s.id = o.sid ORDER BY o.qty")
        assert rows == [("east", 3), ("west", 7)]

    def test_explicit_inner_join(self, db):
        rows = db.query(
            "SELECT o.oid FROM sales s JOIN orders o ON s.id = o.sid "
            "ORDER BY o.oid")
        assert rows == [(10,), (11,)]

    def test_left_join_pads_nulls(self, db):
        rows = db.query(
            "SELECT s.id, o.oid FROM sales s LEFT JOIN orders o "
            "ON s.id = o.sid ORDER BY s.id")
        assert rows == [(1, 10), (2, 11), (3, None)]

    def test_cross_join_cardinality(self, db):
        rows = db.query("SELECT 1 FROM sales CROSS JOIN orders")
        assert len(rows) == 9

    def test_join_with_extra_filter(self, db):
        rows = db.query(
            "SELECT s.id FROM sales s, orders o "
            "WHERE s.id = o.sid AND o.qty > 5")
        assert rows == [(2,)]

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE extra (sid integer, note text)")
        db.execute("INSERT INTO extra VALUES (1, 'n1'), (2, 'n2')")
        rows = db.query(
            "SELECT e.note FROM sales s, orders o, extra e "
            "WHERE s.id = o.sid AND s.id = e.sid ORDER BY e.note")
        assert rows == [("n1",), ("n2",)]

    def test_null_join_keys_never_match(self, db):
        db.execute("INSERT INTO orders VALUES (13, NULL, 2)")
        rows = db.query(
            "SELECT count(*) FROM sales s, orders o WHERE s.id = o.sid")
        assert rows == [(2,)]


class TestDML:
    def test_insert_returns_written_refs(self, db):
        result = db.execute("INSERT INTO sales VALUES (4, 1, 'north')")
        assert result.rowcount == 1
        ref = result.written[0]
        assert ref.table == "sales"
        assert result.written_lineage[ref] == frozenset()

    def test_insert_partial_columns(self, db):
        db.execute("INSERT INTO sales (id, region) VALUES (5, 'south')")
        assert db.query("SELECT price FROM sales WHERE id = 5") == [(None,)]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE archive (id integer, price float, "
                   "region text)")
        result = db.execute(
            "INSERT INTO archive SELECT id, price, region FROM sales "
            "WHERE price > 10", provenance=True)
        assert result.rowcount == 2
        # lineage of each archived row points at a sales tuple
        for ref in result.written:
            deps = result.written_lineage[ref]
            assert all(dep.table == "sales" for dep in deps)
            assert len(deps) == 1

    def test_update_versions_and_lineage(self, db):
        result = db.execute(
            "UPDATE sales SET price = price + 1 WHERE region = 'west'")
        assert result.rowcount == 2
        for new_ref, deps in result.written_lineage.items():
            (old_ref,) = deps
            assert old_ref.rowid == new_ref.rowid
            assert old_ref.version < new_ref.version

    def test_update_changes_values(self, db):
        db.execute("UPDATE sales SET region = 'all'")
        assert db.query("SELECT DISTINCT region FROM sales") == [("all",)]

    def test_delete_returns_old_refs(self, db):
        result = db.execute("DELETE FROM sales WHERE id = 1")
        assert result.rowcount == 1
        assert result.deleted[0].table == "sales"
        assert len(db.query("SELECT * FROM sales")) == 2

    def test_pk_violation_surfaces(self, db):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO sales VALUES (1, 0, 'dup')")

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO sales VALUES (9, 1)")


class TestDDL:
    def test_create_and_drop(self, db):
        db.execute("CREATE TABLE t2 (x integer)")
        assert db.catalog.has_table("t2")
        db.execute("DROP TABLE t2")
        assert not db.catalog.has_table("t2")

    def test_create_duplicate_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE sales (x integer)")

    def test_create_if_not_exists(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS sales (x integer)")

    def test_drop_missing_raises_unless_if_exists(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE ghost")
        db.execute("DROP TABLE IF EXISTS ghost")

    def test_unknown_table_in_query(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM ghost")

    def test_unknown_column(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT nope FROM sales")


class TestTransactions:
    def test_rollback_insert(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO sales VALUES (7, 1, 'x')")
        db.execute("ROLLBACK")
        assert len(db.query("SELECT * FROM sales")) == 3

    def test_rollback_update_restores_values_and_version(self, db):
        version_before = db.catalog.get_table("sales").versions[1]
        db.execute("BEGIN")
        db.execute("UPDATE sales SET price = 99 WHERE id = 1")
        db.execute("ROLLBACK")
        assert db.query("SELECT price FROM sales WHERE id = 1") == [(5.0,)]
        assert db.catalog.get_table("sales").versions[1] == version_before

    def test_rollback_delete_restores_row(self, db):
        db.execute("BEGIN")
        db.execute("DELETE FROM sales WHERE id = 2")
        db.execute("ROLLBACK")
        assert db.query("SELECT price FROM sales WHERE id = 2") == [(11.0,)]

    def test_commit_keeps_changes(self, db):
        db.execute("BEGIN")
        db.execute("DELETE FROM sales WHERE id = 2")
        db.execute("COMMIT")
        assert db.query("SELECT count(*) FROM sales") == [(2,)]

    def test_nested_begin_raises(self, db):
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("BEGIN")

    def test_commit_without_begin_raises(self, db):
        with pytest.raises(TransactionError):
            db.execute("COMMIT")


class TestCopyAndPersistence:
    def test_copy_round_trip(self, db, tmp_path):
        out = tmp_path / "sales.csv"
        db.execute(f"COPY sales TO '{out}'")
        db.execute("CREATE TABLE sales2 (id integer, price float, "
                   "region text)")
        result = db.execute(f"COPY sales2 FROM '{out}'")
        assert result.rowcount == 3
        assert db.query("SELECT count(*) FROM sales2") == [(3,)]

    def test_copy_with_header(self, db, tmp_path):
        out = tmp_path / "h.csv"
        db.execute(f"COPY sales TO '{out}' WITH CSV HEADER")
        first_line = out.read_text().splitlines()[0]
        assert first_line == "id,price,region"

    def test_persistence_across_instances(self, tmp_path):
        first = Database(data_directory=tmp_path / "pgdata")
        first.execute("CREATE TABLE t (x integer)")
        first.execute("INSERT INTO t VALUES (42)")
        first.close()
        second = Database(data_directory=tmp_path / "pgdata")
        assert second.query("SELECT x FROM t") == [(42,)]

    def test_autoflush_writes_through(self, tmp_path):
        db = Database(data_directory=tmp_path / "d", autoflush=True)
        db.execute("CREATE TABLE t (x integer)")
        db.execute("INSERT INTO t VALUES (1)")
        fresh = Database(data_directory=tmp_path / "d")
        assert fresh.query("SELECT x FROM t") == [(1,)]

    def test_execute_script(self, db):
        results = db.execute_script(
            "INSERT INTO sales VALUES (8, 2, 'n'); "
            "SELECT count(*) FROM sales;")
        assert results[-1].rows == [(4,)]

    def test_execute_rejects_multiple_statements(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELECT 1; SELECT 2")

    def test_query_rejects_dml(self, db):
        with pytest.raises(ExecutionError):
            db.query("DELETE FROM sales")
