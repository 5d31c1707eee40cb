"""TPC-H substrate tests: dbgen determinism, Table II selectivities,
refresh streams."""

import hashlib

import pytest

from repro.db import Database
from repro.workloads.app import (
    INSERT_FILE,
    QUERY_FILE,
    UPDATE_FILE,
    build_world,
)
from repro.workloads.tpch.dbgen import (
    TPCHConfig,
    TPCHGenerator,
    customer_name,
)
from repro.workloads.tpch.queries import (
    SUPPLIER_SELECTIVITIES,
    ZERO_RUNS,
    supplier_param,
    table2_variants,
    variant_by_id,
    zero_run_selectivity,
)
from repro.workloads.tpch.refresh import insert_statements, update_statements

CONFIG = TPCHConfig(scale_factor=0.001)

# sha256 of each table file build_world checkpoints at SF 0.001, seed 7
TABLE_FILES = {
    "customer.tbl":
        "d1f34880b7700ad4170d687dd9b0cf08a66e41ada5ff15678db232c39e633610",
    "lineitem.tbl":
        "07bbaff363ab0d1505c0ee4f9380f35ab7fec786398c5bfa78ac83d7b9ae8c15",
    "nation.tbl":
        "bbaa1965d2f6ff2d3620d12d1006936d04c034ac3a8f7adaf07bc802a99d8e81",
    "orders.tbl":
        "29b50fadf7aa477849a24348250733596af36290be37c151ede558de272231df",
    "part.tbl":
        "9ba60cd1542ba329dfabfacf290d845fc0a10c300719ecddd5422a26fa9aa1b6",
    "partsupp.tbl":
        "f3841a0b18fce4c8adab1818c75620d7501a51115f0b0f5941793b2134b13e86",
    "region.tbl":
        "0f2d336b9d66a792e425b6dbc433ee7fe1e7b28c9c5086b8717edd35ae763eb5",
    "supplier.tbl":
        "cde3f05c3711225ce89b11c66229aef86dc511fda6022086f3c38f634613e0db",
}

# sha256 of each statement file build_world(seed=7, insert_count=1000,
# update_count=100) writes; the INSERTs come from the seed + 1000 stream
STATEMENT_FILES = {
    INSERT_FILE:
        "a7e801fdbfdd75f409938289023b86e11bb5f2171671ae653864f767e394feec",
    UPDATE_FILE:
        "1a19901db0a1c03814b6d402ffd9b1235e8fc9c2ad9f7cc76d5858f252a187cd",
    QUERY_FILE:
        "6e3098ee8231daeb7fa8eaf9f7cde61a9a37b0ca13a111914fd59291c4f5c674",
}


@pytest.fixture(scope="module")
def loaded():
    database = Database()
    generator = TPCHGenerator(CONFIG)
    counts = generator.generate_into(database)
    return database, generator, counts


class TestDbgen:
    def test_cardinalities_scale(self, loaded):
        _db, _gen, counts = loaded
        assert counts["customer"] == CONFIG.n_customers == 150
        assert counts["orders"] == CONFIG.n_orders == 1500
        assert counts["region"] == 5
        assert counts["nation"] == 25
        # ~4 lineitems per order on average
        assert 3000 < counts["lineitem"] < 6200

    def test_supplier_floor_keeps_selectivities_distinct(self):
        assert CONFIG.n_suppliers == 100
        params = [supplier_param(CONFIG, sel)
                  for sel in SUPPLIER_SELECTIVITIES]
        assert params == sorted(set(params))  # all distinct

    def test_determinism(self):
        first = Database()
        second = Database()
        TPCHGenerator(CONFIG).generate_into(first)
        TPCHGenerator(CONFIG).generate_into(second)
        for table in ("customer", "orders", "lineitem"):
            assert list(first.catalog.get_table(table).scan()) == \
                list(second.catalog.get_table(table).scan())

    def test_different_seed_differs(self):
        first = Database()
        second = Database()
        TPCHGenerator(CONFIG).generate_into(first)
        TPCHGenerator(TPCHConfig(scale_factor=0.001,
                                 seed=1)).generate_into(second)
        assert list(first.catalog.get_table("orders").scan()) != \
            list(second.catalog.get_table("orders").scan())

    def test_checkpointed_table_files_are_pinned(self, tmp_path):
        # the bytes of every .tbl file the Section IX-A world writes:
        # generated values, rowids, versions and the file format
        build_world(scale_factor=0.001, seed=7, data_dir=tmp_path)
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(tmp_path.glob("*.tbl"))} == TABLE_FILES

    def test_statement_files_are_pinned(self):
        world = build_world(scale_factor=0.001, seed=7, insert_count=1000,
                            update_count=100)
        assert {path: hashlib.sha256(world.vos.fs.read_file(path)).hexdigest()
                for path in STATEMENT_FILES} == STATEMENT_FILES

    def test_customer_name_padding(self):
        assert customer_name(42, 9) == "Customer#000000042"

    def test_sf1_width_matches_spec(self):
        assert TPCHConfig(scale_factor=1.0).customer_name_width == 9

    def test_pk_integrity(self, loaded):
        db, _gen, _counts = loaded
        # primary keys loaded without violation; spot-check uniqueness
        rows = db.query("SELECT count(*) FROM orders")
        distinct = db.query("SELECT count(DISTINCT o_orderkey) FROM orders")
        assert rows == distinct

    def test_foreign_key_ranges(self, loaded):
        db, _gen, _counts = loaded
        (bad,) = db.query(
            "SELECT count(*) FROM lineitem WHERE l_orderkey < 1 OR "
            f"l_orderkey > {CONFIG.n_orders}")[0]
        assert bad == 0
        (bad_supp,) = db.query(
            "SELECT count(*) FROM lineitem WHERE l_suppkey < 1 OR "
            f"l_suppkey > {CONFIG.n_suppliers}")[0]
        assert bad_supp == 0


class TestTable2Selectivities:
    def test_eighteen_variants(self):
        variants = table2_variants(CONFIG)
        assert len(variants) == 18
        assert [v.query_id for v in variants][:6] == [
            "Q1-1", "Q1-2", "Q1-3", "Q1-4", "Q1-5", "Q2-1"]

    def test_q1_measured_selectivity(self, loaded):
        db, _gen, counts = loaded
        for index, target in enumerate(SUPPLIER_SELECTIVITIES, 1):
            variant = variant_by_id(CONFIG, f"Q1-{index}")
            rows = db.query(variant.sql)
            measured = len(rows) / counts["lineitem"]
            assert measured == pytest.approx(target, rel=0.35), \
                f"{variant.query_id}: {measured} vs {target}"

    def test_q1_selectivities_increase(self, loaded):
        db, _gen, _counts = loaded
        sizes = [len(db.query(variant_by_id(CONFIG, f"Q1-{i}").sql))
                 for i in range(1, 6)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_q2_zero_run_monotone(self, loaded):
        db, _gen, _counts = loaded
        sizes = [len(db.query(variant_by_id(CONFIG, f"Q2-{i}").sql))
                 for i in range(1, 5)]
        # more zeros = more selective: Q2-1 (7 zeros) smallest
        assert sizes == sorted(sizes)
        assert sizes[-1] > 0

    def test_q2_matches_predicted_selectivity(self, loaded):
        db, _gen, _counts = loaded
        total = db.query("SELECT count(*) FROM customer")[0][0]
        for index, zero_run in enumerate(ZERO_RUNS, 1):
            predicted = zero_run_selectivity(CONFIG, zero_run)
            pattern = "0" * zero_run
            (matched,) = db.query(
                "SELECT count(*) FROM customer WHERE c_name LIKE "
                f"'%{pattern}%'")[0]
            assert matched / total == pytest.approx(predicted, abs=0.01)

    def test_q3_returns_single_row(self, loaded):
        db, _gen, _counts = loaded
        for index in range(1, 5):
            rows = db.query(variant_by_id(CONFIG, f"Q3-{index}").sql)
            assert len(rows) == 1

    def test_q4_group_count_tracks_selectivity(self, loaded):
        db, _gen, _counts = loaded
        sizes = [len(db.query(variant_by_id(CONFIG, f"Q4-{i}").sql))
                 for i in range(1, 6)]
        assert sizes == sorted(sizes)

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError):
            variant_by_id(CONFIG, "Q9-9")


class TestRefreshStreams:
    def test_insert_statements_apply_cleanly(self, loaded):
        db, generator, _counts = loaded
        fresh = Database()
        TPCHGenerator(CONFIG).generate_into(fresh)
        for sql in insert_statements(generator, 20,
                                     start_key=CONFIG.n_orders + 1):
            fresh.execute(sql)
        assert fresh.query("SELECT count(*) FROM orders") == [
            (CONFIG.n_orders + 20,)]

    def test_insert_keys_do_not_collide(self, loaded):
        _db, generator, _counts = loaded
        statements = insert_statements(generator, 10,
                                       start_key=CONFIG.n_orders + 1)
        assert len(statements) == 10
        assert all("INSERT INTO orders" in sql for sql in statements)

    def test_update_statements_touch_distinct_orders(self, loaded):
        _db, generator, _counts = loaded
        statements = update_statements(generator, 10)
        keys = {sql.rsplit("= ", 1)[1] for sql in statements}
        assert len(keys) == 10

    def test_update_statements_apply(self, loaded):
        _db, generator, _counts = loaded
        fresh = Database()
        TPCHGenerator(CONFIG).generate_into(fresh)
        before = fresh.query(
            "SELECT o_totalprice FROM orders WHERE o_orderkey = 1")
        fresh.execute(update_statements(generator, 1)[0])
        after = fresh.query(
            "SELECT o_totalprice FROM orders WHERE o_orderkey = 1")
        assert after[0][0] == pytest.approx(before[0][0] * 1.01)
