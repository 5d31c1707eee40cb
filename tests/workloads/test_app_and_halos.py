"""Tests for the Section IX-A benchmark application and the halo
finder example workload."""

import pytest

from repro.core import ldv_audit, ldv_exec
from repro.monitor import AuditSession
from repro.workloads import halos
from repro.workloads.app import (
    APP_BINARY,
    INSERT_BINARY,
    INSERT_FILE,
    QUERY_FILE,
    RESULT_FILE,
    SELECT_BINARY,
    UPDATE_BINARY,
    UPDATE_FILE,
    build_scenario,
    build_world,
)
from repro.workloads.tpch.queries import variant_by_id


@pytest.fixture(scope="module")
def world():
    return build_world(scale_factor=0.001, insert_count=10,
                       update_count=5)


class TestBenchmarkWorld:
    def test_tables_loaded(self, world):
        assert world.row_counts["orders"] == 1500
        assert world.database.catalog.has_table("lineitem")

    def test_statement_files_written(self, world):
        fs = world.vos.fs
        assert len(fs.read_text(INSERT_FILE).splitlines()) == 10
        assert len(fs.read_text(UPDATE_FILE).splitlines()) == 5
        assert world.variant.sql in fs.read_text(QUERY_FILE)

    def test_server_binaries_exist(self, world):
        for path in world.server_binary_paths:
            assert world.vos.fs.is_file(path)
        assert world.vos.fs.size_of(world.server_binary_paths[0]) > 1 << 20

    def test_programs_registered(self, world):
        for binary in (APP_BINARY, INSERT_BINARY, SELECT_BINARY,
                       UPDATE_BINARY):
            assert world.vos.has_program(binary)

    def test_registry_covers_programs(self, world):
        assert set(world.registry) == {
            APP_BINARY, INSERT_BINARY, SELECT_BINARY, UPDATE_BINARY}

    def test_update_step_ranges_probe_the_orderkey_index(self, world):
        # the Update step's WHERE, and its reenactment query, must not
        # scan all of orders
        plan = "\n".join(row[0] for row in world.database.execute(
            "EXPLAIN SELECT * FROM orders "
            "WHERE o_orderkey BETWEEN 1 AND 5").rows)
        assert ("IndexScan on orders using idx_orders_orderkey "
                "(o_orderkey BETWEEN 1 AND 5)") in plan


class TestStepPrograms:
    def test_insert_step_adds_orders(self):
        world = build_world(scale_factor=0.001, insert_count=10,
                            update_count=5)
        before = world.database.query("SELECT count(*) FROM orders")[0][0]
        process = world.vos.run(INSERT_BINARY)
        assert process.exit_code == 0
        after = world.database.query("SELECT count(*) FROM orders")[0][0]
        assert after == before + 10

    def test_select_step_writes_result_counts(self):
        world = build_world(scale_factor=0.001, insert_count=5,
                            update_count=5)
        process = world.vos.run(SELECT_BINARY, ["3"])
        assert process.exit_code == 0
        lines = world.vos.fs.read_text(RESULT_FILE).splitlines()
        assert len(lines) == 3
        assert len(set(lines)) == 1  # deterministic query

    def test_update_step_changes_totals(self):
        world = build_world(scale_factor=0.001, insert_count=5,
                            update_count=5)
        before = world.database.query(
            "SELECT o_totalprice FROM orders WHERE o_orderkey = 1")[0][0]
        world.vos.run(UPDATE_BINARY)
        after = world.database.query(
            "SELECT o_totalprice FROM orders WHERE o_orderkey = 1")[0][0]
        assert after == pytest.approx(before * 1.01)

    def test_full_app_runs_three_children(self):
        world = build_world(scale_factor=0.001, insert_count=5,
                            update_count=5)
        process = world.vos.run(APP_BINARY, ["2"])
        assert process.exit_code == 0
        children = world.vos.processes.children_of(process.pid)
        assert [child.binary for child in children] == [
            INSERT_BINARY, SELECT_BINARY, UPDATE_BINARY]

    def test_app_round_trip_server_excluded(self, tmp_path):
        world = build_world(scale_factor=0.001, insert_count=5,
                            update_count=5)
        ldv_audit(world.vos, APP_BINARY, tmp_path / "pkg",
                  mode="server-excluded", argv=["2"],
                  database=world.database,
                  server_name=world.server_name)
        original = world.vos.fs.read_file(RESULT_FILE)
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.outputs[RESULT_FILE] == original

    def test_variant_selection_changes_query(self):
        from repro.workloads.tpch.dbgen import TPCHConfig
        config = TPCHConfig(scale_factor=0.001)
        variant = variant_by_id(config, "Q3-1")
        world = build_world(scale_factor=0.001, variant=variant,
                            insert_count=5, update_count=5)
        world.vos.run(SELECT_BINARY, ["1"])
        lines = world.vos.fs.read_text(RESULT_FILE).splitlines()
        assert lines == ["1"]  # Q3 returns one row

    def test_build_scenario_for_cli(self):
        scenario = build_scenario()
        assert scenario.entry_binary == APP_BINARY
        assert scenario.database is not None
        assert APP_BINARY in scenario.registry


class TestHaloWorkload:
    @pytest.fixture(scope="class")
    def halo_world(self):
        return halos.build_world(n_particles=300, n_observations=200)

    def test_pipeline_confirms_halos(self, halo_world):
        process = halo_world.vos.run(halos.PIPELINE_BINARY)
        assert process.exit_code == 0
        report = halo_world.vos.fs.read_text(halos.RESULT_FILE)
        assert report.splitlines()[0].startswith("halo_id")
        assert len(report.splitlines()) > 1

    def test_candidates_inserted(self, halo_world):
        count = halo_world.database.query(
            "SELECT count(*) FROM candidates")[0][0]
        assert count > 0

    def test_only_joined_observations_relevant(self, tmp_path):
        world = halos.build_world(n_particles=300, n_observations=200)
        report = ldv_audit(
            world.vos, halos.PIPELINE_BINARY, tmp_path / "pkg",
            mode="server-included", database=world.database,
            server_name=world.server_name,
            server_binary_paths=world.server_binary_paths)
        assert 0 < report.packaging.tuple_count < world.n_observations
        # all relevant tuples are observations, never app candidates
        tables = {ref.table
                  for ref in report.session.relevant_tuples.refs()}
        assert tables == {"observations"}

    def test_halo_replay_round_trip(self, tmp_path):
        world = halos.build_world(n_particles=300, n_observations=200)
        ldv_audit(world.vos, halos.PIPELINE_BINARY, tmp_path / "pkg",
                  mode="server-included", database=world.database,
                  server_name=world.server_name,
                  server_binary_paths=world.server_binary_paths)
        original = world.vos.fs.read_file(halos.RESULT_FILE)
        result = ldv_exec(tmp_path / "pkg", world.registry)
        assert result.outputs[halos.RESULT_FILE] == original

    def test_deterministic_world(self):
        first = halos.build_world(seed=3)
        second = halos.build_world(seed=3)
        assert first.vos.fs.read_file(halos.SIMULATION_FILE) == \
            second.vos.fs.read_file(halos.SIMULATION_FILE)
