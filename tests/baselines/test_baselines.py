"""CDE, PTU, and VMI baseline tests."""

import pytest

from repro.baselines import VMIModel, build_cde_package, build_ptu_package
from repro.core import ldv_audit, ldv_exec
from repro.core.package import Package
from repro.core.replay import ReplaySession
from repro.errors import CatalogError, PackageError, TransientError

from tests.core.conftest import SERVER_BINARIES, World


@pytest.fixture
def world(tmp_path):
    return World(data_dir=tmp_path / "pgdata")


class TestCDE:
    def test_snapshot_contains_inputs_only(self, world, tmp_path):
        result = build_cde_package(world.vos, "/bin/app",
                                   tmp_path / "cde")
        package = result.package
        assert package.file_path("/bin/app").exists()
        assert package.file_path("/data/config.txt").exists()
        # outputs are not snapshotted
        assert not package.file_path("/data/report.txt").exists()

    def test_no_db_content_captured(self, world, tmp_path):
        result = build_cde_package(world.vos, "/bin/app",
                                   tmp_path / "cde")
        summary = result.package.contents_summary()
        assert summary["db_server"] is False
        assert summary["db_provenance"] is False

    def test_db_traffic_detected_but_not_captured(self, world, tmp_path):
        result = build_cde_package(world.vos, "/bin/app",
                                   tmp_path / "cde")
        assert result.saw_db_traffic is True

    def test_pure_file_app_has_no_db_traffic(self, tmp_path):
        world = World()
        world.vos.register_program(
            "/bin/files", lambda ctx: ctx.write_file("/o", b"x") and 0)
        result = build_cde_package(world.vos, "/bin/files",
                                   tmp_path / "cde")
        assert result.saw_db_traffic is False


class TestPTU:
    def test_package_contains_full_data_files(self, world, tmp_path):
        result = build_ptu_package(
            world.vos, "/bin/app", tmp_path / "ptu", world.database,
            "main", SERVER_BINARIES)
        summary = result.package.contents_summary()
        assert summary["full_data_files"] is True
        assert summary["db_server"] is True
        assert summary["db_provenance"] is False

    def test_data_bytes_equal_data_directory(self, world, tmp_path):
        result = build_ptu_package(
            world.vos, "/bin/app", tmp_path / "ptu", world.database,
            "main", SERVER_BINARIES)
        expected = world.database.catalog.data_directory.total_bytes()
        assert result.data_bytes == expected

    def test_requires_on_disk_database(self, tmp_path):
        world = World()  # in-memory
        with pytest.raises(PackageError):
            build_ptu_package(world.vos, "/bin/app", tmp_path / "ptu",
                              world.database, "main", SERVER_BINARIES)

    def test_ptu_package_replays(self, world, tmp_path):
        build_ptu_package(world.vos, "/bin/app", tmp_path / "ptu",
                          world.database, "main", SERVER_BINARIES)
        original = world.vos.fs.read_file("/data/report.txt")
        result = ldv_exec(tmp_path / "ptu", world.registry)
        assert result.outputs["/data/report.txt"] == original

    def test_ptu_replay_refuses_malformed_table_file(self, world, tmp_path):
        build_ptu_package(world.vos, "/bin/app", tmp_path / "ptu",
                          world.database, "main", SERVER_BINARIES)
        path = tmp_path / "ptu" / "db" / "data" / "sales.tbl"
        # a row one value short of the three-column schema
        path.write_text(path.read_text() + "9,1,9,1.0\n")
        with pytest.raises(CatalogError, match="sales line 6: expected 5"):
            ldv_exec(tmp_path / "ptu", world.registry)

    def test_ptu_replay_refuses_non_utf8_table_file(self, world, tmp_path):
        build_ptu_package(world.vos, "/bin/app", tmp_path / "ptu",
                          world.database, "main", SERVER_BINARIES)
        path = tmp_path / "ptu" / "db" / "data" / "sales.tbl"
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(CatalogError,
                           match=r"sales\.tbl is not UTF-8") as info:
            ldv_exec(tmp_path / "ptu", world.registry)
        assert "\n" not in str(info.value)

    def test_ptu_restored_tables_keep_snapshot_isolation(self, world,
                                                         tmp_path):
        """A table restored from a PTU data file follows the one-writer
        rule like any other: while a transaction is open, another
        session's write is refused, so the transaction's snapshot
        holds."""
        build_ptu_package(world.vos, "/bin/app", tmp_path / "ptu",
                          world.database, "main", SERVER_BINARIES)
        replay = ReplaySession(tmp_path / "ptu", world.registry)
        replay.prepare()
        database = replay.database
        reader = database.create_session("reader")
        query = "SELECT price FROM sales WHERE id = 2"
        database.execute("BEGIN", session=reader)
        assert database.query(query, session=reader) == [(11.0,)]
        with pytest.raises(TransientError):
            database.execute("UPDATE sales SET price = 99 WHERE id = 2")
        assert database.query(query, session=reader) == [(11.0,)]
        database.execute("COMMIT", session=reader)
        database.execute("UPDATE sales SET price = 99 WHERE id = 2")
        assert database.query(query) == [(99.0,)]

    def test_ptu_larger_than_ldv_when_selectivity_is_low(self, tmp_path):
        """The Fig 9 effect: LDV ships only the relevant subset."""
        def selective_app(ctx):
            client = ctx.connect_db("main")
            rows = client.execute(
                "SELECT sum(price) FROM sales WHERE price > 10").rows
            ctx.write_file("/data/report.txt", str(rows[0][0]))
            client.close()

        def padded_world(data_dir):
            world = World(data_dir=data_dir)
            heap = world.database.catalog.get_table("sales")
            tick = world.database.clock.tick()
            for key in range(1000, 4000):
                heap.insert((key, 1.0, "padding-" + "y" * 30), tick)
            # a load past the engine declares itself to the checkpoint
            world.database.catalog.mark_dirty("sales")
            world.database.checkpoint()
            world.vos.register_program("/bin/selective", selective_app)
            world.registry["/bin/selective"] = selective_app
            return world

        ptu = build_ptu_package(
            padded_world(tmp_path / "pg1").vos, "/bin/selective",
            tmp_path / "ptu",
            padded_world(tmp_path / "pg2").database, "main",
            SERVER_BINARIES)
        world = padded_world(tmp_path / "pg3")
        ldv = ldv_audit(world.vos, "/bin/selective", tmp_path / "ldv",
                        mode="server-included", database=world.database,
                        server_name="main",
                        server_binary_paths=SERVER_BINARIES)
        ptu_data = ptu.package.breakdown().get("db/data", 0)
        ldv_restore = ldv.packaging.package.breakdown().get(
            "db/restore", 0)
        assert ldv_restore * 5 < ptu_data


class TestVMIModel:
    def test_image_size_composition(self):
        model = VMIModel(base_image_bytes=1000)
        assert model.image_bytes(200, 300, 50) == 1550

    def test_replay_slowdown(self):
        model = VMIModel(boot_seconds=10.0, slowdown_factor=1.5)
        assert model.replay_seconds(4.0) == 6.0
        assert model.replay_seconds(4.0, include_boot=True) == 16.0

    def test_vm_slower_than_native(self):
        model = VMIModel()
        assert model.replay_seconds(1.0) > 1.0

    def test_paper_headline_ratio(self):
        """8.2 GB VMI vs ~100 MB average LDV package: ~80x."""
        model = VMIModel()
        image = model.image_bytes(server_bytes=4_000_000_000,
                                  data_bytes=3_000_000_000)
        ratio = image / 100_000_000
        assert 50 < ratio < 120
