"""Replay keeps its database in memory and leaves the package as it was.

A replay rebuilds its server from the package on every ``prepare()`` and
nothing reads that database back, so it has no WAL, issues no fsync and
writes nothing into the package directory, in all three flavours.
"""

import hashlib

import pytest

from repro.baselines import build_ptu_package
from repro.core import ldv_audit, ldv_exec
from repro.core.replay import ReplaySession

from tests.core.conftest import SERVER_BINARIES, World

FLAVOURS = ["included", "excluded", "ptu"]


def build(flavour, world, out_dir):
    """Audit ``sales_app`` (an INSERT and an UPDATE among its
    statements) into a package of ``flavour``."""
    if flavour == "ptu":
        build_ptu_package(world.vos, "/bin/app", out_dir, world.database,
                          "main", SERVER_BINARIES)
    else:
        ldv_audit(world.vos, "/bin/app", out_dir,
                  mode=f"server-{flavour}", database=world.database,
                  server_name="main", server_binary_paths=SERVER_BINARIES)


def tree_digest(root):
    """sha256 over every entry's relative path and every file's bytes,
    so a new empty directory changes it too."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(params=FLAVOURS)
def packaged(request, tmp_path):
    world = World(data_dir=tmp_path / "pgdata")
    build(request.param, world, tmp_path / "pkg")
    return request.param, world, tmp_path / "pkg"


def test_replay_leaves_the_package_directory_unchanged(packaged):
    _flavour, world, package_dir = packaged
    before = tree_digest(package_dir)
    ldv_exec(package_dir, world.registry)
    ldv_exec(package_dir, world.registry)
    assert tree_digest(package_dir) == before


def test_insert_update_app_replays_validated(packaged):
    _flavour, world, package_dir = packaged
    original = world.vos.fs.read_file("/data/report.txt")
    result = ldv_exec(package_dir, world.registry)
    assert result.process.exit_code == 0
    assert result.outputs["/data/report.txt"] == original
    assert result.output_matches == {"/data/report.txt": True}
    assert result.validated


def test_replay_database_has_no_wal(packaged):
    flavour, world, package_dir = packaged
    session = ReplaySession(package_dir, world.registry)
    session.prepare()
    session.run()
    if flavour == "excluded":
        assert session.database is None
        return
    assert session.database.wal is None
    assert session.database.catalog.data_directory is None
    # the app's INSERT and UPDATE ran against the replay server
    assert session.database.query(
        "SELECT region FROM sales WHERE id IN (2, 100) ORDER BY id") == [
            ("x",), ("new",)]


@pytest.mark.parametrize("existing", [False, True],
                         ids=["absent", "empty"])
def test_scratch_dir_is_accepted_and_ignored(packaged, tmp_path,
                                             existing):
    _flavour, world, package_dir = packaged
    scratch = tmp_path / "scratch"
    if existing:
        scratch.mkdir()
    session = ReplaySession(package_dir, world.registry,
                            scratch_dir=scratch)
    session.prepare()
    assert session.run().validated
    if existing:
        assert list(scratch.iterdir()) == []
    else:
        assert not scratch.exists()
