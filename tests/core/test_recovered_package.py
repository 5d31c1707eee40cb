"""Recovered data directories are indistinguishable from clean ones.

The durability guarantee the packager leans on: a database that crashed
and was recovered from its WAL produces — table files and whole audit
packages alike — the exact bytes a never-crashed database produces.
Without it, reproducibility would silently depend on server uptime.
"""

from pathlib import Path

import pytest

from repro.core.audit import ldv_audit
from repro.core.packager import Packager
from repro.db import Database, DBServer
from repro.db.wal import WAL_MAGIC
from repro.errors import TransactionError
from tests.faults import FaultInjector, FaultyIO, SimulatedCrash
from repro.vos import VirtualOS

from tests.core.conftest import SERVER_BINARIES, sales_app

PREP = [
    "CREATE TABLE sales (id integer PRIMARY KEY, "
    "price float, region text)",
    "INSERT INTO sales VALUES (1, 5, 'east'), (2, 11, 'west'), "
    "(3, 14, 'west'), (4, 2, 'north')",
    "UPDATE sales SET price = 12.5 WHERE id = 2",
]


def prep_database(data_dir, io=None):
    vos = VirtualOS()
    database = Database(data_directory=data_dir, clock=vos.clock, io=io)
    for sql in PREP:
        database.execute(sql)
    return vos, database


def crashed_then_recovered(data_dir):
    """Prep a directory, crash it mid-checkpoint, reopen it healthy."""
    injector = FaultInjector().crash_at("checkpoint.table.rename")
    _, database = prep_database(data_dir, io=FaultyIO(injector))
    with pytest.raises(SimulatedCrash):
        database.checkpoint()
    vos = VirtualOS()
    return vos, Database(data_directory=data_dir, clock=vos.clock)


def tree_bytes(root):
    """Relative path → file bytes for a whole directory tree."""
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def audit_package(vos, database, out_dir):
    vos.register_db_server("main", DBServer(database).transport())
    vos.fs.write_file("/data/config.txt", b"threshold=10\n",
                      create_parents=True)
    for path in SERVER_BINARIES:
        vos.fs.write_file(path, b"\x7fELF" + b"\0" * 4096,
                          create_parents=True)
    vos.register_program("/bin/app", sales_app)
    return ldv_audit(vos, "/bin/app", out_dir, mode="server-included",
                     database=database, server_name="main",
                     server_binary_paths=SERVER_BINARIES)


def test_recovered_table_files_are_byte_identical(tmp_path):
    _, clean = prep_database(tmp_path / "clean")
    clean.checkpoint()
    _, recovered = crashed_then_recovered(tmp_path / "crashed")
    recovered.checkpoint()
    clean_tree = tree_bytes(tmp_path / "clean")
    recovered_tree = tree_bytes(tmp_path / "crashed")
    assert set(clean_tree) == set(recovered_tree)
    assert clean_tree == recovered_tree


def test_packages_from_recovered_directory_are_byte_identical(tmp_path):
    vos_a, clean = prep_database(tmp_path / "clean")
    clean.checkpoint()
    audit_package(vos_a, clean, tmp_path / "pkg-clean")

    vos_b, recovered = crashed_then_recovered(tmp_path / "crashed")
    audit_package(vos_b, recovered, tmp_path / "pkg-recovered")

    clean_pkg = tree_bytes(tmp_path / "pkg-clean")
    recovered_pkg = tree_bytes(tmp_path / "pkg-recovered")
    assert set(clean_pkg) == set(recovered_pkg)
    for name in clean_pkg:
        assert clean_pkg[name] == recovered_pkg[name], (
            f"package file {name} differs after crash recovery")


def test_recovery_preserves_tuple_versions_seen_by_provenance(tmp_path):
    """Provenance queries — the paper's whole point — see the same
    tuple versions before a crash and after recovery."""
    _, clean = prep_database(tmp_path / "clean")
    expected = clean.query(
        "SELECT PROVENANCE id, price FROM sales WHERE price > 10")
    _, recovered = crashed_then_recovered(tmp_path / "crashed")
    actual = recovered.query(
        "SELECT PROVENANCE id, price FROM sales WHERE price > 10")
    assert actual == expected


def test_package_needs_no_checkpoint(tmp_path, monkeypatch):
    """A server-included package reads the catalog and the audit's
    tuple store, never the data files: built while the WAL still holds
    un-checkpointed commits, it is byte-identical to one built right
    after an explicit checkpoint."""
    vos_a, pending = prep_database(tmp_path / "pending")
    report = audit_package(vos_a, pending, tmp_path / "pkg-pending")
    wal = tmp_path / "pending" / "wal.log"
    assert wal.stat().st_size > len(WAL_MAGIC)  # packaging left it alone

    build = Packager.build_server_included

    def checkpoint_then_build(self, out_dir, database, *args):
        database.checkpoint()
        return build(self, out_dir, database, *args)

    monkeypatch.setattr(Packager, "build_server_included",
                        checkpoint_then_build)
    vos_b, checkpointed = prep_database(tmp_path / "checkpointed")
    audit_package(vos_b, checkpointed, tmp_path / "pkg-checkpointed")
    assert tree_bytes(tmp_path / "pkg-pending") == tree_bytes(
        tmp_path / "pkg-checkpointed")

    # packaging still refuses to run while a transaction is open
    monkeypatch.undo()
    pending.execute("BEGIN")
    with pytest.raises(TransactionError, match="cannot package"):
        Packager(vos_a, report.session, "/bin/app").build_server_included(
            tmp_path / "pkg-busy", pending, "main", SERVER_BINARIES)
