"""Restore CSVs: a hostile one fails replay with one line naming its
file and line, and a valid one restores its values as written.

For the hostile cases the server-included package of the sales world
is given one more table, ``probe``, in ``db/schema.sql``, and a restore
CSV for it whose first row is valid and whose second is not.
"""

import shutil

import pytest

from repro.core import ldv_audit
from repro.core.cli import exec_main
from repro.core.replay import ReplaySession, ldv_exec
from repro.errors import PackageError

from tests.core.conftest import SERVER_BINARIES, World
from tests.core.test_cli import SCENARIO_SPEC

PROBE_SCHEMA = ("CREATE TABLE probe (id integer PRIMARY KEY, qty integer, "
                "price float, shipped date, note text NOT NULL);\n")
GOOD_ROW = "1,1,7,3,2.5,1998-01-02,ok\n"

CASES = [
    # id, restore CSV text of probe, what the one line must say
    ("bad-rowid", GOOD_ROW + "x9,1,8,3,2.5,1998-01-02,ok\n",
     "probe.csv line 2: rowid: invalid literal for int() with base 10: "
     "'x9'"),
    ("bad-version", GOOD_ROW + "2,v1,8,3,2.5,1998-01-02,ok\n",
     "probe.csv line 2: version: invalid literal"),
    ("bad-integer", GOOD_ROW + "2,1,8,three,2.5,1998-01-02,ok\n",
     "probe.csv line 2: column qty: invalid literal"),
    ("bad-float", GOOD_ROW + "2,1,8,3,abc,1998-01-02,ok\n",
     "probe.csv line 2: column price: could not convert string to float"),
    ("bad-date", GOOD_ROW + "2,1,8,3,2.5,1998-13-45,ok\n",
     "probe.csv line 2: column shipped: invalid DATE literal "
     "'1998-13-45'"),
    ("null-in-not-null", GOOD_ROW + "2,1,8,3,2.5,1998-01-02,\n",
     "probe.csv line 2: column note is NOT NULL"),
    ("too-few-cells", GOOD_ROW + "2,1,8,3,2.5,1998-01-02\n",
     "probe.csv line 2: expected 7 cells (rowid, version and 5 values), "
     "got 6"),
    ("too-many-cells", GOOD_ROW + "2,1,8,3,2.5,1998-01-02,ok,extra\n",
     "probe.csv line 2: expected 7 cells"),
    ("duplicate-rowid", GOOD_ROW + "1,1,8,3,2.5,1998-01-02,ok\n",
     "probe.csv line 2: duplicate rowid 1 in table probe"),
    ("duplicate-pk", GOOD_ROW + "2,1,7,3,2.5,1998-01-02,ok\n",
     "probe.csv line 2: duplicate primary key (7,) in table probe"),
    ("line-after-multiline-cell",
     '1,1,7,3,2.5,1998-01-02,"two\nlines"\n2,1,8,three,2.5,1998-01-02,ok\n',
     "probe.csv line 3: column qty: invalid literal"),
    ("bad-row-spanning-lines",
     GOOD_ROW + '2,1,8,three,2.5,1998-01-02,"two\nlines"\n',
     "probe.csv line 2: column qty: invalid literal"),
    ("not-utf8", b"1,1,7,3,2.5,1998-01-02,\xff\n",
     "probe.csv is not UTF-8 text"),
    ("table-not-in-schema", None,
     "db/restore/ghost.csv: db/schema.sql creates no table 'ghost'"),
]


@pytest.fixture(scope="module")
def audited(tmp_path_factory):
    world = World()
    path = tmp_path_factory.mktemp("audited") / "pkg"
    ldv_audit(world.vos, "/bin/app", path, mode="server-included",
              database=world.database, server_name="main",
              server_binary_paths=SERVER_BINARIES)
    return path, world.registry


@pytest.mark.parametrize("text,message",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_hostile_restore_csv_fails_in_one_line(audited, tmp_path, capsys,
                                               text, message):
    source, registry = audited
    package = tmp_path / "pkg"
    shutil.copytree(source, package)
    restore = package / "db" / "restore"
    if text is None:
        (restore / "ghost.csv").write_text(GOOD_ROW)
    else:
        schema = package / "db" / "schema.sql"
        schema.write_text(schema.read_text() + PROBE_SCHEMA)
        probe = restore / "probe.csv"
        if isinstance(text, bytes):
            probe.write_bytes(text)
        else:
            probe.write_text(text)
    with pytest.raises(PackageError) as info:
        ldv_exec(package, registry)
    assert message in str(info.value)
    assert exec_main([str(package), SCENARIO_SPEC]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ldv-exec: error: PackageError: db/restore/")
    assert message in err


def test_valid_probe_rows_restore(audited, tmp_path):
    """The good row alone restores; only the tuple count the manifest
    records then disagrees."""
    source, registry = audited
    package = tmp_path / "pkg"
    shutil.copytree(source, package)
    schema = package / "db" / "schema.sql"
    schema.write_text(schema.read_text() + PROBE_SCHEMA)
    (package / "db" / "restore" / "probe.csv").write_text(GOOD_ROW)
    with pytest.raises(PackageError, match="restore CSVs hold"):
        ldv_exec(package, registry)


def test_text_with_carriage_returns_restores_as_written(tmp_path):
    world = World()
    sales = world.database.catalog.get_table("sales")
    # price > 10: the app's query reads it, so the package ships it
    sales.insert((5, 20.0, "x\r\ny\rz"), world.database.clock.tick())
    ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
              mode="server-included", database=world.database,
              server_name="main", server_binary_paths=SERVER_BINARIES)
    session = ReplaySession(tmp_path / "pkg", world.registry)
    session.prepare()
    restored = session.database.catalog.get_table("sales")
    assert restored.get(5) == (5, 20.0, "x\r\ny\rz")
    assert session.run().validated


def test_long_text_restores_as_written(tmp_path):
    # longer than the csv module's default field limit (131,072)
    long_text = 'a,"b\n' * 40_000
    world = World()
    sales = world.database.catalog.get_table("sales")
    sales.insert((5, 20.0, long_text), world.database.clock.tick())
    ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
              mode="server-included", database=world.database,
              server_name="main", server_binary_paths=SERVER_BINARIES)
    session = ReplaySession(tmp_path / "pkg", world.registry)
    session.prepare()
    restored = session.database.catalog.get_table("sales")
    assert restored.get(5) == (5, 20.0, long_text)
    assert session.run().validated
