"""A failed autocommit statement leaves no trace.

Its WAL batch is aborted, so recovery never sees it; the heap must
agree. Whatever rows the statement changed before it raised are put
back, so the in-memory tables, the tables a reopen recovers, and the
tables before the statement are the same — rows, versions, and the
rowid counter.
"""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.errors import ExecutionError, IntegrityError

SEEDED = "INSERT INTO a VALUES (1, 1), (2, 0), (3, 3)"


def heap(database):
    table = database.catalog.get_table("a")
    return (sorted((rowid, table.versions[rowid], row)
                   for rowid, row in table.rows.items()),
            table.next_rowid)


@pytest.mark.parametrize("seed,statement,error", [
    # row 1 becomes (1, 10) before row 2 divides by zero
    (True, "UPDATE a SET v = 10 / v", ExecutionError),
    # row 1 takes key 5 before row 2 collides with it
    (True, "UPDATE a SET k = 5", IntegrityError),
    # the first row lands before the second repeats its key
    (False, "INSERT INTO a VALUES (1, 1), (1, 2)", IntegrityError),
    (True, "INSERT INTO a VALUES (4, 4), (5, 5), (2, 2)", IntegrityError),
], ids=["division-by-zero", "moved-key-collides", "repeated-key",
        "third-row-collides"])
def test_failed_statement_changes_nothing(tmp_path, seed, statement,
                                          error):
    database = Database(data_directory=tmp_path)
    database.execute("CREATE TABLE a (k integer PRIMARY KEY, v integer)")
    if seed:
        database.execute(SEEDED)
    before = heap(database)
    with pytest.raises(error):
        database.execute(statement)
    assert heap(database) == before
    assert heap(Database(data_directory=tmp_path)) == before


def test_failed_copy_changes_nothing(tmp_path):
    database = Database(data_directory=tmp_path / "d")
    database.execute("CREATE TABLE a (k integer PRIMARY KEY, v integer)")
    database.execute(SEEDED)
    before = heap(database)
    source = tmp_path / "rows.csv"
    source.write_text("4,4\n5,5\n1,9\n")
    with pytest.raises(IntegrityError):
        database.execute(f"COPY a FROM '{source}'")
    assert heap(database) == before
    assert heap(Database(data_directory=tmp_path / "d")) == before


def test_engine_stays_usable_after_the_undo(tmp_path):
    database = Database(data_directory=tmp_path)
    database.execute("CREATE TABLE a (k integer PRIMARY KEY, v integer)")
    database.execute(SEEDED)
    with pytest.raises(IntegrityError):
        database.execute("UPDATE a SET k = 5")
    # the primary-key index was restored with the rows: key 5 is free
    # and key 1 is still taken
    database.execute("UPDATE a SET k = 5 WHERE k = 1")
    with pytest.raises(IntegrityError):
        database.execute("INSERT INTO a VALUES (2, 9)")
    expected = [(2, 0), (3, 3), (5, 1)]
    assert sorted(database.query("SELECT k, v FROM a")) == expected
    reopened = Database(data_directory=tmp_path)
    assert sorted(reopened.query("SELECT k, v FROM a")) == expected
    assert heap(reopened) == heap(database)
