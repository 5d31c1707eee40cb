"""A failed statement inside a transaction leaves no trace.

The transaction stays open and goes on as if the statement had not been
sent: the session reads what it read before, COMMIT installs only the
statements that succeeded, a reopen recovers the same, and the rowid
counter is where it was. Checked on the engine and over the wire, for
each statement that can fail after it buffered some rows.
"""

from __future__ import annotations

import pytest

from repro.db import Database, DBClient, DBServer
from repro.errors import ExecutionError, IntegrityError

ROWS = "SELECT id, v FROM a ORDER BY id"

# each buffers a row or more before it fails; COPY FROM reads the
# ``source`` fixture's file
FAILING = [
    ("INSERT INTO a VALUES (3, 30), (1, 0)", IntegrityError),
    ("INSERT INTO a SELECT k, w FROM b", IntegrityError),
    ("COPY a FROM '{source}'", IntegrityError),
    # id 1 moves to 6, then id 2 takes the transaction's own 7
    ("UPDATE a SET id = id + 5", IntegrityError),
    # ids 1 and 2 (which the transaction already updated) change, then
    # id 7 divides by zero
    ("UPDATE a SET v = 10 / (v - 70)", ExecutionError),
]
# the transaction's writes before the failing statement, and what
# COMMIT installs
PRELUDE = ["INSERT INTO a VALUES (7, 70)",
           "UPDATE a SET v = 21 WHERE id = 2",
           "DELETE FROM a WHERE id = 5"]
COMMITTED = [(1, 10), (2, 21), (7, 70)]
IDS = ["multi-row-insert", "insert-select", "copy-from",
       "update-moves-a-key", "update-divides-by-zero"]


def setup_tables(execute):
    execute("CREATE TABLE a (id integer PRIMARY KEY, v integer)")
    execute("CREATE TABLE b (k integer, w integer)")
    execute("INSERT INTO a VALUES (1, 10), (2, 20), (5, 50)")
    # scanned in insertion order: row (4, 40) lands before (1, 0) clashes
    execute("INSERT INTO b VALUES (4, 40), (1, 0)")


def counter(database):
    return database.catalog.get_table("a").next_rowid


@pytest.fixture
def source(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("3,30\n1,0\n")
    return path


@pytest.mark.parametrize("statement,error", FAILING, ids=IDS)
def test_engine_statement_is_undone_inside_a_transaction(
        tmp_path, source, statement, error):
    database = Database(data_directory=tmp_path / "d")
    setup_tables(database.execute)
    database.execute("BEGIN")
    for sql in PRELUDE:
        database.execute(sql)
    next_rowid = counter(database)
    with pytest.raises(error):
        database.execute(statement.format(source=source))
    assert database.query(ROWS) == COMMITTED
    assert counter(database) == next_rowid
    database.execute("COMMIT")
    assert database.query(ROWS) == COMMITTED
    assert Database(data_directory=tmp_path / "d").query(ROWS) == COMMITTED


@pytest.mark.parametrize("statement,error", FAILING, ids=IDS)
def test_wire_statement_is_undone_inside_a_transaction(
        source, statement, error):
    server = DBServer(Database())
    alice = DBClient(server.transport(), "alice", "1")
    alice.connect()
    setup_tables(alice.execute)
    alice.begin()
    for sql in PRELUDE:
        alice.execute(sql)
    with pytest.raises(error):
        alice.execute(statement.format(source=source))
    assert alice.in_transaction
    assert alice.query(ROWS) == COMMITTED
    alice.commit()
    assert server.database.query(ROWS) == COMMITTED


def test_later_statements_reuse_the_rowids_a_failed_one_took(tmp_path):
    database = Database(data_directory=tmp_path / "d")
    setup_tables(database.execute)
    database.execute("BEGIN")
    with pytest.raises(IntegrityError):
        database.execute("INSERT INTO a VALUES (3, 30), (4, 40), (1, 0)")
    database.execute("INSERT INTO a VALUES (3, 31)")
    database.execute("COMMIT")
    table = database.catalog.get_table("a")
    assert sorted(table.rows) == [1, 2, 3, 4]
    assert table.rows[4] == (3, 31)
