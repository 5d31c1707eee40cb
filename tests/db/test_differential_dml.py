"""Differential DML oracle: UPDATE/DELETE targeting vs stdlib sqlite3.

UPDATE and DELETE find their target rows through a hash index when
one WHERE conjunct is an indexable ``=``, ``IN`` or integer
``BETWEEN`` (the index yields candidates, the compiled WHERE re-checks
each one). This suite runs generated UPDATE/DELETE statements against
both engines — over the differential oracle's t0/t1 data, with
indexes on ``t0.a`` and ``t0.d`` — and asserts after every statement
that the full table contents (and the affected-row count) match.

The WHERE grammar is built around the index: ``=``, ``IN`` with NULL
items, and ``BETWEEN`` with reversed bounds, a NULL bound, a float
bound, ``NOT BETWEEN``, and ranges wider than the table, mixed with
the oracle's other atoms through AND/OR. Statements run in autocommit
and inside ``BEGIN … COMMIT/ROLLBACK`` (where, once the transaction
has written the table, the index path falls back to a merged scan).

CI pins ``SEED_COUNT`` seeds; ``pytest --seeds N`` widens or narrows
the sweep.
"""

from __future__ import annotations

import random

import pytest

from repro.db.executor import IndexScan
from tests.db.test_differential_sqlite import _atom, build_engines

pytestmark = pytest.mark.differential

SEED_COUNT = 30          # pinned for CI
STATEMENTS_PER_BLOCK = 4
BLOCKS_PER_SEED = 4      # autocommit, then transactions, interleaved

INDEXES = ("CREATE INDEX t0_a ON t0 (a)", "CREATE INDEX t0_d ON t0 (d)")

ASSIGNMENTS = ["b = b + 1", "b = NULL", "c = 'moved'", "d = d + 3",
               "a = a + 1", "b = a * 2, d = d - 1"]


def pytest_generate_tests(metafunc):
    if "oracle_seed" in metafunc.fixturenames:
        count = metafunc.config.getoption("--seeds") or SEED_COUNT
        metafunc.parametrize("oracle_seed", range(count))


def build_indexed_engines(seed):
    rng, database, connection = build_engines(seed)
    connection.commit()
    # explicit BEGIN/COMMIT/ROLLBACK below, as in this engine
    connection.isolation_level = None
    for ddl in INDEXES:
        database.execute(ddl)
        connection.execute(ddl)
    return rng, database, connection


# -- statement grammar ----------------------------------------------------------

def _between(rng, column):
    low = rng.randint(-2, 10)
    high = low + rng.randint(0, 4)
    shape = rng.random()
    if shape < 0.15:
        low, high = high + 1, low          # reversed: matches nothing
    elif shape < 0.25:
        low = "NULL"                       # UNKNOWN for every row
    elif shape < 0.35:
        high = f"{high}.5"                 # float bound: no range probe
    elif shape < 0.45:
        low, high = -100, 100              # wider than the table
    negated = "NOT " if rng.random() < 0.2 else ""
    return f"{column} {negated}BETWEEN {low} AND {high}"


def _index_atom(rng):
    """One predicate atom on an indexed column."""
    column = rng.choice(["a", "d"])
    kind = rng.random()
    if kind < 0.3:
        return f"{column} = {rng.randint(0, 10)}"
    if kind < 0.55:
        items = [str(rng.randint(0, 10)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.4:
            items.insert(rng.randrange(len(items) + 1), "NULL")
        return f"{column} IN ({', '.join(items)})"
    return _between(rng, column)


def dml_predicate(rng):
    probe = _index_atom(rng)
    mix = rng.random()
    if mix < 0.35:
        return probe
    if mix < 0.6:
        return f"{probe} AND {_atom(rng)}"
    if mix < 0.75:
        return f"{_atom(rng)} AND {probe} AND {_index_atom(rng)}"
    if mix < 0.9:
        return f"{probe} OR {_atom(rng)}"
    return f"({probe} OR {_index_atom(rng)}) AND {_atom(rng)}"


def generate_dml(rng):
    where = dml_predicate(rng)
    if rng.random() < 0.65:
        return f"UPDATE t0 SET {rng.choice(ASSIGNMENTS)} WHERE {where}"
    return f"DELETE FROM t0 WHERE {where}"


# -- the oracle ---------------------------------------------------------------

def table_contents(database, connection, table):
    sql = f"SELECT * FROM {table}"
    mine = sorted(repr(tuple(row)) for row in database.query(sql))
    reference = sorted(repr(tuple(row))
                       for row in connection.execute(sql).fetchall())
    return mine, reference


def run_and_compare(database, connection, sql):
    """Run one statement on both engines; return a description of
    the first divergence, or None when they agree."""
    mine = database.execute(sql)
    cursor = connection.execute(sql)
    if (sql.startswith(("UPDATE", "DELETE"))
            and mine.rowcount != cursor.rowcount):
        return (f"rowcount {mine.rowcount} != sqlite's "
                f"{cursor.rowcount} after\n  {sql}")
    for table in ("t0", "t1"):
        ours, theirs = table_contents(database, connection, table)
        if ours != theirs:
            return (f"{table} diverges after\n  {sql}\n"
                    f"  ours:   {ours}\n  sqlite: {theirs}")
    return None


def test_differential_dml_oracle(oracle_seed):
    rng, database, connection = build_indexed_engines(oracle_seed)
    for block in range(BLOCKS_PER_SEED):
        transactional = block % 2 == 1
        statements = [generate_dml(rng)
                      for _ in range(STATEMENTS_PER_BLOCK)]
        if transactional:
            statements = (["BEGIN"] + statements
                          + [rng.choice(["COMMIT", "ROLLBACK"])])
        for sql in statements:
            divergence = run_and_compare(database, connection, sql)
            assert divergence is None, f"seed {oracle_seed}: {divergence}"


def test_grammar_reaches_every_index_shape():
    """The grammar produces every probe shape the suite claims."""
    rng = random.Random(0)
    text = " ".join(dml_predicate(rng) for _ in range(400))
    for needle in ("IN (", "NULL", "NOT BETWEEN", "BETWEEN NULL",
                   ".5", "BETWEEN -100 AND 100", " OR ", " AND "):
        assert needle in text, needle


def test_oracle_catches_a_seeded_divergence(monkeypatch):
    """Sanity: a range probe that silently drops its upper bound must
    be caught — the re-check cannot restore rows that were never
    candidates."""
    _, database, connection = build_indexed_engines(0)
    high = max(row[0] for row in database.query("SELECT a FROM t0"))
    low = high - 1  # a two-value range: narrower than the table
    original = IndexScan._probe_values

    def drop_high(self):
        values = original(self)
        if isinstance(values, range):
            return range(values.start, values.stop - 1)
        return values

    monkeypatch.setattr(IndexScan, "_probe_values", drop_high)
    divergence = run_and_compare(
        database, connection,
        f"UPDATE t0 SET b = -1 WHERE a BETWEEN {low} AND {high}")
    assert divergence is not None
