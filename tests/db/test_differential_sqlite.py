"""Differential SQL oracle: repro.db vs stdlib sqlite3.

For each pinned seed, generate a small random schema and data set,
load both engines identically, and run a bounded family of generated
SELECTs — filters (with NULL three-valued logic), implicit and ON-style
equi-joins, LEFT JOIN, aggregates, GROUP BY/HAVING, DISTINCT (including
DISTINCT over joins), IN/NOT IN lists (with NULL items), ORDER BY,
ORDER BY + LIMIT/OFFSET and integer ``/`` and ``%`` over negative
operands — asserting identical result multisets
(identical *lists* where the query orders totally).

ORDER BY + LIMIT cases key only on non-nullable columns: sqlite sorts
NULLs first while this engine sorts them last, so a LIMIT over a
nullable key would truncate different rows even though both orders are
individually valid.

Every case also checks lineage against an independent oracle: Perm's
query-rewrite Lineage, run in sqlite3. A *witness* query carries the
``rowid`` of each contributing base tuple next to the output columns;
the engine's lineage (with ``provenance=True``) must equal, row for
row, the set of ``(table, rowid)`` the witnesses name. Engine rowids
and sqlite rowids both count 1..n in insertion order. Aggregate and
DISTINCT rows take the union of the witnesses of their output key (a
global aggregate takes them all); a LEFT JOIN's NULL right rowid
names no tuple.

A second input set is a skewed star (fact × fan-out junction ×
selective dimension) plus an indexed probe table, a few hundred rows
each, queried with multi-way joins, LEFT JOIN and short and long
indexed IN lists: shapes that lean on the planner's rote choices of
join order, hash-join build side and index probe.

CI pins ``SEED_COUNT`` seeds; ``pytest --seeds N`` widens or narrows
the sweep locally without touching the code.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.db import Database

pytestmark = pytest.mark.differential

SEED_COUNT = 30          # pinned for CI
QUERIES_PER_SEED = 12    # grammar families below


def pytest_generate_tests(metafunc):
    if "oracle_seed" in metafunc.fixturenames:
        count = metafunc.config.getoption("--seeds") or SEED_COUNT
        metafunc.parametrize("oracle_seed", range(count))


# -- random schema + data -----------------------------------------------------

COLORS = ["red", "green", "blue", "amber", "teal"]

TABLES = {
    # name -> (columns, nullable flags); column types: i = integer,
    # t = text. Column a doubles as the join key everywhere.
    "t0": [("a", "i", False), ("b", "i", True),
           ("c", "t", True), ("d", "i", False)],
    "t1": [("a", "i", False), ("e", "i", False), ("f", "t", True)],
}


def _random_value(rng, kind, nullable):
    if nullable and rng.random() < 0.25:
        return None
    if kind == "i":
        return rng.randint(0, 9)
    return rng.choice(COLORS)


def _random_rows(rng, columns, count):
    return [tuple(_random_value(rng, kind, nullable)
                  for _, kind, nullable in columns)
            for _ in range(count)]


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value + "'"
    return str(value)


def build_engines(seed):
    rng = random.Random(seed)
    database = Database()
    connection = sqlite3.connect(":memory:")
    for name, columns in TABLES.items():
        ddl_columns = ", ".join(
            f"{column} {'integer' if kind == 'i' else 'text'}"
            for column, kind, _ in columns)
        database.execute(f"CREATE TABLE {name} ({ddl_columns})")
        connection.execute(f"CREATE TABLE {name} ({ddl_columns})")
        rows = _random_rows(rng, columns, rng.randint(5, 12))
        values = ", ".join(
            "(" + ", ".join(_literal(v) for v in row) + ")"
            for row in rows)
        database.execute(f"INSERT INTO {name} VALUES {values}")
        placeholders = ", ".join("?" for _ in columns)
        connection.executemany(
            f"INSERT INTO {name} VALUES ({placeholders})", rows)
    return rng, database, connection


# -- random query grammar -----------------------------------------------------

INT_OPS = ["=", "!=", "<", "<=", ">", ">="]


def _atom(rng, prefix=""):
    """One predicate atom over t0's columns."""
    choice = rng.random()
    if choice < 0.5:
        column = rng.choice(["a", "b", "d"])
        return (f"{prefix}{column} {rng.choice(INT_OPS)} "
                f"{rng.randint(0, 9)}")
    if choice < 0.7:
        return f"{prefix}c = '{rng.choice(COLORS)}'"
    column = rng.choice(["b", "c"])
    negated = rng.random() < 0.5
    return f"{prefix}{column} IS {'NOT ' if negated else ''}NULL"


def _predicate(rng, prefix=""):
    atoms = [_atom(rng, prefix) for _ in range(rng.randint(1, 3))]
    glue = f" {rng.choice(['AND', 'OR'])} "
    return glue.join(atoms)


def generate_query(rng, family):
    """One SELECT from the bounded grammar. Returns (sql, ordered)
    where ``ordered`` means the result is a totally ordered list."""
    if family == 0:  # filtered scan
        return (f"SELECT a, b, c, d FROM t0 WHERE {_predicate(rng)}",
                False)
    if family == 1:  # expression projection + total ORDER BY
        # every projected column is an ORDER BY key, so equal sort
        # keys mean equal rows and the list compare is exact
        direction = rng.choice(["", " DESC"])
        return (f"SELECT d, a, a + d FROM t0 WHERE d <= "
                f"{rng.randint(2, 5)} "
                f"ORDER BY d{direction}, a, a + d", True)
    if family == 2:  # implicit equi-join
        return (f"SELECT t0.a, t0.d, t1.e FROM t0, t1 "
                f"WHERE t0.a = t1.a AND {_predicate(rng, 't0.')}",
                False)
    if family == 3:  # JOIN ... ON with a filter on the right table
        return (f"SELECT x.a, x.b, y.e FROM t0 x JOIN t1 y "
                f"ON x.a = y.a WHERE y.e > {rng.randint(0, 6)}",
                False)
    if family == 4:  # LEFT JOIN: unmatched rows surface NULLs
        return (f"SELECT x.a, x.d, y.e, y.f FROM t0 x LEFT JOIN t1 y "
                f"ON x.a = y.a WHERE x.d >= {rng.randint(0, 3)}",
                False)
    if family == 5:  # global aggregates, NULL-skipping included
        return (f"SELECT count(*), count(b), sum(d), min(d), max(d), "
                f"sum(b) FROM t0 WHERE {_predicate(rng)}", False)
    if family == 6:  # GROUP BY (+ HAVING half the time)
        having = (f" HAVING count(*) > {rng.randint(1, 2)}"
                  if rng.random() < 0.5 else "")
        key = rng.choice(["b", "c", "d", "a % 2"])
        return (f"SELECT {key}, count(*), sum(d), min(a) FROM t0 "
                f"GROUP BY {key}{having}", False)
    if family == 7:  # DISTINCT projection
        columns = rng.choice(["c", "b", "a % 3, c"])
        return f"SELECT DISTINCT {columns} FROM t0", False
    if family == 8:  # IN / NOT IN lists, occasionally with a NULL item
        column = rng.choice(["a", "b", "d"])
        items = [str(rng.randint(0, 9))
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            items.insert(rng.randrange(len(items) + 1), "NULL")
        negated = rng.random() < 0.4
        return (f"SELECT a, b, c, d FROM t0 WHERE {column} "
                f"{'NOT IN' if negated else 'IN'} ({', '.join(items)})",
                False)
    if family == 9:  # ORDER BY + LIMIT (+ OFFSET) over a total order
        # keys restricted to the non-nullable a and d: sqlite and this
        # engine disagree on NULL placement, and LIMIT would expose it
        direction = rng.choice(["", " DESC"])
        limit = rng.randint(1, 6)
        offset = f" OFFSET {rng.randint(0, 3)}" if rng.random() < 0.5 else ""
        where = (f"WHERE d <= {rng.randint(3, 7)} "
                 if rng.random() < 0.5 else "")
        return (f"SELECT d, a, a + d FROM t0 {where}"
                f"ORDER BY d{direction}, a, a + d LIMIT {limit}{offset}",
                True)
    if family == 10:  # DISTINCT over a join
        columns = rng.choice(["x.a", "y.e", "x.d, y.e"])
        return (f"SELECT DISTINCT {columns} FROM t0 x JOIN t1 y "
                f"ON x.a = y.a", False)
    # family == 11: integer / and % truncate toward zero, so a
    # remainder takes the dividend's sign; divisors are never zero
    # (sqlite answers NULL where this engine raises)
    divisor = rng.choice([-4, -3, -2, 2, 3, 4])
    return (f"SELECT a, (a - d) % {divisor}, (a - d) / {divisor}, "
            f"(b - 5) % (d + 1), (d - 9) / (a + 1), "
            f"(a - 5) % (d - 10) FROM t0", False)


# -- the oracle ---------------------------------------------------------------

def canonical(rows, ordered):
    rendered = [repr(tuple(row)) for row in rows]
    return rendered if ordered else sorted(rendered)


# the FROM aliases whose rowids each family's witness query carries
WITNESS_ALIASES = {0: ("t0",), 1: ("t0",), 2: ("t0", "t1"),
                   3: ("x", "y"), 4: ("x", "y"), 5: ("t0",), 6: ("t0",),
                   7: ("t0",), 8: ("t0",), 9: ("t0",), 10: ("x", "y"),
                   11: ("t0",)}
ALIAS_TABLES = {"t0": "t0", "t1": "t1", "x": "t0", "y": "t1"}
GROUPED_FAMILIES = (5, 6, 7, 10)


def witness_sql(sql, family):
    """The witness query of a generated ``sql``: its output columns
    (for a grouped family, its output key) followed by one rowid per
    FROM alias, over the same FROM and WHERE."""
    rowids = ", ".join(f"{alias}.rowid"
                       for alias in WITNESS_ALIASES[family])
    select_list, rest = sql[len("SELECT "):].split(" FROM ", 1)
    if family == 5:  # global aggregate: no key
        return f"SELECT {rowids} FROM {rest}"
    if family == 6:  # GROUP BY: the key is the first select item
        key = select_list.split(", count(*)")[0]
        return f"SELECT {key}, {rowids} FROM {rest.split(' GROUP BY ')[0]}"
    if family in (7, 10):  # DISTINCT: the key is the whole row
        select_list = select_list[len("DISTINCT "):]
    if family == 9:
        # ties of the total ORDER BY are equal rows that may come from
        # different tuples; the engine's stable sort keeps them in scan
        # (rowid) order, so LIMIT cuts where a rowid tie-break cuts
        rest = rest.replace(" LIMIT ", ", t0.rowid LIMIT ")
    return f"SELECT {select_list}, {rowids} FROM {rest}"


def expected_lineages(connection, sql, family):
    """Multiset of (row, sorted (table, rowid) lineage) per sqlite."""
    aliases = WITNESS_ALIASES[family]
    witnesses = connection.execute(witness_sql(sql, family)).fetchall()
    split = [(tuple(row[:len(row) - len(aliases)]),
              {(ALIAS_TABLES[alias], rowid)
               for alias, rowid in zip(aliases, row[-len(aliases):])
               if rowid is not None})
             for row in witnesses]
    if family not in GROUPED_FAMILIES:
        return sorted((repr(row), sorted(refs)) for row, refs in split)
    groups: dict[tuple, set] = {}
    for key, refs in split:
        groups.setdefault(key, set()).update(refs)
    width = 0 if family == 5 else 1 if family == 6 else None
    return sorted((repr(tuple(row)),
                   sorted(groups.get(tuple(row[:width]), ())))
                  for row in connection.execute(sql).fetchall())


def engine_lineages(rows, lineages):
    """Multiset of (row, sorted (table, rowid) lineage) per the engine."""
    return sorted((repr(tuple(row)),
                   sorted((ref.table, ref.rowid) for ref in lineage))
                  for row, lineage in zip(rows, lineages))


def test_differential_oracle(oracle_seed):
    rng, database, connection = build_engines(oracle_seed)
    for case in range(QUERIES_PER_SEED):
        sql, ordered = generate_query(rng, case)
        mine = database.query(sql)
        reference = connection.execute(sql).fetchall()
        assert canonical(mine, ordered) == canonical(reference, ordered), (
            f"seed {oracle_seed}, family {case}: engines diverge on\n"
            f"  {sql}")
        traced = database.execute(sql, provenance=True)
        assert (engine_lineages(traced.rows, traced.lineages)
                == expected_lineages(connection, sql, case)), (
            f"seed {oracle_seed}, family {case}: lineage diverges from "
            f"the sqlite witnesses on\n  {sql}")


# -- skewed star + indexed probe table ----------------------------------------

def build_star_engines(seed):
    """Same skewed star and indexed probe table in both engines."""
    rng = random.Random(seed)
    database = Database()
    connection = sqlite3.connect(":memory:")
    for statement in [
            "CREATE TABLE f (k integer, d1 integer, d2 integer)",
            "CREATE TABLE j (d1 integer, payload integer)",
            "CREATE TABLE s (d2 integer, flag integer)",
            "CREATE TABLE probe (k integer, v integer)",
            "CREATE INDEX idx_probe_k ON probe (k)"]:
        database.execute(statement)
        connection.execute(statement)
    fanout = rng.randint(4, 7)
    tables = {
        "f": [(k, rng.randrange(40), rng.randrange(120))
              for k in range(rng.randint(350, 450))],
        "j": [(d1, p) for d1 in range(40) for p in range(fanout)],
        "s": [(d2, rng.randrange(200)) for d2 in range(120)],
        "probe": [(k % 80, rng.randrange(10)) for k in range(240)],
    }
    for name, rows in tables.items():
        database.execute(f"INSERT INTO {name} VALUES " + ", ".join(
            "(" + ", ".join(str(v) for v in row) + ")" for row in rows))
        connection.executemany(
            f"INSERT INTO {name} VALUES "
            f"({', '.join('?' * len(rows[0]))})", rows)
    return rng, database, connection


def star_queries(rng):
    """``(sql, aliases)`` pairs; ``aliases`` are the FROM entries, each
    named after its table, whose rowids the witness query carries."""
    cutoff = rng.randint(3, 12)
    short_list = ", ".join(str(rng.randrange(80)) for _ in range(3))
    long_list = ", ".join(str(k) for k in range(0, 80, 2))
    return [
        # the selective s-filter sits on the last FROM entry
        (f"SELECT f.k, j.payload FROM f, j, s WHERE f.d1 = j.d1 "
         f"AND f.d2 = s.d2 AND s.flag < {cutoff}", ("f", "j", "s")),
        # the filtered side hashes fewer rows than its table holds
        (f"SELECT f.k, s.flag FROM f, s WHERE f.d2 = s.d2 "
         f"AND s.flag < {cutoff}", ("f", "s")),
        (f"SELECT v FROM probe WHERE k IN ({short_list})", ("probe",)),
        # an IN list that rivals the table is still probed
        (f"SELECT v FROM probe WHERE k IN ({long_list})", ("probe",)),
        (f"SELECT s.d2, f.k FROM s LEFT JOIN f ON s.d2 = f.d2 "
         f"WHERE s.flag < {cutoff}", ("s", "f")),
    ]


def star_lineages(connection, sql, aliases):
    """Multiset of (row, sorted (table, rowid) lineage) per sqlite's
    witness query: the output columns, then one rowid per alias."""
    select_list, rest = sql[len("SELECT "):].split(" FROM ", 1)
    rowids = ", ".join(f"{alias}.rowid" for alias in aliases)
    witnesses = connection.execute(
        f"SELECT {select_list}, {rowids} FROM {rest}").fetchall()
    width = len(aliases)
    return sorted((repr(tuple(row[:-width])),
                   sorted((alias, rowid)
                          for alias, rowid in zip(aliases, row[-width:])
                          if rowid is not None))
                  for row in witnesses)


def test_star_and_probe_queries(oracle_seed):
    rng, database, connection = build_star_engines(oracle_seed)
    for sql, aliases in star_queries(rng):
        traced = database.execute(sql, provenance=True)
        reference = connection.execute(sql).fetchall()
        context = f"seed {oracle_seed}:\n  {sql}"
        assert canonical(traced.rows, False) == \
            canonical(reference, False), f"engines diverge on {context}"
        assert (engine_lineages(traced.rows, traced.lineages)
                == star_lineages(connection, sql, aliases)), (
            f"lineage diverges from the sqlite witnesses on {context}")


def test_oracle_covers_the_advertised_case_count(request):
    """CI runs at least 200 generated cases with the pinned seeds."""
    count = request.config.getoption("--seeds") or SEED_COUNT
    if count == SEED_COUNT:
        assert SEED_COUNT * QUERIES_PER_SEED >= 200


def test_generated_queries_are_deterministic_per_seed():
    """Same seed → same schema, same data, same SQL text (the oracle
    is reproducible, not merely random)."""
    def transcript(seed):
        rng, database, connection = build_engines(seed)
        lines = [database.query("SELECT count(*) FROM t0")[0][0]]
        for case in range(QUERIES_PER_SEED):
            lines.append(generate_query(rng, case))
        connection.close()
        return lines

    assert transcript(3) == transcript(3)


def test_oracle_catches_a_seeded_divergence():
    """Sanity: the comparison really can fail — skew one engine's data
    and the multisets must differ for a full-scan query."""
    _, database, connection = build_engines(0)
    database.execute("INSERT INTO t0 VALUES (99, 99, 'skew', 99)")
    mine = database.query("SELECT a, b, c, d FROM t0")
    reference = connection.execute("SELECT a, b, c, d FROM t0").fetchall()
    assert canonical(mine, False) != canonical(reference, False)


def test_lineage_oracle_catches_a_seeded_divergence():
    """Sanity: the lineage comparison really can fail — forge one
    row's lineage and the multisets must differ."""
    rng, database, connection = build_engines(0)
    sql, _ = generate_query(rng, 0)
    traced = database.execute(sql, provenance=True)
    expected = expected_lineages(connection, sql, 0)
    assert traced.rows
    assert engine_lineages(traced.rows, traced.lineages) == expected
    (ref,) = traced.lineages[0]
    forged = [frozenset({ref._replace(rowid=ref.rowid + 100)})]
    forged += traced.lineages[1:]
    assert engine_lineages(traced.rows, forged) != expected
