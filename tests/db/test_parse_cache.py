"""Differential test of the statement-shape parse cache in ``parse_sql``.

Every statement the differential SQL and DML oracles generate, the
TPC-H schema and Table II queries, and the application's INSERT and
UPDATE streams go through ``parse_sql`` three times — first sighting,
template build, cache hit — and through one shared cache as a stream,
so hits bind literals other than the ones the template was built
from. Each result must equal the direct parse
``_Parser(sql).parse_statements()`` *strictly*: dataclass ``==``
takes ``Literal(1)``, ``Literal(1.0)`` and ``Literal(True)`` for equal,
so the Python type of every literal value and the ``repr`` must match
too. Syntax errors must match in class, message and position.

CI pins ``SEED_COUNT`` seeds; ``pytest --seeds N`` widens or narrows
the sweep.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading

import pytest

from repro.db.sql import ast, parser
from repro.db.sql.params import Binder
from repro.db.sql.parser import ShapeCache, _Parser, parse_sql
from repro.errors import SQLSyntaxError
from repro.workloads.tpch.dbgen import TPCHConfig, TPCHGenerator
from repro.workloads.tpch.queries import table2_variants
from repro.workloads.tpch.refresh import insert_statements, update_statements
from repro.workloads.tpch.schema import TABLE_ORDER, TPCH_DDL, TPCH_INDEXES
from tests.db.test_differential_dml import INDEXES, generate_dml
from tests.db.test_differential_sqlite import (
    QUERIES_PER_SEED,
    TABLES,
    _literal,
    _random_rows,
    generate_query,
)

pytestmark = pytest.mark.differential

SEED_COUNT = 30          # pinned for CI
DML_PER_SEED = 16


def pytest_generate_tests(metafunc):
    if "cache_seed" in metafunc.fixturenames:
        count = metafunc.config.getoption("--seeds") or SEED_COUNT
        metafunc.parametrize("cache_seed", range(count))


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    """Each test starts from an empty cache of the production size."""
    cache = ShapeCache(parser.SHAPE_CACHE_CAPACITY)
    monkeypatch.setattr(parser, "SHAPE_CACHE", cache)
    return cache


# -- corpus ---------------------------------------------------------------------

def oracle_statements(seed):
    """The statements the differential SQL and DML oracles generate
    for one seed: data loads, SELECTs of every family, index DDL and
    UPDATE/DELETE with transaction control."""
    rng = random.Random(seed)
    statements = []
    for name, columns in TABLES.items():
        ddl_columns = ", ".join(
            f"{column} {'integer' if kind == 'i' else 'text'}"
            for column, kind, _ in columns)
        statements.append(f"CREATE TABLE {name} ({ddl_columns})")
        rows = _random_rows(rng, columns, rng.randint(5, 12))
        statements.append(f"INSERT INTO {name} VALUES " + ", ".join(
            "(" + ", ".join(_literal(v) for v in row) + ")" for row in rows))
    statements.extend(generate_query(rng, case)[0]
                      for case in range(QUERIES_PER_SEED))
    statements.extend(INDEXES)
    statements.append("BEGIN")
    statements.extend(generate_dml(rng) for _ in range(DML_PER_SEED))
    statements.append(rng.choice(["COMMIT", "ROLLBACK"]))
    return statements


def workload_statements(seed=1):
    """TPC-H DDL, the Table II queries and the application's INSERT
    and UPDATE streams."""
    config = TPCHConfig(scale_factor=0.001, seed=seed)
    generator = TPCHGenerator(config)
    return ([TPCH_DDL[table] for table in TABLE_ORDER] + TPCH_INDEXES
            + [variant.sql for variant in table2_variants(config)]
            + insert_statements(generator, 40, config.n_orders + 1)
            + update_statements(generator, 20))


# -- strict comparison ----------------------------------------------------------

def literal_types(value, out):
    """The Python type of every literal value, in document order."""
    if isinstance(value, ast.Literal):
        out.append(type(value.value))
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            literal_types(getattr(value, field.name), out)
    elif isinstance(value, (tuple, list)):
        for item in value:
            literal_types(item, out)
    return out


def outcome(parse, sql):
    try:
        return parse(sql), None
    except Exception as exc:  # compared below, class included
        return None, exc


def direct(sql):
    return _Parser(sql).parse_statements()


def assert_same_parse(sql):
    expected, expected_error = outcome(direct, sql)
    got, error = outcome(parse_sql, sql)
    if expected_error is not None:
        assert got is None, sql
        assert (type(error), str(error),
                getattr(error, "position", None)) == (
            type(expected_error), str(expected_error),
            getattr(expected_error, "position", None)), sql
        return
    assert error is None, (sql, error)
    assert type(got) is list
    assert got == expected, sql
    assert literal_types(got, []) == literal_types(expected, []), sql
    assert repr(got) == repr(expected), sql


def assert_three_sightings(sql, cache):
    cache.clear()
    for _ in range(3):
        assert_same_parse(sql)


# -- the differential cases -----------------------------------------------------

def test_oracle_statements_parse_identically(cache_seed, fresh_cache):
    statements = oracle_statements(cache_seed)
    for sql in statements:
        assert_three_sightings(sql, fresh_cache)
    fresh_cache.clear()
    for sql in statements * 2:
        assert_same_parse(sql)


def test_workload_statements_parse_identically(fresh_cache):
    statements = workload_statements()
    for sql in statements:
        assert_three_sightings(sql, fresh_cache)
    fresh_cache.clear()
    for sql in statements:
        assert_same_parse(sql)


def test_app_streams_are_served_from_the_cache(fresh_cache):
    generator = TPCHGenerator(TPCHConfig(scale_factor=0.001, seed=3))
    inserts = insert_statements(generator, 30, 10 ** 6)
    updates = update_statements(generator, 30)
    for sql in inserts + updates:
        assert_same_parse(sql)
    binders = [entry for entry in fresh_cache._entries.values()
               if isinstance(entry, Binder)]
    assert len(fresh_cache._entries) == 2 and len(binders) == 2


def mangled(sql, rng):
    """``sql`` with a piece cut out or a stray token put in."""
    cut = rng.randrange(len(sql) + 1)
    if rng.random() < 0.5:
        return sql[:cut] + sql[cut + rng.randint(1, 8):]
    return sql[:cut] + rng.choice([" ,", " (", " FROM", " 'x' ", " 1",
                                   " @", " '", " -", " LIMIT"]) + sql[cut:]


def test_syntax_errors_are_identical(cache_seed, fresh_cache):
    rng = random.Random(cache_seed)
    corpus = oracle_statements(cache_seed) + workload_statements()[:30]
    for sql in corpus:
        bad = mangled(sql, rng)
        assert_three_sightings(bad, fresh_cache)
        # again once the intact statement's shape is cached
        fresh_cache.clear()
        for _ in range(2):
            parse_sql(sql)
        assert_same_parse(bad)


@pytest.mark.parametrize("template", [
    "INSERT INTO t VALUES ({})",
    "SELECT a FROM t WHERE c = {} OR c LIKE {}",
    "UPDATE t SET c = {} || {} WHERE a IN ({}, {})",
])
def test_literal_spellings_bind_like_the_direct_parse(template):
    spellings = ["'a'", "'it''s'", "''", "''''", "'é ²'", "'--x'", "'$1'",
                 "7", "007", "0", "9" * 40, "1.5", "1e3", "2.5E-3", ".5",
                 "1.", "1.e2", "NULL", "TRUE", "false"]
    rng = random.Random(template)
    for _ in range(60):
        values = [rng.choice(spellings) for _ in range(template.count("{}"))]
        assert_same_parse(template.format(*values))


# -- uncacheable shapes ---------------------------------------------------------

@pytest.mark.parametrize("first, second, third", [
    ("SELECT -5", "SELECT -6", "SELECT -7"),
    ("SELECT -0.5", "SELECT -1e3", "SELECT -.25"),
    ("SELECT a FROM t WHERE b > - 2", "SELECT a FROM t WHERE b > - 3",
     "SELECT a FROM t WHERE b > - 4"),
    ("SELECT a FROM t LIMIT 3", "SELECT a FROM t LIMIT 4",
     "SELECT a FROM t LIMIT 5"),
    ("SELECT a FROM t ORDER BY a LIMIT 3 OFFSET 1",
     "SELECT a FROM t ORDER BY a LIMIT 4 OFFSET 2",
     "SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 0"),
    ("COPY t FROM '/in.csv' WITH CSV HEADER",
     "COPY t FROM '/other.csv' WITH CSV HEADER",
     "COPY t FROM '/third.csv' WITH CSV HEADER"),
    ("COPY t TO '/a' DELIMITER '|'", "COPY t TO '/b' DELIMITER ';'",
     "COPY t TO '/c' DELIMITER ','"),
    ("CREATE TABLE t (a varchar(25))", "CREATE TABLE t (a varchar(30))",
     "CREATE TABLE t (a varchar(35))"),
])
def test_uncacheable_shapes_are_parsed_directly(first, second, third,
                                                fresh_cache):
    for sql in (first, second, third, first):
        assert_same_parse(sql)
    assert list(fresh_cache._entries.values()) == [parser._UNCACHEABLE]


def test_a_literal_kind_is_part_of_the_shape(fresh_cache):
    # strings are not folded into a unary minus, numbers are: the two
    # must never share a template
    for sql in ("SELECT -'a'", "SELECT -'b'", "SELECT -'c'",
                "SELECT -5", "SELECT -6", "SELECT -7.5", "SELECT -'d'"):
        assert_same_parse(sql)
    assert len(fresh_cache._entries) == 3


def test_statements_with_parameters_bypass_the_cache(fresh_cache):
    for sql in ("SELECT $1 + 2", "SELECT $1 + 3", "SELECT $1 + 4",
                "UPDATE t SET a = $1 WHERE b = 7"):
        assert_same_parse(sql)
    assert len(fresh_cache._entries) == 0


def test_unlexable_text_bypasses_the_cache(fresh_cache):
    for sql in ("SELECT @", "SELECT 'open", "SELECT ²", "SELECT 1 @"):
        assert_three_sightings(sql, fresh_cache)
    assert len(fresh_cache._entries) == 0


def test_overlong_integer_fails_like_the_direct_parse(fresh_cache):
    big = "9" * 5000
    for sql in (f"SELECT 1, {big}", f"SELECT 2, {big}", f"SELECT 3, {big}"):
        assert_same_parse(sql)
        # the shape scan cannot convert the literal either, so the
        # statement falls back to the direct parse's syntax error
        with pytest.raises(SQLSyntaxError) as info:
            parse_sql(sql)
        assert str(info.value) == "number too long (5000 digits)"
        assert info.value.position == 10
    assert_same_parse(f"SELECT FROM {big}")
    assert len(fresh_cache._entries) == 0


def test_cached_results_are_fresh_lists(fresh_cache):
    for _ in range(2):
        parse_sql("SELECT 1")
    first = parse_sql("SELECT 1")
    first.append("junk")
    assert parse_sql("SELECT 1") == direct("SELECT 1")


def test_shapes_are_remembered_in_stages(fresh_cache):
    sql = "SELECT a FROM t WHERE b = 1"
    parse_sql(sql)
    assert list(fresh_cache._entries.values()) == [parser._SEEN_ONCE]
    parse_sql("SELECT a FROM t WHERE b = 2")
    (entry,) = fresh_cache._entries.values()
    assert isinstance(entry, Binder)
    assert entry.param_count == 1


# -- the binder -----------------------------------------------------------------

def test_binder_substitutes_and_shares_parameter_free_subtrees():
    (template,) = direct(
        "SELECT a, b + 1 FROM t WHERE a = $2 AND c IN ($1, 'x') LIMIT 3")
    binder = Binder(template)
    assert binder.param_count == 2
    bound = binder(["p", 7])
    assert repr(bound) == repr(direct(
        "SELECT a, b + 1 FROM t WHERE a = 7 AND c IN ('p', 'x') LIMIT 3")[0])
    assert bound.items is template.items
    assert bound.sources is template.sources
    assert bound.where.right.items[1] is template.where.right.items[1]


def test_binder_reports_the_first_unbound_parameter():
    (template,) = direct("SELECT $1, $3, $2")
    with pytest.raises(Exception) as info:
        Binder(template)(["only"])
    assert str(info.value) == (
        "statement references $3 but only 1 parameter value(s) were bound")


def test_binder_of_a_parameter_free_statement_returns_it():
    (template,) = direct("SELECT a FROM t")
    assert Binder(template)([]) is template


# -- capacity, eviction and threads ---------------------------------------------

def test_capacity_is_a_constant():
    assert parser.SHAPE_CACHE.capacity == parser.SHAPE_CACHE_CAPACITY


def test_least_recently_seen_shape_is_evicted(monkeypatch):
    cache = ShapeCache(3)
    monkeypatch.setattr(parser, "SHAPE_CACHE", cache)
    shapes = [f"SELECT a FROM t{n} WHERE a = {{}}" for n in range(4)]
    for shape in shapes[:3]:
        for value in (1, 2):
            assert_same_parse(shape.format(value))
    assert_same_parse(shapes[0].format(3))       # refresh shape 0
    assert_same_parse(shapes[3].format(1))       # evicts shape 1
    assert len(cache._entries) == 3
    keys = list(cache._entries)
    assert [key[3] for key in keys] == ["t2", "t0", "t3"]
    # an evicted shape starts over at its first sighting
    assert_same_parse(shapes[1].format(9))
    assert cache._entries[keys[0][:3] + ("t1",) + keys[0][4:]] == (
        parser._SEEN_ONCE)


def test_threads_parse_mixed_shapes_during_eviction(monkeypatch):
    # more shapes than slots, so hits, template builds and evictions
    # interleave; a tiny switch interval makes the threads preempt each
    # other inside the cache's read-modify-write steps
    cache = ShapeCache(4)
    monkeypatch.setattr(parser, "SHAPE_CACHE", cache)
    rng = random.Random(7)
    corpus = [f"SELECT a FROM t{n % 6} WHERE b = {n}" for n in range(60)]
    corpus += oracle_statements(0) + workload_statements()[:40]
    expected = {sql: repr(direct(sql)) for sql in corpus}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    failures = []

    def worker(seed):
        local = random.Random(seed)
        try:
            for _ in range(300):
                sql = local.choice(corpus)
                got = parse_sql(sql)
                if repr(got) != expected[sql]:
                    failures.append(sql)
        except Exception as exc:  # surfaced by the assertion below
            failures.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(rng.random(),))
               for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(cache._entries) <= 4
