"""Property-based tests: the SQL engine against a naive Python
reference implementation, on randomly generated tables and queries."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.db import Database
from repro.db.sql.render import render_literal


# ---------------------------------------------------------------------------
# random tables
# ---------------------------------------------------------------------------


@st.composite
def tables(draw):
    """A small random table: (rows of (k, v, tag))."""
    n = draw(st.integers(min_value=0, max_value=25))
    rows = []
    for i in range(n):
        k = draw(st.integers(-5, 5))
        v = draw(st.one_of(st.none(),
                           st.integers(-100, 100)))
        tag = draw(st.sampled_from(["red", "green", "blue", "red'ish"]))
        rows.append((i + 1, k, v, tag))
    return rows


def load(rows):
    database = Database()
    database.execute(
        "CREATE TABLE t (id integer PRIMARY KEY, k integer, "
        "v integer, tag text)")
    for row in rows:
        values = ", ".join(render_literal(value) for value in row)
        database.execute(f"INSERT INTO t VALUES ({values})")
    return database


class TestFilterProperties:
    @settings(max_examples=60, deadline=None)
    @given(tables(), st.integers(-5, 5))
    def test_filter_matches_reference(self, rows, bound):
        database = load(rows)
        got = database.query(f"SELECT id FROM t WHERE k > {bound} "
                             "ORDER BY id")
        expected = [(row[0],) for row in rows if row[1] > bound]
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(tables(), st.integers(-5, 5), st.integers(-5, 5))
    def test_between_matches_reference(self, rows, lo, hi):
        database = load(rows)
        got = database.query(
            f"SELECT id FROM t WHERE k BETWEEN {lo} AND {hi} ORDER BY id")
        expected = [(row[0],) for row in rows if lo <= row[1] <= hi]
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_null_never_matches_comparison(self, rows):
        database = load(rows)
        above = database.query("SELECT id FROM t WHERE v > 0")
        below = database.query("SELECT id FROM t WHERE v <= 0")
        nulls = database.query("SELECT id FROM t WHERE v IS NULL")
        assert len(above) + len(below) + len(nulls) == len(rows)

    @settings(max_examples=40, deadline=None)
    @given(tables(), st.sampled_from(["red", "green", "blue", "red'ish"]))
    def test_like_prefix_matches_reference(self, rows, tag):
        database = load(rows)
        prefix = tag[:2].replace("'", "''")
        got = database.query(
            f"SELECT id FROM t WHERE tag LIKE '{prefix}%' ORDER BY id")
        expected = [(row[0],) for row in rows
                    if row[3].startswith(tag[:2])]
        assert got == expected


class TestAggregateProperties:
    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_count_sum_avg_match_reference(self, rows):
        database = load(rows)
        (count, total, avg) = database.query(
            "SELECT count(v), sum(v), avg(v) FROM t")[0]
        values = [row[2] for row in rows if row[2] is not None]
        assert count == len(values)
        assert total == (sum(values) if values else None)
        if values:
            assert avg == pytest.approx(sum(values) / len(values))
        else:
            assert avg is None

    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_group_by_partitions_rows(self, rows):
        database = load(rows)
        groups = database.query(
            "SELECT k, count(*) FROM t GROUP BY k")
        assert sum(count for _k, count in groups) == len(rows)
        assert len({k for k, _count in groups}) == len(groups)
        expected_keys = {row[1] for row in rows}
        assert {k for k, _count in groups} == expected_keys

    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_min_max_bound_all_values(self, rows):
        database = load(rows)
        (lo, hi) = database.query("SELECT min(v), max(v) FROM t")[0]
        values = [row[2] for row in rows if row[2] is not None]
        if values:
            assert lo == min(values)
            assert hi == max(values)
        else:
            assert lo is None and hi is None

    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_having_is_post_group_filter(self, rows):
        database = load(rows)
        groups = database.query(
            "SELECT k, count(*) FROM t GROUP BY k HAVING count(*) >= 2")
        reference = {}
        for row in rows:
            reference[row[1]] = reference.get(row[1], 0) + 1
        expected = {(k, c) for k, c in reference.items() if c >= 2}
        assert set(groups) == expected


class TestQueryAlgebraProperties:
    @settings(max_examples=40, deadline=None)
    @given(tables(), st.integers(-5, 5))
    def test_filter_split_is_union(self, rows, bound):
        """σ(p) ∪ σ(¬p ∧ defined) covers the non-null domain."""
        database = load(rows)
        left = set(database.query(
            f"SELECT id FROM t WHERE k > {bound}"))
        right = set(database.query(
            f"SELECT id FROM t WHERE NOT k > {bound}"))
        everything = set(database.query("SELECT id FROM t"))
        assert left | right == everything
        assert left & right == set()

    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_distinct_removes_duplicates_only(self, rows):
        database = load(rows)
        distinct = database.query("SELECT DISTINCT k FROM t")
        plain = database.query("SELECT k FROM t")
        assert set(distinct) == set(plain)
        assert len(distinct) == len(set(plain))

    @settings(max_examples=40, deadline=None)
    @given(tables(), st.integers(0, 5), st.integers(0, 5))
    def test_limit_offset_windows_ordered_output(self, rows, limit,
                                                 offset):
        database = load(rows)
        full = database.query("SELECT id FROM t ORDER BY id")
        window = database.query(
            f"SELECT id FROM t ORDER BY id LIMIT {limit} OFFSET {offset}")
        assert window == full[offset:offset + limit]

    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_order_by_sorts_with_nulls_last(self, rows):
        database = load(rows)
        ordered = [v for (v,) in database.query(
            "SELECT v FROM t ORDER BY v")]
        non_null = [v for v in ordered if v is not None]
        assert non_null == sorted(non_null)
        # NULLs sort last in ascending order
        if None in ordered:
            first_null = ordered.index(None)
            assert all(v is None for v in ordered[first_null:])


class TestLineageProperties:
    @settings(max_examples=40, deadline=None)
    @given(tables(), st.integers(-5, 5))
    def test_lineage_covers_exactly_matching_rows(self, rows, bound):
        database = load(rows)
        result = database.execute(
            f"SELECT id FROM t WHERE k > {bound}", provenance=True)
        matched_ids = {row[0] for row in rows if row[1] > bound}
        lineage_rowids = {ref.rowid for lineage in result.lineages
                          for ref in lineage}
        # rowids are assigned in insert order == id order here
        assert lineage_rowids == {
            i + 1 for i, row in enumerate(rows) if row[1] > bound}
        assert {row[0] for row in result.rows} == matched_ids

    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_aggregate_lineage_is_union_of_groups(self, rows):
        database = load(rows)
        result = database.execute(
            "SELECT k, count(*) FROM t GROUP BY k", provenance=True)
        all_lineage = set()
        for lineage in result.lineages:
            assert lineage  # every group read at least one row
            all_lineage |= lineage
        assert len(all_lineage) == len(rows)

    @settings(max_examples=30, deadline=None)
    @given(tables(), st.integers(-5, 5))
    def test_update_provenance_links_old_to_new(self, rows, bound):
        database = load(rows)
        result = database.execute(
            f"UPDATE t SET v = 0 WHERE k > {bound}")
        assert result.rowcount == sum(1 for row in rows
                                      if row[1] > bound)
        for new_ref, deps in result.written_lineage.items():
            (old_ref,) = deps
            assert old_ref.rowid == new_ref.rowid
            assert old_ref.version < new_ref.version
