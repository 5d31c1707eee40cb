"""Scan-history independence for the 23 parity shapes.

The engine once kept a columnar cache of scanned tables; these tests
keep their original ids from then. With the cache gone they pin what
it was required to guarantee: a table that has already been scanned
answers exactly as a database that has never scanned it — rows,
lineage and wire frames — with and without provenance.
"""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.db.protocol import encode_frame, result_to_wire

from tests.db.test_vectorized import PARITY_QUERIES


def frame_bytes(result) -> bytes:
    return encode_frame(result_to_wire(result))


def build_parity_db():
    database = Database()
    database.execute(
        "CREATE TABLE t (k integer, grp integer, a integer, b float, "
        "name text)")
    database.execute("CREATE TABLE small (k integer, label text)")
    rows = []
    for k in range(700):
        b_text = "NULL" if k % 7 == 0 else str(k * 0.5)
        name = "NULL" if k % 11 == 0 else f"'name{k % 13}'"
        rows.append(f"({k}, {k % 5}, {(k * 37) % 100}, {b_text}, {name})")
    database.execute("INSERT INTO t VALUES " + ", ".join(rows))
    database.execute(
        "INSERT INTO small VALUES " + ", ".join(
            f"({k}, 'L{k}')" for k in range(0, 40)))
    return database


@pytest.fixture(scope="module")
def scanned_db():
    """One database shared by every shape, so each test reads tables
    that earlier tests (and its own first pass) already scanned."""
    return build_parity_db()


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_parity_shapes_cache_on_off(scanned_db, sql):
    fresh = build_parity_db()
    for provenance in (False, True):
        baseline = fresh.execute(sql, provenance)
        reference = frame_bytes(baseline)
        for _ in range(2):
            result = scanned_db.execute(sql, provenance)
            assert result.rows == baseline.rows
            assert result.lineages == baseline.lineages
            assert frame_bytes(result) == reference
