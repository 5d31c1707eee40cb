"""Sanity checks for the skewed-star oracle.

The star and indexed-probe queries themselves run in
``test_differential_sqlite.test_star_and_probe_queries``: rows against
stdlib sqlite3 and lineage against sqlite's rowid witnesses, on the
plans the rote planner picks. This module checks that oracle is
reproducible per seed and that its lineage comparison can fail.
"""

from __future__ import annotations

import pytest

from tests.db.test_differential_sqlite import (
    build_star_engines, canonical, engine_lineages, star_lineages,
    star_queries)

pytestmark = pytest.mark.differential


def test_oracle_is_deterministic_per_seed():
    def transcript(seed):
        rng, database, connection = build_star_engines(seed)
        lines = [database.query("SELECT count(*) FROM f")[0][0]]
        lines.extend(star_queries(rng))
        connection.close()
        return lines

    assert transcript(4) == transcript(4)


def test_oracle_catches_a_seeded_lineage_divergence():
    """Sanity: the traced comparison really can fail — the same rows
    with different lineage must not pass."""
    _, database, connection = build_star_engines(0)
    sql = "SELECT v FROM probe WHERE k IN (1, 2, 3)"
    traced = database.execute(sql, provenance=True)
    expected = star_lineages(connection, sql, ("probe",))
    assert traced.rows
    assert engine_lineages(traced.rows, traced.lineages) == expected
    forged = [frozenset() for _ in traced.lineages]
    assert canonical(traced.rows, False) == \
        canonical(connection.execute(sql).fetchall(), False)
    assert engine_lineages(traced.rows, forged) != expected
