"""Insert and update refresh streams (Section IX-A).

The benchmark application's first step inserts new orders "according
to the update workload specified by TPC-H" (refresh function RF1) and
its last step updates existing orders. Both are rendered as plain SQL
statement lists so the monitored application issues them through the
client library like any other traffic.
"""

from __future__ import annotations

from repro.db.sql.render import render_literal
from repro.workloads.tpch.dbgen import TPCHGenerator, _Draws


def insert_statements(generator: TPCHGenerator, count: int,
                      start_key: int) -> list[str]:
    """``count`` single-row INSERTs of fresh orders starting at
    ``start_key`` (keys must be beyond the loaded range)."""
    rows = generator.order_rows(range(start_key, start_key + count),
                                _Draws(generator.config.seed + 1000))
    statements = []
    for row in rows:
        values = ", ".join(render_literal(value) for value in row)
        statements.append(f"INSERT INTO orders VALUES ({values})")
    return statements


def update_statements(generator: TPCHGenerator, count: int,
                      span: int = 5) -> list[str]:
    """``count`` UPDATEs bumping order totals over small key ranges.

    Ranges are evenly spread and non-overlapping, so each statement's
    reenactment query touches a distinct set of pre-state tuples (and,
    like TPC-H's refresh functions, hits more than one row per
    statement).
    """
    n_orders = generator.config.n_orders
    step = max(span, n_orders // max(count, 1))
    statements = []
    for index in range(count):
        low = 1 + (index * step) % max(n_orders - span, 1)
        high = low + span - 1
        statements.append(
            "UPDATE orders SET o_totalprice = o_totalprice * 1.01 "
            f"WHERE o_orderkey BETWEEN {low} AND {high}")
    return statements
