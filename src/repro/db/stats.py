"""Table statistics for the cost-based planner.

``ANALYZE [table]`` scans the committed heap and records, per column:
the number of distinct values (NDV), the fraction of NULLs, min/max,
and an equi-depth histogram over the non-NULL values. The planner uses
these to estimate filter selectivities and join cardinalities — which
in turn drive join ordering, hash-join build sides, and the
index-probe-vs-scan decision (see :mod:`repro.db.planner`).

Statistics live on the catalog (never inside the ``.tbl`` files, whose
byte format is part of the packaging contract) and are durable: each
ANALYZE appends an ``{"op": "analyze"}`` WAL record, and checkpoints
persist the current stats in the meta file.

Everything here is advisory. A stale or missing statistic can only
produce a slower plan, never a wrong answer — plans of any shape
produce identical rows and lineage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.db.sql import ast

# equi-depth histogram resolution: enough to see a 1-in-32 skew
# without bloating the meta file
HISTOGRAM_BUCKETS = 32

# default selectivities when a column has no statistics (classic
# System R guesses)
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.25
DEFAULT_BOOL_SELECTIVITY = 0.5

# cost units, relative to visiting one row in a sequential scan (1.0):
# one hash-index lookup, and one row produced through index buckets
# (random access + per-bucket bookkeeping)
INDEX_PROBE_COST = 4.0
INDEX_ROW_COST = 2.0


@dataclass
class ColumnStats:
    """Distribution summary of one column's committed values."""

    ndv: int = 0
    null_fraction: float = 0.0
    min_value: Any = None
    max_value: Any = None
    # equi-depth bucket boundaries over the sorted non-NULL values:
    # len(histogram) == buckets + 1; each (histogram[i], histogram[i+1]]
    # holds an equal share of the rows
    histogram: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ndv": self.ndv,
            "null_fraction": self.null_fraction,
            "min": self.min_value,
            "max": self.max_value,
            "histogram": list(self.histogram),
        }

    @classmethod
    def from_dict(cls, dumped: dict) -> "ColumnStats":
        return cls(
            ndv=int(dumped.get("ndv", 0)),
            null_fraction=float(dumped.get("null_fraction", 0.0)),
            min_value=dumped.get("min"),
            max_value=dumped.get("max"),
            histogram=list(dumped.get("histogram", [])),
        )

    # -- selectivity ----------------------------------------------------------

    def eq_selectivity(self, value: Any = None) -> float:
        """Fraction of rows with ``column = value`` (uniform over the
        distinct values; a known out-of-range value estimates to near
        zero)."""
        if self.ndv <= 0:
            return DEFAULT_EQ_SELECTIVITY
        if value is not None and self.min_value is not None:
            try:
                if value < self.min_value or value > self.max_value:
                    return 0.0
            except TypeError:
                pass
        return _clamp((1.0 - self.null_fraction) / self.ndv)

    def fraction_below(self, value: Any) -> Optional[float]:
        """Fraction of *non-NULL* rows strictly below ``value`` by the
        equi-depth histogram, or None when the histogram cannot answer
        (no histogram, or an incomparable value)."""
        bounds = self.histogram
        if len(bounds) < 2:
            return None
        try:
            if value <= bounds[0]:
                return 0.0
            if value > bounds[-1]:
                return 1.0
        except TypeError:
            return None
        buckets = len(bounds) - 1
        for index in range(buckets):
            low, high = bounds[index], bounds[index + 1]
            if value <= high:
                covered = index / buckets
                width = 1.0 / buckets
                if (isinstance(value, (int, float))
                        and isinstance(low, (int, float))
                        and isinstance(high, (int, float))
                        and high > low):
                    covered += width * (value - low) / (high - low)
                else:
                    covered += width / 2.0  # mid-bucket for text keys
                return _clamp(covered)
        return 1.0

    def range_selectivity(self, op: str, value: Any) -> float:
        """Fraction of rows with ``column <op> value`` for an
        inequality operator."""
        below = self.fraction_below(value)
        if below is None:
            return DEFAULT_RANGE_SELECTIVITY
        eq = self.eq_selectivity(value)
        if op in ("<", "<="):
            fraction = below + (eq if op == "<=" else 0.0)
        else:
            fraction = 1.0 - below
            if op == ">":
                fraction -= eq
        return _clamp(fraction * (1.0 - self.null_fraction))


@dataclass
class TableStats:
    """ANALYZE output for one table: row count + per-column stats."""

    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def to_dict(self) -> dict:
        return {
            "row_count": self.row_count,
            "columns": {name: stats.to_dict()
                        for name, stats in sorted(self.columns.items())},
        }

    @classmethod
    def from_dict(cls, dumped: dict) -> "TableStats":
        return cls(
            row_count=int(dumped.get("row_count", 0)),
            columns={name: ColumnStats.from_dict(column)
                     for name, column in dumped.get("columns", {}).items()},
        )


def compute_table_stats(table) -> TableStats:
    """One full scan of a table's committed rows → :class:`TableStats`.

    Runs outside any transaction (ANALYZE autocommits, like DDL), so
    ``table.scan()`` reads the committed heap directly.
    """
    columns = [column.name.lower() for column in table.schema.columns]
    values_per_column: list[list] = [[] for _ in columns]
    nulls = [0] * len(columns)
    row_count = 0
    for _rowid, values in table.scan():
        row_count += 1
        for index, value in enumerate(values):
            if value is None:
                nulls[index] += 1
            else:
                values_per_column[index].append(value)
    stats = TableStats(row_count=row_count)
    for index, name in enumerate(columns):
        stats.columns[name] = _column_stats(values_per_column[index],
                                            nulls[index], row_count)
    return stats


def _column_stats(values: list, null_count: int,
                  row_count: int) -> ColumnStats:
    column = ColumnStats(
        ndv=len(set(values)),
        null_fraction=(null_count / row_count) if row_count else 0.0,
    )
    if not values:
        return column
    try:
        ordered = sorted(values)
    except TypeError:
        # mixed uncomparable values: keep NDV/null fraction, skip the
        # order statistics
        return column
    column.min_value = ordered[0]
    column.max_value = ordered[-1]
    count = len(ordered)
    buckets = min(HISTOGRAM_BUCKETS, max(column.ndv, 1))
    column.histogram = [ordered[0]] + [
        ordered[min((index * count) // buckets, count - 1)]
        for index in range(1, buckets)] + [ordered[-1]]
    return column


# ---------------------------------------------------------------------------
# Predicate selectivity
# ---------------------------------------------------------------------------

# type alias: maps a ColumnRef to that column's stats (None if the
# planner cannot resolve the reference to an analyzed base table)
ColumnResolver = Callable[[ast.ColumnRef], Optional[ColumnStats]]


def _literal_value(expression: ast.Expression):
    """The constant value of a literal, or None for anything else
    (parameters bind at execution time, so their value is unknown at
    plan time)."""
    if isinstance(expression, ast.Literal):
        return expression.value
    return None


def conjunct_selectivity(conjunct: ast.Expression,
                         resolve: ColumnResolver) -> float:
    """Estimated fraction of rows satisfying one predicate.

    Column references resolve through ``resolve``; unresolvable or
    exotic shapes fall back to the System R defaults. The result is
    always in [0, 1] — a misestimate changes only plan quality.
    """
    if isinstance(conjunct, ast.BinaryOp):
        op = conjunct.op
        if op == "and":
            return _clamp(conjunct_selectivity(conjunct.left, resolve)
                          * conjunct_selectivity(conjunct.right, resolve))
        if op == "or":
            left = conjunct_selectivity(conjunct.left, resolve)
            right = conjunct_selectivity(conjunct.right, resolve)
            return _clamp(left + right - left * right)
        if op in ("=", "<>", "!=", "<", "<=", ">", ">="):
            return _comparison_selectivity(conjunct, resolve)
        return DEFAULT_BOOL_SELECTIVITY
    if isinstance(conjunct, ast.UnaryOp) and conjunct.op == "not":
        return _clamp(1.0 - conjunct_selectivity(conjunct.operand,
                                                 resolve))
    if isinstance(conjunct, ast.Between):
        low = ast.BinaryOp(">=", conjunct.operand, conjunct.low)
        high = ast.BinaryOp("<=", conjunct.operand, conjunct.high)
        selectivity = (_comparison_selectivity(low, resolve)
                       + _comparison_selectivity(high, resolve) - 1.0)
        result = _clamp(selectivity)
        if conjunct.negated:
            result = _clamp(1.0 - result)
        return result
    if isinstance(conjunct, ast.InList):
        return _in_list_selectivity(conjunct, resolve)
    if isinstance(conjunct, ast.IsNull):
        stats = (resolve(conjunct.operand)
                 if isinstance(conjunct.operand, ast.ColumnRef) else None)
        null_fraction = (stats.null_fraction if stats is not None
                         else DEFAULT_EQ_SELECTIVITY)
        return _clamp(1.0 - null_fraction if conjunct.negated
                      else null_fraction)
    if isinstance(conjunct, ast.Like):
        selectivity = DEFAULT_LIKE_SELECTIVITY
        return _clamp(1.0 - selectivity if conjunct.negated
                      else selectivity)
    return DEFAULT_BOOL_SELECTIVITY


def _comparison_selectivity(conjunct: ast.BinaryOp,
                            resolve: ColumnResolver) -> float:
    column, other = conjunct.left, conjunct.right
    op = conjunct.op
    if not isinstance(column, ast.ColumnRef):
        column, other = other, column
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if not isinstance(column, ast.ColumnRef):
        return DEFAULT_BOOL_SELECTIVITY
    stats = resolve(column)
    if isinstance(other, ast.ColumnRef):
        # same-source column = column: 1/max ndv when both are known
        other_stats = resolve(other)
        if (op == "=" and stats is not None and other_stats is not None
                and stats.ndv > 0 and other_stats.ndv > 0):
            return _clamp(1.0 / max(stats.ndv, other_stats.ndv))
        return (DEFAULT_EQ_SELECTIVITY if op == "="
                else DEFAULT_RANGE_SELECTIVITY)
    value = _literal_value(other)
    if op == "=":
        if stats is None:
            return DEFAULT_EQ_SELECTIVITY
        return stats.eq_selectivity(value)
    if op in ("<>", "!="):
        if stats is None:
            return _clamp(1.0 - DEFAULT_EQ_SELECTIVITY)
        return _clamp((1.0 - stats.null_fraction)
                      - stats.eq_selectivity(value))
    if stats is None or value is None:
        return DEFAULT_RANGE_SELECTIVITY
    return stats.range_selectivity(op, value)


def _in_list_selectivity(conjunct: ast.InList,
                         resolve: ColumnResolver) -> float:
    stats = (resolve(conjunct.operand)
             if isinstance(conjunct.operand, ast.ColumnRef) else None)
    # NULL items can only make the predicate UNKNOWN, never TRUE, so
    # they contribute nothing; parameters are unknown single probes
    literal_values = set()
    unknown_probes = 0
    for item in conjunct.items:
        if isinstance(item, ast.Literal):
            if item.value is not None:
                literal_values.add(item.value)
        else:
            unknown_probes += 1
    if stats is None:
        selectivity = _clamp((len(literal_values) + unknown_probes)
                             * DEFAULT_EQ_SELECTIVITY)
    else:
        selectivity = _clamp(
            sum(stats.eq_selectivity(value) for value in literal_values)
            + unknown_probes * stats.eq_selectivity())
    if conjunct.negated:
        return _clamp(1.0 - selectivity)
    return selectivity


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))
