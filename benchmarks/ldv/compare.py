"""Compare two result files of ``python -m benchmarks.ldv run``.

For every workload and end-to-end metric the verdict is one of

* ``within-bound`` — the medians differ by no more than the bound,
* ``worse`` / ``better`` — they differ by more, in that direction,
* ``unresolved`` — a side's spread (interquartile distance over its
  median) is wider than the bound and the two sides' runs overlap, so
  the difference cannot be told from noise.

When a side's spread is wider than the bound but the runs do not
overlap, the verdict follows the direction of the difference.
"""

from __future__ import annotations

from typing import Any

from .stats import relative_spread

VERDICTS = ("within-bound", "better", "worse", "unresolved")


def verdict(base: dict[str, Any], head: dict[str, Any], bound: float,
            lower_is_better: bool) -> tuple[float, str]:
    """``(relative change, verdict)`` of ``head`` against ``base``;
    a positive change is a regression whatever the metric's direction."""
    change = ((head["median"] - base["median"]) / base["median"]
              if base["median"] else 0.0)
    if not lower_is_better:
        change = -change
    spread = max(relative_spread(base), relative_spread(head))
    if spread > bound:
        if head["min"] > base["max"] or head["max"] < base["min"]:
            return change, "worse" if change > 0 else "better"
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "within-bound"


def compare(base: dict[str, Any], head: dict[str, Any],
            declared: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """One row per (workload, declared end-to-end metric) in both files."""
    rows = []
    for workload, base_entry in base["workloads"].items():
        head_entry = head["workloads"].get(workload)
        if head_entry is None:
            continue
        for metric in declared:
            name = metric["name"]
            a = base_entry["metrics"].get(name)
            b = head_entry["metrics"].get(name)
            if a is None or b is None:
                continue
            change, outcome = verdict(a, b, metric["bound"],
                                      metric["better"] == "lower")
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "bound": metric["bound"],
                         "base": a, "head": b, "change": change,
                         "verdict": outcome})
    return rows


def format_rows(rows: list[dict[str, Any]]) -> str:
    header = (f"{'workload':<13} {'metric':<23} {'base median [q1, q3]':<40} "
              f"{'head median [q1, q3]':<40} {'change':>8} {'bound':>6}  "
              "verdict")
    lines = [header]
    for row in rows:
        a, b = row["base"], row["head"]
        lines.append(
            f"{row['workload']:<13} {row['metric']:<23} "
            f"{_cell(a):<40} {_cell(b):<40} {row['change']:>+8.2%} "
            f"{row['bound']:>6.0%}  {row['verdict']}")
    counts = {name: sum(row["verdict"] == name for row in rows)
              for name in VERDICTS}
    lines.append(", ".join(f"{count} {name}"
                           for name, count in counts.items()))
    return "\n".join(lines)


def _cell(summary: dict[str, Any]) -> str:
    return (f"{summary['median']:.5g} [{summary['q1']:.5g}, "
            f"{summary['q3']:.5g}] n={summary['n']}")
