"""Command line of the LDV pipeline benchmark.

One workload in this process (what ``benchmarks/ldv/run.py`` runs)::

    python3 benchmarks/ldv/run.py --workload app-writes --seed 1 \\
        --seconds 40 --trace 0

prints a metric table and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or the per-layer ones with ``--trace 1``).

Every workload, each run in a fresh process (``--runs N`` uses seeds
SEED … SEED+N-1), written to a result file::

    PYTHONPATH=src python -m benchmarks.ldv run [--runs N] [--trace]

Two result files against the bounds in ``BENCHMARK.json``::

    PYTHONPATH=src python -m benchmarks.ldv compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from . import ROOT, layers
from .compare import compare, format_rows
from .stats import relative_spread, summarize
from .workloads import DEFAULT_SEED, WORKLOADS

OUTPUT_DIR = ROOT / ".ldv_bench"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"


def _log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


# -- one workload, this process ----------------------------------------------------


def run_one(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/ldv/run.py",
        description="Measure one workload of the LDV pipeline benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=Path, default=None,
                        help="where to write the run's full detail JSON "
                             "(default: .ldv_bench/<workload>-...json)")
    args = parser.parse_args(argv)

    # imports the program: only here, so `compare` runs without it
    from .pipeline import E2E_METRICS, measure

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    measurement = measure(
        workload, args.seed, OUTPUT_DIR / f"work-{os.getpid()}",
        seconds=args.seconds, trace=traced, log=_log)

    e2e = measurement.e2e_metrics()
    measured = measurement.measured_times()
    per_layer = measurement.layer_metrics()
    if traced:
        reported = {name: per_layer[name] for name in layers.per_layer_names()}
    else:
        reported = {name: e2e[name] for name, _ in E2E_METRICS}
    checks = measurement.stage_checks()
    detail = {
        "conditions": measurement.conditions,
        "traced": traced,
        "ops": measurement.ops,
        "failed": measurement.failed,
        "failures": measurement.failures,
        "trace_errors": measurement.trace_errors,
        "e2e": e2e,
        "e2e_measured": measured,
        "speed_factors": dict(measurement.speed_factors),
        "per_layer": per_layer,
        "stage_checks": checks,
        "span_trees": measurement.trees,
    }
    detail_path = args.detail or (
        OUTPUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    detail_path.parent.mkdir(parents=True, exist_ok=True)
    detail_path.write_text(json.dumps(detail, indent=1) + "\n")

    for line in measurement.failures + measurement.trace_errors:
        print(f"FAILED {line}")
    print(f"{workload.name}: {measurement.repetitions} repetitions, "
          f"{measurement.ops} ops, {measurement.failed} failed "
          f"(failed_frac {measurement.failed / max(measurement.ops, 1):g})")
    if not traced:
        print(f"  {'metric':<26} {'reference speed':>16} {'as measured':>14}")
    for name, summary in reported.items():
        line = f"  {name:<{52 if traced else 26}} {_value(summary):>16.6g}"
        if not traced:
            line += (f" {measured[name]['median']:>14.6g}" if name in measured
                     else f" {'':>14}")
        print(f"{line} {summary['unit']}")
    if traced:
        for stage, check in checks.items():
            print(f"  check {stage:<20} parts vs wall off by at most "
                  f"{check['max_attributed_error']:.1e}, unattributed "
                  f"{check['median_unattributed_share']:.2%} of wall")
    print(f"detail: {detail_path}")
    result = {
        "correct": measurement.failed == 0 and not measurement.trace_errors,
        "attempted": measurement.ops,
        "failed": measurement.failed,
        "metrics": {name: {"value": _value(summary), "unit": summary["unit"]}
                    for name, summary in reported.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def _value(summary: dict[str, Any]) -> float:
    return summary["value"] if "value" in summary else summary["median"]


# -- every workload, fresh processes -------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    out = args.out or OUTPUT_DIR / f"run-{stamp}.json"
    result: dict[str, Any] = {"traced": args.trace, "seed": args.seed,
                              "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        runs = []
        for index in range(args.runs):
            seed = args.seed + index
            detail_path = OUTPUT_DIR / f"{stamp}-{name}-{seed}.json"
            command = [sys.executable, str(RUN_SCRIPT), "--workload", name,
                       "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", "1" if args.trace else "0",
                       "--detail", str(detail_path)]
            _log(f"== {name} run {index + 1}/{args.runs}")
            completed = subprocess.run(command, cwd=ROOT, text=True,
                                       stdout=subprocess.PIPE)
            print(completed.stdout, end="", flush=True)
            if completed.returncode != 0:
                _log(f"{name}: run exited with {completed.returncode}")
                status = 1
                continue
            line = json.loads(completed.stdout.strip().splitlines()[-1])
            detail = json.loads(detail_path.read_text())
            runs.append({
                "seed": seed, "metrics": line["metrics"], "attempted": line["attempted"],
                "failed": line["failed"], "failures": detail["failures"],
                "conditions": detail["conditions"],
                "stage_checks": detail["stage_checks"],
                "detail": str(detail_path.relative_to(ROOT))})
        if not runs:
            continue
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            metrics[metric] = {"unit": first["unit"], **summarize(values),
                               "values": values}
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        result["workloads"][name] = {
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 0.0,
            "metrics": metrics, "runs": runs}
        if failed:
            status = 1
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    _print_summary(result)
    print(f"result: {out}")
    return status


def _print_summary(result: dict[str, Any]) -> None:
    for name, entry in result["workloads"].items():
        print(f"{name}: {len(entry['runs'])} run(s), {entry['attempted']} "
              f"ops, {entry['failed']} failed (failed_frac "
              f"{entry['failed_frac']:g})")
        print(f"  {'metric':<52} {'median':>12} {'q1':>12} {'q3':>12} "
              "spread")
        for metric, summary in entry["metrics"].items():
            print(f"  {metric:<52} {summary['median']:>12.6g} "
                  f"{summary['q1']:>12.6g} {summary['q3']:>12.6g} "
                  f"{relative_spread(summary):>6.1%} {summary['unit']}")


# -- compare -------------------------------------------------------------------------


def compare_files(base: Path, head: Path) -> int:
    declared = json.loads(BENCHMARK_FILE.read_text())["end_to_end"]
    rows = compare(json.loads(base.read_text()), json.loads(head.read_text()),
                   declared)
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ldv",
        description="The LDV pipeline benchmark: audit, package and "
                    "replay for all three package flavours.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="measure every workload, each in a fresh process")
    run.add_argument("--runs", type=int, default=1,
                     help="fresh processes per workload, with seeds "
                          "SEED, SEED+1, ... (default 1)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=_run_seconds())
    run.add_argument("--trace", action="store_true",
                     help="report per-layer metrics instead")
    run.add_argument("--out", type=Path, default=None)
    cmp = commands.add_parser("compare", help="compare two result files")
    cmp.add_argument("base", type=Path)
    cmp.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_all(args)
    return compare_files(args.base, args.head)


def _run_seconds() -> float:
    try:
        return float(json.loads(BENCHMARK_FILE.read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 30.0
