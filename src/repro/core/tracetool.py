"""``ldv-trace`` — inspect the execution trace shipped in a package.

Section II promises that the linked provenance model "enables us to
... answer reachability queries (does data item d depend on data item
d')". This tool exposes that over a package's ``trace.json.gz``:

* ``ldv-trace PKG``                      — summary (node/edge census),
* ``ldv-trace PKG --entities [TYPE]``    — list entities,
* ``ldv-trace PKG --deps NODE``          — everything NODE depends on,
* ``ldv-trace PKG --depends D D2``       — reachability yes/no,
* ``ldv-trace PKG --prov OUT.json``      — PROV-JSON export.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.core.package import Package
from repro.errors import ReproError, UnknownNodeError
from repro.provenance.combined import COMBINED_MODEL
from repro.provenance.inference import DependencyInference
from repro.provenance.prov_export import trace_to_prov
from repro.provenance.trace import ExecutionTrace


def load_package_trace(package_dir: str | Path) -> ExecutionTrace:
    """Load the combined execution trace from a package."""
    package = Package.load(package_dir)
    return package.read_trace(COMBINED_MODEL)


def summarize(trace: ExecutionTrace) -> dict[str, int]:
    """Node/edge census by type."""
    summary: dict[str, int] = {}
    for node in trace.nodes():
        key = f"{node.kind}:{node.type_label}"
        summary[key] = summary.get(key, 0) + 1
    for edge in trace.edges():
        key = f"edge:{edge.label}"
        summary[key] = summary.get(key, 0) + 1
    return summary


def trace_main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ldv-trace",
        description="Inspect the execution trace inside an LDV package.")
    parser.add_argument("package", help="package directory")
    parser.add_argument("--entities", nargs="?", const="*", default=None,
                        metavar="TYPE",
                        help="list entity node ids (optionally only "
                             "of TYPE: file | tuple)")
    parser.add_argument("--deps", metavar="NODE",
                        help="list every entity NODE depends on "
                             "(temporally restricted inference)")
    parser.add_argument("--depends", nargs=2,
                        metavar=("TARGET", "SOURCE"),
                        help="reachability query: does TARGET depend "
                             "on SOURCE?")
    parser.add_argument("--prov", metavar="OUT",
                        help="write a PROV-JSON export to OUT")
    parser.add_argument("--at-time", type=int, default=None,
                        help="restrict --deps/--depends to "
                             "dependencies established by this tick")
    args = parser.parse_args(argv)

    try:
        trace = load_package_trace(args.package)
    except ReproError as exc:
        print(f"ldv-trace: error: {exc}", file=sys.stderr)
        return 1

    if args.entities is not None:
        type_label = None if args.entities == "*" else args.entities
        for node in trace.entities(type_label):
            print(node.node_id)
        return 0

    if args.deps is not None:
        inference = DependencyInference(trace)
        try:
            dependencies = inference.dependencies_of(args.deps,
                                                     args.at_time)
        except UnknownNodeError as exc:
            print(f"ldv-trace: error: {exc}", file=sys.stderr)
            return 1
        for node_id in sorted(dependencies):
            print(node_id)
        return 0

    if args.depends is not None:
        target, source = args.depends
        inference = DependencyInference(trace)
        try:
            answer = inference.depends_on(target, source, args.at_time)
        except UnknownNodeError as exc:
            print(f"ldv-trace: error: {exc}", file=sys.stderr)
            return 1
        print("yes" if answer else "no")
        return 0 if answer else 2

    if args.prov is not None:
        document = trace_to_prov(trace, include_dependencies=True)
        Path(args.prov).write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote PROV-JSON to {args.prov}")
        return 0

    for key, count in sorted(summarize(trace).items()):
        print(f"{key:32} {count}")
    return 0
