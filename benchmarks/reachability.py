"""Which outermost ``def``s of ``src/repro`` a representative run never enters.

From the repository root (standard library only, about two minutes on
two cores)::

    python benchmarks/reachability.py

Under one ``sys.setprofile`` hook it runs:

1. the LDV pipeline benchmark (``benchmarks/ldv``'s ``measure``) on each
   workload, traced, for one repetition after its warm-up;
2. ``ldv-audit`` then ``ldv-trace`` (every option) then ``ldv-exec`` on
   ``repro.workloads.app:build_scenario`` in both modes, and
   ``ldv-trace`` on the frozen trace-format-1 package;
3. crash recovery: a data directory left with committed and rolled-back
   work of every WAL record kind and a torn tail, reopened twice;
4. the four programs in ``examples/``.

It then prints how many outermost ``def``s (functions and methods of
top-level classes; nested ``def``s count as part of theirs) no call
entered, and a Markdown table of those over ten lines, largest first,
with the trees whose text names each (``src`` only if some line besides
the ``def`` does). The names column is a grep hint, not a call graph.
This is a report, not a gate: what a def is for is decided by reading
it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
SCENARIO = "repro.workloads.app:build_scenario"
FORMAT_1_PACKAGE = ROOT / "tests" / "fixtures" / "package_v1_included"
# the table lists only unentered defs at least this long
MIN_LINES = 11
# where a def's name may be written: "src" counts only beyond the def
# line itself, "benchmarks" is every benchmark file outside benchmarks/ldv
NAMING_TREES = {
    "src": sorted(SOURCE.rglob("*.py")),
    "tests": sorted((ROOT / "tests").rglob("*.py")),
    "benchmarks/ldv": sorted((ROOT / "benchmarks" / "ldv").rglob("*.py")),
    "benchmarks": sorted((ROOT / "benchmarks").glob("test_*.py"))
    + [ROOT / "benchmarks" / "conftest.py"],
    "examples": sorted((ROOT / "examples").glob("*.py")),
}


def outermost_defs(path: Path) -> list[tuple[str, int, int]]:
    """``(qualified name, first line, last line)`` of each def in
    ``path`` not nested in another def; the first line is the first
    decorator's, as in the code object."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [decorator.lineno for decorator
                                             in node.decorator_list])
                found.append((prefix + node.name, first, node.end_lineno))

    visit(tree.body, "")
    return found


def run_workloads(work: Path) -> None:
    from benchmarks.ldv.pipeline import measure
    from benchmarks.ldv.workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        measurement = measure(workload, 1, work / f"ldv-{name}",
                              seconds=0.0, trace=True)
        if measurement.failed or measurement.trace_errors:
            raise SystemExit(f"{name}: {measurement.failures} "
                             f"{measurement.trace_errors}")


def run_cli(work: Path) -> None:
    from repro.core.cli import audit_main, exec_main
    from repro.core.tracetool import trace_main

    packages = []
    for mode in ("server-included", "server-excluded"):
        package = work / f"cli-{mode}"
        _expect_success(audit_main, [SCENARIO, "--mode", mode,
                                     "--out", str(package)])
        packages.append(package)
    for package in packages + [FORMAT_1_PACKAGE]:
        _expect_success(trace_main, [str(package)])
        _expect_success(trace_main, [str(package), "--entities"])
        _expect_success(trace_main, [str(package), "--entities", "tuple"])
        _expect_success(trace_main, [str(package), "--prov",
                                     str(work / f"{package.name}.prov.json")])
        entity, source = _dependent_pair(package)
        _expect_success(trace_main, [str(package), "--deps", entity])
        _expect_success(trace_main, [str(package), "--deps", entity,
                                     "--at-time", "1"])
        _expect_success(trace_main, [str(package), "--depends",
                                     entity, source])
    for package in packages:
        _expect_success(exec_main, [str(package), SCENARIO])


def _dependent_pair(package: Path) -> tuple[str, str]:
    """An entity of the package's trace and one it depends on."""
    from repro.core.tracetool import load_package_trace
    from repro.provenance.inference import DependencyInference

    trace = load_package_trace(package)
    inference = DependencyInference(trace)
    for entity in trace.entities():
        sources = inference.dependencies_of(entity.node_id)
        if sources:
            return entity.node_id, min(sources)
    raise SystemExit(f"{package}: no entity depends on another")


def _expect_success(main, argv: list[str]) -> None:
    output = io.StringIO()
    with contextlib.redirect_stdout(output), \
            contextlib.redirect_stderr(output):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"{main.__name__} {argv} exited {status}: "
                         f"{output.getvalue()[-500:]}")


def run_recovery(work: Path) -> None:
    """Reopen a data directory holding every WAL record kind the
    engine writes, a rolled-back transaction and a torn tail."""
    from repro.db import Database

    directory = work / "recovery"
    database = Database(data_directory=directory)
    database.execute("CREATE TABLE a (id integer PRIMARY KEY, v text)")
    database.execute("INSERT INTO a VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    database.checkpoint()
    database.execute("CREATE INDEX a_v ON a (v)")
    database.execute("UPDATE a SET id = 9 WHERE id = 1")
    database.execute("DELETE FROM a WHERE id = 3")
    session = database.create_session("writer")
    database.execute("BEGIN", session=session)
    database.execute("INSERT INTO a VALUES (4, 'w')", session=session)
    database.execute("ROLLBACK", session=session)
    database.execute("BEGIN", session=session)
    database.execute("UPDATE a SET v = 'q' WHERE id = 2", session=session)
    database.execute("COMMIT", session=session)
    database.execute("INSERT INTO a VALUES (5, 'v')", token="retry-1")
    database.execute("DROP INDEX a_v")
    database.execute("CREATE TABLE b (k integer)")
    database.execute("DROP TABLE b")
    # a crash mid-append: the last frame is cut short
    with open(directory / "wal.log", "ab") as wal:
        wal.write(b"\x00\x00\x01")
    reopened = Database(data_directory=directory)
    rows = reopened.query("SELECT id, v FROM a ORDER BY id")
    if rows != [(2, "q"), (5, "v"), (9, "x")]:
        raise SystemExit(f"recovery read {rows}")
    reopened.checkpoint()
    Database(data_directory=directory).close()


def run_examples(work: Path) -> None:
    # the examples keep their mkdtemp() work directories; make those
    # inside ``work`` so the run leaves nothing behind
    tempfile.tempdir = str(work)
    try:
        for path in sorted((ROOT / "examples").glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
    finally:
        tempfile.tempdir = None


def naming_trees(name: str, texts: dict[str, str]) -> str:
    pattern = re.compile(r"\b" + re.escape(name) + r"\b")
    return ", ".join(
        tree for tree, text in texts.items()
        if len(pattern.findall(text)) > (1 if tree == "src" else 0)) or "-"


def main() -> int:
    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory(prefix="ldv-reach-") as scratch:
        work = Path(scratch)
        sys.setprofile(profile)
        try:
            run_workloads(work)
            run_cli(work)
            run_recovery(work)
            run_examples(work)
        finally:
            sys.setprofile(None)

    texts = {tree: "\n".join(path.read_text(encoding="utf-8")
                             for path in paths)
             for tree, paths in NAMING_TREES.items()}
    unreached = []
    total_lines = 0
    for path in sorted(SOURCE.rglob("*.py")):
        total_lines += len(path.read_text(encoding="utf-8").splitlines())
        for name, first, last in outermost_defs(path):
            if (str(path), first) not in entered:
                unreached.append((last - first + 1, str(
                    path.relative_to(SOURCE.parent)), name))
    unreached.sort(key=lambda item: (-item[0], item[1], item[2]))
    listed = [item for item in unreached if item[0] >= MIN_LINES]
    unreached_lines = sum(count for count, _, _ in unreached)
    lines = [f"{len(unreached)} outermost defs ({unreached_lines} of "
             f"{total_lines} lines under src/repro) were never entered; "
             f"{len(listed)} of them have at least {MIN_LINES} lines.",
             "",
             "| lines | module | def | named in |",
             "|---:|---|---|---|"]
    for count, module, name in listed:
        lines.append(f"| {count} | `{module}` | `{name}` | "
                     f"{naming_trees(name.rsplit('.', 1)[-1], texts)} |")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
