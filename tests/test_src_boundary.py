"""``src/repro`` holds the system only: no module imports the test or
benchmark trees, and the referees the tests judge the engine by (the
AST interpreter, the literal Definition 11 checker, the recording
tracer) live under ``tests/``."""

import ast
from pathlib import Path

import pytest

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent
MODULES = sorted(SOURCE_ROOT.rglob("*.py"))
FOREIGN_PACKAGES = {"tests", "benchmarks"}
REFEREES = {"Evaluator", "brute_force_dependencies", "RecordingTracer"}


def _imported_packages(tree: ast.Module) -> set[str]:
    packages = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def _defined_names(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def test_the_source_tree_is_found():
    assert len(MODULES) > 50
    assert SOURCE_ROOT / "db" / "engine.py" in MODULES


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SOURCE_ROOT)) for p in MODULES])
def test_module_stays_inside_src(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not _imported_packages(tree) & FOREIGN_PACKAGES
    assert not _defined_names(tree) & REFEREES
