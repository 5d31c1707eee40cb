"""Shared infrastructure for the experiment benchmarks (Section IX).

Environment knobs:

* ``REPRO_BENCH_SF``      — TPC-H scale factor (default 0.001),
* ``REPRO_BENCH_INSERTS`` — Insert-step statement count (default 100;
  the paper uses 1000 at SF 1),
* ``REPRO_BENCH_UPDATES`` — Update-step statement count (default 20;
  paper: 100),
* ``REPRO_BENCH_SELECTS`` — Select-step repetitions (default 10, as in
  the paper).

Every test records rows into the session-wide :class:`Report`; the
formatted paper-style tables are printed in the terminal summary and
written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.core import ldv_audit
from repro.baselines import build_ptu_package
from repro.workloads.app import (
    APP_BINARY,
    INSERT_BINARY,
    QUERY_FILE,
    SELECT_BINARY,
    UPDATE_BINARY,
    build_world,
)
from repro.workloads.tpch.dbgen import TPCHConfig
from repro.workloads.tpch.queries import table2_variants

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.001"))
BENCH_INSERTS = int(os.environ.get("REPRO_BENCH_INSERTS", "100"))
BENCH_UPDATES = int(os.environ.get("REPRO_BENCH_UPDATES", "20"))
BENCH_SELECTS = int(os.environ.get("REPRO_BENCH_SELECTS", "10"))

BENCH_CONFIG = TPCHConfig(scale_factor=BENCH_SF)
ALL_VARIANTS = table2_variants(BENCH_CONFIG)
VARIANT_IDS = [variant.query_id for variant in ALL_VARIANTS]

RESULTS_DIR = Path(__file__).parent / "results"


def timed(fn, *args, **kwargs):
    """Run ``fn`` once, returning (seconds, result)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def best_of(fn, repeats: int) -> float:
    """The fastest of ``repeats`` timed calls of ``fn``, in seconds."""
    return min(timed(fn)[0] for _ in range(repeats))


# ---------------------------------------------------------------------------
# report collection
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """Collects experiment rows; rendered at session end."""

    tables: dict[str, list[tuple]] = field(default_factory=dict)
    headers: dict[str, tuple] = field(default_factory=dict)

    def add(self, figure: str, header: tuple, row: tuple) -> None:
        self.headers[figure] = header
        self.tables.setdefault(figure, []).append(row)

    def render(self, figure: str) -> str:
        header = self.headers[figure]
        rows = self.tables[figure]
        widths = [max(len(str(header[i])),
                      *(len(_cell(row[i])) for row in rows))
                  for i in range(len(header))]
        lines = [f"== {figure} =="]
        lines.append("  ".join(str(h).ljust(widths[i])
                               for i, h in enumerate(header)))
        for row in rows:
            lines.append("  ".join(_cell(cell).ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)

    def render_all(self) -> str:
        return "\n\n".join(self.render(figure)
                           for figure in sorted(self.tables))


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


_REPORT = Report()


@pytest.fixture(scope="session")
def report() -> Report:
    return _REPORT


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT.tables:
        return
    text = _REPORT.render_all()
    terminalreporter.write_line("")
    terminalreporter.write_line(
        f"LDV experiment report (SF={BENCH_SF}, inserts={BENCH_INSERTS}, "
        f"selects={BENCH_SELECTS}, updates={BENCH_UPDATES})")
    for line in text.splitlines():
        terminalreporter.write_line(line)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "report.txt").write_text(text + "\n")


# ---------------------------------------------------------------------------
# world + package caches
# ---------------------------------------------------------------------------


def fresh_world(tmp_dir: Path, variant=None, with_data_dir: bool = True):
    """Build a benchmark world at the session's scale."""
    return build_world(
        scale_factor=BENCH_SF,
        variant=variant,
        insert_count=BENCH_INSERTS,
        update_count=BENCH_UPDATES,
        data_dir=(tmp_dir / "pgdata") if with_data_dir else None)


class PackageCache:
    """Builds (variant, kind) packages once per session."""

    def __init__(self, base_dir: Path) -> None:
        self.base_dir = base_dir
        self._entries: dict[tuple[str, str], Path] = {}
        self._worlds: dict[tuple[str, str], object] = {}
        self.audit_seconds: dict[tuple[str, str], float] = {}

    def package_dir(self, variant_id: str, kind: str) -> Path:
        return self.base_dir / f"{variant_id}-{kind}"

    def world_for(self, variant_id: str, kind: str):
        return self._worlds[(variant_id, kind)]

    def get(self, variant, kind: str) -> Path:
        """kind: 'included' | 'excluded' | 'ptu'."""
        key = (variant.query_id, kind)
        if key in self._entries:
            return self._entries[key]
        out_dir = self.package_dir(variant.query_id, kind)
        world_dir = self.base_dir / f"world-{variant.query_id}-{kind}"
        world_dir.mkdir(parents=True, exist_ok=True)
        world = fresh_world(world_dir, variant=variant)
        argv = [str(BENCH_SELECTS)]
        if kind == "ptu":
            seconds, _ = timed(
                build_ptu_package, world.vos, APP_BINARY, out_dir,
                world.database, world.server_name,
                world.server_binary_paths, argv)
        elif kind == "included":
            seconds, _ = timed(
                ldv_audit, world.vos, APP_BINARY, out_dir,
                mode="server-included", argv=argv,
                database=world.database, server_name=world.server_name,
                server_binary_paths=world.server_binary_paths)
        elif kind == "excluded":
            seconds, _ = timed(
                ldv_audit, world.vos, APP_BINARY, out_dir,
                mode="server-excluded", argv=argv,
                database=world.database, server_name=world.server_name)
        else:
            raise ValueError(f"unknown package kind {kind!r}")
        self._entries[key] = out_dir
        self._worlds[key] = world
        self.audit_seconds[key] = seconds
        return out_dir


@pytest.fixture(scope="session")
def package_cache(tmp_path_factory) -> PackageCache:
    return PackageCache(tmp_path_factory.mktemp("packages"))


# step-driver helpers shared by fig7/fig8 benchmarks


def run_insert_step(world):
    return world.vos.run(INSERT_BINARY)


def run_select_step(world, repetitions: int):
    return world.vos.run(SELECT_BINARY, [str(repetitions)])


def run_update_step(world):
    return world.vos.run(UPDATE_BINARY)


def set_query(world_or_vos, sql: str) -> None:
    vos = getattr(world_or_vos, "vos", world_or_vos)
    vos.fs.write_file(QUERY_FILE, sql + "\n", create_parents=True)
