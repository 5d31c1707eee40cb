"""The benchmark's workloads: the Section IX-A application at three
points of the (statement mix, result width, lineage depth) space. Why
each was chosen is recorded in ``BENCHMARK.json`` and the README."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20150413  # TPCHConfig's default seed

# every workload runs at this scale, with the app's 10-repetition
# Select step. At SF 0.005 one repetition takes 26-33 s, so a run would
# hold one and report single samples, and single ops spread by 4-12%
# within a run even at SF 0.001; at SF 0.001 a run holds one to five.
SCALE_FACTOR = 0.001
SELECTS = 10

# package builds per flavour and repetition. Builds are short and write
# the package to disk, and disk speed is not what the reference loop
# tracks, so they are repeated to rest their median on more samples:
# with one included build per repetition, app-writes' package_s.included
# spread by 10% between runs, and with five excluded builds (8-50 ms
# each) package_s.excluded spread by 9-14%
PACKAGE_REPEATS = {"included": 3, "excluded": 10}


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str  # Table II query id run by the Select step
    inserts: int
    updates: int
    # replays per flavour and repetition; the same reason as
    # PACKAGE_REPEATS, and deep-lineage's excluded replay takes ~6 ms
    excluded_replays: int = 10

    @property
    def replay_repeats(self) -> dict[str, int]:
        return {"included": 1, "excluded": self.excluded_replays, "ptu": 1}


WORKLOADS: dict[str, Workload] = {workload.name: workload for workload in (
    # the paper's statement counts: DML, WAL commits, parse and
    # per-statement wire and monitor cost dominate; each UPDATE's
    # reenactment SELECT is distinct, so none hits the plan cache
    Workload(name="app-writes", variant="Q1-1", inserts=1000, updates=100),
    # wire codec, result cache, excluded replay log, per-row lineage edges
    Workload(name="wide-result", variant="Q1-5", inserts=100, updates=20),
    # trace building, trace serialisation and CSV restore; tiny wire
    Workload(name="deep-lineage", variant="Q3-4", inserts=100, updates=20,
             excluded_replays=20),
)}
