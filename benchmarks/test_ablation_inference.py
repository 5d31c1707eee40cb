"""Ablation: the temporal dependency-inference algorithm itself.

Two claims behind Section VI:

1. temporal restriction *prunes false positives* that the raw
   blackbox relation (Definition 8) reports — measured on pipeline
   traces where early outputs cannot depend on late inputs,
2. the latest-budget traversal scales to real traces, while the
   literal path-enumeration reading of Definition 11 blows up —
   measured on growing chain-with-fanout traces.
"""

from __future__ import annotations

import time

import pytest

from repro.provenance import (
    DependencyInference,
    TimeInterval,
    TraceBuilder,
    bb_dependencies,
)
from tests.provenance.brute_force import brute_force_dependencies


def pipeline_trace(stages: int, files_per_stage: int = 3):
    """stage i reads the files of stage i-1 and writes its own; each
    process also reads a config file *after* writing its first output,
    creating prunable raw dependencies."""
    builder = TraceBuilder()
    tick = 1
    for stage in range(stages):
        builder.process(stage, f"stage{stage}")
        if stage > 0:
            for index in range(files_per_stage):
                builder.read_from(stage, f"/s{stage - 1}f{index}",
                                  TimeInterval(tick, tick + 1))
        tick += 2
        # first output written now ...
        builder.has_written(stage, f"/s{stage}f0",
                            TimeInterval(tick, tick + 1))
        tick += 2
        # ... then a late config read that f0 cannot depend on
        builder.read_from(stage, f"/late{stage}",
                          TimeInterval(tick, tick + 1))
        tick += 2
        for index in range(1, files_per_stage):
            builder.has_written(stage, f"/s{stage}f{index}",
                                TimeInterval(tick, tick + 1))
            tick += 2
    return builder.trace


def test_temporal_pruning_rate(benchmark, report):
    trace = pipeline_trace(stages=6)
    inference = DependencyInference(trace)

    def run():
        return inference.all_dependencies()

    inferred = benchmark.pedantic(run, rounds=1, iterations=1)
    raw = bb_dependencies(trace)
    pruned = raw - inferred
    report.add(
        "Ablation — temporal pruning of blackbox dependencies",
        ("raw_pairs", "inferred_pairs", "pruned", "pruned_pct"),
        (len(raw), len(inferred), len(pruned),
         f"{100 * len(pruned) / max(len(raw), 1):.0f}%"))
    # every pruned pair is a first-output/late-config combination
    assert pruned
    for target, source in pruned:
        assert source.startswith("file:/late") and "f0" in target
    # within the *direct* relation, inference only ever removes pairs
    # (D*(G) additionally contains transitive multi-stage pairs, which
    # Definition 8's single-chain relation does not enumerate)
    assert (raw & inferred) == raw - pruned


@pytest.mark.parametrize("stages", [3, 4, 5])
def test_traversal_scales(benchmark, report, stages):
    trace = pipeline_trace(stages=stages, files_per_stage=3)
    inference = DependencyInference(trace)
    target = f"file:/s{stages - 1}f2"

    fast = benchmark(inference.dependencies_of, target)

    start = time.perf_counter()
    slow = brute_force_dependencies(trace, target, max_length=30)
    brute_seconds = time.perf_counter() - start
    assert fast == slow
    report.add(
        "Ablation — traversal vs literal path enumeration (seconds)",
        ("stages", "traversal", "brute_force", "speedup"),
        (stages, benchmark.stats.stats.mean, brute_seconds,
         f"{brute_seconds / max(benchmark.stats.stats.mean, 1e-9):.0f}x"))
