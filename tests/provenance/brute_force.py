"""Literal Definition 11, kept as the oracle for the dependency walk.

:func:`brute_force_dependencies` enumerates simple paths and checks the
three conditions of Definition 11 on each one. It is exponential, so it
only runs on small traces: ``test_inference.py`` cross-checks
:class:`repro.provenance.inference.DependencyInference` against it, and
``benchmarks/test_ablation_inference.py`` measures the gap.
"""

from __future__ import annotations

import math

from repro.provenance.bb import bb_dependencies
from repro.provenance.lineage import lin_dependencies
from repro.provenance.trace import Edge, ExecutionTrace


def brute_force_dependencies(trace: ExecutionTrace, target: str,
                             at_time: int | float | None = None,
                             max_length: int = 12) -> set[str]:
    """Literal Definition 11, by simple-path enumeration.

    Exponential — only for cross-checking the traversal on small traces
    in tests.
    """
    budget = math.inf if at_time is None else at_time
    relations = {
        "bb": bb_dependencies(trace),
        "lin": lin_dependencies(trace),
    }

    def feasible_times(path: list[Edge]) -> bool:
        # assign earliest feasible T_i greedily; per edge i:
        # T_i <= interval.end and T_{i+1} >= interval.begin
        current = -math.inf
        for edge in path:
            if current > edge.interval.end:
                return False
            current = max(current, edge.interval.begin)
        return current <= budget

    def entities_ok(path: list[Edge]) -> bool:
        nodes = [path[0].source] + [edge.target for edge in path]
        entity_ids = [node for node in nodes
                      if trace.node(node).is_entity]
        for source_entity, dependent in zip(entity_ids, entity_ids[1:]):
            source_model = trace.node(source_entity).model
            if source_model != trace.node(dependent).model:
                continue
            if (dependent, source_entity) not in relations.get(
                    source_model, set()):
                return False
        return True

    def path_exists(source: str) -> bool:
        stack: list[tuple[list[Edge], frozenset[str]]] = [
            ([edge], frozenset({source, edge.target}))
            for edge in trace.out_edges(source)]
        while stack:
            path, seen = stack.pop()
            tail = path[-1].target
            if tail == target:
                if feasible_times(path) and entities_ok(path):
                    return True
                continue
            if len(path) >= max_length:
                continue
            for edge in trace.out_edges(tail):
                if edge.target in seen:
                    continue
                stack.append((path + [edge], seen | {edge.target}))
        return False

    found: set[str] = set()
    for entity in trace.entities():
        if entity.node_id != target and path_exists(entity.node_id):
            found.add(entity.node_id)
    return found
