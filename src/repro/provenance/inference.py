"""Temporally restricted dependency inference (Definitions 9–11).

Definition 11 declares entity ``e`` dependent on entity ``e'`` when the
trace contains a path ``v_1 = e', ..., v_n = e`` such that

1. adjacent entities from the *same* model on the path are direct model
   dependencies — ``(e_i, e_{i-1}) ∈ D(G)`` with D(G) per Definition 7
   (P_Lin) or Definition 8 (P_BB),
2. there is a non-decreasing time sequence ``T_1 ≤ ... ≤ T_n`` with
   ``T_i ≤ T(v_i, v_{i+1}).end``, and
3. ``T(v_{i-1}, v_i).begin ≤ T_i`` (each node only absorbs state from
   interactions that have already begun — Definition 10).

This module computes the relation with a *latest-allowed-time*
traversal walked backward from the dependent node: the walk sits at
node ``v`` with a budget ``U`` (the latest admissible ``T_v``);
crossing edge ``(u, v)`` backward with interval ``[b, e]`` is feasible
iff ``b ≤ U`` and tightens the budget to ``min(U, e)``. The greedy
latest schedule dominates every other time assignment, so the traversal
is sound and complete for conditions 2–3; condition 1 is enforced as a
set-membership check against the model dependency relations whenever
the walk moves from one entity to the next entity of the same model
(cross-model adjacency is always allowed — Definition 9, condition ii).

The paper's worked examples (Example 7, Example 8 / Figures 6a–6c) are
reproduced verbatim in ``tests/provenance/test_inference.py``, and a
hypothesis test cross-checks the traversal against
:func:`brute_force_dependencies`, a literal path-enumerating reading of
Definition 11.
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.provenance.bb import bb_dependencies
from repro.provenance.lineage import lin_dependencies
from repro.provenance.trace import Edge, ExecutionTrace


class DependencyInference:
    """Computes D*(G) (Definition 11) over a combined execution trace."""

    def __init__(self, trace: ExecutionTrace) -> None:
        self.trace = trace
        self._model_deps: dict[str, set[tuple[str, str]]] | None = None

    def _dependency_relations(self) -> dict[str, set[tuple[str, str]]]:
        """The per-model direct dependency relations D(G), lazily."""
        if self._model_deps is None:
            self._model_deps = {
                "bb": bb_dependencies(self.trace),
                "lin": lin_dependencies(self.trace),
            }
        return self._model_deps

    # -- public API -----------------------------------------------------------

    def dependencies_of(self, node_id: str,
                        at_time: int | float | None = None) -> set[str]:
        """All entities the given node's state depends on.

        ``node_id`` may be an entity (Definition 11 proper) or an
        activity (the "state of an activity depends on it" case
        Section VII-D uses to select package contents). ``at_time``
        restricts to dependencies established no later than that tick
        (default: the whole execution).
        """
        budget = math.inf if at_time is None else at_time
        start = self.trace.node(node_id)
        start_context = node_id if start.is_entity else None
        # best[(node, last_entity)] = largest budget reached with
        best: dict[tuple[str, str | None], float] = {
            (node_id, start_context): budget}
        # the push count breaks ties on (budget, node), so the heap
        # never compares a None context with a node id
        pushes = itertools.count()
        heap: list[tuple[float, str, int, str | None]] = [
            (-budget, node_id, next(pushes), start_context)]
        found: set[str] = set()
        while heap:
            negative_budget, current, _, context = heapq.heappop(heap)
            current_budget = -negative_budget
            if best.get((current, context), -math.inf) > current_budget:
                continue  # stale heap entry
            for edge in self.trace.in_edges(current):
                if edge.interval.begin > current_budget:
                    continue  # interaction began after the budget
                new_budget = min(current_budget, edge.interval.end)
                source_node = self.trace.node(edge.source)
                if source_node.is_entity:
                    if not self._adjacency_allowed(
                            context, source_node.node_id):
                        continue
                    new_context: str | None = source_node.node_id
                    if source_node.node_id != node_id:
                        found.add(source_node.node_id)
                else:
                    new_context = context
                key = (edge.source, new_context)
                if best.get(key, -math.inf) >= new_budget:
                    continue
                best[key] = new_budget
                heapq.heappush(heap, (-new_budget, edge.source,
                                      next(pushes), new_context))
        return found

    def depends_on(self, target: str, source: str,
                   at_time: int | float | None = None) -> bool:
        """Reachability query ("does d depend on d'?", Section II)."""
        return source in self.dependencies_of(target, at_time)

    def all_dependencies(self) -> set[tuple[str, str]]:
        """The full relation D*(G) over all entities."""
        pairs: set[tuple[str, str]] = set()
        for entity in self.trace.entities():
            for source in self.dependencies_of(entity.node_id):
                pairs.add((entity.node_id, source))
        return pairs

    # -- condition 1 (same-model adjacency) ---------------------------------------

    def _adjacency_allowed(self, context: str | None,
                           source_entity: str) -> bool:
        """Condition 1 of Definition 11 for the entity pair
        (``context`` depends on ``source_entity``)."""
        if context is None:
            return True  # walk started at an activity: no pair to check
        source_model = self.trace.node(source_entity).model
        context_model = self.trace.node(context).model
        if source_model != context_model:
            return True  # Definition 9, condition ii
        relation = self._dependency_relations().get(source_model)
        if relation is None:
            return True  # unknown model: stay conservative
        return (context, source_entity) in relation


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
