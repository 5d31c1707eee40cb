"""Generic provenance models (Definition 1).

A provenance model is a triple ``(A, E, L)``: activity types, entity
types, and edge types with admissible endpoint types. Activity, entity
and edge labels must be pairwise distinct. Models can be *combined*
(Definition 5) by unioning their types and adding cross-model edge
types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ModelViolationError


@dataclass(frozen=True)
class EdgeType:
    """An admissible edge: ``label(source_type, target_type)``.

    Edges are stored in the direction of information flow, e.g.
    ``readFrom(file, process)`` points file → process because the
    process's state absorbs the file's content.
    """

    label: str
    source_type: str
    target_type: str


class ProvenanceModel:
    """A named provenance model ``P = (A, E, L)``."""

    def __init__(self, name: str, activity_types: Iterable[str],
                 entity_types: Iterable[str],
                 edge_types: Iterable[EdgeType]) -> None:
        self.name = name
        self.activity_types = frozenset(activity_types)
        self.entity_types = frozenset(entity_types)
        self.edge_types: dict[str, EdgeType] = {}
        overlap = self.activity_types & self.entity_types
        if overlap:
            raise ModelViolationError(
                f"labels used as both activity and entity: {sorted(overlap)}")
        all_node_types = self.activity_types | self.entity_types
        for edge_type in edge_types:
            if edge_type.label in self.edge_types:
                raise ModelViolationError(
                    f"duplicate edge label {edge_type.label!r}")
            if edge_type.label in all_node_types:
                raise ModelViolationError(
                    f"edge label {edge_type.label!r} collides with a "
                    "node type")
            for endpoint in (edge_type.source_type, edge_type.target_type):
                if endpoint not in all_node_types:
                    raise ModelViolationError(
                        f"edge {edge_type.label!r} references unknown "
                        f"type {endpoint!r}")
            self.edge_types[edge_type.label] = edge_type

    # -- type queries ------------------------------------------------------------

    def is_activity_type(self, type_label: str) -> bool:
        return type_label in self.activity_types

    def is_entity_type(self, type_label: str) -> bool:
        return type_label in self.entity_types

    def edge_type(self, label: str) -> EdgeType:
        edge_type = self.edge_types.get(label)
        if edge_type is None:
            raise ModelViolationError(
                f"model {self.name!r} has no edge type {label!r}")
        return edge_type

    def check_edge(self, label: str, source_type: str,
                   target_type: str) -> None:
        """Validate an edge against the model's type constraints."""
        edge_type = self.edge_type(label)
        if (edge_type.source_type != source_type
                or edge_type.target_type != target_type):
            raise ModelViolationError(
                f"edge {label!r} connects {source_type} -> {target_type}, "
                f"model requires {edge_type.source_type} -> "
                f"{edge_type.target_type}")

    # -- combination (Definition 5) --------------------------------------------------

    def combine(self, other: "ProvenanceModel",
                cross_edges: Iterable[EdgeType],
                name: str | None = None) -> "ProvenanceModel":
        """Union two models and add cross-model edge types."""
        shared = (
            (self.activity_types | self.entity_types)
            & (other.activity_types | other.entity_types))
        if shared:
            raise ModelViolationError(
                f"models share node types: {sorted(shared)}")
        return ProvenanceModel(
            name or f"{self.name}+{other.name}",
            self.activity_types | other.activity_types,
            self.entity_types | other.entity_types,
            list(self.edge_types.values())
            + list(other.edge_types.values())
            + list(cross_edges))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProvenanceModel({self.name!r}, "
                f"A={sorted(self.activity_types)}, "
                f"E={sorted(self.entity_types)})")
