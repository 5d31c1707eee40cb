"""Execution traces (Definition 2).

An execution trace is a labeled directed graph whose nodes instantiate
a provenance model's activity/entity types and whose edges carry
:class:`TimeInterval` annotations. Edges point in the direction of
information flow (see :mod:`repro.provenance.model`).

The trace supports everything downstream needs: typed construction with
model validation, adjacency queries, the node-state function ``S(v, T)``
of Definition 10, and JSON round-tripping (a serialized trace ships
inside every LDV package).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterable, Sequence

from repro.errors import ModelViolationError, ProvenanceError, UnknownNodeError
from repro.provenance.interval import TimeInterval
from repro.provenance.model import ProvenanceModel


@dataclass(frozen=True)
class Node:
    """A trace node: an activity or entity instance."""

    node_id: str
    kind: str  # "activity" | "entity"
    type_label: str
    model: str  # name of the provenance model the node belongs to
    attrs: tuple[tuple[str, Any], ...] = ()

    @property
    def is_entity(self) -> bool:
        return self.kind == "entity"

    @property
    def is_activity(self) -> bool:
        return self.kind == "activity"

    def attr(self, key: str, default: Any = None) -> Any:
        for attr_key, value in self.attrs:
            if attr_key == key:
                return value
        return default


@dataclass(slots=True)
class Edge:
    """A typed, time-annotated edge."""

    source: str
    target: str
    label: str
    interval: TimeInterval
    attrs: dict[str, Any] = field(default_factory=dict)


class ExecutionTrace:
    """A temporal provenance graph for one application run."""

    def __init__(self, model: ProvenanceModel) -> None:
        self.model = model
        self._nodes: dict[str, Node] = {}
        self._edges: dict[tuple[str, str, str], Edge] = {}
        self._out: dict[str, list[Edge]] = {}
        self._in: dict[str, list[Edge]] = {}

    # -- construction -------------------------------------------------------------

    def add_activity(self, node_id: str, type_label: str,
                     model_name: str | None = None,
                     **attrs: Any) -> Node:
        if not self.model.is_activity_type(type_label):
            raise ModelViolationError(
                f"{type_label!r} is not an activity type of "
                f"{self.model.name!r}")
        return self._add_node(node_id, "activity", type_label,
                              model_name, tuple(sorted(attrs.items())))

    def add_entity(self, node_id: str, type_label: str,
                   model_name: str | None = None, **attrs: Any) -> Node:
        self.add_entities(type_label, model_name,
                          [(node_id, tuple(sorted(attrs.items())))])
        return self._nodes[node_id]

    def add_entities(self, type_label: str, model_name: str | None,
                     nodes: Iterable[tuple[str, tuple[tuple[str, Any], ...]]]
                     ) -> None:
        """Add entity nodes of one type, given as ``(node_id, attrs)``
        with ``attrs`` in :attr:`Node.attrs` form (``(key, value)``
        pairs sorted by key), checking the type once.

        An existing node of the same type is kept as it is; one of
        another type raises :class:`ProvenanceError`.
        """
        if not self.model.is_entity_type(type_label):
            raise ModelViolationError(
                f"{type_label!r} is not an entity type of "
                f"{self.model.name!r}")
        for node_id, attrs in nodes:
            self._add_node(node_id, "entity", type_label, model_name, attrs)

    def _add_node(self, node_id: str, kind: str, type_label: str,
                  model_name: str | None,
                  attrs: tuple[tuple[str, Any], ...]) -> Node:
        existing = self._nodes.get(node_id)
        if existing is not None:
            if existing.type_label != type_label:
                raise ProvenanceError(
                    f"node {node_id!r} already exists with type "
                    f"{existing.type_label!r}")
            return existing
        node = Node(node_id, kind, type_label,
                    model_name or self.model.name, attrs)
        self._nodes[node_id] = node
        self._out[node_id] = []
        self._in[node_id] = []
        return node

    def add_edge(self, source: str, target: str, label: str,
                 interval: TimeInterval, **attrs: Any) -> Edge:
        """Add (or widen) one typed edge; see :meth:`add_edges`."""
        self.add_edges(label, interval, [(source, target)], [attrs])
        return self._edges[(source, target, label)]

    def add_edges(self, label: str | Sequence[str], interval: TimeInterval,
                  pairs: Sequence[tuple[str, str]],
                  attrs: Sequence[dict[str, Any] | None] | None = None
                  ) -> None:
        """Add (or widen) typed ``source -> target`` edges, in order.

        ``label`` is every edge's label, or one label per pair;
        ``attrs``, when given, holds one attribute dict (or None) per
        pair.

        Adding the same ``(source, target, label)`` again widens the
        existing interval to the hull and merges the new attributes
        over the old — this is how a process that re-opens a file keeps
        a single readFrom edge spanning all of its reads.

        Each endpoint is looked up once, and the model check runs once
        per distinct ``(label, source type, target type)``. A pair with
        an unknown endpoint or an inadmissible type raises before it is
        added, leaving the pairs before it added, exactly as one
        :meth:`add_edge` per pair would.
        """
        if isinstance(label, str):
            labels: Iterable[str] = repeat(label, len(pairs))
        elif len(label) != len(pairs):
            raise ProvenanceError(
                f"{len(label)} labels for {len(pairs)} edges")
        else:
            labels = label
        if attrs is None:
            attr_dicts: Iterable[dict[str, Any] | None] = repeat(None)
        elif len(attrs) != len(pairs):
            raise ProvenanceError(
                f"{len(attrs)} attribute dicts for {len(pairs)} edges")
        else:
            attr_dicts = attrs
        nodes = self._nodes
        edges = self._edges
        out_edges = self._out
        in_edges = self._in
        checked: set[tuple[str, str, str]] = set()
        for (source, target), edge_label, edge_attrs in zip(
                pairs, labels, attr_dicts):
            source_node = nodes.get(source)
            if source_node is None:
                raise UnknownNodeError(f"unknown trace node {source!r}")
            target_node = nodes.get(target)
            if target_node is None:
                raise UnknownNodeError(f"unknown trace node {target!r}")
            types = (edge_label, source_node.type_label,
                     target_node.type_label)
            if types not in checked:
                self.model.check_edge(*types)
                checked.add(types)
            key = (source, target, edge_label)
            existing = edges.get(key)
            if existing is not None:
                existing.interval = existing.interval.hull(interval)
                if edge_attrs:
                    existing.attrs.update(edge_attrs)
                continue
            edge = edges[key] = Edge(source, target, edge_label, interval,
                                     dict(edge_attrs) if edge_attrs else {})
            out_edges[source].append(edge)
            in_edges[target].append(edge)

    # -- queries -----------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        node = self._nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(f"unknown trace node {node_id!r}")
        return node

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self, kind: str | None = None,
              type_label: str | None = None) -> list[Node]:
        result = []
        for node in self._nodes.values():
            if kind is not None and node.kind != kind:
                continue
            if type_label is not None and node.type_label != type_label:
                continue
            result.append(node)
        return sorted(result, key=lambda n: n.node_id)

    def entities(self, type_label: str | None = None) -> list[Node]:
        return self.nodes("entity", type_label)

    def activities(self, type_label: str | None = None) -> list[Node]:
        return self.nodes("activity", type_label)

    def edges(self, label: str | None = None) -> list[Edge]:
        if label is None:
            return list(self._edges.values())
        return [edge for edge in self._edges.values() if edge.label == label]

    def out_edges(self, node_id: str) -> list[Edge]:
        self.node(node_id)
        return list(self._out[node_id])

    def in_edges(self, node_id: str) -> list[Edge]:
        self.node(node_id)
        return list(self._in[node_id])

    def interval(self, source: str, target: str,
                 label: str | None = None) -> TimeInterval:
        """``T(v1, v2)``: the annotation of the edge between two nodes.

        If ``label`` is omitted and several typed edges connect the
        pair, the hull of their intervals is returned.
        """
        found = [edge for edge in self._out.get(source, ())
                 if edge.target == target
                 and (label is None or edge.label == label)]
        if not found:
            raise ProvenanceError(
                f"no edge between {source!r} and {target!r}")
        interval = found[0].interval
        for edge in found[1:]:
            interval = interval.hull(edge.interval)
        return interval

    def state(self, node_id: str, at_time: int) -> set[str]:
        """``S(v, T)`` of Definition 10: the sources of all incoming
        interactions that began no later than ``T``."""
        return {edge.source for edge in self.in_edges(node_id)
                if edge.interval.begin <= at_time}

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """Serialize to a JSON-compatible dict (model types are assumed
        known to the deserializer — the model itself is code)."""
        return {
            "model": self.model.name,
            "nodes": [
                {
                    "id": node.node_id,
                    "kind": node.kind,
                    "type": node.type_label,
                    "node_model": node.model,
                    "attrs": {key: value for key, value in node.attrs},
                }
                for node in self.nodes()
            ],
            "edges": [
                {
                    "source": edge.source,
                    "target": edge.target,
                    "label": edge.label,
                    "interval": edge.interval.to_json(),
                    "attrs": edge.attrs,
                }
                for edge in sorted(
                    self._edges.values(),
                    key=lambda e: (e.interval.begin, e.source, e.target,
                                   e.label))
            ],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any],
                  model: ProvenanceModel) -> "ExecutionTrace":
        trace = cls(model)
        for node_data in data["nodes"]:
            if model.is_activity_type(node_data["type"]):
                adder = trace.add_activity
            else:
                adder = trace.add_entity
            adder(node_data["id"], node_data["type"],
                  node_data.get("node_model"), **node_data.get("attrs", {}))
        for edge_data in data["edges"]:
            trace.add_edge(
                edge_data["source"], edge_data["target"], edge_data["label"],
                TimeInterval.from_json(edge_data["interval"]),
                **edge_data.get("attrs", {}))
        return trace
