"""The dict-of-``Edge`` execution trace, kept as the oracle for
:class:`repro.provenance.trace.ExecutionTrace`.

This is the trace as it was before it kept its graph as integer
columns: one :class:`Node` per node, one mutable :class:`Edge` per edge
keyed by ``(source, target, label)``, and an adjacency list per node.
It is slow and allocates several objects per edge, but it is short
enough to read as the specification: ``test_trace_oracle.py`` runs
random construction sequences through both and compares everything they
expose, the package encoding included.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterable, Sequence

from repro.errors import ModelViolationError, ProvenanceError, UnknownNodeError
from repro.provenance.interval import TimeInterval
from repro.provenance.model import ProvenanceModel
from repro.provenance.trace import Edge, Node


class ReferenceTrace:
    """A temporal provenance graph kept as one :class:`Edge` per edge."""

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

    # -- the package encoding (trace format 2) -------------------------------------

    def to_v2(self) -> dict[str, Any]:
        """Encode as trace format 2, the form a package ships.

        Nodes are interned: the node table is sorted by id, as
        :meth:`to_json` lists them, and everything else refers to a
        node by its index there. Each node has a code into ``types``,
        ``[kind, type, model, packed]``. A tuple node whose attributes
        are exactly its ``table``, int ``rowid`` and int ``version``,
        and whose id is ``tuple:{table}:{rowid}:v{version}``, is packed
        into the ``tuples`` columns and rebuilt on read; any other node
        is an ``[id, attrs]`` row. Edges are parallel integer columns in
        :meth:`to_json`'s order. An edge whose attributes are just a
        ``lineage`` list of node ids keeps it as node indices, with ids
        that are not trace nodes in a side table (negative codes, ``~i``
        for ``ids[i]``); any other edge attributes are ``[edge index,
        attrs]`` pairs. ``tuples``, ``lineage`` and ``attrs`` are left
        out when empty. :meth:`from_v2` decodes.
        """
        nodes = self._nodes
        node_ids = sorted(nodes)
        index = {node_id: position for position, node_id in
                 enumerate(node_ids)}
        types: dict[tuple[str, str, str, int], int] = {}
        tables: dict[str, int] = {}
        type_column: list[int] = []
        table_column: list[int] = []
        rowid_column: list[int] = []
        version_column: list[int] = []
        rows: list[list[Any]] = []
        for node_id in node_ids:
            node = nodes[node_id]
            attrs = node.attrs
            packed = 0
            if len(attrs) == 3:
                ((rowid_key, rowid), (table_key, table),
                 (version_key, version)) = attrs
                packed = int(
                    rowid_key == "rowid" and table_key == "table"
                    and version_key == "version" and type(rowid) is int
                    and type(version) is int and type(table) is str
                    and node_id == f"tuple:{table}:{rowid}:v{version}")
            key = (node.kind, node.type_label, node.model, packed)
            code = types.get(key)
            if code is None:
                code = types[key] = len(types)
            type_column.append(code)
            if packed:
                table_code = tables.get(table)
                if table_code is None:
                    table_code = tables[table] = len(tables)
                table_column.append(table_code)
                rowid_column.append(rowid)
                version_column.append(version)
            else:
                rows.append([node_id, dict(attrs)])

        labels = sorted({edge.label for edge in self._edges.values()})
        label_codes = {label: code for code, label in enumerate(labels)}
        node_count = len(node_ids)
        label_count = len(labels)
        # (begin, source, target, label) as one integer: the lower
        # three fields lie in [0, node_count² · label_count)
        edges = sorted(self._edges.values(), key=lambda edge: (
            (edge.interval.begin * node_count + index[edge.source])
            * node_count + index[edge.target]) * label_count
            + label_codes[edge.label])
        lineage_edges: list[int] = []
        lineage_nodes: list[list[int]] = []
        outside: dict[str, int] = {}
        edge_attrs: list[list[Any]] = []
        for position, edge in enumerate(edges):
            attrs = edge.attrs
            if not attrs:
                continue
            ids = attrs.get("lineage")
            if len(attrs) != 1 or type(ids) is not list:
                edge_attrs.append([position, attrs])
                continue
            try:
                row = [index[node_id] for node_id in ids]
            except (KeyError, TypeError):
                # an id that is not a trace node, or not an id at all
                if not all(type(node_id) is str for node_id in ids):
                    edge_attrs.append([position, attrs])
                    continue
                row = [index[node_id] if node_id in index
                       else ~outside.setdefault(node_id, len(outside))
                       for node_id in ids]
            lineage_edges.append(position)
            lineage_nodes.append(row)

        encoded: dict[str, Any] = {
            "model": self.model.name,
            "types": [list(key) for key in types],
            "nodes": {"type": type_column, "rows": rows},
            "labels": labels,
            "edges": {
                "src": [index[edge.source] for edge in edges],
                "dst": [index[edge.target] for edge in edges],
                "label": [label_codes[edge.label] for edge in edges],
                "begin": [edge.interval.begin for edge in edges],
                "end": [edge.interval.end for edge in edges],
            },
        }
        if tables:
            encoded["tuples"] = {"tables": list(tables),
                                 "table": table_column,
                                 "rowid": rowid_column,
                                 "version": version_column}
        if lineage_edges:
            encoded["lineage"] = {"edges": lineage_edges,
                                  "nodes": lineage_nodes,
                                  "ids": list(outside)}
        if edge_attrs:
            encoded["attrs"] = edge_attrs
        return encoded
