"""Execution traces (Definition 2).

An execution trace is a labeled directed graph whose nodes instantiate
a provenance model's activity/entity types and whose edges carry
:class:`TimeInterval` annotations. Edges point in the direction of
information flow (see :mod:`repro.provenance.model`).

The trace supports everything downstream needs: typed construction with
model validation, adjacency queries, the node-state function ``S(v, T)``
of Definition 10, JSON round-tripping, and the compact columnar
encoding a package ships (:meth:`ExecutionTrace.to_v2`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, repeat
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

    @classmethod
    def from_v2(cls, data: dict[str, Any],
                model: ProvenanceModel) -> "ExecutionTrace":
        """Decode :meth:`to_v2`'s encoding, validating it.

        Nodes and edges go through the checks :meth:`from_json` gets
        from the ``add_*`` methods: node types against the model, the
        model check once per distinct ``(label, source type, target
        type)``, and interval validity. Array lengths, codes and
        indices are checked too; a fault raises
        :class:`ProvenanceError`. The ``model`` field is the caller's
        to check.
        """
        types = data["types"]
        for entry in types:
            kind, type_label = entry[0], entry[1]
            if kind == "activity":
                known = model.is_activity_type(type_label)
            elif kind == "entity":
                known = model.is_entity_type(type_label)
            else:
                raise ProvenanceError(f"unknown node kind {kind!r}")
            if not known:
                raise ModelViolationError(
                    f"{type_label!r} is not an {kind} type of "
                    f"{model.name!r}")
        type_column = data["nodes"]["type"]
        rows = data["nodes"]["rows"]
        tuples = data.get("tuples", _NO_TUPLES)
        tables = tuples["tables"]
        table_column = tuples["table"]
        rowid_column = tuples["rowid"]
        version_column = tuples["version"]
        _check_codes("node type", type_column, len(types))
        _check_codes("table", table_column, len(tables))
        packed = sum(1 for code in type_column if types[code][3])
        _check_lengths("tuple", packed, table=table_column,
                       rowid=rowid_column, version=version_column)
        _check_lengths("node", len(type_column) - packed, rows=rows)
        if not all(type(table) is str for table in tables):
            raise ProvenanceError("a table name is not a string")
        if not all(type(value) is int
                   for value in rowid_column + version_column):
            raise ProvenanceError(
                "a tuple's rowid or version is not an integer")

        trace = cls(model)
        add_node = trace._add_node
        node_ids: list[str] = []
        packed_rows = zip(table_column, rowid_column, version_column)
        generic_rows = iter(rows)
        for code in type_column:
            kind, type_label, node_model, is_packed = types[code]
            if is_packed:
                table_code, rowid, version = next(packed_rows)
                table = tables[table_code]
                node_id = f"tuple:{table}:{rowid}:v{version}"
                attrs = (("rowid", rowid), ("table", table),
                         ("version", version))
            else:
                node_id, row_attrs = next(generic_rows)
                if type(node_id) is not str:
                    raise ProvenanceError(
                        f"node id {node_id!r} is not a string")
                if not isinstance(row_attrs, dict):
                    raise ProvenanceError(
                        f"node {node_id!r}: attrs are a "
                        f"{type(row_attrs).__name__}, not an object")
                attrs = tuple(sorted(row_attrs.items()))
            add_node(node_id, kind, type_label, node_model, attrs)
            node_ids.append(node_id)

        labels = data["labels"]
        edges = data["edges"]
        src = edges["src"]
        dst = edges["dst"]
        label_column = edges["label"]
        begin = edges["begin"]
        end = edges["end"]
        edge_count = len(src)
        _check_lengths("edge", edge_count, dst=dst, label=label_column,
                       begin=begin, end=end)
        _check_codes("edge source", src, len(node_ids))
        _check_codes("edge target", dst, len(node_ids))
        _check_codes("edge label", label_column, len(labels))
        attr_column: list[dict[str, Any] | None] = [None] * edge_count
        lineage = data.get("lineage", _NO_LINEAGE)
        lineage_edges = lineage["edges"]
        lineage_nodes = lineage["nodes"]
        outside = lineage["ids"]
        _check_lengths("lineage", len(lineage_edges), nodes=lineage_nodes)
        _check_codes("lineage edge", lineage_edges, edge_count)
        for position, row in zip(lineage_edges, lineage_nodes):
            _check_codes("lineage node", row, len(node_ids),
                         low=-len(outside))
            if attr_column[position] is not None:
                raise ProvenanceError(f"edge {position} has two lineages")
            attr_column[position] = {"lineage": [
                node_ids[node] if node >= 0 else outside[~node]
                for node in row]}
        for position, attrs in data.get("attrs", ()):
            _check_codes("attributed edge", [position], edge_count)
            if attr_column[position] is not None:
                raise ProvenanceError(
                    f"edge {position} has two attribute rows")
            if not isinstance(attrs, dict):
                raise ProvenanceError(
                    f"edge {position}: attrs are a "
                    f"{type(attrs).__name__}, not an object")
            attr_column[position] = attrs

        pairs = [(node_ids[source], node_ids[target])
                 for source, target in zip(src, dst)]
        edge_labels = [labels[code] for code in label_column]
        start = 0
        # one add_edges call per run of edges with the same interval
        for (first, last), run in groupby(zip(begin, end)):
            stop = start + sum(1 for _ in run)
            trace.add_edges(edge_labels[start:stop],
                            TimeInterval(int(first), int(last)),
                            pairs[start:stop], attr_column[start:stop])
            start = stop
        return trace


# what from_v2 reads for a section to_v2 left out
_NO_TUPLES: dict[str, list[Any]] = {"tables": [], "table": [], "rowid": [],
                                    "version": []}
_NO_LINEAGE: dict[str, list[Any]] = {"edges": [], "nodes": [], "ids": []}


def _check_codes(what: str, column: list[int], bound: int,
                 low: int = 0) -> None:
    """Every entry of ``column`` indexes a table of ``bound`` entries
    (from ``low`` on, for the lineage side table's negative codes)."""
    if not isinstance(column, list):
        raise ProvenanceError(f"{what} codes are not a list")
    if column and (min(column) < low or max(column) >= bound):
        raise ProvenanceError(
            f"{what} index out of range [{low}, {bound})")


def _check_lengths(what: str, expected: int, **columns: list[Any]) -> None:
    """Every column holds ``expected`` entries."""
    for name, column in columns.items():
        if not isinstance(column, list) or len(column) != expected:
            length = len(column) if isinstance(column, list) else "no"
            raise ProvenanceError(
                f"{what} column {name!r} has {length} entries, "
                f"expected {expected}")
