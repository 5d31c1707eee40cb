"""Execution traces (Definition 2).

An execution trace is a labeled directed graph whose nodes instantiate
a provenance model's activity/entity types and whose edges carry
:class:`TimeInterval` annotations. Edges point in the direction of
information flow (see :mod:`repro.provenance.model`).

The trace supports everything downstream needs: typed construction with
model validation, adjacency queries, the node-state function ``S(v, T)``
of Definition 10, JSON round-tripping, and the compact columnar
encoding a package ships (:meth:`ExecutionTrace.to_v2`).

In memory the graph is integer columns, not objects: a server-included
audit adds a node per result and read tuple and several edges per row,
and every object that lives as long as the trace is one more for each
full garbage collection to walk. :class:`Node` and :class:`Edge` are
snapshots the queries build on demand (docs/provenance-model.md, "In
memory").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import Any, Iterable, NoReturn, Sequence

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
    """A typed, time-annotated edge, as a snapshot of the trace's
    columns: changing it does not change the trace."""

    source: str
    target: str
    label: str
    interval: TimeInterval
    attrs: dict[str, Any] = field(default_factory=dict)


# the type code of an interned id that is not a node: a Lineage
# attribution may name a tuple version the trace has no node for (yet)
_NOT_A_NODE = -1


class ExecutionTrace:
    """A temporal provenance graph for one application run.

    Every id the trace knows is interned: ``_index`` maps it to its
    position in the node columns ``_ids``, ``_node_type`` and
    ``_node_attrs``. A type code points into ``_types``, the distinct
    ``(kind, type, model)`` triples; an id that only a Lineage names
    has the code ``_NOT_A_NODE``. Edges are parallel int columns in
    insertion order, and ``_edge_at`` finds one by its ``(source,
    target, label)`` packed into one int. Edge attributes are sparse: a
    Lineage list of ids is a row of interned indices in ``_cells`` (its
    length, then the indices), any other attributes a dict.
    """

    def __init__(self, model: ProvenanceModel) -> None:
        self.model = model
        self._index: dict[str, int] = {}
        self._ids: list[str] = []
        self._node_type: list[int] = []
        self._node_attrs: list[tuple[tuple[str, Any], ...]] = []
        self._types: list[tuple[str, str, str]] = []
        self._type_codes: dict[tuple[str, str, str], int] = {}
        self._node_count = 0
        self._labels = list(model.edge_types)
        self._label_codes = {label: code
                             for code, label in enumerate(self._labels)}
        self._src: list[int] = []
        self._dst: list[int] = []
        self._label: list[int] = []
        self._begin: list[int] = []
        self._end: list[int] = []
        self._edge_at: dict[int, int] = {}
        self._lineage: dict[int, int] = {}  # edge -> offset of its row
        self._cells: list[int] = []
        self._edge_attrs: dict[int, dict[str, Any]] = {}
        # packed (label, source type, target type) codes the model admits
        self._admitted: set[int] = set()
        # (out order, its sources, in order, its targets): built by the
        # first adjacency query, dropped when an edge is added
        self._adjacency: tuple[list[int], ...] | None = None

    # -- construction -------------------------------------------------------------

    def add_activity(self, node_id: str, type_label: str,
                     model_name: str | None = None, **attrs: Any) -> None:
        if not self.model.is_activity_type(type_label):
            raise ModelViolationError(
                f"{type_label!r} is not an activity type of "
                f"{self.model.name!r}")
        self._add_node(node_id, "activity", type_label, model_name,
                       tuple(sorted(attrs.items())))

    def add_entity(self, node_id: str, type_label: str,
                   model_name: str | None = None, **attrs: Any) -> None:
        self._check_entity_type(type_label)
        self._add_node(node_id, "entity", type_label, model_name,
                       tuple(sorted(attrs.items())))

    def add_entities(self, type_label: str, model_name: str | None,
                     nodes: Iterable[tuple[str, tuple[tuple[str, Any], ...]]]
                     ) -> None:
        """Add entity nodes of one type, given as ``(node_id, attrs)``
        with ``attrs`` in :attr:`Node.attrs` form (``(key, value)``
        pairs sorted by key), checking the type once.

        An existing node of the same type is kept as it is; one of
        another type raises :class:`ProvenanceError`.
        """
        self._check_entity_type(type_label)
        for node_id, attrs in nodes:
            self._add_node(node_id, "entity", type_label, model_name, attrs)

    def _add_node(self, node_id: str, kind: str, type_label: str,
                  model_name: str | None,
                  attrs: tuple[tuple[str, Any], ...]) -> None:
        index = self._index.get(node_id)
        if index is None:
            index = self.intern(node_id)
        elif self._node_type[index] != _NOT_A_NODE:
            self._check_same_type(index, type_label)
            return
        self._set_node(index, self._type_code(kind, type_label, model_name),
                       attrs)

    def _check_entity_type(self, type_label: str) -> None:
        if not self.model.is_entity_type(type_label):
            raise ModelViolationError(
                f"{type_label!r} is not an entity type of "
                f"{self.model.name!r}")

    def _type_code(self, kind: str, type_label: str,
                   model_name: str | None) -> int:
        key = (kind, type_label, model_name or self.model.name)
        code = self._type_codes.get(key)
        if code is None:
            code = self._type_codes[key] = len(self._types)
            self._types.append(key)
        return code

    def _set_node(self, index: int, code: int,
                  attrs: tuple[tuple[str, Any], ...]) -> None:
        self._node_type[index] = code
        self._node_attrs[index] = attrs
        self._node_count += 1

    def _check_same_type(self, index: int, type_label: str) -> None:
        existing = self._types[self._node_type[index]][1]
        if existing != type_label:
            raise ProvenanceError(
                f"node {self._ids[index]!r} already exists with type "
                f"{existing!r}")

    def add_edge(self, source: str, target: str, label: str,
                 interval: TimeInterval, **attrs: Any) -> None:
        """Add (or widen) one typed edge; see :meth:`add_edges`."""
        index = self._index
        source_index = index.get(source)
        target_index = index.get(target)
        code = self._label_codes.get(label)
        if source_index is None or target_index is None or code is None:
            self._reject(source, target, label)
        self.add_edges_at((source_index,), (target_index,), (code,),
                          interval.begin, interval.end, (attrs,))

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

        Each endpoint is looked up once, and the model check runs only
        for a ``(label, source type, target type)`` the trace has not
        admitted before. A pair with
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
        # the pairs up to the first with an endpoint that is not a node
        # or a label the model lacks; add_edges_at checks the rest
        index = self._index
        label_codes = self._label_codes
        sources: list[int] = []
        targets: list[int] = []
        codes: list[int] = []
        rejected = None
        for (source, target), edge_label in zip(pairs, labels):
            source_index = index.get(source)
            target_index = index.get(target)
            code = label_codes.get(edge_label)
            if source_index is None or target_index is None or code is None:
                rejected = (source, target, edge_label)
                break
            sources.append(source_index)
            targets.append(target_index)
            codes.append(code)
        self.add_edges_at(sources, targets, codes, interval.begin,
                          interval.end, attr_dicts)
        if rejected is not None:
            self._reject(*rejected)

    def _reject(self, source: str, target: str, label: str) -> NoReturn:
        """Raise for an edge whose endpoint is not a node, or whose
        label the model lacks, in the order :meth:`add_edges` checks."""
        for node_id in (source, target):
            if not self.has_node(node_id):
                raise UnknownNodeError(f"unknown trace node {node_id!r}")
        raise ModelViolationError(
            f"model {self.model.name!r} has no edge type {label!r}")

    # -- construction by interned index --------------------------------------------
    #
    # The trace builder's feed: it names nodes by their interned index,
    # so a statement's rows cost no id lookups, and gives a Lineage as a
    # row of indices rather than a dict of ids.

    def intern(self, node_id: str) -> int:
        """The index of ``node_id``, interning it (as no node) if the
        trace does not know it yet."""
        index = self._index.get(node_id)
        if index is None:
            index = self._index[node_id] = len(self._ids)
            self._ids.append(node_id)
            self._node_type.append(_NOT_A_NODE)
            self._node_attrs.append(())
        return index

    def id_at(self, index: int) -> str:
        """The id interned at ``index``."""
        return self._ids[index]

    def type_at(self, index: int) -> str:
        """The type label of the node at ``index``."""
        return self._types[self._node_type[index]][1]

    def label_code(self, label: str) -> int:
        """The code of edge label ``label``; :class:`ModelViolationError`
        if the model has no such edge type."""
        return self._label_codes[self.model.edge_type(label).label]

    def add_entities_at(self, type_label: str, model_name: str | None,
                        indices: Iterable[int],
                        attrs: Iterable[tuple[tuple[str, Any], ...]]
                        ) -> None:
        """:meth:`add_entities` for interned ids, with their attributes
        in a parallel iterable."""
        self._check_entity_type(type_label)
        code = self._type_code("entity", type_label, model_name)
        node_type = self._node_type
        for index, node_attrs in zip(indices, attrs):
            if node_type[index] == _NOT_A_NODE:
                self._set_node(index, code, node_attrs)
            else:
                self._check_same_type(index, type_label)

    def add_edges_at(self, sources: Iterable[int], targets: Iterable[int],
                     labels: Iterable[int], begin: int, end: int,
                     attrs: Iterable[Any]) -> None:
        """:meth:`add_edges` for interned endpoints and label codes
        (:meth:`label_code`), all edges over ``[begin, end]``.

        ``attrs`` holds per edge None, an attribute dict, or a Lineage
        row: a list of interned indices, sorted by id, that stands for
        ``{"lineage": [their ids]}``. An endpoint that is not a node
        raises :class:`UnknownNodeError`, with the edges before it
        added.
        """
        node_type = self._node_type
        admitted = self._admitted
        edge_at = self._edge_at
        src_column = self._src
        dst_column = self._dst
        label_column = self._label
        begin_column = self._begin
        end_column = self._end
        lineage = self._lineage
        cells = self._cells
        label_count = len(self._labels)
        edge_count = len(src_column)
        try:
            for source, target, label, edge_attrs in zip(
                    sources, targets, labels, attrs):
                source_type = node_type[source]
                target_type = node_type[target]
                check = (label << 64) | (source_type << 32) | target_type
                if check not in admitted:
                    self._check_edge(source, target, label)
                    admitted.add(check)
                # _edge_key, inlined
                key = ((source << 32) | target) * label_count + label
                edge = edge_at.get(key)
                if edge is None:
                    edge = edge_at[key] = len(src_column)
                    src_column.append(source)
                    dst_column.append(target)
                    label_column.append(label)
                    begin_column.append(begin)
                    end_column.append(end)
                    if type(edge_attrs) is list:
                        lineage[edge] = len(cells)
                        cells.append(len(edge_attrs))
                        cells += edge_attrs
                        continue
                else:
                    if begin < begin_column[edge]:
                        begin_column[edge] = begin
                    if end > end_column[edge]:
                        end_column[edge] = end
                if edge_attrs is not None and (
                        edge_attrs or type(edge_attrs) is list):
                    self._merge_attrs(edge, edge_attrs)
        finally:
            if len(src_column) != edge_count:
                self._adjacency = None

    def _check_edge(self, source: int, target: int, label: int) -> None:
        """The model check of one edge; an endpoint that is not a node
        raises first."""
        types = []
        for index in (source, target):
            code = self._node_type[index]
            if code == _NOT_A_NODE:
                raise UnknownNodeError(
                    f"unknown trace node {self._ids[index]!r}")
            types.append(self._types[code][1])
        self.model.check_edge(self._labels[label], *types)

    def _merge_attrs(self, edge: int, new: Any) -> None:
        """Merge ``new``, an attribute dict or a Lineage row, over the
        attributes of ``edge``."""
        if type(new) is list:
            new = {"lineage": [self._ids[index] for index in new]}
        attrs = self._attrs_of(edge)
        attrs.update(new)
        self._lineage.pop(edge, None)
        self._edge_attrs.pop(edge, None)
        ids = attrs.get("lineage")
        if (len(attrs) == 1 and type(ids) is list
                and all(type(node_id) is str for node_id in ids)):
            cells = self._cells
            self._lineage[edge] = len(cells)
            cells.append(len(ids))
            cells += map(self.intern, ids)
        else:
            self._edge_attrs[edge] = attrs

    # -- queries -----------------------------------------------------------------

    def index_of(self, node_id: str) -> int:
        """The interned index of node ``node_id``."""
        index = self._index.get(node_id)
        if index is None or self._node_type[index] == _NOT_A_NODE:
            raise UnknownNodeError(f"unknown trace node {node_id!r}")
        return index

    def node(self, node_id: str) -> Node:
        return self._node_view(self.index_of(node_id))

    def has_node(self, node_id: str) -> bool:
        index = self._index.get(node_id)
        return index is not None and self._node_type[index] != _NOT_A_NODE

    def nodes(self, kind: str | None = None,
              type_label: str | None = None) -> list[Node]:
        codes = {code for code, (node_kind, node_type, _) in
                 enumerate(self._types)
                 if (kind is None or node_kind == kind)
                 and (type_label is None or node_type == type_label)}
        indices = sorted((index for index, code in
                          enumerate(self._node_type) if code in codes),
                         key=self._ids.__getitem__)
        return [self._node_view(index) for index in indices]

    def entities(self, type_label: str | None = None) -> list[Node]:
        return self.nodes("entity", type_label)

    def activities(self, type_label: str | None = None) -> list[Node]:
        return self.nodes("activity", type_label)

    def edges(self, label: str | None = None) -> list[Edge]:
        if label is None:
            return self._edge_views(range(self.edge_count))
        code = self._label_codes.get(label)
        return self._edge_views(edge for edge, edge_label in
                                enumerate(self._label) if edge_label == code)

    def out_edges(self, node_id: str) -> list[Edge]:
        return self._edge_views(self._adjacent(self.index_of(node_id), True))

    def in_edges(self, node_id: str) -> list[Edge]:
        return self._edge_views(self._adjacent(self.index_of(node_id),
                                               False))

    def interval(self, source: str, target: str,
                 label: str | None = None) -> TimeInterval:
        """``T(v1, v2)``: the annotation of the edge between two nodes.

        If ``label`` is omitted and several typed edges connect the
        pair, the hull of their intervals is returned.
        """
        source_index = self._index.get(source)
        target_index = self._index.get(target)
        found = []
        if source_index is not None and target_index is not None:
            if label is None:
                codes: Iterable[int] = range(len(self._labels))
            else:
                codes = [self._label_codes[label]] if (
                    label in self._label_codes) else []
            for code in codes:
                edge = self._edge_at.get(
                    self._edge_key(source_index, target_index, code))
                if edge is not None:
                    found.append(edge)
        if not found:
            raise ProvenanceError(
                f"no edge between {source!r} and {target!r}")
        return TimeInterval(min(self._begin[edge] for edge in found),
                            max(self._end[edge] for edge in found))

    def state(self, node_id: str, at_time: int) -> set[str]:
        """``S(v, T)`` of Definition 10: the sources of all incoming
        interactions that began no later than ``T``."""
        begin = self._begin
        src = self._src
        ids = self._ids
        return {ids[src[edge]]
                for edge in self._adjacent(self.index_of(node_id), False)
                if begin[edge] <= at_time}

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def edge_count(self) -> int:
        return len(self._src)

    # -- views on the columns -----------------------------------------------------

    def _edge_key(self, source: int, target: int, label: int) -> int:
        return ((source << 32) | target) * len(self._labels) + label

    def _adjacent(self, index: int, outgoing: bool) -> list[int]:
        """The edges leaving (or entering) node ``index``, in insertion
        order."""
        if self._adjacency is None:
            src, dst = self._src, self._dst
            out_order = sorted(range(len(src)), key=src.__getitem__)
            in_order = sorted(range(len(dst)), key=dst.__getitem__)
            self._adjacency = (out_order, [src[edge] for edge in out_order],
                               in_order, [dst[edge] for edge in in_order])
        if outgoing:
            order, keys = self._adjacency[0], self._adjacency[1]
        else:
            order, keys = self._adjacency[2], self._adjacency[3]
        low = bisect_left(keys, index)
        return order[low:bisect_right(keys, index, low)]

    def _node_view(self, index: int) -> Node:
        kind, type_label, model = self._types[self._node_type[index]]
        return Node(self._ids[index], kind, type_label, model,
                    self._node_attrs[index])

    def _edge_views(self, edges: Iterable[int]) -> list[Edge]:
        """Snapshots of ``edges``. Edges with the same interval share
        one (immutable) :class:`TimeInterval`: most are points at the
        tick of their statement."""
        ids = self._ids
        src = self._src
        dst = self._dst
        labels = self._labels
        label_column = self._label
        begin = self._begin
        end = self._end
        intervals: dict[tuple[int, int], TimeInterval] = {}
        views = []
        for edge in edges:
            bounds = (begin[edge], end[edge])
            interval = intervals.get(bounds)
            if interval is None:
                interval = intervals[bounds] = TimeInterval(*bounds)
            views.append(Edge(ids[src[edge]], ids[dst[edge]],
                              labels[label_column[edge]], interval,
                              self._attrs_of(edge)))
        return views

    def _attrs_of(self, edge: int) -> dict[str, Any]:
        """A fresh dict of the attributes of ``edge``."""
        offset = self._lineage.get(edge)
        if offset is not None:
            cells = self._cells
            ids = self._ids
            start = offset + 1
            return {"lineage": [ids[index] for index in
                                cells[start:start + cells[offset]]]}
        attrs = self._edge_attrs.get(edge)
        return dict(attrs) if attrs else {}

    def _ranked(self) -> tuple[list[int], list[int]]:
        """The nodes' indices sorted by id, and each interned index's
        position there (-1 for an id that is not a node)."""
        nodes = sorted((index for index, code in enumerate(self._node_type)
                        if code != _NOT_A_NODE), key=self._ids.__getitem__)
        rank = [-1] * len(self._ids)
        for position, index in enumerate(nodes):
            rank[index] = position
        return nodes, rank

    def _edge_order(self, rank: list[int], node_count: int
                    ) -> tuple[list[int], list[str], list[int]]:
        """The edges sorted by ``(begin, source id, target id, label)``,
        the sorted labels in use, and each label code's position there."""
        labels = sorted({self._labels[code] for code in set(self._label)})
        label_rank = [0] * len(self._labels)
        for position, label in enumerate(labels):
            label_rank[self._label_codes[label]] = position
        label_count = len(labels)
        # the four fields as one integer: the lower three lie in
        # [0, node_count² · label_count)
        keys = [((begin * node_count + rank[source]) * node_count
                 + rank[target]) * label_count + label_rank[label]
                for begin, source, target, label in zip(
                    self._begin, self._src, self._dst, self._label)]
        return (sorted(range(len(keys)), key=keys.__getitem__), labels,
                label_rank)

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """Serialize to a JSON-compatible dict (model types are assumed
        known to the deserializer — the model itself is code)."""
        nodes, rank = self._ranked()
        order, _, _ = self._edge_order(rank, len(nodes))
        ids = self._ids
        labels = self._labels
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
                for node in map(self._node_view, nodes)
            ],
            "edges": [
                {
                    "source": ids[self._src[edge]],
                    "target": ids[self._dst[edge]],
                    "label": labels[self._label[edge]],
                    "interval": [self._begin[edge], self._end[edge]],
                    "attrs": self._attrs_of(edge),
                }
                for edge in order
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
        nodes, rank = self._ranked()
        ids = self._ids
        node_type = self._node_type
        node_attrs = self._node_attrs
        # a node's type code and packed flag as one int -> its v2 code
        codes: dict[int, int] = {}
        types: list[list[Any]] = []
        tables: dict[str, int] = {}
        type_column: list[int] = []
        table_column: list[int] = []
        rowid_column: list[int] = []
        version_column: list[int] = []
        rows: list[list[Any]] = []
        for index in nodes:
            node_id = ids[index]
            attrs = node_attrs[index]
            packed = 0
            if len(attrs) == 3:
                ((rowid_key, rowid), (table_key, table),
                 (version_key, version)) = attrs
                packed = int(
                    rowid_key == "rowid" and table_key == "table"
                    and version_key == "version" and type(rowid) is int
                    and type(version) is int and type(table) is str
                    and node_id == f"tuple:{table}:{rowid}:v{version}")
            key = node_type[index] * 2 + packed
            code = codes.get(key)
            if code is None:
                code = codes[key] = len(types)
                types.append([*self._types[node_type[index]], packed])
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

        order, labels, label_rank = self._edge_order(rank, len(nodes))
        src = self._src
        dst = self._dst
        label = self._label
        begin = self._begin
        end = self._end
        encoded: dict[str, Any] = {
            "model": self.model.name,
            "types": types,
            "nodes": {"type": type_column, "rows": rows},
            "labels": labels,
            "edges": {
                "src": [rank[src[edge]] for edge in order],
                "dst": [rank[dst[edge]] for edge in order],
                "label": [label_rank[label[edge]] for edge in order],
                "begin": [begin[edge] for edge in order],
                "end": [end[edge] for edge in order],
            },
        }
        if tables:
            encoded["tuples"] = {"tables": list(tables),
                                 "table": table_column,
                                 "rowid": rowid_column,
                                 "version": version_column}

        lineage = self._lineage
        edge_attrs = self._edge_attrs
        if lineage or edge_attrs:
            # each edge's position in the encoded order
            position = sorted(range(len(order)), key=order.__getitem__)
            cells = self._cells
            lineage_edges: list[int] = []
            lineage_nodes: list[list[int]] = []
            outside: dict[str, int] = {}
            attr_rows: list[list[Any]] = []
            for edge in sorted([*lineage, *edge_attrs],
                               key=position.__getitem__):
                offset = lineage.get(edge)
                if offset is None:
                    attr_rows.append([position[edge], edge_attrs[edge]])
                    continue
                start = offset + 1
                lineage_edges.append(position[edge])
                lineage_nodes.append([
                    rank[index] if rank[index] >= 0
                    else ~outside.setdefault(ids[index], len(outside))
                    for index in cells[start:start + cells[offset]]])
            if lineage_edges:
                encoded["lineage"] = {"edges": lineage_edges,
                                      "nodes": lineage_nodes,
                                      "ids": list(outside)}
            if attr_rows:
                encoded["attrs"] = attr_rows
        return encoded

    @classmethod
    def from_v2(cls, data: dict[str, Any],
                model: ProvenanceModel) -> "ExecutionTrace":
        """Decode :meth:`to_v2`'s encoding, validating it.

        Nodes and edges go through the checks :meth:`from_json` gets
        from the ``add_*`` methods: node types against the model, the
        model check of each ``(label, source type, target type)``, and
        interval validity. Array lengths, codes and
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
