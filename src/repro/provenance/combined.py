"""The combined OS+DB provenance model (Definitions 5 and 6).

Adds two cross-model edge types to the union of P_BB and P_Lin:

* ``run``        — process → statement (the process executed the SQL
  statement),
* ``readFromDB`` — tuple → process (the process consumed the result
  tuple). The paper reuses the name ``readFrom`` for this edge; since
  Definition 1 requires pairwise-distinct labels (and the combined
  model already has P_BB's file→process ``readFrom``), the DB-side
  edge is named ``readFromDB`` here.

:class:`TraceBuilder` is the convenience layer the LDV monitor uses to
grow a combined execution trace while an application runs.
"""

from __future__ import annotations

from typing import Iterable

from repro.db.provtypes import TupleRef
from repro.provenance import bb, lineage
from repro.provenance.interval import TimeInterval
from repro.provenance.model import EdgeType, ProvenanceModel
from repro.provenance.trace import ExecutionTrace, Node

RUN = "run"
READ_FROM_DB = "readFromDB"

# one typed RUN edge per statement type, same naming scheme as lineage
_CROSS_EDGES = (
    [EdgeType(RUN, bb.PROCESS, lineage.QUERY)]
    + [EdgeType(f"run_{statement_type}", bb.PROCESS, statement_type)
       for statement_type in (lineage.INSERT, lineage.UPDATE,
                              lineage.DELETE)]
    + [EdgeType(READ_FROM_DB, lineage.TUPLE, bb.PROCESS)]
)

COMBINED_MODEL = bb.BB_MODEL.combine(
    lineage.LIN_MODEL, _CROSS_EDGES, name="bb+lin")


def run_label(statement_type: str) -> str:
    if statement_type == lineage.QUERY:
        return RUN
    return f"run_{statement_type}"


def is_run_edge(label: str) -> bool:
    return label == RUN or label.startswith("run_")


class TraceBuilder:
    """Grows a combined execution trace during monitoring.

    All methods are idempotent with respect to node creation and widen
    edge intervals on repeated interactions, so the monitor can call
    them straight from its event handlers.
    """

    def __init__(self) -> None:
        self.trace = ExecutionTrace(COMBINED_MODEL)
        # node ids of the tuple versions this builder has added; traces
        # never drop nodes, so a hit needs no formatting and no lookup.
        # Keyed by plain tuples, which equal their TupleRefs: the
        # collector stops tracking those, but not namedtuples
        self._tuple_ids: dict[tuple[str, int, int], str] = {}

    # -- OS side -----------------------------------------------------------------

    def process(self, pid: int, name: str = "") -> str:
        node_id = bb.process_node_id(pid)
        self.trace.add_activity(node_id, bb.PROCESS, "bb",
                                pid=pid, name=name)
        return node_id

    def file(self, path: str) -> str:
        node_id = bb.file_node_id(path)
        self.trace.add_entity(node_id, bb.FILE, "bb", path=path)
        return node_id

    def executed(self, parent_pid: int, child_pid: int,
                 tick: int) -> None:
        """Parent forked/executed child (point interval, as in VII-A)."""
        self.trace.add_edge(
            bb.process_node_id(parent_pid), bb.process_node_id(child_pid),
            bb.EXECUTED, TimeInterval.point(tick))

    def read_from(self, pid: int, path: str,
                  interval: TimeInterval) -> None:
        self.file(path)
        self.trace.add_edge(bb.file_node_id(path), bb.process_node_id(pid),
                            bb.READ_FROM, interval)

    def has_written(self, pid: int, path: str,
                    interval: TimeInterval) -> None:
        self.file(path)
        self.trace.add_edge(bb.process_node_id(pid), bb.file_node_id(path),
                            bb.HAS_WRITTEN, interval)

    # -- DB side ------------------------------------------------------------------

    def statement(self, statement_id: str, statement_type: str,
                  sql: str = "") -> str:
        node_id = lineage.statement_node_id(statement_id)
        self.trace.add_activity(node_id, statement_type, "lin",
                                sql=sql, statement_id=statement_id)
        return node_id

    def tuple_version(self, ref: TupleRef) -> str:
        (node_id,) = self._tuple_nodes((ref,))
        return node_id

    def _tuple_nodes(self, refs: Iterable[TupleRef]) -> list[str]:
        """Add the tuple-version nodes of ``refs``; their node ids, in
        ``refs`` order."""
        known = self._tuple_ids
        node_ids = []
        new: dict[TupleRef, str] = {}
        for ref in refs:
            node_id = known.get(ref)
            if node_id is None:
                node_id = new[ref] = lineage.tuple_node_id(ref)
            node_ids.append(node_id)
        if new:
            self.trace.add_entities(lineage.TUPLE, "lin", [
                (node_id, (("rowid", ref.rowid), ("table", ref.table),
                           ("version", ref.version)))
                for ref, node_id in new.items()])
            for ref, node_id in new.items():
                known[tuple(ref)] = node_id
        return node_ids

    def _lineage_ids(self, refs: Iterable[TupleRef]) -> list[str]:
        """A hasReturned edge's ``lineage`` attribute: the sorted node
        ids of the contributing tuple versions."""
        known = self._tuple_ids
        return sorted([known.get(ref) or lineage.tuple_node_id(ref)
                       for ref in refs])

    # The per-statement methods below take all of one statement's tuple
    # versions at once: the statement type, the interval and the model
    # check are settled once per call, not once per tuple.

    def has_read(self, statement_node: str, refs: Iterable[TupleRef],
                 tick: int) -> None:
        """The statement read the tuple versions ``refs``."""
        statement_type = self.trace.node(statement_node).type_label
        self.trace.add_edges(
            lineage.read_label(statement_type), TimeInterval.point(tick),
            [(node_id, statement_node)
             for node_id in self._tuple_nodes(refs)])

    def has_returned(self, statement_node: str, refs: Iterable[TupleRef],
                     tick: int,
                     lineages: Iterable[Iterable[TupleRef]] | None = None,
                     reader: int | None = None) -> None:
        """The statement produced the tuple versions ``refs``.

        ``lineages``, when given, holds each version's Lineage
        attribution (Definition 7), in ``refs`` order; without it every
        attribution is empty. ``reader`` is the pid of a process that
        consumed each returned tuple (a query's client): its readFromDB
        edge is added right after the tuple's hasReturned edge.
        """
        statement_type = self.trace.node(statement_node).type_label
        label = lineage.returned_label(statement_type)
        node_ids = self._tuple_nodes(refs)
        if lineages is None:
            lineages = [()] * len(node_ids)
        attrs = [{"lineage": self._lineage_ids(deps)} for deps in lineages]
        pairs = [(statement_node, node_id) for node_id in node_ids]
        if reader is not None:
            process = bb.process_node_id(reader)
            pairs = [pair for node_id, returned in zip(node_ids, pairs)
                     for pair in (returned, (node_id, process))]
            label = [label, READ_FROM_DB] * len(node_ids)
            attrs = [attr for returned in attrs for attr in (returned, None)]
        self.trace.add_edges(label, TimeInterval.point(tick), pairs, attrs)

    # -- cross-model edges -------------------------------------------------------------

    def run(self, pid: int, statement_node: str,
            interval: TimeInterval) -> None:
        statement_type = self.trace.node(statement_node).type_label
        self.trace.add_edge(bb.process_node_id(pid), statement_node,
                            run_label(statement_type), interval)

    def read_from_db(self, pid: int, refs: Iterable[TupleRef],
                     tick: int) -> None:
        """The process consumed the result tuples ``refs`` of a query."""
        process = bb.process_node_id(pid)
        self.trace.add_edges(
            READ_FROM_DB, TimeInterval.point(tick),
            [(node_id, process) for node_id in self._tuple_nodes(refs)])
