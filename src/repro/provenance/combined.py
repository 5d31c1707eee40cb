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

from itertools import chain, cycle, repeat
from typing import Iterable

from repro.db.provtypes import TupleRef
from repro.errors import ProvenanceError
from repro.provenance import bb, lineage
from repro.provenance.interval import TimeInterval
from repro.provenance.model import EdgeType
from repro.provenance.trace import ExecutionTrace

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
        # the interned index of each tuple version this builder added a
        # node for; traces never drop nodes, so a hit needs no
        # formatting and no lookup. Keyed by plain tuples, which equal
        # their TupleRefs: the collector stops tracking those, but not
        # namedtuples
        self._tuple_nodes_at: dict[tuple[str, int, int], int] = {}
        # the same for versions a Lineage named before their node
        self._named_at: dict[tuple[str, int, int], int] = {}

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
        (index,) = self._tuple_nodes((ref,))
        return self.trace.id_at(index)

    def _tuple_nodes(self, refs: Iterable[TupleRef]) -> list[int]:
        """Add the tuple-version nodes of ``refs``; their interned
        indices, in ``refs`` order."""
        known = self._tuple_nodes_at
        indices = []
        new: dict[int, TupleRef] = {}
        for ref in refs:
            index = known.get(ref)
            if index is None:
                index = self._named_at.pop(ref, None)
                if index is None:
                    index = self.trace.intern(lineage.tuple_node_id(ref))
                new[index] = ref
            indices.append(index)
        if new:
            self.trace.add_entities_at(lineage.TUPLE, "lin", new, [
                (("rowid", ref.rowid), ("table", ref.table),
                 ("version", ref.version)) for ref in new.values()])
            for index, ref in new.items():
                known[tuple(ref)] = index
        return indices

    def _lineage_row(self, refs: Iterable[TupleRef]) -> list[int]:
        """A hasReturned edge's Lineage attribution (Definition 7): the
        interned indices of the contributing tuple versions, sorted by
        node id."""
        known = self._tuple_nodes_at
        named = self._named_at
        row = []
        for ref in refs:
            index = known.get(ref)
            if index is None:
                index = named.get(ref)
                if index is None:
                    index = named[tuple(ref)] = self.trace.intern(
                        lineage.tuple_node_id(ref))
            row.append(index)
        if len(row) > 1:
            row.sort(key=self.trace.id_at)
        return row

    # The per-statement methods below take all of one statement's tuple
    # versions at once: the statement type, the interval and the model
    # check are settled once per call, not once per tuple.

    def has_read(self, statement_node: str, refs: Iterable[TupleRef],
                 tick: int) -> None:
        """The statement read the tuple versions ``refs``."""
        trace = self.trace
        statement = trace.index_of(statement_node)
        statement_type = trace.type_at(statement)
        sources = self._tuple_nodes(refs)
        if sources:
            trace.add_edges_at(
                sources, repeat(statement),
                repeat(trace.label_code(lineage.read_label(statement_type))),
                tick, tick, repeat(None))

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
        trace = self.trace
        statement = trace.index_of(statement_node)
        statement_type = trace.type_at(statement)
        targets = self._tuple_nodes(refs)
        if lineages is None:
            rows: Iterable[list[int]] = repeat([])
        else:
            lineages = list(lineages)
            if len(lineages) != len(targets):
                raise ProvenanceError(
                    f"{len(lineages)} lineages for {len(targets)} "
                    "returned tuple versions")
            rows = map(self._lineage_row, lineages)
        if not targets:
            return
        label = trace.label_code(lineage.returned_label(statement_type))
        if reader is None:
            trace.add_edges_at(repeat(statement), targets, repeat(label),
                               tick, tick, rows)
            return
        # per returned version: its hasReturned edge, then its
        # readFromDB edge
        process = trace.intern(bb.process_node_id(reader))
        trace.add_edges_at(
            chain.from_iterable(zip(repeat(statement), targets)),
            chain.from_iterable(zip(targets, repeat(process))),
            cycle((label, trace.label_code(READ_FROM_DB))), tick, tick,
            chain.from_iterable(zip(rows, repeat(None))))

    # -- cross-model edges -------------------------------------------------------------

    def run(self, pid: int, statement_node: str,
            interval: TimeInterval) -> None:
        trace = self.trace
        statement_type = trace.type_at(trace.index_of(statement_node))
        trace.add_edge(bb.process_node_id(pid), statement_node,
                       run_label(statement_type), interval)

    # -- Section VII-B usage marks ---------------------------------------------------

    def used_by(self, ref: TupleRef) -> frozenset[tuple[str, str]]:
        """The ``prov_usedby`` / ``prov_p`` marks of a tuple version:
        the (statement id, pid) of each statement that read it, by its
        hasRead edge and its run edge."""
        trace = self.trace
        node_id = lineage.tuple_node_id(ref)
        if not trace.has_node(node_id):
            return frozenset()
        marks = set()
        for read in trace.out_edges(node_id):
            if lineage.is_read_edge(read.label):
                statement_id = trace.node(read.target).attr("statement_id")
                marks.update(
                    (statement_id, str(trace.node(run.source).attr("pid")))
                    for run in trace.in_edges(read.target)
                    if is_run_edge(run.label))
        return frozenset(marks)

    def used_refs(self) -> list[TupleRef]:
        """Every tuple version some statement read, sorted."""
        return sorted({lineage.tuple_ref_of(edge.source)
                       for edge in self.trace.edges()
                       if lineage.is_read_edge(edge.label)})

    def read_from_db(self, pid: int, refs: Iterable[TupleRef],
                     tick: int) -> None:
        """The process consumed the result tuples ``refs`` of a query."""
        trace = self.trace
        sources = self._tuple_nodes(refs)
        if sources:
            trace.add_edges_at(
                sources, repeat(trace.intern(bb.process_node_id(pid))),
                repeat(trace.label_code(READ_FROM_DB)), tick, tick,
                repeat(None))
