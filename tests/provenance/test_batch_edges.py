"""Statement-at-a-time trace building.

``ExecutionTrace.add_edges`` must be indistinguishable from one
``add_edge`` per pair — same nodes, same edge order, same adjacency
lists, same widened intervals and merged attributes, and, when a pair
is rejected, the same exception class with the same edges already
added. The ``TraceBuilder`` methods built on it must keep the per-row
edge order the DB monitor has always produced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.provtypes import TupleRef
from repro.errors import (
    ModelViolationError,
    ProvenanceError,
    UnknownNodeError,
)
from repro.provenance import bb, lineage
from repro.provenance.combined import (
    COMBINED_MODEL,
    READ_FROM_DB,
    TraceBuilder,
)
from repro.provenance.interval import TimeInterval
from repro.provenance.lineage import tuple_node_id
from repro.provenance.trace import ExecutionTrace

# (node id, type) of the nodes every generated trace starts with
NODES = [
    ("proc:1", bb.PROCESS),
    ("proc:2", bb.PROCESS),
    ("file:/a", bb.FILE),
    ("file:/b", bb.FILE),
    ("stmt:q1", lineage.QUERY),
    ("stmt:i1", lineage.INSERT),
    ("stmt:u1", lineage.UPDATE),
    ("stmt:d1", lineage.DELETE),
    ("tuple:t:1:v1", lineage.TUPLE),
    ("tuple:t:2:v1", lineage.TUPLE),
    ("tuple:t:2:v3", lineage.TUPLE),
]
NODE_IDS = [node_id for node_id, _ in NODES] + ["proc:99"]  # one unknown
EDGE_TYPES = sorted(COMBINED_MODEL.edge_types.values(),
                    key=lambda edge_type: edge_type.label)
LABELS = [edge_type.label for edge_type in EDGE_TYPES]


def fresh_trace() -> ExecutionTrace:
    trace = ExecutionTrace(COMBINED_MODEL)
    for node_id, type_label in NODES:
        if COMBINED_MODEL.is_activity_type(type_label):
            trace.add_activity(node_id, type_label)
        else:
            trace.add_entity(node_id, type_label)
    return trace


def ids_of_type(type_label):
    return [node_id for node_id, node_type in NODES
            if node_type == type_label]


@st.composite
def pair_for(draw, label):
    """Mostly admissible endpoints for ``label``, sometimes any two
    nodes (a model violation) or an unknown one."""
    edge_type = COMBINED_MODEL.edge_types[label]
    if draw(st.integers(0, 4)) == 0:
        return (draw(st.sampled_from(NODE_IDS)),
                draw(st.sampled_from(NODE_IDS)))
    return (draw(st.sampled_from(ids_of_type(edge_type.source_type))),
            draw(st.sampled_from(ids_of_type(edge_type.target_type))))


intervals = st.tuples(st.integers(0, 20), st.integers(0, 5)).map(
    lambda bounds: TimeInterval(bounds[0], bounds[0] + bounds[1]))
attr_dicts = st.dictionaries(
    st.sampled_from(["lineage", "weight"]),
    st.one_of(st.integers(0, 3),
              st.lists(st.sampled_from(["tuple:t:1:v1", "tuple:t:2:v1"]),
                       max_size=2)),
    max_size=2)


@st.composite
def batches(draw):
    """``(label, interval, pairs, attrs)`` for one add_edges call."""
    size = draw(st.integers(0, 10))
    if draw(st.booleans()):
        label = draw(st.sampled_from(LABELS))
        labels = [label] * size
    else:
        label = labels = draw(st.lists(st.sampled_from(LABELS),
                                       min_size=size, max_size=size))
    pairs = [draw(pair_for(edge_label)) for edge_label in labels]
    attrs = draw(st.none() | st.lists(attr_dicts, min_size=size,
                                      max_size=size))
    return label, draw(intervals), pairs, attrs


def snapshot(trace):
    def edge_view(edge):
        return (edge.source, edge.target, edge.label, edge.interval,
                dict(edge.attrs))
    return {
        "nodes": [(node.node_id, node.type_label, node.attrs)
                  for node in trace.nodes()],
        "edges": [edge_view(edge) for edge in trace.edges()],
        "out": {node_id: [edge_view(edge)
                          for edge in trace.out_edges(node_id)]
                for node_id, _ in NODES},
        "in": {node_id: [edge_view(edge)
                         for edge in trace.in_edges(node_id)]
               for node_id, _ in NODES},
    }


def add_one_by_one(trace, label, interval, pairs, attrs):
    labels = [label] * len(pairs) if isinstance(label, str) else label
    for index, (source, target) in enumerate(pairs):
        edge_attrs = attrs[index] if attrs is not None else {}
        trace.add_edge(source, target, labels[index], interval,
                       **edge_attrs)


def outcome(add, trace, batch):
    try:
        add(trace, *batch)
    except ProvenanceError as error:
        return type(error)
    return None


class TestAddEdgesMatchesAddEdge:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(batches(), min_size=1, max_size=4))
    def test_batches_equal_sequential_adds(self, calls):
        batched, sequential = fresh_trace(), fresh_trace()
        for batch in calls:
            batched_error = outcome(
                lambda trace, *args: trace.add_edges(*args), batched, batch)
            sequential_error = outcome(add_one_by_one, sequential, batch)
            assert batched_error is sequential_error
            assert snapshot(batched) == snapshot(sequential)

    def test_duplicates_widen_and_merge_in_one_batch(self):
        trace = fresh_trace()
        trace.add_edges("readFrom", TimeInterval(5, 6),
                        [("file:/a", "proc:1"), ("file:/a", "proc:1")],
                        [{"weight": 1}, {"lineage": []}])
        trace.add_edges("readFrom", TimeInterval(2, 3),
                        [("file:/a", "proc:1")], [{"weight": 2}])
        (edge,) = trace.edges()
        assert edge.interval == TimeInterval(2, 6)
        assert edge.attrs == {"weight": 2, "lineage": []}

    def test_failure_keeps_the_pairs_before_it(self):
        trace = fresh_trace()
        with pytest.raises(UnknownNodeError):
            trace.add_edges("readFrom", TimeInterval.point(1),
                            [("file:/a", "proc:1"), ("file:/b", "proc:99"),
                             ("file:/b", "proc:2")])
        assert [(e.source, e.target) for e in trace.edges()] == [
            ("file:/a", "proc:1")]
        with pytest.raises(ModelViolationError):
            trace.add_edges("readFrom", TimeInterval.point(1),
                            [("file:/b", "proc:2"), ("proc:1", "file:/a")])
        assert len(trace.edges()) == 2

    def test_model_check_runs_once_per_type_triple(self, monkeypatch):
        trace = fresh_trace()
        checks = []
        check_edge = trace.model.check_edge
        monkeypatch.setattr(trace.model, "check_edge",
                            lambda *types: (checks.append(types),
                                            check_edge(*types)))
        trace.add_edges(
            ["hasRead", "hasRead", "readFromDB", "hasRead"],
            TimeInterval.point(4),
            [("tuple:t:1:v1", "stmt:q1"), ("tuple:t:2:v1", "stmt:q1"),
             ("tuple:t:1:v1", "proc:1"), ("tuple:t:2:v3", "stmt:q1")])
        assert checks == [("hasRead", "tuple", "query"),
                          ("readFromDB", "tuple", "process")]

    @pytest.mark.parametrize("labels,attrs", [
        (["hasRead"], None),
        ("hasRead", [{}]),
    ])
    def test_per_pair_sequences_must_match_the_pairs(self, labels, attrs):
        trace = fresh_trace()
        with pytest.raises(ProvenanceError):
            trace.add_edges(labels, TimeInterval.point(1),
                            [("tuple:t:1:v1", "stmt:q1"),
                             ("tuple:t:2:v1", "stmt:q1")], attrs)
        assert trace.edge_count == 0


class TestAddEntities:
    def test_adds_new_and_keeps_existing(self):
        trace = fresh_trace()
        trace.add_entities(lineage.TUPLE, "lin", [
            ("tuple:t:1:v1", (("rowid", 99),)),
            ("tuple:t:5:v1", (("rowid", 5), ("table", "t"))),
        ])
        assert trace.node("tuple:t:1:v1").attrs == ()
        added = trace.node("tuple:t:5:v1")
        assert (added.kind, added.model, added.attr("rowid")) == (
            "entity", "lin", 5)
        assert trace.out_edges("tuple:t:5:v1") == []

    def test_rejects_non_entity_type_and_type_conflicts(self):
        trace = fresh_trace()
        with pytest.raises(ModelViolationError):
            trace.add_entities(lineage.QUERY, None, [("stmt:x", ())])
        with pytest.raises(ProvenanceError):
            trace.add_entities(lineage.TUPLE, None, [("file:/a", ())])


def t(rowid, version=1, table="t"):
    return TupleRef(table, rowid, version)


class TestStatementAtATimeBuilder:
    def test_query_rows_keep_their_per_row_edge_order(self):
        builder = TraceBuilder()
        builder.process(7)
        query = builder.statement("q1", "query")
        results = [t(1, 9, "_result_q1"), t(2, 9, "_result_q1")]
        builder.has_returned(query, results, 9, [[t(2), t(1)], [t(3)]],
                             reader=7)
        builder.has_read(query, [t(2), t(1), t(3)], 9)
        assert [(e.source, e.target, e.label)
                for e in builder.trace.edges()] == [
            ("stmt:q1", "tuple:_result_q1:1:v9", "hasReturned"),
            ("tuple:_result_q1:1:v9", "proc:7", READ_FROM_DB),
            ("stmt:q1", "tuple:_result_q1:2:v9", "hasReturned"),
            ("tuple:_result_q1:2:v9", "proc:7", READ_FROM_DB),
            ("tuple:t:2:v1", "stmt:q1", "hasRead"),
            ("tuple:t:1:v1", "stmt:q1", "hasRead"),
            ("tuple:t:3:v1", "stmt:q1", "hasRead"),
        ]
        returned = builder.trace.edges("hasReturned")
        assert returned[0].attrs == {
            "lineage": ["tuple:t:1:v1", "tuple:t:2:v1"]}
        assert returned[1].attrs == {"lineage": ["tuple:t:3:v1"]}
        assert all(edge.interval == TimeInterval.point(9)
                   for edge in builder.trace.edges())

    def test_tuple_nodes_match_tuple_version(self):
        batched, single = TraceBuilder(), TraceBuilder()
        for builder in (batched, single):
            builder.statement("u1", "update")
        batched.has_read("stmt:u1", [t(1), t(1, 2)], 3)
        for ref in (t(1), t(1, 2)):
            single.tuple_version(ref)
        assert batched.trace.nodes("entity") == single.trace.nodes("entity")
        assert batched.trace.node(tuple_node_id(t(1))).attrs == (
            ("rowid", 1), ("table", "t"), ("version", 1))

    def test_modification_edges_use_the_statement_labels(self):
        builder = TraceBuilder()
        update = builder.statement("u1", "update")
        builder.has_read(update, [t(1)], 4)
        builder.has_returned(update, [t(1, 4)], 4, [[t(1)]])
        assert [e.label for e in builder.trace.edges()] == [
            "hasRead_update", "hasReturned_update"]

    def test_empty_batches_add_nothing(self):
        builder = TraceBuilder()
        query = builder.statement("q1", "query")
        builder.has_read(query, [], 1)
        builder.has_returned(query, [], 1, [], reader=None)
        builder.read_from_db(1, [], 1)
        assert builder.trace.edge_count == 0

    def test_unknown_statement_and_reader_are_rejected(self):
        builder = TraceBuilder()
        with pytest.raises(UnknownNodeError):
            builder.has_read("stmt:nope", [t(1)], 1)
        query = builder.statement("q1", "query")
        with pytest.raises(UnknownNodeError):
            builder.has_returned(query, [t(5, 1, "_result_q1")], 1,
                                 reader=42)
        # the hasReturned edge before the failing readFromDB stays
        assert [e.label for e in builder.trace.edges()] == ["hasReturned"]

    def test_tuple_id_clash_with_another_node_type(self):
        builder = TraceBuilder()
        query = builder.statement("q1", "query")
        builder.trace.add_entity(tuple_node_id(t(1)), bb.FILE)
        with pytest.raises(ProvenanceError):
            builder.has_read(query, [t(1)], 1)
