"""Trace format 2: ``ExecutionTrace.to_v2`` / ``from_v2`` round trips.

Arbitrary traces over the combined model — generic and tuple nodes,
tuple-like nodes that must not be packed, duplicate-widened edges,
Lineage ids outside the trace and non-Lineage edge attributes — decode
to the trace :meth:`ExecutionTrace.to_json` describes, through JSON as
a package stores them.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.provenance import COMBINED_MODEL, TimeInterval
from repro.provenance.trace import ExecutionTrace

# JSON-native attribute values (tuples would come back as lists)
attr_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.lists(st.integers(-5, 5), max_size=3),
)
attr_dicts = st.dictionaries(
    st.sampled_from(["name", "pid", "sql", "path", "note", "rowid",
                     "table", "version"]),
    attr_values, max_size=3)
node_models = st.sampled_from(["bb", "lin", "custom"])
tables = st.text(alphabet="ab:_v1", min_size=1, max_size=4)
ticks = st.integers(-50, 10**6)


@st.composite
def tuple_node(draw):
    """A tuple version as the trace builder adds it, or — when
    ``odd`` — one whose id or attributes do not fit the packed form."""
    table = draw(tables)
    rowid = draw(st.integers(-10**15, 10**15))
    version = draw(st.integers(0, 10**9))
    node_id = f"tuple:{table}:{rowid}:v{version}"
    attrs = {"rowid": rowid, "table": table, "version": version}
    odd = draw(st.sampled_from(["none", "id", "rowid", "bool", "extra"]))
    if odd == "id":
        node_id = f"tuple:{table}:{rowid}:{version}"
    elif odd == "rowid":
        attrs["rowid"] = str(rowid)
    elif odd == "bool":
        attrs["version"] = True
        node_id = f"tuple:{table}:{rowid}:vTrue"
    elif odd == "extra":
        attrs["note"] = draw(attr_values)
    return node_id, attrs


@st.composite
def traces(draw):
    trace = ExecutionTrace(COMBINED_MODEL)
    for pid in draw(st.lists(st.integers(1, 500), max_size=4,
                             unique=True)):
        trace.add_activity(f"proc:{pid}", "process", draw(node_models),
                           **draw(attr_dicts))
    for path in draw(st.lists(st.text(min_size=1, max_size=6),
                              max_size=4, unique=True)):
        trace.add_entity(f"file:{path}", "file", draw(node_models),
                         **draw(attr_dicts))
    for number in range(draw(st.integers(0, 4))):
        statement_type = draw(st.sampled_from(
            ["query", "insert", "update", "delete"]))
        trace.add_activity(f"stmt:q{number}", statement_type,
                           draw(node_models), **draw(attr_dicts))
    for node_id, attrs in draw(st.lists(tuple_node(), max_size=12)):
        if not trace.has_node(node_id):
            trace.add_entities("tuple", draw(node_models),
                               [(node_id, tuple(sorted(attrs.items())))])
    # a file node that looks like a tuple version: packed all the same,
    # under its own type code
    if draw(st.booleans()):
        trace.add_entity("tuple:f:1:v2", "file", "bb", rowid=1, table="f",
                         version=2)

    by_type: dict[str, list[str]] = {}
    for node in trace.nodes():
        by_type.setdefault(node.type_label, []).append(node.node_id)
    edge_types = [edge_type for edge_type in
                  COMBINED_MODEL.edge_types.values()
                  if edge_type.source_type in by_type
                  and edge_type.target_type in by_type]
    node_ids = [node.node_id for node in trace.nodes()]
    lineage_ids = st.one_of(
        st.sampled_from(node_ids) if node_ids else st.nothing(),
        st.text(max_size=8))  # ids outside the trace
    if not edge_types:
        return trace
    for _ in range(draw(st.integers(0, 20))):
        edge_type = draw(st.sampled_from(edge_types))
        source = draw(st.sampled_from(by_type[edge_type.source_type]))
        target = draw(st.sampled_from(by_type[edge_type.target_type]))
        begin = draw(ticks)
        interval = TimeInterval(begin, begin + draw(st.integers(0, 30)))
        attrs = draw(st.one_of(
            st.just({}),
            st.builds(lambda ids: {"lineage": sorted(ids)},
                      st.lists(lineage_ids, max_size=4)),
            st.builds(lambda ids, note: {"lineage": ids, "note": note},
                      st.lists(lineage_ids, max_size=2), attr_values),
            st.builds(lambda ids: {"lineage": ids},
                      st.lists(st.integers(0, 3), min_size=1,
                               max_size=2)),
            attr_dicts))
        # the same (source, target, label) again widens the interval
        # and merges the attributes
        for _ in range(draw(st.integers(1, 2))):
            trace.add_edge(source, target, edge_type.label, interval,
                           **attrs)
            interval = TimeInterval(interval.begin - 3, interval.end + 5)
    return trace


def edge_order(trace):
    return [(edge.source, edge.target, edge.label)
            for edge in trace.edges()]


class TestTraceFormatV2:
    @settings(max_examples=200, deadline=None)
    @given(traces())
    def test_decode_encode_is_the_identity(self, trace):
        encoded = json.loads(json.dumps(trace.to_v2()))
        decoded = ExecutionTrace.from_v2(encoded, COMBINED_MODEL)
        assert decoded.to_json() == trace.to_json()
        # edges come back in the order a format-1 reader adds them
        v1 = ExecutionTrace.from_json(trace.to_json(), COMBINED_MODEL)
        assert edge_order(decoded) == edge_order(v1)

    @settings(max_examples=50, deadline=None)
    @given(traces())
    def test_encoding_is_deterministic(self, trace):
        decoded = ExecutionTrace.from_v2(trace.to_v2(), COMBINED_MODEL)
        assert json.dumps(decoded.to_v2()) == json.dumps(trace.to_v2())

    def test_builder_tuple_nodes_are_packed(self):
        trace = ExecutionTrace(COMBINED_MODEL)
        trace.add_entities("tuple", "lin", [
            ("tuple:t:1:v2", (("rowid", 1), ("table", "t"),
                              ("version", 2))),
            ("tuple:t:1:v3", (("rowid", 1), ("table", "t"),
                              ("version", 3)))])
        trace.add_entity("tuple:t:9", "tuple", "lin", rowid=9, table="t",
                         version=1)
        encoded = trace.to_v2()
        assert encoded["tuples"] == {"tables": ["t"], "table": [0, 0],
                                     "rowid": [1, 1], "version": [2, 3]}
        assert encoded["nodes"]["rows"] == [
            ["tuple:t:9", {"rowid": 9, "table": "t", "version": 1}]]

    def test_lineage_ids_outside_the_trace_use_the_side_table(self):
        trace = ExecutionTrace(COMBINED_MODEL)
        trace.add_activity("stmt:q1", "query", "lin")
        trace.add_entity("tuple:t:1:v2", "tuple", "lin", rowid=1,
                         table="t", version=2)
        trace.add_edge("stmt:q1", "tuple:t:1:v2", "hasReturned",
                       TimeInterval.point(5),
                       lineage=["tuple:gone:4:v1", "tuple:t:1:v2"])
        encoded = trace.to_v2()
        assert encoded["lineage"] == {"edges": [0], "nodes": [[-1, 1]],
                                      "ids": ["tuple:gone:4:v1"]}
        assert ExecutionTrace.from_v2(encoded, COMBINED_MODEL).to_json() \
            == trace.to_json()

    def test_empty_sections_are_left_out(self):
        trace = ExecutionTrace(COMBINED_MODEL)
        trace.add_activity("proc:1", "process", "bb", pid=1)
        trace.add_entity("file:/a", "file", "bb", path="/a")
        trace.add_edge("file:/a", "proc:1", "readFrom", TimeInterval(1, 4))
        encoded = trace.to_v2()
        assert set(encoded) == {"model", "types", "nodes", "labels",
                                "edges"}
        assert ExecutionTrace.from_v2(encoded, COMBINED_MODEL).to_json() \
            == trace.to_json()
