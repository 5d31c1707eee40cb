"""Property tests: wire-protocol and trace serialization round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import protocol
from repro.db.engine import StatementResult
from repro.db.provtypes import EMPTY_LINEAGE, TupleRef
from repro.db.types import Column, Schema, SQLType
from repro.provenance import COMBINED_MODEL, TimeInterval, TraceBuilder
from repro.provenance.trace import ExecutionTrace

# JSON-representable SQL values (what the engine stores)
sql_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)

tuple_refs = st.builds(
    TupleRef,
    table=st.sampled_from(["t", "orders", "line_item"]),
    rowid=st.integers(1, 10**6),
    version=st.integers(1, 10**6))


@st.composite
def statement_results(draw):
    width = draw(st.integers(1, 4))
    columns = [Column(f"c{i}", draw(st.sampled_from(list(SQLType))))
               for i in range(width)]
    n = draw(st.integers(0, 8))
    rows = [tuple(draw(sql_values) for _ in range(width))
            for _ in range(n)]
    lineages = [frozenset(draw(st.lists(tuple_refs, max_size=3)))
                for _ in range(n)]
    written = draw(st.lists(tuple_refs, max_size=4, unique=True))
    written_lineage = {
        ref: frozenset(draw(st.lists(tuple_refs, max_size=2)))
        for ref in written}
    return StatementResult(
        kind=draw(st.sampled_from(["select", "insert", "update",
                                   "delete"])),
        schema=Schema(columns),
        rows=rows,
        lineages=lineages,
        rowcount=n,
        written=written,
        written_lineage=written_lineage,
        deleted=draw(st.lists(tuple_refs, max_size=3)),
        source_tables=draw(st.lists(
            st.sampled_from(["t", "u"]), max_size=2)))


def round_trip(result, version=2, rows=True):
    text = protocol.encode_frame(
        protocol.result_to_wire(result, version, rows))
    return protocol.result_from_wire(protocol.decode_frame(text))


class TestProtocolProperty:
    @settings(max_examples=100, deadline=None)
    @given(statement_results())
    def test_result_wire_round_trip(self, result):
        self.check_round_trip(result, 2, True)

    @settings(max_examples=100, deadline=None)
    @given(statement_results())
    @pytest.mark.parametrize("rows", [True, False],
                             ids=["rows", "lineage-only"])
    def test_v3_result_wire_round_trip(self, rows, result):
        self.check_round_trip(result, 3, rows)
        # each lineage iterates as the version-2 decode's does, so the
        # trace's hasRead edges come out in the same order
        assert [list(lineage) for lineage
                in round_trip(result, 3, rows).lineages] == [
            list(lineage) for lineage in round_trip(result).lineages]

    @staticmethod
    def check_round_trip(result, version, rows):
        decoded = round_trip(result, version, rows)
        assert decoded.kind == result.kind
        assert decoded.rows == (result.rows if rows else [])
        assert decoded.rowcount == result.rowcount
        assert decoded.lineages == result.lineages
        assert all(lineage is EMPTY_LINEAGE
                   for lineage in decoded.lineages if not lineage)
        assert decoded.written == result.written
        assert decoded.written_lineage == result.written_lineage
        assert decoded.deleted == result.deleted
        assert decoded.column_names == result.column_names
        assert decoded.schema.types() == result.schema.types()


@st.composite
def random_traces(draw):
    builder = TraceBuilder()
    n_procs = draw(st.integers(1, 3))
    n_files = draw(st.integers(1, 4))
    for pid in range(n_procs):
        builder.process(pid, f"p{pid}")
    paths = [f"/f{i}" for i in range(n_files)]
    for _ in range(draw(st.integers(0, 8))):
        pid = draw(st.integers(0, n_procs - 1))
        path = draw(st.sampled_from(paths))
        begin = draw(st.integers(0, 50))
        end = draw(st.integers(begin, 60))
        if draw(st.booleans()):
            builder.read_from(pid, path, TimeInterval(begin, end))
        else:
            builder.has_written(pid, path, TimeInterval(begin, end))
    if draw(st.booleans()):
        statement = builder.statement("q1", "query", sql="SELECT 1")
        builder.run(draw(st.integers(0, n_procs - 1)), statement,
                    TimeInterval.point(draw(st.integers(0, 60))))
        ref = TupleRef("t", draw(st.integers(1, 9)), 1)
        builder.has_read(statement, [ref], draw(st.integers(0, 60)))
        out = TupleRef("_result_q1", 1, 2)
        builder.has_returned(statement, [out],
                             draw(st.integers(0, 60)), [[ref]])
    return builder.trace


class TestTraceSerializationProperty:
    @settings(max_examples=80, deadline=None)
    @given(random_traces())
    def test_trace_json_round_trip(self, trace):
        data = trace.to_json()
        restored = ExecutionTrace.from_json(data, COMBINED_MODEL)
        assert restored.to_json() == data
        assert restored.node_count == trace.node_count
        assert restored.edge_count == trace.edge_count

    @settings(max_examples=40, deadline=None)
    @given(random_traces())
    def test_round_trip_preserves_dependencies(self, trace):
        from repro.provenance import DependencyInference
        restored = ExecutionTrace.from_json(trace.to_json(),
                                            COMBINED_MODEL)
        original_deps = DependencyInference(trace).all_dependencies()
        restored_deps = DependencyInference(restored).all_dependencies()
        assert original_deps == restored_deps
