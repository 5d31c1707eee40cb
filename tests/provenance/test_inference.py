"""Dependency-inference tests: edge cases plus a hypothesis
cross-check of the traversal against a literal Definition 11
path enumerator (Theorem 1's sound-and-complete claim)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.provtypes import TupleRef
from repro.provenance import (
    DependencyInference,
    TimeInterval,
    TraceBuilder,
)
from repro.provenance.lineage import tuple_node_id
from tests.provenance.brute_force import brute_force_dependencies


def t(rowid, version=1):
    return TupleRef("db", rowid, version)


class TestBasics:
    def test_no_path_no_dependency(self):
        builder = TraceBuilder()
        builder.process(1)
        builder.process(2)
        builder.read_from(1, "/A", TimeInterval(1, 2))
        builder.has_written(2, "/B", TimeInterval(3, 4))
        inference = DependencyInference(builder.trace)
        assert not inference.depends_on("file:/B", "file:/A")

    def test_self_dependency_excluded(self):
        builder = TraceBuilder()
        builder.process(1)
        builder.read_from(1, "/A", TimeInterval(1, 2))
        builder.has_written(1, "/A", TimeInterval(3, 4))
        inference = DependencyInference(builder.trace)
        assert "file:/A" not in inference.dependencies_of("file:/A")

    def test_read_write_same_tick_is_feasible(self):
        builder = TraceBuilder()
        builder.process(1)
        builder.read_from(1, "/A", TimeInterval(5, 5))
        builder.has_written(1, "/B", TimeInterval(5, 5))
        inference = DependencyInference(builder.trace)
        assert inference.depends_on("file:/B", "file:/A")

    def test_long_feasible_chain(self):
        builder = TraceBuilder()
        previous = "/f0"
        builder.process(0)
        builder.read_from(0, previous, TimeInterval(0, 1))
        for index in range(1, 6):
            builder.process(index)
            builder.read_from(index, f"/f{index - 1}",
                              TimeInterval(2 * index - 1, 2 * index))
            builder.has_written(index, f"/f{index}",
                                TimeInterval(2 * index, 2 * index + 1))
        inference = DependencyInference(builder.trace)
        assert inference.depends_on("file:/f5", "file:/f0")

    def test_chain_broken_by_one_bad_interval(self):
        builder = TraceBuilder()
        builder.process(1)
        builder.process(2)
        builder.read_from(1, "/A", TimeInterval(10, 11))
        builder.has_written(1, "/B", TimeInterval(12, 13))
        builder.read_from(2, "/B", TimeInterval(1, 2))  # before B written
        builder.has_written(2, "/C", TimeInterval(14, 15))
        inference = DependencyInference(builder.trace)
        assert inference.depends_on("file:/B", "file:/A")
        assert not inference.depends_on("file:/C", "file:/A")

    def test_activity_state_dependencies(self):
        """Packaging asks: which entities does an activity's state
        depend on (Section VII-D)."""
        builder = TraceBuilder()
        builder.process(1)
        query = builder.statement("q", "query")
        builder.read_from(1, "/cfg", TimeInterval(1, 2))
        builder.run(1, query, TimeInterval.point(3))
        builder.has_read(query, [t(1)], 3)
        builder.has_returned(query, [t(9)], 3, [[t(1)]])
        inference = DependencyInference(builder.trace)
        deps = inference.dependencies_of("stmt:q")
        assert "file:/cfg" in deps
        assert tuple_node_id(t(1)) in deps

    def test_at_time_limits_target_state(self):
        builder = TraceBuilder()
        builder.process(1)
        builder.read_from(1, "/A", TimeInterval(1, 2))
        builder.has_written(1, "/B", TimeInterval(8, 9))
        inference = DependencyInference(builder.trace)
        assert not inference.depends_on("file:/B", "file:/A", at_time=7)
        assert inference.depends_on("file:/B", "file:/A", at_time=8)

    def test_all_dependencies_enumerates_pairs(self):
        builder = TraceBuilder()
        builder.process(1)
        builder.read_from(1, "/A", TimeInterval(1, 2))
        builder.has_written(1, "/B", TimeInterval(3, 4))
        builder.has_written(1, "/C", TimeInterval(3, 4))
        inference = DependencyInference(builder.trace)
        assert inference.all_dependencies() == {
            ("file:/B", "file:/A"), ("file:/C", "file:/A")}

    def test_walk_ties_on_budget_and_node(self):
        # two heap entries for process 1 share budget 5: one reached
        # through the executed edge (no entity seen yet), one through
        # /e; the walk must not compare their contexts
        builder = TraceBuilder()
        builder.process(1)
        builder.process(2)
        builder.executed(1, 2, 5)
        builder.has_written(1, "/e", TimeInterval(1, 5))
        builder.read_from(2, "/e", TimeInterval(5, 5))
        inference = DependencyInference(builder.trace)
        assert inference.dependencies_of("proc:2") == {"file:/e"}

    def test_cycle_does_not_hang(self):
        """P reads and writes the same file repeatedly."""
        builder = TraceBuilder()
        builder.process(1)
        builder.read_from(1, "/A", TimeInterval(1, 10))
        builder.has_written(1, "/A", TimeInterval(2, 9))
        builder.has_written(1, "/B", TimeInterval(5, 6))
        inference = DependencyInference(builder.trace)
        assert inference.depends_on("file:/B", "file:/A")


class TestLineageConditions:
    def test_partial_lineage_attribution(self):
        """A query reads t1, t2 and returns r1 (from t1) and r2 (from
        t2): r1 must not depend on t2."""
        builder = TraceBuilder()
        query = builder.statement("q", "query")
        builder.has_read(query, [t(1), t(2)], 5)
        builder.has_returned(query, [t(11), t(12)], 5, [[t(1)], [t(2)]])
        inference = DependencyInference(builder.trace)
        r1, r2 = tuple_node_id(t(11)), tuple_node_id(t(12))
        assert inference.depends_on(r1, tuple_node_id(t(1)))
        assert not inference.depends_on(r1, tuple_node_id(t(2)))
        assert inference.depends_on(r2, tuple_node_id(t(2)))

    def test_update_chain_through_versions(self):
        """insert creates v1; update reads v1, returns v2; a query
        reads v2 — the query result depends on both versions."""
        builder = TraceBuilder()
        insert = builder.statement("i", "insert")
        builder.has_returned(insert, [t(1, 1)], 2)
        update = builder.statement("u", "update")
        builder.has_read(update, [t(1, 1)], 4)
        builder.has_returned(update, [t(1, 2)], 4, [[t(1, 1)]])
        query = builder.statement("q", "query")
        builder.has_read(query, [t(1, 2)], 6)
        builder.has_returned(query, [t(99)], 6, [[t(1, 2)]])
        inference = DependencyInference(builder.trace)
        result = tuple_node_id(t(99))
        assert inference.depends_on(result, tuple_node_id(t(1, 2)))
        assert inference.depends_on(result, tuple_node_id(t(1, 1)))

    def test_stale_version_not_dependency(self):
        """A query that read v2 does not depend on a later v3."""
        builder = TraceBuilder()
        update = builder.statement("u", "update")
        builder.has_read(update, [t(1, 2)], 10)
        builder.has_returned(update, [t(1, 3)], 10, [[t(1, 2)]])
        query = builder.statement("q", "query")
        builder.has_read(query, [t(1, 2)], 5)
        builder.has_returned(query, [t(50)], 5, [[t(1, 2)]])
        inference = DependencyInference(builder.trace)
        assert not inference.depends_on(
            tuple_node_id(t(50)), tuple_node_id(t(1, 3)))


# -- hypothesis: traversal == literal Definition 11 on random DAG traces ----


@st.composite
def dag_traces(draw):
    """Random acyclic BB traces: files and processes with edges whose
    direction follows a topological order, random intervals."""
    builder = TraceBuilder()
    n_files = draw(st.integers(min_value=2, max_value=5))
    n_procs = draw(st.integers(min_value=1, max_value=4))
    files = []
    for index in range(n_files):
        files.append(builder.file(f"/f{index}"))
    procs = []
    for index in range(n_procs):
        procs.append(builder.process(index))
    # interleave: assign each node a topological rank
    ranked = [(draw(st.integers(0, 9)), "file", node) for node in files]
    ranked += [(draw(st.integers(0, 9)), "proc", node) for node in procs]
    ranked.sort(key=lambda item: item[0])
    edge_count = draw(st.integers(min_value=1, max_value=8))
    for _ in range(edge_count):
        i = draw(st.integers(0, len(ranked) - 2))
        j = draw(st.integers(i + 1, len(ranked) - 1))
        (_, kind_i, node_i), (_, kind_j, node_j) = ranked[i], ranked[j]
        begin = draw(st.integers(0, 20))
        end = draw(st.integers(begin, 20))
        interval = TimeInterval(begin, end)
        if kind_i == "file" and kind_j == "proc":
            builder.trace.add_edge(node_i, node_j, "readFrom", interval)
        elif kind_i == "proc" and kind_j == "file":
            builder.trace.add_edge(node_i, node_j, "hasWritten", interval)
        elif kind_i == "proc" and kind_j == "proc":
            builder.trace.add_edge(node_i, node_j, "executed", interval)
        # file-file pairs: no admissible edge, skip
    return builder.trace


class TestTheorem1:
    @settings(max_examples=120, deadline=None)
    @given(dag_traces())
    def test_traversal_matches_brute_force(self, trace):
        inference = DependencyInference(trace)
        for entity in trace.entities():
            fast = inference.dependencies_of(entity.node_id)
            slow = brute_force_dependencies(trace, entity.node_id)
            assert fast == slow, (
                f"mismatch at {entity.node_id}: "
                f"traversal={sorted(fast)} brute={sorted(slow)}")

    @settings(max_examples=60, deadline=None)
    @given(dag_traces(), st.integers(0, 20))
    def test_at_time_matches_brute_force(self, trace, at_time):
        inference = DependencyInference(trace)
        for entity in trace.entities()[:3]:
            fast = inference.dependencies_of(entity.node_id, at_time)
            slow = brute_force_dependencies(trace, entity.node_id, at_time)
            assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(dag_traces())
    def test_monotone_in_time(self, trace):
        """Dependencies at an earlier time are a subset of later ones."""
        inference = DependencyInference(trace)
        for entity in trace.entities()[:3]:
            earlier = inference.dependencies_of(entity.node_id, at_time=5)
            later = inference.dependencies_of(entity.node_id, at_time=15)
            ever = inference.dependencies_of(entity.node_id)
            assert earlier <= later <= ever
