"""Every worked example of Sections IV–VI, encoded as tests.

* Figure 2 / Examples 1–3: the combined execution trace of processes
  P1, P2, files A, B, C and tuples t1..t5.
* Figure 3 / Examples 4–5: P_Lin dependencies.
* Figure 4 / Examples 6–7: P_BB dependencies and the temporal pruning
  of the B → C dependency.
* Figure 6 / Example 8: the three temporal-annotation variants.
"""

import pytest

from repro.db.provtypes import TupleRef
from repro.provenance import (
    DependencyInference,
    TimeInterval,
    TraceBuilder,
    bb_dependencies,
    lin_dependencies,
)
from repro.provenance.lineage import tuple_node_id


def t(table, rowid, version=1):
    return TupleRef(table, rowid, version)


@pytest.fixture
def figure2():
    """The combined execution trace of Figure 2.

    P1 reads file A during [1,6] and file B during [7,8]; it runs
    Insert1 at tick 5 creating t1, t2 and Insert2 at tick 8 creating
    t3. P2 runs Query at tick 9 which reads t1 and t3 and returns t4
    (lineage {t1}) and t5 (lineage {t3}); P2 reads the result tuples
    and writes file C during [7,12].
    """
    builder = TraceBuilder()
    builder.process(1, "P1")
    builder.process(2, "P2")
    builder.read_from(1, "/A", TimeInterval(1, 6))
    builder.read_from(1, "/B", TimeInterval(7, 8))
    insert1 = builder.statement("i1", "insert")
    builder.run(1, insert1, TimeInterval.point(5))
    builder.has_returned(insert1, [t("db", 1), t("db", 2)], 5)
    insert2 = builder.statement("i2", "insert")
    builder.run(1, insert2, TimeInterval.point(8))
    builder.has_returned(insert2, [t("db", 3)], 8)
    query = builder.statement("q1", "query")
    builder.run(2, query, TimeInterval.point(9))
    builder.has_read(query, [t("db", 1), t("db", 3)], 9)
    builder.has_returned(query, [t("db", 4), t("db", 5)], 9,
                         [[t("db", 1)], [t("db", 3)]])
    builder.read_from_db(2, [t("db", 4), t("db", 5)], 9)
    builder.has_written(2, "/C", TimeInterval(7, 12))
    return builder.trace


class TestFigure2CombinedTrace:
    def test_node_inventory(self, figure2):
        assert len(figure2.activities("process")) == 2
        assert len(figure2.activities("insert")) == 2
        assert len(figure2.activities("query")) == 1
        assert len(figure2.entities("file")) == 3
        assert len(figure2.entities("tuple")) == 5

    def test_result_tuples_depend_on_inserted_tuples(self, figure2):
        """Example 3: t4 and t5 depend on t1 and t3."""
        deps = lin_dependencies(figure2)
        assert (tuple_node_id(t("db", 4)), tuple_node_id(t("db", 1))) in deps
        assert (tuple_node_id(t("db", 5)), tuple_node_id(t("db", 3))) in deps

    def test_t2_contributes_to_nothing(self, figure2):
        """t2 was inserted but never read (the paper excludes it from
        packages)."""
        deps = lin_dependencies(figure2)
        assert not any(source == tuple_node_id(t("db", 2))
                       for _, source in deps)

    def test_file_c_depends_on_file_a_via_database(self, figure2):
        """Cross-model inference: A → P1 → Insert1 → t1 → Query → t4
        → P2 → C, temporally feasible."""
        inference = DependencyInference(figure2)
        assert inference.depends_on("file:/C", "file:/A")

    def test_file_c_depends_on_tuples(self, figure2):
        inference = DependencyInference(figure2)
        deps = inference.dependencies_of("file:/C")
        assert tuple_node_id(t("db", 1)) in deps
        assert tuple_node_id(t("db", 4)) in deps
        assert tuple_node_id(t("db", 2)) not in deps

    def test_query_state_includes_read_tuples(self, figure2):
        from repro.provenance.lineage import statement_node_id
        state = figure2.state(statement_node_id("q1"), 9)
        assert tuple_node_id(t("db", 1)) in state
        assert tuple_node_id(t("db", 3)) in state


class TestFigure3LineageDependencies:
    def test_example5(self):
        """Q1 = SELECT sum(price) FROM sales WHERE price > 10 over
        Figure 5's table: t4 depends on t2 and t3."""
        builder = TraceBuilder()
        query = builder.statement("q1", "query")
        builder.has_read(query, [t("sales", 2), t("sales", 3)], 4)
        builder.has_returned(query, [t("sales", 4)], 4,
                             [[t("sales", 2), t("sales", 3)]])
        deps = lin_dependencies(builder.trace)
        assert deps == {
            (tuple_node_id(t("sales", 4)), tuple_node_id(t("sales", 2))),
            (tuple_node_id(t("sales", 4)), tuple_node_id(t("sales", 3))),
        }


@pytest.fixture
def figure4():
    """Figure 4: P1 reads A [1,5] and B [7,8], writes C [2,3], D [8,8]."""
    builder = TraceBuilder()
    builder.process(1, "P1")
    builder.read_from(1, "/A", TimeInterval(1, 5))
    builder.read_from(1, "/B", TimeInterval(7, 8))
    builder.has_written(1, "/C", TimeInterval(2, 3))
    builder.has_written(1, "/D", TimeInterval(8, 8))
    return builder.trace


class TestFigure4BlackboxDependencies:
    def test_example6_raw_dependencies(self, figure4):
        """Definition 8 (no temporal pruning): C and D depend on both
        A and B."""
        deps = bb_dependencies(figure4)
        assert deps == {
            ("file:/C", "file:/A"), ("file:/C", "file:/B"),
            ("file:/D", "file:/A"), ("file:/D", "file:/B"),
        }

    def test_example7_temporal_pruning(self, figure4):
        """C was written [2,3] before P1 read B [7,8]: no inferred
        dependency C → B; the dependency on A survives."""
        inference = DependencyInference(figure4)
        assert not inference.depends_on("file:/C", "file:/B")
        assert inference.depends_on("file:/C", "file:/A")

    def test_d_written_late_depends_on_both(self, figure4):
        inference = DependencyInference(figure4)
        assert inference.depends_on("file:/D", "file:/A")
        assert inference.depends_on("file:/D", "file:/B")

    def test_process_chain_dependency(self):
        """Definition 8's executed-chain case: P1 reads A, executes P2,
        P2 writes C — C depends on A."""
        builder = TraceBuilder()
        builder.process(1, "P1")
        builder.process(2, "P2")
        builder.read_from(1, "/A", TimeInterval(1, 2))
        builder.executed(1, 2, 3)
        builder.has_written(2, "/C", TimeInterval(4, 5))
        assert ("file:/C", "file:/A") in bb_dependencies(builder.trace)
        inference = DependencyInference(builder.trace)
        assert inference.depends_on("file:/C", "file:/A")

    def test_executed_chain_respects_time(self):
        """Child spawned before the parent read the file: the write
        cannot depend on that later read."""
        builder = TraceBuilder()
        builder.process(1, "P1")
        builder.process(2, "P2")
        builder.executed(1, 2, 1)
        builder.has_written(2, "/C", TimeInterval(2, 3))
        builder.read_from(1, "/A", TimeInterval(5, 6))
        # raw D(G) keeps the false positive...
        assert ("file:/C", "file:/A") in bb_dependencies(builder.trace)
        # ...temporal inference prunes it
        inference = DependencyInference(builder.trace)
        assert not inference.depends_on("file:/C", "file:/A")


def chain_trace(intervals, with_dependency_ab=True):
    """Build the Figure 6 shape: A →[i1] P1 →[i2] B →[i3] P2 →[i4] C."""
    builder = TraceBuilder()
    builder.process(1, "P1")
    builder.process(2, "P2")
    i1, i2, i3, i4 = [TimeInterval(*pair) for pair in intervals]
    builder.read_from(1, "/A", i1)
    builder.has_written(1, "/B", i2)
    builder.read_from(2, "/B", i3)
    builder.has_written(2, "/C", i4)
    return builder.trace


class TestFigure6Example8:
    def test_trace_6a_no_dependency(self):
        """P2 stopped reading B ([1,5]) before P1 wrote it ([6,7])."""
        trace = chain_trace([(2, 3), (6, 7), (1, 5), (6, 6)])
        inference = DependencyInference(trace)
        assert not inference.depends_on("file:/C", "file:/A")

    def test_trace_6b_dependency_at_time_4(self):
        """C depends on A; the earliest feasible time is 4."""
        trace = chain_trace([(1, 1), (4, 7), (2, 5), (1, 6)])
        inference = DependencyInference(trace)
        assert inference.depends_on("file:/C", "file:/A")
        # at_time semantics: no dependency visible before tick 4
        assert not inference.depends_on("file:/C", "file:/A", at_time=3)
        assert inference.depends_on("file:/C", "file:/A", at_time=4)

    def test_trace_6c_no_dependency_without_model_dependency(self):
        """Figure 6c: there is no data dependency between B and A, so
        no C → A dependency may be inferred. In the BB encoding the
        missing dependency manifests temporally (P1 wrote B before it
        read A)."""
        trace = chain_trace([(9, 9), (4, 7), (5, 5), (5, 6)])
        inference = DependencyInference(trace)
        assert not inference.depends_on("file:/C", "file:/A")

    def test_trace_6c_lineage_variant(self):
        """The DB-side analogue of 6c: the intermediate pair is from
        P_Lin and the Lineage attribution says t_b does not depend on
        t_a — condition 1 of Definition 11 blocks the inference even
        though the path is temporally feasible."""
        builder = TraceBuilder()
        builder.process(2, "P2")
        query = builder.statement("q", "query")
        builder.has_read(query, [t("db", 1)], 4)  # t_a read by q
        # q returns t_b, but t_a is NOT in t_b's lineage
        builder.has_returned(query, [t("db", 2)], 5, lineages=[[]])
        builder.read_from_db(2, [t("db", 2)], 6)
        builder.has_written(2, "/C", TimeInterval(7, 8))
        inference = DependencyInference(builder.trace)
        t_a = tuple_node_id(t("db", 1))
        t_b = tuple_node_id(t("db", 2))
        assert not inference.depends_on(t_b, t_a)
        assert not inference.depends_on("file:/C", t_a)
        # the result tuple itself does flow into C
        assert inference.depends_on("file:/C", t_b)
