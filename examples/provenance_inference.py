"""The provenance models, hands-on (Sections IV–VI of the paper).

Rebuilds the paper's worked examples as live objects:

* the combined execution trace of Figure 2,
* the blackbox dependencies of Figure 4 and their temporal pruning
  (Example 7),
* the three temporal variants of Figure 6 (Example 8),
* a PROV-JSON export of the combined trace.

Run:  python examples/provenance_inference.py
"""

import json

from repro.db.provtypes import TupleRef
from repro.provenance import (
    DependencyInference,
    TimeInterval,
    TraceBuilder,
    bb_dependencies,
)
from repro.provenance.prov_export import trace_to_prov


def build_figure2():
    """Processes P1, P2; files A, B, C; tuples t1..t5 (Figure 2)."""
    builder = TraceBuilder()
    builder.process(1, "P1")
    builder.process(2, "P2")
    builder.read_from(1, "/A", TimeInterval(1, 6))
    builder.read_from(1, "/B", TimeInterval(7, 8))
    insert1 = builder.statement("insert1", "insert")
    builder.run(1, insert1, TimeInterval.point(5))
    builder.has_returned(insert1, [TupleRef("db", 1, 5),
                                   TupleRef("db", 2, 5)], 5)
    insert2 = builder.statement("insert2", "insert")
    builder.run(1, insert2, TimeInterval.point(8))
    builder.has_returned(insert2, [TupleRef("db", 3, 8)], 8)
    query = builder.statement("query", "query")
    builder.run(2, query, TimeInterval.point(9))
    builder.has_read(query, [TupleRef("db", 1, 5), TupleRef("db", 3, 8)], 9)
    builder.has_returned(query, [TupleRef("db", 4, 9), TupleRef("db", 5, 9)],
                         9, [[TupleRef("db", 1, 5)], [TupleRef("db", 3, 8)]])
    builder.read_from_db(2, [TupleRef("db", 4, 9), TupleRef("db", 5, 9)], 9)
    builder.has_written(2, "/C", TimeInterval(7, 12))
    return builder.trace


def main() -> None:
    print("== Figure 2: the combined execution trace ==")
    trace = build_figure2()
    print(f"nodes: {trace.node_count}, edges: {trace.edge_count}")
    inference = DependencyInference(trace)
    deps = inference.dependencies_of("file:/C")
    print("file C depends on:")
    for node_id in sorted(deps):
        print(f"  {node_id}")
    assert "tuple:db:1:v5" in deps     # t1 flows through the query
    assert "tuple:db:2:v5" not in deps  # t2 was never read (Section II)

    print("\n== Figure 4 + Example 7: temporal pruning ==")
    builder = TraceBuilder()
    builder.process(1, "P1")
    builder.read_from(1, "/A", TimeInterval(1, 5))
    builder.read_from(1, "/B", TimeInterval(7, 8))
    builder.has_written(1, "/C", TimeInterval(2, 3))
    builder.has_written(1, "/D", TimeInterval(8, 8))
    raw = bb_dependencies(builder.trace)
    print(f"raw blackbox dependencies (Def 8): {len(raw)} pairs")
    inference = DependencyInference(builder.trace)
    print(f"C depends on A? {inference.depends_on('file:/C', 'file:/A')}")
    print(f"C depends on B? {inference.depends_on('file:/C', 'file:/B')}"
          "   <- pruned: C was written before P1 read B")

    print("\n== Figure 6 / Example 8: three temporal variants ==")
    for label, intervals, expected in (
            ("6a", [(2, 3), (6, 7), (1, 5), (6, 6)], False),
            ("6b", [(1, 1), (4, 7), (2, 5), (1, 6)], True),
            ("6c", [(9, 9), (4, 7), (5, 5), (5, 6)], False)):
        builder = TraceBuilder()
        builder.process(1, "P1")
        builder.process(2, "P2")
        i1, i2, i3, i4 = [TimeInterval(*pair) for pair in intervals]
        builder.read_from(1, "/A", i1)
        builder.has_written(1, "/B", i2)
        builder.read_from(2, "/B", i3)
        builder.has_written(2, "/C", i4)
        inference = DependencyInference(builder.trace)
        answer = inference.depends_on("file:/C", "file:/A")
        print(f"trace {label}: C depends on A? {answer}")
        assert answer is expected

    print("\n== PROV-JSON export of the Figure 2 trace ==")
    document = trace_to_prov(build_figure2(), include_dependencies=True)
    counts = {section: len(records)
              for section, records in document.items()
              if isinstance(records, dict) and section != "prefix"}
    print(json.dumps(counts, indent=2))


if __name__ == "__main__":
    main()
