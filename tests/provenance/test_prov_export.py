"""PROV-JSON export tests."""

import json

import pytest

from repro.db.provtypes import TupleRef
from repro.provenance import TimeInterval, TraceBuilder
from repro.provenance.prov_export import trace_to_prov


@pytest.fixture
def document():
    builder = TraceBuilder()
    builder.process(1, "P1")
    builder.read_from(1, "/A", TimeInterval(1, 6))
    query = builder.statement("q1", "query", sql="SELECT 1")
    builder.run(1, query, TimeInterval.point(7))
    ref = TupleRef("t", 1, 1)
    builder.has_read(query, [ref], 7)
    out = TupleRef("t", 9, 7)
    builder.has_returned(query, [out], 7, [[ref]])
    builder.read_from_db(1, [out], 7)
    builder.has_written(1, "/B", TimeInterval(8, 9))
    return trace_to_prov(builder.trace, include_dependencies=True)


class TestProvExport:
    def test_document_is_json_serializable(self, document):
        json.dumps(document)

    def test_activities_and_entities_partitioned(self, document):
        assert "repro:proc_1" in document["activity"]
        assert "repro:stmt_q1" in document["activity"]
        assert "repro:file__A" in document["entity"]
        assert "repro:tuple_t_1_v1" in document["entity"]

    def test_used_relations(self, document):
        used_pairs = {(rel["prov:activity"], rel["prov:entity"])
                      for rel in document["used"].values()}
        assert ("repro:proc_1", "repro:file__A") in used_pairs
        assert ("repro:stmt_q1", "repro:tuple_t_1_v1") in used_pairs

    def test_generation_relations(self, document):
        generated = {(rel["prov:entity"], rel["prov:activity"])
                     for rel in document["wasGeneratedBy"].values()}
        assert ("repro:file__B", "repro:proc_1") in generated
        assert ("repro:tuple_t_9_v7", "repro:stmt_q1") in generated

    def test_run_edge_becomes_informed_by(self, document):
        informed = {(rel["prov:informant"], rel["prov:informed"])
                    for rel in document["wasInformedBy"].values()}
        assert ("repro:proc_1", "repro:stmt_q1") in informed

    def test_temporal_annotations_preserved(self, document):
        spans = [(rel["repro:begin"], rel["repro:end"])
                 for rel in document["used"].values()]
        assert (1, 6) in spans

    def test_inferred_dependencies_exported(self, document):
        derived = {(rel["prov:generatedEntity"], rel["prov:usedEntity"])
                   for rel in document["wasDerivedFrom"].values()}
        # B depends on A and on both tuple versions
        assert ("repro:file__B", "repro:file__A") in derived
        assert ("repro:file__B", "repro:tuple_t_1_v1") in derived

    def test_dependencies_optional(self):
        builder = TraceBuilder()
        builder.process(1)
        document = trace_to_prov(builder.trace)
        assert "wasDerivedFrom" not in document

    def test_node_attrs_exported(self, document):
        record = document["activity"]["repro:stmt_q1"]
        assert record["repro:sql"] == "SELECT 1"
        assert record["repro:model"] == "lin"
