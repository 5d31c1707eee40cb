"""ldv-trace tool tests."""

import gzip
import json
from pathlib import Path

import pytest

from repro.core import ldv_audit, ldv_exec
from repro.core.package import TRACE_NAME, Package
from repro.core.tracetool import load_package_trace, summarize, trace_main
from repro.provenance import COMBINED_MODEL, ExecutionTrace

from tests.core.conftest import SERVER_BINARIES, World

# the sales world's server-included package as written in trace format
# 1, before format 2 existed; never rewrite it
V1_PACKAGE = (Path(__file__).resolve().parents[1] / "fixtures"
              / "package_v1_included")


@pytest.fixture
def package(memory_world, tmp_path):
    world = memory_world
    ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
              mode="server-included", database=world.database,
              server_name="main", server_binary_paths=SERVER_BINARIES)
    return tmp_path / "pkg"


class TestTraceLoading:
    def test_load_round_trips_the_audit_trace(self, package):
        trace = load_package_trace(package)
        assert trace.activities("process")
        assert trace.activities("query")
        assert trace.entities("file")
        assert trace.entities("tuple")

    def test_summarize_census(self, package):
        summary = summarize(load_package_trace(package))
        assert summary["activity:process"] >= 1
        assert summary["entity:tuple"] >= 4
        assert "edge:hasReturned" in summary


class TestTraceCli:
    def test_summary_output(self, package, capsys):
        assert trace_main([str(package)]) == 0
        output = capsys.readouterr().out
        assert "activity:process" in output
        assert "edge:run" in output

    def test_list_entities(self, package, capsys):
        assert trace_main([str(package), "--entities"]) == 0
        output = capsys.readouterr().out
        assert "file:/data/config.txt" in output
        assert "tuple:sales" in output

    def test_list_entities_filtered(self, package, capsys):
        assert trace_main([str(package), "--entities", "file"]) == 0
        output = capsys.readouterr().out
        assert "file:" in output
        assert "tuple:" not in output

    def test_deps_of_output_file(self, package, capsys):
        assert trace_main(
            [str(package), "--deps", "file:/data/report.txt"]) == 0
        output = capsys.readouterr().out
        assert "file:/data/config.txt" in output
        assert "tuple:sales" in output

    def test_depends_yes(self, package, capsys):
        code = trace_main([str(package), "--depends",
                           "file:/data/report.txt",
                           "file:/data/config.txt"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_depends_no_uses_exit_code_2(self, package, capsys):
        code = trace_main([str(package), "--depends",
                           "file:/data/config.txt",
                           "file:/data/report.txt"])
        assert code == 2
        assert capsys.readouterr().out.strip() == "no"

    def test_depends_at_time_zero_is_no(self, package, capsys):
        code = trace_main([str(package), "--depends",
                           "file:/data/report.txt",
                           "file:/data/config.txt",
                           "--at-time", "0"])
        assert code == 2

    def test_unknown_node_is_an_error(self, package, capsys):
        assert trace_main([str(package), "--deps", "file:/ghost"]) == 1
        assert "error" in capsys.readouterr().err

    def test_prov_export(self, package, tmp_path, capsys):
        out = tmp_path / "prov.json"
        assert trace_main([str(package), "--prov", str(out)]) == 0
        document = json.loads(out.read_text())
        assert "activity" in document
        assert "wasDerivedFrom" in document

    def test_missing_package_is_an_error(self, tmp_path, capsys):
        assert trace_main([str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_corrupt_trace_is_a_one_line_error(self, package, capsys,
                                               damage):
        path = package / "trace.json.gz"
        data = bytearray(path.read_bytes())
        if damage == "truncate":
            data = data[:len(data) // 2]
        else:
            data[10] ^= 0xFF  # first byte of the deflate stream
        path.write_bytes(bytes(data))
        assert trace_main([str(package), "--entities"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ldv-trace: error: corrupt")



class TestFrozenV1Package:
    """A package written in trace format 1 still reads, replays and
    inspects as it did."""

    def test_manifest_without_trace_format_reads_as_format_1(self):
        manifest = json.loads((V1_PACKAGE / "MANIFEST.json").read_text())
        assert "trace_format" not in manifest
        assert Package.load(V1_PACKAGE).manifest.trace_format == 1

    def test_read_trace_equals_a_fresh_v1_decode(self):
        document = json.loads(gzip.decompress(
            (V1_PACKAGE / TRACE_NAME).read_bytes()))
        fresh = ExecutionTrace.from_json(document, COMBINED_MODEL)
        loaded = Package.load(V1_PACKAGE).read_trace(COMBINED_MODEL)
        assert loaded.to_json() == fresh.to_json() == document

    def test_census_matches_a_v2_repackaging(self, world, tmp_path,
                                             capsys):
        ldv_audit(world.vos, "/bin/app", tmp_path / "pkg",
                  mode="server-included", database=world.database,
                  server_name="main", server_binary_paths=SERVER_BINARIES)
        assert Package.load(tmp_path / "pkg").manifest.trace_format == 2
        assert trace_main([str(V1_PACKAGE)]) == 0
        frozen = capsys.readouterr().out
        assert trace_main([str(tmp_path / "pkg")]) == 0
        assert capsys.readouterr().out == frozen
        assert "entity:tuple" in frozen

    def test_replays(self, tmp_path):
        result = ldv_exec(V1_PACKAGE, World().registry,
                          scratch_dir=tmp_path / "scratch")
        assert result.outputs["/data/report.txt"] == b"75.0|5\n"
        assert result.validated
