"""ldv-trace tool tests."""

import json

import pytest

from repro.core import ldv_audit
from repro.core.tracetool import load_package_trace, summarize, trace_main

from tests.core.conftest import SERVER_BINARIES


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

