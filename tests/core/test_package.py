"""Package format and manifest tests."""

import gzip
import json
import zlib

import pytest

from repro.core.package import (
    FORMAT_VERSION,
    TRACE_FORMAT,
    Manifest,
    Package,
    TRACE_NAME,
    PackageKind,
)
from repro.core.tracetool import trace_main
from repro.db.provtypes import TupleRef
from repro.errors import ManifestError, PackageError
from repro.provenance import COMBINED_MODEL, TimeInterval, TraceBuilder


def make_manifest(**overrides):
    base = dict(kind=PackageKind.SERVER_INCLUDED,
                entry_binary="/bin/app", entry_argv=["-x"],
                db_server_name="main", tables=["sales"])
    base.update(overrides)
    return Manifest(**base)


class TestManifest:
    def test_json_round_trip(self):
        manifest = make_manifest(notes={"k": 1})
        restored = Manifest.from_json(manifest.to_json())
        assert restored == manifest

    def test_malformed_manifest_raises(self):
        with pytest.raises(ManifestError):
            Manifest.from_json({"kind": "nope"})

    def test_missing_entry_raises(self):
        with pytest.raises(ManifestError):
            Manifest.from_json({"kind": "server-included", "db": {}})

    @pytest.mark.parametrize("path,value,message", [
        ((), ["kind"], "the manifest must be an object, not a list"),
        (("db",), None, '"db" must be an object, not null'),
        (("db",), ["main"], '"db" must be an object, not a list'),
        (("db",), "main", '"db" must be an object, not a string'),
        (("entry",), None, '"entry" must be an object, not null'),
        (("notes",), [["k", 1]], '"notes" must be an object, not a list'),
        (("entry", "argv"), "-x",
         '"entry.argv" must be a list of strings, not a string'),
        (("db", "tables"), "orders",
         '"db.tables" must be a list of strings, not a string'),
        (("db", "tables"), ["orders", 7],
         '"db.tables" must be a list of strings, but holds a number'),
    ], ids=["top-level-list", "db-null", "db-list", "db-string",
            "entry-null", "notes-list", "argv-string", "tables-string",
            "tables-number-item"])
    def test_hostile_manifest_raises_one_line(self, path, value, message):
        data = make_manifest().to_json()
        if not path:
            data = value
        else:
            *parents, leaf = path
            target = data
            for key in parents:
                target = target[key]
            target[leaf] = value
        with pytest.raises(ManifestError) as info:
            Manifest.from_json(data)
        assert str(info.value) == f"malformed manifest: {message}"

    def test_ldv_trace_reports_a_hostile_manifest(self, tmp_path, capsys):
        root = tmp_path / "pkg"
        Package.create(root, make_manifest())
        data = json.loads((root / "MANIFEST.json").read_text())
        data["db"] = None
        (root / "MANIFEST.json").write_text(json.dumps(data))
        assert trace_main([str(root)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            'ldv-trace: error: malformed manifest: '
            '"db" must be an object, not null']

    def test_new_manifest_records_trace_format(self):
        assert make_manifest().to_json()["trace_format"] == TRACE_FORMAT == 2

    def test_manifest_without_trace_format_is_format_1(self):
        data = make_manifest().to_json()
        del data["trace_format"]
        assert Manifest.from_json(data).trace_format == 1


class TestPackage:
    def test_create_and_load(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        loaded = Package.load(tmp_path / "pkg")
        assert loaded.manifest == package.manifest

    def test_create_refuses_nonempty_dir(self, tmp_path):
        target = tmp_path / "pkg"
        target.mkdir()
        (target / "junk").write_text("x")
        with pytest.raises(PackageError):
            Package.create(target, make_manifest())

    def test_load_without_manifest_raises(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        with pytest.raises(ManifestError):
            Package.load(tmp_path / "pkg")

    def test_load_corrupt_manifest_raises(self, tmp_path):
        target = tmp_path / "pkg"
        target.mkdir()
        (target / "MANIFEST.json").write_text("{broken")
        with pytest.raises(ManifestError):
            Package.load(target)

    def test_load_wrong_format_version(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        data = json.loads((package.root / "MANIFEST.json").read_text())
        data["format_version"] = FORMAT_VERSION + 1
        (package.root / "MANIFEST.json").write_text(json.dumps(data))
        with pytest.raises(ManifestError):
            Package.load(tmp_path / "pkg")

    def test_write_read_text(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        package.write_text("db/schema.sql", "CREATE TABLE x (a integer);")
        assert "CREATE TABLE" in package.read_text("db/schema.sql")

    def test_read_missing_raises(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        with pytest.raises(PackageError):
            package.read_text("replay/log.jsonl")

    def test_file_path_strips_leading_slash(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        assert package.file_path("/bin/app") == (
            tmp_path / "pkg" / "files" / "bin" / "app")

    def test_total_bytes_counts_everything(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        before = package.total_bytes()
        package.write_text("files/data.txt", "x" * 1000)
        assert package.total_bytes() == before + 1000

    def test_breakdown_groups_db_subdirs(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        package.write_text("db/restore/sales.csv", "1,1,x\n")
        package.write_text("db/server/bin", "ELF")
        package.write_text("files/a", "data")
        breakdown = package.breakdown()
        assert "db/restore" in breakdown
        assert "db/server" in breakdown
        assert "files" in breakdown

    def test_restore_tables(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        package.write_text("db/restore/b.csv", "")
        package.write_text("db/restore/a.csv", "")
        assert package.restore_tables() == ["a", "b"]

    def test_contents_summary_empty_package(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        summary = package.contents_summary()
        assert summary["db_provenance"] is False
        assert summary["db_server"] is False


def sample_trace():
    """A small combined trace: 40 tuple versions read by one query,
    three of them returned with their Lineage to the reading process."""
    builder = TraceBuilder()
    builder.process(100, "app")
    statement = builder.statement("q1", "query", "SELECT * FROM t")
    builder.run(100, statement, TimeInterval(1, 3))
    refs = [TupleRef("t", rowid, 1) for rowid in range(40)]
    builder.has_read(statement, refs, 2)
    builder.has_returned(statement, refs[:3], 3,
                         lineages=[refs[:2], refs[1:3], refs[:1]],
                         reader=100)
    return builder.trace


def write_payload(package, document, trace_format):
    """Put ``document`` in the package as its trace, in ``trace_format``."""
    package.manifest.trace_format = trace_format
    package.write_manifest()
    (package.root / TRACE_NAME).write_bytes(
        gzip.compress(json.dumps(document).encode(), mtime=0))


class TestCorruptTrace:
    """A damaged ``trace.json.gz`` surfaces as one-line PackageError,
    never as the gzip/zlib/JSON exception underneath."""

    def packaged(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        package.write_trace(sample_trace())
        return package, package.root / TRACE_NAME

    def test_intact_trace_round_trips(self, tmp_path):
        package, _ = self.packaged(tmp_path)
        assert package.read_trace(COMBINED_MODEL).to_json() == \
            sample_trace().to_json()

    def test_write_records_trace_format_in_manifest(self, tmp_path):
        package = Package.create(tmp_path / "pkg",
                                 make_manifest(trace_format=1))
        package.write_trace(sample_trace())
        manifest = json.loads((package.root / "MANIFEST.json").read_text())
        assert manifest["trace_format"] == 2
        assert Package.load(package.root).read_trace(
            COMBINED_MODEL).to_json() == sample_trace().to_json()

    def test_v1_payload_reads_back(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        write_payload(package, sample_trace().to_json(), 1)
        loaded = Package.load(package.root)
        assert loaded.manifest.trace_format == 1
        assert loaded.read_trace(COMBINED_MODEL).to_json() == \
            sample_trace().to_json()

    def test_truncated_trace_raises_package_error(self, tmp_path):
        package, path = self.packaged(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(PackageError, match="corrupt") as info:
            package.read_trace(COMBINED_MODEL)
        assert isinstance(info.value.__cause__, EOFError)
        assert "\n" not in str(info.value)

    def test_flipped_byte_raises_package_error(self, tmp_path):
        package, path = self.packaged(tmp_path)
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF  # first byte of the deflate stream
        path.write_bytes(bytes(data))
        with pytest.raises(PackageError, match="corrupt") as info:
            package.read_trace(COMBINED_MODEL)
        assert isinstance(info.value.__cause__, zlib.error)
        assert "\n" not in str(info.value)

    def test_non_gzip_file_raises_package_error(self, tmp_path):
        package, path = self.packaged(tmp_path)
        path.write_bytes(b"plain text, no gzip header")
        with pytest.raises(PackageError, match="cannot decompress"):
            package.read_trace(COMBINED_MODEL)

    def test_non_json_payload_raises_package_error(self, tmp_path):
        package, path = self.packaged(tmp_path)
        path.write_bytes(gzip.compress(b"{not json", mtime=0))
        with pytest.raises(PackageError, match="not valid JSON"):
            package.read_trace(COMBINED_MODEL)


def _set(path, value):
    """A mutation setting ``document[path[0]][path[1]]...`` to ``value``."""
    def mutate(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return document
    return mutate


def _delete(*path):
    def mutate(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return document
    return mutate


def _pop(*path):
    def mutate(document):
        target = document
        for key in path:
            target = target[key]
        target.pop()
        return document
    return mutate


# (trace format, mutation of a valid payload, what the error names)
HOSTILE_PAYLOADS = {
    "v1-top-level-list": (1, lambda document: [document],
                          "a list, not a trace object"),
    "v1-missing-edges": (1, _delete("edges"), "missing field 'edges'"),
    "v1-node-without-id": (1, _delete("nodes", 0, "id"),
                           "missing field 'id'"),
    "v1-one-element-interval": (1, _set(("edges", 0, "interval"), [3]),
                                "IndexError"),
    "v1-attrs-as-list": (1, _set(("nodes", 0, "attrs"), ["pid", 1]),
                         "TypeError"),
    "v1-wrong-model": (1, _set(("model",), "bb"),
                       "a trace of model 'bb', not 'bb\\+lin'"),
    "v2-top-level-list": (2, lambda document: [document],
                          "a list, not a trace object"),
    "v2-wrong-model": (2, _set(("model",), "lin"),
                       "a trace of model 'lin'"),
    "v2-missing-edges": (2, _delete("edges"), "missing field 'edges'"),
    "v2-source-out-of-range": (2, _set(("edges", "src", 0), 10_000),
                               "edge source index out of range"),
    "v2-negative-target": (2, _set(("edges", "dst", 0), -1),
                           "edge target index out of range"),
    "v2-unequal-edge-columns": (2, _pop("edges", "end"),
                                "edge column 'end' has"),
    "v2-unequal-tuple-columns": (2, _pop("tuples", "rowid"),
                                 "tuple column 'rowid' has"),
    "v2-unknown-label-code": (2, _set(("edges", "label", 0), 99),
                              "edge label index out of range"),
    "v2-unknown-label": (2, _set(("labels", 0), "copiedFrom"),
                         "has no edge type 'copiedFrom'"),
    "v2-unknown-kind-code": (2, _set(("nodes", "type", 0), 99),
                             "node type index out of range"),
    "v2-unknown-kind": (2, _set(("types", 0, 0), "agent"),
                        "unknown node kind 'agent'"),
    "v2-unknown-type": (2, _set(("types", 0, 1), "socket"),
                        "'socket' is not an"),
    "v2-lineage-out-of-range": (2, _set(("lineage", "nodes", 0, 0), 99),
                                "lineage node index out of range"),
    "v2-rowid-not-int": (2, _set(("tuples", "rowid", 0), "7"),
                         "rowid or version is not an integer"),
    "v2-interval-reversed": (2, _set(("edges", "end", 0), -5),
                             "interval begin"),
    "v2-attrs-as-list": (2, _set(("nodes", "rows", 0, 1), ["pid", 1]),
                         "attrs are a list"),
}


def hostile_package(tmp_path, case):
    trace_format, mutate, _ = HOSTILE_PAYLOADS[case]
    trace = sample_trace()
    document = trace.to_json() if trace_format == 1 else trace.to_v2()
    package = Package.create(tmp_path / "pkg", make_manifest())
    write_payload(package, mutate(document), trace_format)
    return package.root


class TestHostileTracePayload:
    """A payload that is valid gzip and JSON but not a trace, in either
    format, raises one PackageError line naming the fault."""

    @pytest.mark.parametrize("case", sorted(HOSTILE_PAYLOADS))
    def test_raises_package_error_naming_the_fault(self, tmp_path, case):
        root = hostile_package(tmp_path, case)
        with pytest.raises(PackageError, match=HOSTILE_PAYLOADS[case][2]) \
                as info:
            Package.load(root).read_trace(COMBINED_MODEL)
        assert "\n" not in str(info.value)

    def test_unknown_trace_format(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        write_payload(package, sample_trace().to_v2(), 3)
        with pytest.raises(PackageError,
                           match="unsupported trace format 3"):
            Package.load(package.root).read_trace(COMBINED_MODEL)

    @pytest.mark.parametrize("case", ["v1-one-element-interval",
                                      "v2-source-out-of-range"])
    def test_ldv_trace_exits_1_with_one_line(self, tmp_path, capsys, case):
        root = hostile_package(tmp_path, case)
        assert trace_main([str(root)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ldv-trace: error: ")
