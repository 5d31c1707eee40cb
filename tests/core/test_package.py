"""Package format and manifest tests."""

import gzip
import json
import zlib

import pytest

from repro.core.package import (
    FORMAT_VERSION,
    Manifest,
    Package,
    TRACE_NAME,
    PackageKind,
)
from repro.errors import ManifestError, PackageError


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


class TestCorruptTrace:
    """A damaged ``trace.json.gz`` surfaces as one-line PackageError,
    never as the gzip/zlib/JSON exception underneath."""

    TRACE = {"nodes": [{"id": f"tuple:t:{n}"} for n in range(40)],
             "edges": []}

    def packaged(self, tmp_path):
        package = Package.create(tmp_path / "pkg", make_manifest())
        package.write_trace(self.TRACE)
        return package, package.root / TRACE_NAME

    def test_intact_trace_round_trips(self, tmp_path):
        package, _ = self.packaged(tmp_path)
        assert package.read_trace() == self.TRACE

    def test_truncated_trace_raises_package_error(self, tmp_path):
        package, path = self.packaged(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(PackageError, match="corrupt") as info:
            package.read_trace()
        assert isinstance(info.value.__cause__, EOFError)
        assert "\n" not in str(info.value)

    def test_flipped_byte_raises_package_error(self, tmp_path):
        package, path = self.packaged(tmp_path)
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF  # first byte of the deflate stream
        path.write_bytes(bytes(data))
        with pytest.raises(PackageError, match="corrupt") as info:
            package.read_trace()
        assert isinstance(info.value.__cause__, zlib.error)
        assert "\n" not in str(info.value)

    def test_non_gzip_file_raises_package_error(self, tmp_path):
        package, path = self.packaged(tmp_path)
        path.write_bytes(b"plain text, no gzip header")
        with pytest.raises(PackageError, match="cannot decompress"):
            package.read_trace()

    def test_non_json_payload_raises_package_error(self, tmp_path):
        package, path = self.packaged(tmp_path)
        path.write_bytes(gzip.compress(b"{not json", mtime=0))
        with pytest.raises(PackageError, match="not valid JSON"):
            package.read_trace()

