"""Virtual filesystem tests."""

import posixpath

import pytest

from repro.errors import (
    FileExistsVosError,
    FileNotFoundVosError,
    FileSystemError,
    IsADirectoryVosError,
    NotADirectoryVosError,
)
from repro.vos.filesystem import VirtualFileSystem, normalize


@pytest.fixture
def fs():
    vfs = VirtualFileSystem()
    vfs.mkdir("/data", parents=True)
    vfs.write_file("/data/a.txt", b"hello")
    return vfs


class TestPaths:
    def test_normalize_collapses_dots(self):
        assert normalize("/a/b/../c/./d") == "/a/c/d"

    def test_relative_path_rejected(self):
        with pytest.raises(FileSystemError):
            normalize("relative/path")


class TestFiles:
    def test_write_and_read(self, fs):
        assert fs.read_file("/data/a.txt") == b"hello"

    def test_text_helpers(self, fs):
        fs.write_text("/data/t.txt", "héllo")
        assert fs.read_text("/data/t.txt") == "héllo"

    def test_overwrite_replaces_content(self, fs):
        fs.write_file("/data/a.txt", b"new")
        assert fs.read_file("/data/a.txt") == b"new"

    def test_append(self, fs):
        fs.append_file("/data/a.txt", b" world")
        assert fs.read_file("/data/a.txt") == b"hello world"

    def test_append_creates_missing_file(self, fs):
        fs.append_file("/data/new.log", b"x")
        assert fs.read_file("/data/new.log") == b"x"

    def test_create_parents(self, fs):
        fs.write_file("/deep/nested/file", b"x", create_parents=True)
        assert fs.read_file("/deep/nested/file") == b"x"

    def test_write_without_parent_raises(self, fs):
        with pytest.raises(FileNotFoundVosError):
            fs.write_file("/missing/file", b"x")

    def test_read_missing_raises(self, fs):
        with pytest.raises(FileNotFoundVosError):
            fs.read_file("/nope")

    def test_read_directory_raises(self, fs):
        with pytest.raises(IsADirectoryVosError):
            fs.read_file("/data")

    def test_write_over_directory_raises(self, fs):
        with pytest.raises(IsADirectoryVosError):
            fs.write_file("/data", b"x")

    def test_remove(self, fs):
        fs.remove("/data/a.txt")
        assert not fs.exists("/data/a.txt")

    def test_remove_missing_raises(self, fs):
        with pytest.raises(FileNotFoundVosError):
            fs.remove("/ghost")

    def test_remove_directory_raises(self, fs):
        with pytest.raises(IsADirectoryVosError):
            fs.remove("/data")

    def test_size_of_file(self, fs):
        assert fs.size_of("/data/a.txt") == 5


class TestDirectories:
    def test_mkdir_and_listdir(self, fs):
        fs.mkdir("/data/sub")
        assert "sub" in fs.listdir("/data")

    def test_mkdir_parents(self, fs):
        fs.mkdir("/x/y/z", parents=True)
        assert fs.is_dir("/x/y/z")

    def test_mkdir_existing_raises(self, fs):
        with pytest.raises(FileExistsVosError):
            fs.mkdir("/data")

    def test_mkdir_exist_ok(self, fs):
        fs.mkdir("/data", exist_ok=True)

    def test_mkdir_without_parent_raises(self, fs):
        with pytest.raises(FileNotFoundVosError):
            fs.mkdir("/a/b/c")

    def test_listdir_on_file_raises(self, fs):
        with pytest.raises(NotADirectoryVosError):
            fs.listdir("/data/a.txt")

    def test_remove_tree(self, fs):
        fs.write_file("/data/sub/f", b"x", create_parents=True)
        fs.remove_tree("/data")
        assert not fs.exists("/data")

    def test_predicates(self, fs):
        assert fs.is_dir("/data")
        assert fs.is_file("/data/a.txt")
        assert not fs.is_dir("/data/a.txt")
        assert not fs.exists("/nope")


class TestSymlinks:
    def test_symlink_read_through(self, fs):
        fs.symlink("/data/link", "/data/a.txt")
        assert fs.read_file("/data/link") == b"hello"

    def test_readlink(self, fs):
        fs.symlink("/data/link", "/data/a.txt")
        assert fs.readlink("/data/link") == "/data/a.txt"

    def test_resolve_chain(self, fs):
        fs.symlink("/data/l1", "/data/a.txt")
        fs.symlink("/data/l2", "/data/l1")
        assert fs.resolve("/data/l2") == "/data/a.txt"

    def test_is_symlink(self, fs):
        fs.symlink("/data/link", "/data/a.txt")
        assert fs.is_symlink("/data/link")
        assert not fs.is_symlink("/data/a.txt")

    def test_symlink_loop_detected(self, fs):
        fs.symlink("/data/x", "/data/y")
        fs.symlink("/data/y", "/data/x")
        with pytest.raises(FileSystemError):
            fs.read_file("/data/x")

    def test_write_through_symlink(self, fs):
        fs.symlink("/data/link", "/data/a.txt")
        fs.write_file("/data/link", b"via link")
        assert fs.read_file("/data/a.txt") == b"via link"

    def test_symlink_over_existing_raises(self, fs):
        with pytest.raises(FileExistsVosError):
            fs.symlink("/data/a.txt", "/elsewhere")


class TestTraversal:
    @pytest.fixture
    def tree(self, fs):
        fs.write_file("/data/sub/deep.txt", b"abc", create_parents=True)
        fs.write_file("/other/b.bin", b"1234", create_parents=True)
        return fs

    def test_walk_yields_all_levels(self, tree):
        directories = [entry[0] for entry in tree.walk("/")]
        assert "/" in directories
        assert "/data/sub" in directories

    def test_all_files(self, tree):
        assert set(tree.all_files("/")) == {
            "/data/a.txt", "/data/sub/deep.txt", "/other/b.bin"}

    def test_all_files_scoped(self, tree):
        assert tree.all_files("/other") == ["/other/b.bin"]

    def test_size_of_directory_recursive(self, tree):
        assert tree.size_of("/data") == 8


class TestHostTransfer:
    def test_export_file(self, fs, tmp_path):
        written = fs.export_file("/data/a.txt", tmp_path / "out" / "a.txt")
        assert written == 5
        assert (tmp_path / "out" / "a.txt").read_bytes() == b"hello"

    @staticmethod
    def export_tree(fs, virtual_path, host_dir):
        """Copy a virtual subtree out file by file, as the packagers do."""
        for path in fs.all_files(virtual_path):
            relative = posixpath.relpath(path, virtual_path)
            fs.export_file(path, host_dir / relative)

    def test_import_tree_round_trip(self, fs, tmp_path):
        fs.write_file("/data/sub/x", b"12", create_parents=True)
        self.export_tree(fs, "/", tmp_path / "snapshot")
        fresh = VirtualFileSystem()
        count = fresh.import_tree(tmp_path / "snapshot", "/")
        assert count == 2
        assert fresh.read_file("/data/sub/x") == b"12"
        assert fresh.read_file("/data/a.txt") == b"hello"

    def test_import_into_prefix(self, fs, tmp_path):
        self.export_tree(fs, "/data", tmp_path / "d")
        fresh = VirtualFileSystem()
        fresh.import_tree(tmp_path / "d", "/restored")
        assert fresh.read_file("/restored/a.txt") == b"hello"
