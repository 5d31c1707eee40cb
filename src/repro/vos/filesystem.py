"""An in-memory POSIX-flavoured virtual filesystem.

Paths are absolute, ``/``-separated strings. The tree holds three node
kinds — directories, regular files (bytes content), and symlinks — and
supports the operations the LDV pipeline needs: create/read/write,
symlink resolution, recursive walks, and bidirectional transfer to a
*host* directory (packaging exports the audited files to a real
directory on disk; replay imports a package back into a fresh virtual
filesystem rooted at the package).
"""

from __future__ import annotations

import posixpath
from pathlib import Path
from typing import Iterator

from repro.errors import (
    FileExistsVosError,
    FileNotFoundVosError,
    FileSystemError,
    IsADirectoryVosError,
    NotADirectoryVosError,
)

_MAX_SYMLINK_HOPS = 16


class _Node:
    __slots__ = ()


class _Directory(_Node):
    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[str, _Node] = {}


class _File(_Node):
    __slots__ = ("content",)

    def __init__(self, content: bytes = b"") -> None:
        self.content = content


class _Symlink(_Node):
    __slots__ = ("target",)

    def __init__(self, target: str) -> None:
        self.target = target


def normalize(path: str) -> str:
    """Normalize to an absolute, ``..``-free POSIX path."""
    if not path.startswith("/"):
        raise FileSystemError(f"virtual paths must be absolute: {path!r}")
    return posixpath.normpath(path)


class VirtualFileSystem:
    """The virtual file tree."""

    def __init__(self) -> None:
        self._root = _Directory()

    # -- path traversal ----------------------------------------------------------

    def _lookup(self, path: str, follow: bool = True,
                _hops: int = 0) -> _Node:
        if _hops > _MAX_SYMLINK_HOPS:
            raise FileSystemError(f"too many symlink hops at {path!r}")
        node: _Node = self._root
        parts = [part for part in normalize(path).split("/") if part]
        for index, part in enumerate(parts):
            if isinstance(node, _Symlink):
                node = self._lookup(node.target, True, _hops + 1)
            if not isinstance(node, _Directory):
                raise NotADirectoryVosError(
                    f"{'/'.join(parts[:index])!r} is not a directory")
            child = node.entries.get(part)
            if child is None:
                raise FileNotFoundVosError(f"no such path: {path!r}")
            node = child
        if follow and isinstance(node, _Symlink):
            node = self._lookup(node.target, True, _hops + 1)
        return node

    def _parent_of(self, path: str) -> tuple[_Directory, str]:
        normalized = normalize(path)
        parent_path, name = posixpath.split(normalized)
        if not name:
            raise FileSystemError("cannot operate on the root directory")
        parent = self._lookup(parent_path)
        if isinstance(parent, _Symlink):
            parent = self._lookup(parent.target)
        if not isinstance(parent, _Directory):
            raise NotADirectoryVosError(
                f"{parent_path!r} is not a directory")
        return parent, name

    # -- predicates --------------------------------------------------------------

    def exists(self, path: str) -> bool:
        try:
            self._lookup(path)
            return True
        except FileSystemError:
            return False

    def is_dir(self, path: str) -> bool:
        try:
            return isinstance(self._lookup(path), _Directory)
        except FileSystemError:
            return False

    def is_file(self, path: str) -> bool:
        try:
            return isinstance(self._lookup(path), _File)
        except FileSystemError:
            return False

    def is_symlink(self, path: str) -> bool:
        try:
            return isinstance(self._lookup(path, follow=False), _Symlink)
        except FileSystemError:
            return False

    # -- directories --------------------------------------------------------------

    def mkdir(self, path: str, parents: bool = False,
              exist_ok: bool = False) -> None:
        normalized = normalize(path)
        if normalized == "/":
            if exist_ok:
                return
            raise FileExistsVosError("root directory always exists")
        if parents:
            parent_path = posixpath.dirname(normalized)
            if parent_path != "/" and not self.exists(parent_path):
                self.mkdir(parent_path, parents=True, exist_ok=True)
        parent, name = self._parent_of(normalized)
        existing = parent.entries.get(name)
        if existing is not None:
            if exist_ok and isinstance(existing, _Directory):
                return
            raise FileExistsVosError(f"path already exists: {path!r}")
        parent.entries[name] = _Directory()

    def listdir(self, path: str) -> list[str]:
        node = self._lookup(path)
        if not isinstance(node, _Directory):
            raise NotADirectoryVosError(f"{path!r} is not a directory")
        return sorted(node.entries)

    # -- files --------------------------------------------------------------------

    def write_file(self, path: str, content: bytes | str,
                   create_parents: bool = False) -> None:
        if isinstance(content, str):
            content = content.encode()
        normalized = normalize(path)
        if create_parents:
            parent_path = posixpath.dirname(normalized)
            if not self.exists(parent_path):
                self.mkdir(parent_path, parents=True, exist_ok=True)
        parent, name = self._parent_of(normalized)
        existing = parent.entries.get(name)
        if isinstance(existing, _Directory):
            raise IsADirectoryVosError(f"{path!r} is a directory")
        if isinstance(existing, _Symlink):
            self.write_file(existing.target, content, create_parents)
            return
        parent.entries[name] = _File(content)

    def append_file(self, path: str, content: bytes | str) -> None:
        if isinstance(content, str):
            content = content.encode()
        if not self.exists(path):
            self.write_file(path, content)
            return
        node = self._lookup(path)
        if not isinstance(node, _File):
            raise IsADirectoryVosError(f"{path!r} is not a regular file")
        node.content += content

    def read_file(self, path: str) -> bytes:
        node = self._lookup(path)
        if isinstance(node, _Directory):
            raise IsADirectoryVosError(f"{path!r} is a directory")
        assert isinstance(node, _File)
        return node.content

    def read_text(self, path: str) -> str:
        return self.read_file(path).decode()

    def write_text(self, path: str, text: str,
                   create_parents: bool = False) -> None:
        self.write_file(path, text.encode(), create_parents)

    def size_of(self, path: str) -> int:
        node = self._lookup(path)
        if isinstance(node, _File):
            return len(node.content)
        if isinstance(node, _Directory):
            return sum(self.size_of(posixpath.join(normalize(path), name))
                       for name in node.entries)
        return 0  # pragma: no cover - symlinks resolve above

    def remove(self, path: str) -> None:
        """Remove a file or symlink (not a directory)."""
        parent, name = self._parent_of(path)
        node = parent.entries.get(name)
        if node is None:
            raise FileNotFoundVosError(f"no such path: {path!r}")
        if isinstance(node, _Directory):
            raise IsADirectoryVosError(f"{path!r} is a directory")
        del parent.entries[name]

    def remove_tree(self, path: str) -> None:
        """Remove a directory recursively."""
        parent, name = self._parent_of(path)
        if name not in parent.entries:
            raise FileNotFoundVosError(f"no such path: {path!r}")
        del parent.entries[name]

    # -- symlinks --------------------------------------------------------------------

    def symlink(self, link_path: str, target: str) -> None:
        parent, name = self._parent_of(link_path)
        if name in parent.entries:
            raise FileExistsVosError(f"path already exists: {link_path!r}")
        parent.entries[name] = _Symlink(normalize(target))

    def readlink(self, path: str) -> str:
        node = self._lookup(path, follow=False)
        if not isinstance(node, _Symlink):
            raise FileSystemError(f"{path!r} is not a symlink")
        return node.target

    def resolve(self, path: str) -> str:
        """Fully resolve symlinks, returning the canonical file path."""
        normalized = normalize(path)
        node = self._lookup(normalized, follow=False)
        hops = 0
        while isinstance(node, _Symlink):
            hops += 1
            if hops > _MAX_SYMLINK_HOPS:
                raise FileSystemError(f"too many symlink hops at {path!r}")
            normalized = node.target
            node = self._lookup(normalized, follow=False)
        return normalized

    # -- traversal ----------------------------------------------------------------------

    def walk(self, path: str = "/") -> Iterator[tuple[str, list[str], list[str]]]:
        """Like :func:`os.walk` over the virtual tree (symlinks listed
        as files, not followed)."""
        node = self._lookup(path)
        if not isinstance(node, _Directory):
            raise NotADirectoryVosError(f"{path!r} is not a directory")
        normalized = normalize(path)
        directories: list[str] = []
        files: list[str] = []
        for name in sorted(node.entries):
            child = node.entries[name]
            if isinstance(child, _Directory):
                directories.append(name)
            else:
                files.append(name)
        yield normalized, directories, files
        for name in directories:
            yield from self.walk(posixpath.join(normalized, name))

    def all_files(self, path: str = "/") -> list[str]:
        """Every regular-file and symlink path under ``path``."""
        found: list[str] = []
        for directory, _subdirs, files in self.walk(path):
            for name in files:
                found.append(posixpath.join(directory, name))
        return found

    # -- host transfer -------------------------------------------------------------------

    def export_file(self, virtual_path: str, host_path: Path) -> int:
        """Copy one virtual file (following symlinks) to the host disk,
        creating parent directories. Returns the bytes written."""
        content = self.read_file(virtual_path)
        host_path.parent.mkdir(parents=True, exist_ok=True)
        host_path.write_bytes(content)
        return len(content)

    def import_tree(self, host_dir: Path, virtual_path: str = "/") -> int:
        """Load a host directory into the virtual tree. Returns the
        number of files imported."""
        base = normalize(virtual_path)
        self.mkdir(base, parents=True, exist_ok=True)
        count = 0
        for host_path in sorted(Path(host_dir).rglob("*")):
            relative = host_path.relative_to(host_dir).as_posix()
            target = posixpath.join(base, relative)
            if host_path.is_dir():
                self.mkdir(target, parents=True, exist_ok=True)
            elif host_path.is_file():
                self.write_file(target, host_path.read_bytes(),
                                create_parents=True)
                count += 1
        return count
