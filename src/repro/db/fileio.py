"""File-system primitives behind the durability layer.

Every byte the engine persists — table checkpoints, the write-ahead log,
checkpoint metadata — flows through one :class:`FileIO` instance. That
gives the durability code a single narrow surface where faults can be
interposed (:class:`repro.faults.FaultyIO`) without monkey-patching, and
it is where the atomic-write protocol (temp file → fsync → rename) lives
so every caller gets it right.

Each primitive takes a ``point`` label: a stable, logical name for *why*
the operation happens (``"wal.append"``, ``"checkpoint.table.rename"``).
The base class ignores it; the fault injector keys its crash/torn-write
schedule on it.
"""

from __future__ import annotations

import os
from pathlib import Path


class FileIO:
    """Primitive file operations, each tagged with an injection point."""

    def exists(self, path: str | Path) -> bool:
        return Path(path).exists()

    def read_bytes(self, path: str | Path) -> bytes:
        return Path(path).read_bytes()

    def write_bytes(self, path: str | Path, data: bytes,
                    point: str = "io.write") -> None:
        """Create or fully overwrite ``path`` (not atomic by itself)."""
        Path(path).write_bytes(data)

    def append_bytes(self, path: str | Path, data: bytes,
                     point: str = "io.append") -> None:
        with open(path, "ab") as handle:
            handle.write(data)

    def fsync(self, path: str | Path, point: str = "io.fsync") -> None:
        """Force ``path``'s content to stable storage."""
        fd = os.open(str(path), os.O_RDWR)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def rename(self, src: str | Path, dst: str | Path,
               point: str = "io.rename") -> None:
        """Atomically replace ``dst`` with ``src``, then sync the
        directory entry."""
        os.replace(str(src), str(dst))
        try:
            dir_fd = os.open(str(Path(dst).parent), os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover - not all filesystems allow it
            pass
        finally:
            os.close(dir_fd)

    def truncate(self, path: str | Path, size: int,
                 point: str = "io.truncate") -> None:
        with open(path, "rb+") as handle:
            handle.truncate(size)

    def unlink(self, path: str | Path, point: str = "io.unlink") -> None:
        Path(path).unlink(missing_ok=True)

    def atomic_write_bytes(self, path: str | Path, data: bytes,
                           point: str = "io.atomic") -> None:
        """Crash-safe full-file replacement.

        Writes a sibling temp file, fsyncs it, then renames it over the
        target — at every intermediate crash the old file is intact.
        The three steps surface as ``<point>.write``, ``<point>.fsync``,
        and ``<point>.rename`` injection points.
        """
        target = Path(path)
        temp = target.with_name(target.name + ".tmp")
        self.write_bytes(temp, data, point=f"{point}.write")
        self.fsync(temp, point=f"{point}.fsync")
        self.rename(temp, target, point=f"{point}.rename")
