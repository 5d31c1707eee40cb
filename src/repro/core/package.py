"""The on-disk LDV package format.

A package is a plain directory (so package size is measurable as the
byte total Figure 9 reports)::

    <pkg>/
      MANIFEST.json          kind, entry point, DB metadata, counters,
                             trace_format
      trace.json.gz          serialized combined execution trace
                             (gzip-compressed JSON)
      files/<path>           virtual-FS snapshot of every input file
      db/
        server/<path>        DB server binaries        (server-included)
        schema.sql           DDL for the shipped tables (server-included)
        restore/<table>.csv  relevant tuple versions    (server-included)
        data/.keep           the empty data directory of Table III
      replay/
        log.jsonl            ordered statement/result log (server-excluded)

The manifest's ``trace_format`` says how ``trace.json.gz`` is encoded;
a manifest without it is format 1. Packages are written in format 2
and read in either:

* **format 1** is :meth:`ExecutionTrace.to_json`: one object per node
  and per edge, each repeating its key names, ids and attributes;
* **format 2** is :meth:`ExecutionTrace.to_v2`, an interned, columnar
  encoding. The node table is sorted by id, and a node is an index
  into it. ``types`` lists the ``[kind, type, model, packed]``
  combinations and ``nodes.type`` gives each node's code. A tuple node
  is packed into the ``tuples`` columns (``table`` code into
  ``tuples.tables``, ``rowid``, ``version``), its id and attributes
  rebuilt on read; every other node is an ``[id, attrs]`` row of
  ``nodes.rows``, in node order. Edges are parallel ``src``/``dst``/
  ``label``/``begin``/``end`` integer columns, sorted as format 1 lists
  them, with ``label`` a code into ``labels``. A hasReturned edge's
  Lineage is ``lineage.nodes``, lists of node indices for the edges
  ``lineage.edges``; an id that is not a trace node is ``~i`` for
  ``lineage.ids[i]``. Other edge attributes are ``attrs``, ``[edge
  index, attrs]`` pairs. ``tuples``, ``lineage`` and ``attrs`` are left
  out when empty.

Both formats read back to the same :class:`ExecutionTrace`, checked as
it is rebuilt; a malformed trace raises one-line :class:`PackageError`.
"""

from __future__ import annotations

import enum
import gzip
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ManifestError, PackageError, ReproError
from repro.provenance.model import ProvenanceModel
from repro.provenance.trace import ExecutionTrace

FORMAT_VERSION = 1
# the trace encoding write_trace writes; read_trace reads these
TRACE_FORMAT = 2
TRACE_FORMATS = (1, 2)

MANIFEST_NAME = "MANIFEST.json"
TRACE_NAME = "trace.json.gz"
FILES_DIR = "files"
DB_DIR = "db"
SERVER_DIR = "db/server"
RESTORE_DIR = "db/restore"
SCHEMA_FILE = "db/schema.sql"
DATA_DIR = "db/data"
REPLAY_DIR = "replay"
REPLAY_LOG = "replay/log.jsonl"


class PackageKind(enum.Enum):
    SERVER_INCLUDED = "server-included"
    SERVER_EXCLUDED = "server-excluded"
    PTU = "ptu"  # the baseline format shares the layout


@dataclass
class Manifest:
    """Package metadata."""

    kind: PackageKind
    entry_binary: str
    entry_argv: list[str] = field(default_factory=list)
    db_server_name: str | None = None
    tables: list[str] = field(default_factory=list)
    format_version: int = FORMAT_VERSION
    notes: dict[str, Any] = field(default_factory=dict)
    trace_format: int = TRACE_FORMAT

    def to_json(self) -> dict[str, Any]:
        return {
            "format_version": self.format_version,
            "trace_format": self.trace_format,
            "kind": self.kind.value,
            "entry": {"binary": self.entry_binary,
                      "argv": self.entry_argv},
            "db": {"server_name": self.db_server_name,
                   "tables": self.tables},
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, data: Any) -> "Manifest":
        """Parse a manifest; any shape other than the one
        :meth:`to_json` writes raises a one-line :class:`ManifestError`."""
        data = _json_object(data, "the manifest")
        try:
            entry = _json_object(data["entry"], '"entry"')
            db = _json_object(data["db"], '"db"')
            return cls(
                kind=PackageKind(data["kind"]),
                entry_binary=entry["binary"],
                entry_argv=_json_strings(entry.get("argv", []),
                                         '"entry.argv"'),
                db_server_name=db.get("server_name"),
                tables=_json_strings(db.get("tables", []), '"db.tables"'),
                format_version=int(data.get("format_version", 0)),
                notes=dict(_json_object(data.get("notes", {}), '"notes"')),
                trace_format=int(data.get("trace_format", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc


_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
                    bool: "a boolean", int: "a number", float: "a number",
                    type(None): "null"}


def _json_type(value: Any) -> str:
    return _JSON_TYPE_NAMES.get(type(value), type(value).__name__)


def _json_object(value: Any, what: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ManifestError(f"malformed manifest: {what} must be an "
                            f"object, not {_json_type(value)}")
    return value


def _json_strings(value: Any, what: str) -> list[str]:
    if not isinstance(value, list):
        raise ManifestError(f"malformed manifest: {what} must be a list "
                            f"of strings, not {_json_type(value)}")
    for item in value:
        if not isinstance(item, str):
            raise ManifestError(
                f"malformed manifest: {what} must be a list of strings, "
                f"but holds {_json_type(item)}")
    return list(value)


class Package:
    """A package rooted at a host directory."""

    def __init__(self, root: str | Path, manifest: Manifest) -> None:
        self.root = Path(root)
        self.manifest = manifest

    # -- creation ----------------------------------------------------------------

    @classmethod
    def create(cls, root: str | Path, manifest: Manifest) -> "Package":
        root = Path(root)
        if root.exists() and any(root.iterdir()):
            raise PackageError(f"package directory {root} is not empty")
        root.mkdir(parents=True, exist_ok=True)
        package = cls(root, manifest)
        package.write_manifest()
        return package

    def write_manifest(self) -> None:
        (self.root / MANIFEST_NAME).write_text(
            json.dumps(self.manifest.to_json(), indent=2) + "\n")

    # -- loading ------------------------------------------------------------------

    @classmethod
    def load(cls, root: str | Path) -> "Package":
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise ManifestError(f"no {MANIFEST_NAME} in {root}")
        try:
            data = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
        manifest = Manifest.from_json(data)
        if manifest.format_version != FORMAT_VERSION:
            raise ManifestError(
                f"unsupported package format {manifest.format_version}")
        return cls(root, manifest)

    # -- content access -----------------------------------------------------------

    def write_text(self, relative: str, text: str) -> int:
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return len(text.encode())

    def write_trace(self, trace: ExecutionTrace) -> int:
        """Write the execution trace, in trace format 2 and
        gzip-compressed; returns the bytes written.

        Format 2 (see the module docstring) interns every node once and
        stores tuple nodes and edges as integer columns, so a trace of
        one node per result tuple stays small, and it is encoded
        straight from the trace's own tables.
        """
        if self.manifest.trace_format != TRACE_FORMAT:
            self.manifest.trace_format = TRACE_FORMAT
            self.write_manifest()
        # mtime=0 keeps the gzip header free of wall-clock time —
        # packages of identical traces must be byte-identical no
        # matter when they were written (the replica-of-record
        # invariant the chaos harness checks)
        payload = gzip.compress(json.dumps(
            trace.to_v2(), separators=(",", ":")).encode(), mtime=0)
        path = self.root / TRACE_NAME
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        return len(payload)

    def read_trace(self, model: ProvenanceModel) -> ExecutionTrace:
        """Load the execution trace, of either trace format, as a trace
        of ``model``.

        A truncated or bit-flipped ``trace.json.gz``, a payload that
        is not a trace of ``model``, or an unknown trace format raises
        a one-line :class:`PackageError` naming the fault, instead of
        leaking the exception it tripped over.
        """
        trace_format = self.manifest.trace_format
        if trace_format not in TRACE_FORMATS:
            raise PackageError(
                f"unsupported trace format {trace_format!r}")
        path = self.root / TRACE_NAME
        if not path.exists():
            raise PackageError("package has no execution trace")
        data = path.read_bytes()
        try:
            payload = gzip.decompress(data)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise PackageError(
                f"corrupt {TRACE_NAME}: cannot decompress "
                f"({type(exc).__name__}: {exc})") from exc
        try:
            document = json.loads(payload)
        except (ValueError, RecursionError) as exc:
            raise PackageError(
                f"corrupt {TRACE_NAME}: not valid JSON "
                f"({type(exc).__name__}: {exc})") from exc
        if not isinstance(document, dict):
            raise PackageError(
                f"corrupt {TRACE_NAME}: a {type(document).__name__}, "
                "not a trace object")
        if document.get("model") != model.name:
            raise PackageError(
                f"corrupt {TRACE_NAME}: a trace of model "
                f"{document.get('model')!r}, not {model.name!r}")
        try:
            if trace_format == 1:
                return ExecutionTrace.from_json(document, model)
            return ExecutionTrace.from_v2(document, model)
        except KeyError as exc:
            raise PackageError(
                f"corrupt {TRACE_NAME}: missing field {exc}") from exc
        except (ReproError, TypeError, ValueError, IndexError,
                AttributeError) as exc:
            raise PackageError(
                f"corrupt {TRACE_NAME}: {type(exc).__name__}: "
                f"{exc}") from exc

    def read_text(self, relative: str) -> str:
        path = self.root / relative
        if not path.exists():
            raise PackageError(f"package has no {relative}")
        return path.read_text()

    def has(self, relative: str) -> bool:
        return (self.root / relative).exists()

    def file_path(self, virtual_path: str) -> Path:
        """Host location of a packaged virtual-FS file."""
        return self.root / FILES_DIR / virtual_path.lstrip("/")

    def restore_tables(self) -> list[str]:
        """Table names that have a restore CSV."""
        restore = self.root / RESTORE_DIR
        if not restore.is_dir():
            return []
        return sorted(path.stem for path in restore.glob("*.csv"))

    # -- archiving --------------------------------------------------------------------

    def archive(self, archive_path: str | Path) -> Path:
        """Bundle the package directory into a ``.tar.gz`` — the form
        a researcher actually mails around. Returns the archive path.
        Runtime scratch state (``.runtime``/``.scratch*``) is left
        out: replay regenerates it."""
        import tarfile

        archive_path = Path(archive_path)
        archive_path.parent.mkdir(parents=True, exist_ok=True)

        def keep(tarinfo):
            parts = Path(tarinfo.name).parts
            if any(part.startswith((".runtime", ".scratch"))
                   for part in parts):
                return None
            return tarinfo

        with tarfile.open(archive_path, "w:gz") as archive:
            archive.add(self.root, arcname=".", filter=keep)
        return archive_path

    @classmethod
    def from_archive(cls, archive_path: str | Path,
                     extract_to: str | Path) -> "Package":
        """Unpack an archived package and load it."""
        import tarfile

        extract_to = Path(extract_to)
        if extract_to.exists() and any(extract_to.iterdir()):
            raise PackageError(
                f"extraction target {extract_to} is not empty")
        extract_to.mkdir(parents=True, exist_ok=True)
        try:
            with tarfile.open(archive_path, "r:gz") as archive:
                archive.extractall(extract_to, filter="data")
        except (OSError, tarfile.TarError) as exc:
            raise PackageError(
                f"cannot unpack {archive_path}: {exc}") from exc
        return cls.load(extract_to)

    # -- measurement ------------------------------------------------------------------

    def total_bytes(self) -> int:
        """Total package size in bytes (what Figure 9 plots)."""
        return sum(path.stat().st_size
                   for path in self.root.rglob("*") if path.is_file())

    def breakdown(self) -> dict[str, int]:
        """Bytes per top-level component."""
        sizes: dict[str, int] = {}
        for path in self.root.rglob("*"):
            if not path.is_file():
                continue
            relative = path.relative_to(self.root)
            top = relative.parts[0]
            if top == DB_DIR.split("/")[0] and len(relative.parts) > 1:
                top = f"{relative.parts[0]}/{relative.parts[1]}"
            sizes[top] = sizes.get(top, 0) + path.stat().st_size
        return sizes

    def contents_summary(self) -> dict[str, bool]:
        """The Table III checklist for this package."""
        data_dir = self.root / DATA_DIR
        data_files = [path for path in data_dir.rglob("*")
                      if path.is_file() and path.name != ".keep"] \
            if data_dir.is_dir() else []
        return {
            "software_binaries": (self.root / FILES_DIR).is_dir(),
            "db_server": (self.root / SERVER_DIR).is_dir(),
            "full_data_files": bool(data_files),
            "empty_data_dir": data_dir.is_dir() and not data_files,
            "db_provenance": (self.has(SCHEMA_FILE)
                              and bool(self.restore_tables()))
            or self.has(REPLAY_LOG),
        }
