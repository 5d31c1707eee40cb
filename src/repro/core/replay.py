"""Re-executing packages (Section VIII).

:class:`ReplaySession` drives re-execution in two explicit phases so
benchmarks can time them separately (Figure 7b plots "Initialization"
as its own bar):

1. :meth:`prepare` — build a fresh virtual OS, import the package's
   file snapshot (the chroot-like environment), and either

   * **server-included**: boot a new, in-memory DB server inside the
     package scope — run ``schema.sql``, bulk-load the relevant tuple
     versions with their original rowids/versions, register the server
     under its original name — or
   * **server-excluded**: load the replay log and arrange for every
     new client to be intercepted by a :class:`ReplayInterceptor`
     that substitutes recorded results (writes are matched and
     acknowledged, never executed).

2. :meth:`run` — execute the entry program (or any other packaged
   binary, for partial re-execution).

Programs are Python callables, so behaviour comes from a *registry*
mapping binary paths to callables (our stand-in for "compatible
architecture" in application virtualization); the package supplies the
binary files themselves and replay refuses to run binaries that are
not in the package.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

from repro.db import csvio, protocol
from repro.db.client import DBClient, Interceptor
from repro.db.engine import Database, StatementResult
from repro.errors import (
    DatabaseError,
    PackageError,
    ProtocolError,
    ReplayError,
    ReplayMismatchError,
)
from repro.monitor.dbmonitor import ReplayLog
from repro.core import package as pkg
from repro.core.package import Package, PackageKind
from repro.vos.kernel import VirtualOS
from repro.vos.process import Process
from repro.vos.ptrace import Tracer
from repro.vos.syscalls import SyscallEvent, SyscallName

Registry = Mapping[str, Callable]

_WHITESPACE = re.compile(r"\s+")


def normalize_sql(sql: str) -> str:
    """The statement-matching normalization: collapse whitespace,
    strip trailing semicolons. Replay demands the same statements in
    the same order (Section VIII); cosmetic spacing may differ."""
    return _WHITESPACE.sub(" ", sql).strip().rstrip(";").strip()


class ReplayInterceptor(Interceptor):
    """Substitutes recorded results for statements, in log order.

    With ``allow_skip`` (partial re-execution), statements recorded
    before the replayed part are skipped until a match is found;
    without it, any deviation from the recorded order fails fast.
    """

    def __init__(self, log: ReplayLog, allow_skip: bool = False) -> None:
        self.log = log
        self.allow_skip = allow_skip
        self.position = 0
        self.replayed = 0

    def before_execute(self, client: DBClient, sql: str,
                       provenance: bool) -> Optional[StatementResult]:
        wanted = normalize_sql(sql)
        index = self.position
        while index < len(self.log.entries):
            entry = self.log.entries[index]
            if normalize_sql(entry.sql) == wanted:
                self.position = index + 1
                self.replayed += 1
                try:
                    return protocol.result_from_wire(entry.result_frame)
                except ProtocolError as exc:
                    raise PackageError(
                        f"replay log entry {entry.index}: {exc}") from exc
            if not self.allow_skip:
                raise ReplayMismatchError(
                    "statement does not match the recorded execution "
                    "trace", expected=entry.sql, actual=sql)
            index += 1
        raise ReplayMismatchError(
            "no recorded result for statement (log exhausted)",
            expected=None, actual=sql)


def _stub_transport(request_text: str) -> str:
    """The 'simulated DB' endpoint of a server-excluded replay: it
    accepts connections and their close, but can answer no queries —
    the interceptor must have substituted every result before this
    point."""
    frame = protocol.decode_frame(request_text)
    kind = frame.get("frame")
    if kind == "connect":
        client_version = frame.get("version", 1)
        response = protocol.connected_frame(
            1, min(protocol.PROTOCOL_VERSION, client_version))
    elif kind == "close":
        response = protocol.closed_frame()
    else:
        response = protocol.error_frame(
            "ReplayError",
            "server-excluded package cannot execute statements")
    return protocol.encode_frame(response)


class _WriteCollector(Tracer):
    """Tracks files written during replay (the replay outputs)."""

    def __init__(self) -> None:
        self.paths: set[str] = set()

    def on_syscall(self, event: SyscallEvent) -> None:
        if event.name is SyscallName.WRITE:
            self.paths.add(event.arg("path"))


@dataclass
class ReplayResult:
    """The outcome of one package re-execution."""

    process: Process
    outputs: dict[str, bytes]
    replayed_statements: int = 0
    restored_tuples: int = 0
    # path -> True/False for every output the audit recorded a digest
    # for and this replay produced (validation, Section III)
    output_matches: dict[str, bool] = None  # type: ignore[assignment]

    @property
    def validated(self) -> bool:
        """True when every comparable output matched the recorded
        digest (vacuously true if the package has no digests)."""
        if not self.output_matches:
            return True
        return all(self.output_matches.values())


class ReplaySession:
    """Prepares and runs one package re-execution.

    The replay server's database lives in memory: :meth:`prepare`
    rebuilds it from the package every time and nothing reads it back,
    so it has no WAL, no fsyncs and no checkpoint, and replay writes
    nothing into the package directory. ``scratch_dir`` is accepted for
    older callers and ignored.
    """

    def __init__(self, package_dir: str | Path, registry: Registry,
                 scratch_dir: str | Path | None = None,
                 allow_skip: bool = False) -> None:
        self.package = Package.load(package_dir)
        self.registry = dict(registry)
        self.allow_skip = allow_skip
        self.vos: Optional[VirtualOS] = None
        self.database: Optional[Database] = None
        self.restored_tuples = 0
        self._interceptors: list[ReplayInterceptor] = []
        self._writes = _WriteCollector()
        self._prepared = False

    # -- phase 1: initialization -----------------------------------------------------

    def prepare(self) -> None:
        """Import the file snapshot and initialize the DB side."""
        if self._prepared:
            raise ReplayError("replay session already prepared")
        vos = VirtualOS()
        files_root = self.package.root / pkg.FILES_DIR
        if files_root.is_dir():
            vos.fs.import_tree(files_root, "/")
        self._bind_programs(vos)
        kind = self.package.manifest.kind
        if kind in (PackageKind.SERVER_INCLUDED, PackageKind.PTU):
            self._prepare_server_included(vos)
        elif kind is PackageKind.SERVER_EXCLUDED:
            self._prepare_server_excluded(vos)
        vos.attach_tracer(self._writes)
        self.vos = vos
        self._prepared = True

    def _bind_programs(self, vos: VirtualOS) -> None:
        bound = 0
        for binary_path, fn in self.registry.items():
            if vos.fs.is_file(binary_path):
                vos.bind_program(binary_path, fn)
                bound += 1
        entry = self.package.manifest.entry_binary
        if not vos.fs.is_file(entry):
            raise PackageError(
                f"package is missing its entry binary {entry!r}")
        if not vos.has_program(entry):
            raise PackageError(
                f"no registered program for entry binary {entry!r}")

    def _prepare_server_included(self, vos: VirtualOS) -> None:
        """Boot a fresh server and restore the relevant tuples
        ("we restore these tuples before any query occurs")."""
        from repro.db.server import DBServer  # local: avoid cycle

        server_name = self.package.manifest.db_server_name
        if server_name is None:
            raise PackageError("server-included package without a "
                               "DB server name")
        database = Database(clock=vos.clock)
        # the packaged server lives inside the package's chroot-like
        # environment: COPY statements must read/write the virtual FS
        database.read_file = vos.fs.read_text
        database.write_file = (
            lambda path, text: vos.fs.write_text(path, text,
                                                 create_parents=True))
        if self.package.has(pkg.SCHEMA_FILE):
            database.execute_script(self.package.read_text(pkg.SCHEMA_FILE))
        if self.package.manifest.kind is PackageKind.PTU:
            self._restore_full_data(database)
        else:
            self._restore_relevant_tuples(database)
        database.resume_clock()
        vos.register_db_server(server_name, DBServer(database).transport())
        self.database = database

    def _restore_relevant_tuples(self, database: Database) -> None:
        """Restore the shipped tuple versions, as many as the manifest
        says were relevant: missing or cut restore CSVs would replay
        over too few tuples and only show in the output digests."""
        for table_name in self.package.restore_tables():
            relative = f"{pkg.RESTORE_DIR}/{table_name}.csv"
            if not database.catalog.has_table(table_name):
                raise PackageError(
                    f"{relative}: {pkg.SCHEMA_FILE} creates no table "
                    f"{table_name!r}")
            heap = database.catalog.get_table(table_name)
            text = self.package.read_text(relative)
            try:
                body = csvio.parse_versioned_rows(text, heap.schema)
                body.install_into(heap)
            except DatabaseError as exc:
                raise PackageError(f"{relative} {exc}") from exc
            self.restored_tuples += len(body)
        expected = self.package.manifest.notes.get("relevant_tuples")
        if expected is not None and self.restored_tuples != expected:
            raise PackageError(
                f"restore CSVs hold {self.restored_tuples} tuple "
                f"versions, the manifest records {expected} relevant ones")

    def _restore_full_data(self, database: Database) -> None:
        """PTU packages carry complete table files under db/data;
        they are read and attached in memory."""
        from repro.db.storage import read_table_file

        data_dir = self.package.root / pkg.DATA_DIR
        for path in sorted(data_dir.glob("*.tbl")):
            table = read_table_file(path)
            database.catalog.attach_table(table)
            self.restored_tuples += table.row_count

    def _prepare_server_excluded(self, vos: VirtualOS) -> None:
        manifest = self.package.manifest
        server_names = set(manifest.notes.get("db_servers", ()))
        if manifest.db_server_name is not None:
            server_names.add(manifest.db_server_name)
        if not server_names:
            raise PackageError("server-excluded package without a "
                               "DB server name")
        log = ReplayLog.from_jsonl(self.package.read_text(pkg.REPLAY_LOG))
        # one shared interceptor: the log is a single ordered stream,
        # regardless of how many servers the application talked to
        interceptor = ReplayInterceptor(log, allow_skip=self.allow_skip)
        self._interceptors.append(interceptor)
        for server_name in server_names:
            vos.register_db_server(server_name, _stub_transport)
        vos.client_decorators.append(
            lambda client, process: client.add_interceptor(interceptor))

    # -- phase 2: execution -------------------------------------------------------------

    def run(self, binary: str | None = None,
            argv: list[str] | None = None) -> ReplayResult:
        """Execute the entry program (or ``binary`` for partial
        re-execution) inside the restored environment."""
        if not self._prepared:
            raise ReplayError("call prepare() before run()")
        assert self.vos is not None
        manifest = self.package.manifest
        target = binary or manifest.entry_binary
        target_argv = argv if argv is not None else manifest.entry_argv
        process = self.vos.run(target, target_argv)
        outputs = {
            path: self.vos.fs.read_file(path)
            for path in sorted(self._writes.paths)
            if self.vos.fs.is_file(path)}
        replayed = sum(interceptor.replayed
                       for interceptor in self._interceptors)
        recorded = self.package.manifest.notes.get("output_digests", {})
        matches = {
            path: hashlib.sha256(content).hexdigest() == recorded[path]
            for path, content in outputs.items() if path in recorded}
        return ReplayResult(
            process=process,
            outputs=outputs,
            replayed_statements=replayed,
            restored_tuples=self.restored_tuples,
            output_matches=matches)


def ldv_exec(package_dir: str | Path, registry: Registry,
             binary: str | None = None, argv: list[str] | None = None,
             allow_skip: bool = False) -> ReplayResult:
    """One-shot re-execution: prepare + run (the ``ldv-exec`` command)."""
    session = ReplaySession(package_dir, registry, allow_skip=allow_skip)
    session.prepare()
    return session.run(binary, argv)
