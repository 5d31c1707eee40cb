"""PTU packaging (Pham, Malik, Foster — TaPP 2013).

The paper's main packaging baseline: the application is audited at the
OS level (ptrace), and the resulting package contains all files it
accessed *including the DB server binaries and the complete data
files* — PTU has no DB provenance, so it cannot slice the database
(Table III, first row). The server is started and stopped by the
experiment so its data files are consistent on disk when packaging
copies them (Section IX-A).

Replay uses the standard server-included machinery: the full data
files boot a complete database, so every query behaves as in the
original run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.db.engine import Database
from repro.errors import PackageError
from repro.monitor.session import OS_ONLY, AuditSession
from repro.core import package as pkg
from repro.core.package import Manifest, Package, PackageKind
from repro.vos.kernel import VirtualOS
from repro.vos.process import Process


@dataclass
class PTUPackagingResult:
    package: Package
    process: Process
    total_bytes: int
    file_count: int
    data_bytes: int


def build_ptu_package(vos: VirtualOS, entry_binary: str,
                      out_dir: str | Path, database: Database,
                      server_name: str,
                      server_binary_paths: Sequence[str],
                      argv: list[str] | None = None,
                      ) -> PTUPackagingResult:
    """Audit at the OS level only and package the full DB.

    ptrace-based packagers copy a file when it is *first accessed*, so
    the DB data files enter the package in their pre-application state
    (the server reads them at startup, before the application writes).
    Copying them after the run would ship tuples the application
    created and replay would hit the duplicate-insert problem Section
    II describes — so the snapshot is taken up front.
    """
    data_directory = database.catalog.data_directory
    if data_directory is None:
        raise PackageError(
            "PTU packaging needs a database with an on-disk data "
            "directory (its package contains the full data files)")
    # snapshot the data files as of server startup (first access)
    database.checkpoint()
    data_snapshot = {
        table_file.name: table_file.read_bytes()
        for table_file in sorted(data_directory.path.glob("*.tbl"))}
    with AuditSession(vos, OS_ONLY) as session:
        process = vos.run(entry_binary, list(argv or []))
    manifest = Manifest(
        kind=PackageKind.PTU,
        entry_binary=entry_binary,
        entry_argv=list(argv or []),
        db_server_name=server_name,
        tables=database.catalog.table_names(),
        notes={"flavor": "ptu"},
    )
    package = Package.create(out_dir, manifest)
    package.write_trace(session.trace)
    # PTU packages enable validation too (its original selling point)
    import hashlib
    digests = {}
    for virtual_path in sorted(session.ptu.written_paths):
        if vos.fs.is_file(virtual_path):
            digests[virtual_path] = hashlib.sha256(
                vos.fs.read_file(virtual_path)).hexdigest()
    package.manifest.notes["output_digests"] = digests
    package.write_manifest()
    file_count = 0
    for virtual_path in sorted(session.input_paths()):
        vos.fs.export_file(virtual_path, package.file_path(virtual_path))
        file_count += 1
    for virtual_path in server_binary_paths:
        vos.fs.export_file(
            virtual_path,
            package.root / pkg.SERVER_DIR / virtual_path.lstrip("/"))
        file_count += 1
    # the complete data files, in their first-access (pre-run) state
    data_bytes = 0
    data_out = package.root / pkg.DATA_DIR
    data_out.mkdir(parents=True, exist_ok=True)
    for name, content in data_snapshot.items():
        (data_out / name).write_bytes(content)
        data_bytes += len(content)
        file_count += 1
    return PTUPackagingResult(
        package=package,
        process=process,
        total_bytes=package.total_bytes(),
        file_count=file_count,
        data_bytes=data_bytes)
