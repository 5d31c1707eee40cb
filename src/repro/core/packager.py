"""Package construction (Section VII-D).

:class:`Packager` turns a completed :class:`AuditSession` into an
on-disk package. Common to both kinds: the input-file snapshot (the
chroot-like environment of application virtualization) and the
serialized execution trace. Then:

* **server-included** — DB server binaries, ``schema.sql`` for every
  shipped table, and one restore CSV per table holding the *relevant
  tuple versions* (never the raw data files: the package's data
  directory is empty, per Table III),
* **server-excluded** — no server, no tuples; just the recorded
  statement/result log for replay.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.db import csvio
from repro.db.engine import Database
from repro.db.sql import ast
from repro.db.sql.render import render_statement
from repro.errors import PackageError
from repro.monitor.session import (
    SERVER_EXCLUDED,
    SERVER_INCLUDED,
    AuditSession,
)
from repro.core import package as pkg
from repro.core.package import Manifest, Package, PackageKind
from repro.vos.kernel import VirtualOS


@dataclass
class PackagingResult:
    """What was built, and how big it came out."""

    package: Package
    total_bytes: int
    file_count: int
    tuple_count: int = 0
    replayed_statements: int = 0
    breakdown: dict[str, int] = field(default_factory=dict)


def schema_sql_for(database: Database, tables: Iterable[str]) -> str:
    """Generate the DDL (tables + indexes) for the given tables from
    the live catalog."""
    statements = []
    for name in sorted(set(tables)):
        table = database.catalog.get_table(name)
        columns = tuple(
            ast.ColumnDef(
                name=column.name,
                type_name=column.sql_type.value,
                not_null=column.not_null and not column.primary_key,
                primary_key=column.primary_key)
            for column in table.schema.columns)
        statements.append(render_statement(
            ast.CreateTable(name, columns)) + ";")
        for index in table.indexes.values():
            statements.append(render_statement(
                ast.CreateIndex(index.name, name, index.column)) + ";")
    return "\n".join(statements) + ("\n" if statements else "")


class Packager:
    """Builds packages from one audited run."""

    def __init__(self, vos: VirtualOS, session: AuditSession,
                 entry_binary: str,
                 entry_argv: Sequence[str] = ()) -> None:
        self.vos = vos
        self.session = session
        self.entry_binary = entry_binary
        self.entry_argv = list(entry_argv)

    # -- shared pieces --------------------------------------------------------------

    def _write_common(self, package: Package) -> int:
        """Input-file snapshot + execution trace + output digests.

        The digests of the files the audited run *wrote* go into the
        manifest so re-execution can be validated, not just repeated —
        the provenance-enables-validation argument of Section III.
        Returns the number of files snapshotted.
        """
        count = 0
        for virtual_path in sorted(self.session.input_paths()):
            self.vos.fs.export_file(virtual_path,
                                    package.file_path(virtual_path))
            count += 1
        package.write_trace(self.session.trace)
        digests = {}
        for virtual_path in sorted(self.session.ptu.written_paths):
            if self.vos.fs.is_file(virtual_path):
                content = self.vos.fs.read_file(virtual_path)
                digests[virtual_path] = hashlib.sha256(
                    content).hexdigest()
        package.manifest.notes["output_digests"] = digests
        package.manifest.notes["db_servers"] = sorted(
            self.session.ptu.connected_servers)
        package.write_manifest()
        return count

    # -- server-included -----------------------------------------------------------------

    def build_server_included(self, out_dir: str | Path,
                              database: Database,
                              server_name: str,
                              server_binary_paths: Sequence[str],
                              ) -> PackagingResult:
        """Build a server-included package (needs server file access)."""
        if self.session.mode != SERVER_INCLUDED:
            raise PackageError(
                "session was not audited in server-included mode")
        # drain the WAL so the schema and tuple versions we package come
        # from a crash-consistent image of committed state (a no-op for
        # in-memory databases)
        database.checkpoint()
        store = self.session.relevant_tuples
        tables = self._tables_to_ship(database)
        manifest = Manifest(
            kind=PackageKind.SERVER_INCLUDED,
            entry_binary=self.entry_binary,
            entry_argv=self.entry_argv,
            db_server_name=server_name,
            tables=tables,
            notes={"relevant_tuples": store.tuple_count},
        )
        package = Package.create(out_dir, manifest)
        file_count = self._write_common(package)
        # server binaries (legally shareable by assumption, VII-D)
        for virtual_path in server_binary_paths:
            if not self.vos.fs.exists(virtual_path):
                raise PackageError(
                    f"server binary {virtual_path!r} not in the "
                    "virtual filesystem")
            self.vos.fs.export_file(
                virtual_path,
                package.root / pkg.SERVER_DIR / virtual_path.lstrip("/"))
            file_count += 1
        # schema + relevant tuple versions
        package.write_text(pkg.SCHEMA_FILE,
                           schema_sql_for(database, tables))
        for table in store.tables():
            schema = database.catalog.get_table(table).schema
            package.write_text(
                f"{pkg.RESTORE_DIR}/{table}.csv",
                csvio.format_versioned_rows(store.rows_for(table), schema))
        # the empty data directory of Table III
        package.write_text(f"{pkg.DATA_DIR}/.keep", "")
        return PackagingResult(
            package=package,
            total_bytes=package.total_bytes(),
            file_count=file_count,
            tuple_count=store.tuple_count,
            breakdown=package.breakdown())

    def _tables_to_ship(self, database: Database) -> list[str]:
        tables: set[str] = set(self.session.relevant_tuples.tables())
        for ref in self.session.created_refs:
            tables.add(ref.table)
        monitor = self.session.db_monitor
        if monitor is not None and monitor.versions is not None:
            tables.update(monitor.versions.enabled_tables)
        return sorted(table for table in tables
                      if database.catalog.has_table(table))

    # -- server-excluded -----------------------------------------------------------------

    def build_server_excluded(self, out_dir: str | Path,
                              server_name: str) -> PackagingResult:
        """Build a server-excluded package (client access suffices)."""
        if self.session.mode != SERVER_EXCLUDED:
            raise PackageError(
                "session was not audited in server-excluded mode")
        log = self.session.replay_log
        manifest = Manifest(
            kind=PackageKind.SERVER_EXCLUDED,
            entry_binary=self.entry_binary,
            entry_argv=self.entry_argv,
            db_server_name=server_name,
            notes={"recorded_statements": len(log)},
        )
        package = Package.create(out_dir, manifest)
        file_count = self._write_common(package)
        package.write_text(pkg.REPLAY_LOG, log.to_jsonl())
        return PackagingResult(
            package=package,
            total_bytes=package.total_bytes(),
            file_count=file_count,
            replayed_statements=len(log),
            breakdown=package.breakdown())
