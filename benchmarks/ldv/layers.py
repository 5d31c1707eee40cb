"""The layers of the traced run: which functions are wrapped, which
layer each one's self time belongs to, and which per-layer metrics
each stage reports.

Functions a module imported by name (``parse_sql`` in the engine and
the DB monitor, ``plan_select`` in the engine) are patched where they
were imported too; see :meth:`spans.Patches.wrap_function`.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Callable

from .spans import (
    Patches,
    SpanRecorder,
    StageBreakdown,
    traced_call,
    traced_generator,
)

_BUILDER_METHODS = ("process", "file", "executed", "read_from",
                    "has_written", "statement", "tuple_version",
                    "has_read", "has_returned", "run", "read_from_db")

# (module, qualified name, layer metric); a None layer is split by
# statement kind after the call (see _engine_span_name)
TARGETS: tuple[tuple[str, str, str | None], ...] = (
    ("repro.db.client", "DBClient.execute", "client.self_s"),
    ("repro.db.client", "DBClient.connect", "client.self_s"),
    ("repro.db.client", "DBClient.close", "client.self_s"),
    ("repro.db.protocol", "encode_frame", "protocol.encode_s"),
    ("repro.db.protocol", "result_to_wire", "protocol.encode_s"),
    ("repro.db.protocol", "decode_frame", "protocol.decode_s"),
    ("repro.db.protocol", "result_from_wire", "protocol.decode_s"),
    ("repro.db.server", "DBServer.handle_wire", "server.self_s"),
    ("repro.db.sql.parser", "parse_sql", "parse.s"),
    ("repro.db.planner", "plan_select", "plan.s"),
    ("repro.db.engine", "Database.execute", None),
    ("repro.db.engine", "Database.execute_statement", None),
    ("repro.db.engine", "Database.execute_script", "replay.schema_s"),
    ("repro.db.engine", "Database.checkpoint", "checkpoint.s"),
    ("repro.db.wal", "WriteAheadLog.commit", "wal.commit_s"),
    ("repro.monitor.dbmonitor", "_MonitorInterceptor.before_execute",
     "dbmonitor.hook_self_s"),
    ("repro.monitor.dbmonitor", "_MonitorInterceptor.after_execute",
     "dbmonitor.hook_self_s"),
    ("repro.db.versioning", "VersionManager.enable", "versioning.s"),
    ("repro.db.versioning", "VersionManager.ensure_enabled", "versioning.s"),
    ("repro.db.versioning", "VersionManager.mark_used", "versioning.s"),
    *(("repro.provenance.combined", f"TraceBuilder.{method}",
       "provenance.builder_s") for method in _BUILDER_METHODS),
    ("repro.monitor.ptu", "PTUMonitor.on_syscall", "ptu.on_syscall_s"),
    ("repro.vos.kernel", "VirtualOS.run", "vos.self_s"),
    ("repro.vos.kernel", "VirtualOS.emit", "vos.self_s"),
    ("repro.provenance.trace", "ExecutionTrace.to_json",
     "package.trace_json_s"),
    ("repro.core.package", "Package.write_trace", "package.trace_write_s"),
    ("repro.db.csvio", "format_versioned_rows", "package.restore_csv_s"),
    ("repro.vos.filesystem", "VirtualFileSystem.export_file",
     "package.export_s"),
    ("repro.monitor.dbmonitor", "ReplayLog.to_jsonl", "package.log_json_s"),
    ("repro.core.packager", "Packager.build_server_included",
     "package.self_s"),
    ("repro.core.packager", "Packager.build_server_excluded",
     "package.self_s"),
    ("repro.core.replay", "ReplaySession.prepare", "replay.prepare_s"),
    ("repro.core.replay", "ReplaySession.run", "replay.run_s"),
    ("repro.vos.filesystem", "VirtualFileSystem.import_tree",
     "replay.import_s"),
    ("repro.db.csvio", "parse_versioned_rows", "replay.restore_s"),
    ("repro.db.storage", "HeapTable.restore_row", "replay.restore_s"),
    ("repro.db.storage", "HeapTable.deserialize", "replay.ptu_load_s"),
    ("repro.monitor.dbmonitor", "ReplayLog.from_jsonl", "replay.log_load_s"),
    ("repro.core.replay", "ReplayInterceptor.before_execute",
     "replay.substitute_s"),
)


def _engine_span_name(recorder: SpanRecorder,
                      qualname: str) -> Callable[[Any], str]:
    def name(result: Any) -> str:
        # every statement the server runs enters through
        # Database.execute, so its results count the engine's rows once
        if qualname == "Database.execute":
            recorder.add("execute.rows", getattr(result, "rowcount", 0))
        kind = "select" if getattr(result, "kind", None) == "select" else "dml"
        return f"{qualname}[{kind}]"
    return name


_LAYER_BY_SPAN = {qualname: layer for _, qualname, layer in TARGETS
                  if layer is not None}


def layer_of(span_name: str) -> str:
    """The layer metric a span's self time belongs to."""
    if span_name in _LAYER_BY_SPAN:
        return _LAYER_BY_SPAN[span_name]
    # an engine span, "Database.execute[select]" and the like; one whose
    # call raised keeps its unsplit name and counts as DML
    kind = "select" if span_name.endswith("[select]") else "dml"
    return f"execute.{kind}_self_s"

# span-call counts reported as metrics: metric -> span names counted
CALL_COUNTS: dict[str, tuple[str, ...]] = {
    "parse.calls": ("parse_sql",),
    "plan.calls": ("plan_select",),
    "provenance.builder_calls": tuple(f"TraceBuilder.{method}"
                                      for method in _BUILDER_METHODS),
    "vos.syscalls": ("VirtualOS.emit",),
}


_WIRE = ("client.self_s", "protocol.encode_s", "protocol.decode_s",
         "server.self_s", "protocol.wire_bytes")
# the engine as the replays see it; the audits add the parse and plan
# call counts
_ENGINE = ("execute.select_self_s", "execute.dml_self_s", "execute.rows",
           "parse.s", "plan.s", "plan_cache.hit_rate", "wal.commit_s")
_ENGINE_AUDIT = (*_ENGINE, "parse.calls", "plan.calls")

# the per-layer metrics each stage reports, as ``<stage>.<base>``: the
# layers that run in that stage, plus the counts and rates an
# optimisation of those layers would move (at most 128 in all). Every
# other number a traced stage produces is kept in the run's detail
# file.
STAGE_METRICS: dict[str, tuple[str, ...]] = {
    "audit.included": (
        "wall_s", "unattributed_s", "provenance.builder_s",
        "provenance.builder_calls", "provenance.edges",
        "dbmonitor.hook_self_s", "dbmonitor.prov_queries",
        "dbmonitor.relevant_tuples", "versioning.s", *_ENGINE_AUDIT,
        *_WIRE, "ptu.on_syscall_s", "vos.self_s", "result_cache.hit_rate",
        "scan_cache.hit_rate"),
    "audit.excluded": (
        "wall_s", "unattributed_s", *_ENGINE_AUDIT, *_WIRE,
        "dbmonitor.hook_self_s", "provenance.builder_s", "ptu.on_syscall_s",
        "vos.self_s", "result_cache.hit_rate"),
    "audit.ptu": (
        "wall_s", "unattributed_s", *_ENGINE_AUDIT, "wal.fsyncs",
        "client.self_s", "server.self_s", "checkpoint.s",
        "ptu.on_syscall_s", "vos.self_s", "provenance.builder_s",
        "package.trace_write_s", "package.export_s"),
    "package.included": (
        "wall_s", "unattributed_s", "checkpoint.s", "package.trace_json_s",
        "package.trace_write_s", "package.restore_csv_s",
        "package.export_s", "package.self_s", "package.bytes.trace",
        "package.bytes.restore", "package.bytes.server"),
    "package.excluded": (
        "wall_s", "unattributed_s", "package.trace_json_s",
        "package.trace_write_s", "package.log_json_s", "package.export_s",
        "package.self_s", "package.bytes.replay_log", "package.bytes.files"),
    "replay.included": (
        "wall_s", "unattributed_s", "replay.prepare_s", "replay.run_s",
        "replay.schema_s", "replay.restore_s", "replay.restored_tuples",
        "checkpoint.s", *_ENGINE),
    "replay.excluded": (
        "wall_s", "unattributed_s", "replay.prepare_s", "replay.run_s",
        "replay.import_s", "replay.log_load_s", "replay.substitute_s",
        "client.self_s", "protocol.decode_s", "vos.self_s"),
    "replay.ptu": (
        "wall_s", "unattributed_s", "replay.prepare_s", "replay.run_s",
        "replay.import_s", "replay.ptu_load_s", "checkpoint.s", *_ENGINE),
}

TRACE_OVERHEAD = "trace_overhead_frac"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    return [f"{stage}.{base}" for stage, bases in STAGE_METRICS.items()
            for base in bases] + [TRACE_OVERHEAD]


def layer_values(stage: str, breakdown: StageBreakdown,
                 extras: dict[str, float]) -> dict[str, float]:
    """Every per-layer number one traced stage produced, by base name.

    ``extras`` are numbers read from outside the spans: counters of the
    engine and server, and the op's result. A base declared for
    ``stage`` in :data:`STAGE_METRICS` that nothing produced (its layer
    did not run) is 0, so every declared metric has one sample per
    traced stage.
    """
    values = dict.fromkeys(STAGE_METRICS[stage], 0.0)
    values.update(wall_s=breakdown.wall_s,
                  unattributed_s=breakdown.unattributed_s)
    for span_name, seconds in breakdown.self_s.items():
        layer = layer_of(span_name)
        values[layer] = values.get(layer, 0.0) + seconds
    for metric, span_names in CALL_COUNTS.items():
        values[metric] = sum(breakdown.calls.get(name, 0)
                             for name in span_names)
    values.update(breakdown.counts)
    values.update(extras)
    return values


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_rate") or name.endswith("_frac"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every target so its calls record spans on ``recorder``."""
    patches = Patches()
    for module_name, qualname, layer in TARGETS:
        module = importlib.import_module(module_name)
        rename = (_engine_span_name(recorder, qualname) if layer is None
                  else None)
        if "." in qualname:
            owner_name, attribute = qualname.split(".")
            owner = getattr(module, owner_name)

            def make(fn, qualname=qualname, rename=rename):
                return traced_call(recorder, qualname, fn, rename)
            patches.wrap_attribute(owner, attribute, make)
        else:
            def make(fn, qualname=qualname):
                if inspect.isgeneratorfunction(fn):
                    return traced_generator(recorder, qualname, fn)
                return traced_call(recorder, qualname, fn)
            patches.wrap_function(module, qualname, make)
    return patches
