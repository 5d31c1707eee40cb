"""Batch-at-a-time query operators with optional lineage propagation.

Every operator produces a stream of :class:`RowBatch` through
:meth:`Operator.batches` — column vectors plus a parallel *annotation
vector* of lineages — so per-tuple interpreter overhead is paid once
per ~:data:`BATCH_SIZE` rows, and expressions evaluate as compiled
list comprehensions over whole columns (see the batch compilation
section of :mod:`repro.db.expressions`). Iterating an operator is the
row view of the same stream: ``(values, lineage)`` pairs where
``values`` is a plain tuple and ``lineage`` a ``frozenset[TupleRef]``
(empty when lineage tracking is disabled). MVCC read views, the
monitor's lineage capture and ``INSERT ... SELECT`` consume that view.

Design rules:

* Lineage annotations ride in a vector parallel to the columns;
  ``None`` means "no annotations anywhere in this batch" so the
  non-provenance path never allocates per-row frozensets.
* A selection vector (``sel``) defers gathering after filters: a
  filter only refines ``sel``, the next gathering operator pays the
  copy once.
* Operators compile their expressions **once in __init__**; row
  closures from :func:`repro.db.expressions.compile_expression` remain
  where evaluation is per output row (join residuals, aggregate
  outputs, index probe constants).

:class:`Instrumented` wraps any operator to record rows, batches and
wall time for ``EXPLAIN ANALYZE``.

Lineage propagation implements the paper's Lineage semantics (the
set-of-contributing-input-tuples abstraction of the semiring framework,
Section VI-A):

* a scan annotates each row with the singleton set of its own reference,
* filters and projections preserve annotations,
* a join result row carries the union of both sides,
* an aggregate output row carries the union over its whole group,
* ``DISTINCT`` merges the lineages of collapsed duplicates.

This is observationally equivalent to Perm's query rewriting for the
query classes used in the paper (selection, projection, join,
aggregation) — see DESIGN.md section 1.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.db import expressions as exprs
from repro.db.provtypes import EMPTY_LINEAGE, lineage_singletons
from repro.db.sql import ast
from repro.db.storage import HeapTable
from repro.db.types import Schema
from repro.errors import ExecutionError

Row = tuple
Annotated = tuple[Row, frozenset]

# Rows per batch: large enough to amortize per-batch dispatch, small
# enough that column vectors stay cache-friendly Python lists.
BATCH_SIZE = 1024

# Lineage annotation vectors materialized by scan paths. The
# no-provenance path must keep this flat — zero allocations; tests
# assert that through this counter.
LINEAGE_VECTOR_BUILDS = 0


def note_lineage_vector_build() -> None:
    global LINEAGE_VECTOR_BUILDS
    LINEAGE_VECTOR_BUILDS += 1


class RowBatch:
    """A batch of rows in columnar layout with lineage annotations.

    ``columns`` holds one list per schema column, each ``count`` long.
    ``lineages`` is a parallel list of frozensets, or None when no row
    in the batch carries lineage. ``sel`` is a selection vector of row
    positions still alive (None = all). ``row_major`` optionally
    caches the same rows as tuples (producers that already hold row
    tuples — scans, join output — pass them so :meth:`rows` skips
    re-transposing). Consumers must treat the vectors as immutable —
    operators share them across batches.
    """

    __slots__ = ("columns", "count", "lineages", "sel", "row_major")

    def __init__(self, columns: list, count: int,
                 lineages: list | None = None,
                 sel: Any = None,
                 row_major: list | None = None) -> None:
        self.columns = columns
        self.count = count
        self.lineages = lineages
        self.sel = sel
        self.row_major = row_major

    def selection(self) -> Any:
        return range(self.count) if self.sel is None else self.sel

    def __len__(self) -> int:
        return self.count if self.sel is None else len(self.sel)

    def rows(self) -> list[tuple]:
        """Selected rows as plain tuples (the row view's currency).

        Transposition runs through ``zip(*columns)`` — per-row
        ``tuple(generator)`` calls were the single hottest line of the
        batch engine before this.
        """
        row_major = self.row_major
        sel = self.sel
        if row_major is not None:
            if sel is None:
                return row_major
            return [row_major[index] for index in sel]
        columns = self.columns
        if not columns:
            return [()] * (self.count if sel is None else len(sel))
        if sel is None:
            return list(zip(*columns))
        if len(columns) == 1:
            column = columns[0]
            return [(column[index],) for index in sel]
        return list(zip(*[[column[index] for index in sel]
                          for column in columns]))

    def gathered_lineages(self) -> list | None:
        """Annotation vector aligned with :meth:`rows`, or None."""
        if self.lineages is None:
            return None
        if self.sel is None:
            return self.lineages
        return [self.lineages[index] for index in self.sel]

    def picked_lineages(self) -> list:
        """Like :meth:`gathered_lineages` with the empty-lineage fill."""
        gathered = self.gathered_lineages()
        if gathered is None:
            return [EMPTY_LINEAGE] * len(self)
        return gathered

    def slice(self, start: int, stop: int) -> "RowBatch":
        """A sub-range of the selected rows (shares the vectors)."""
        sel = self.selection()
        return RowBatch(self.columns, self.count, self.lineages,
                        sel[start:stop], self.row_major)


class Operator:
    """Base class: a stream of :class:`RowBatch` with a fixed schema."""

    schema: Schema

    def batches(self) -> Iterator[RowBatch]:  # pragma: no cover - interface
        raise NotImplementedError

    def __iter__(self) -> Iterator[Annotated]:
        """The row view: ``(values, lineage)`` pairs decoded from
        :meth:`batches`."""
        for batch in self.batches():
            lineages = batch.gathered_lineages()
            if lineages is None:
                for values in batch.rows():
                    yield values, EMPTY_LINEAGE
            else:
                yield from zip(batch.rows(), lineages)


def _chunk_annotated(iterator: Iterator[Annotated],
                     width: int) -> Iterator[RowBatch]:
    """Chunk an annotated-row iterator into dense batches."""
    while True:
        chunk = list(islice(iterator, BATCH_SIZE))
        if not chunk:
            return
        columns = (list(zip(*(values for values, _ in chunk)))
                   if width else [])
        lineages: list | None = [lineage for _, lineage in chunk]
        if not any(lineages):
            lineages = None
        yield RowBatch(columns, len(chunk), lineages, None)


def _version_batches(entries: Iterable[tuple[int, tuple, int]],
                     name: str, track_lineage: bool,
                     width: int) -> Iterator[RowBatch]:
    """Chunk ``(rowid, values, version)`` scan entries into batches,
    annotating each row with its singleton lineage when tracking."""
    iterator = iter(entries)
    while True:
        chunk = list(islice(iterator, BATCH_SIZE))
        if not chunk:
            return
        chunk_rows = [values for _, values, _ in chunk]
        columns = list(zip(*chunk_rows)) if width else []
        lineages = None
        if track_lineage:
            lineages = lineage_singletons(
                name, [(rowid, version) for rowid, _, version in chunk])
            note_lineage_vector_build()
        yield RowBatch(columns, len(chunk), lineages, None, chunk_rows)


def _dense_batch(rows: list[tuple], lineages: list | None,
                 width: int) -> RowBatch:
    """Dense batch from produced row tuples (zip-transposed)."""
    columns = list(zip(*rows)) if width else []
    return RowBatch(columns, len(rows),
                    lineages if lineages and any(lineages) else None,
                    None, rows)


class SeqScan(Operator):
    """Columnar full scan of a heap table, optionally producing lineage.

    Under an MVCC read view (or with lineage tracking) rows flow
    through ``scan_versions()``, which reports the begin stamp of the
    version the ambient read view actually saw — under a snapshot that
    may be a history entry or the session's own write, so lineage
    references the snapshot's tuple versions. The committed-latest
    no-lineage case slices the heap directly.

    ``needed_columns`` (set by a fused parent whose expressions are
    all pure-vector) prunes materialization: only those column
    vectors are built, the rest stay None placeholders that the
    kernel provably never reads.
    """

    needed_columns: set[int] | None = None

    def __init__(self, table: HeapTable, qualifier: str,
                 track_lineage: bool) -> None:
        self.table = table
        self.qualifier = qualifier
        self.schema = table.schema.qualified(qualifier)
        self.track_lineage = track_lineage

    def batches(self) -> Iterator[RowBatch]:
        table = self.table
        width = len(self.schema)
        if self.track_lineage or table.active_view() is not None:
            yield from _version_batches(table.scan_versions(), table.name,
                                        self.track_lineage, width)
            return
        heap = table.rows
        rowids = sorted(heap)
        if rowids == list(heap):
            # rowids are allocated monotonically, so the heap dict is
            # almost always already in rowid order — skip 1 dict
            # lookup per row
            ordered = list(heap.values())
        else:
            ordered = [heap[rowid] for rowid in rowids]
        needed = self.needed_columns
        if needed is not None and len(needed) < width:
            getters = [(index, itemgetter(index))
                       for index in sorted(needed)]
            for start in range(0, len(ordered), BATCH_SIZE):
                chunk_rows = ordered[start:start + BATCH_SIZE]
                columns: list = [None] * width
                for index, getter in getters:
                    columns[index] = list(map(getter, chunk_rows))
                yield RowBatch(columns, len(chunk_rows), None, None,
                               chunk_rows)
            return
        for start in range(0, len(ordered), BATCH_SIZE):
            chunk_rows = ordered[start:start + BATCH_SIZE]
            columns = list(zip(*chunk_rows)) if width else []
            yield RowBatch(columns, len(chunk_rows), None, None,
                           chunk_rows)


class IndexScan(Operator):
    """Lookup(s) through a hash index.

    The probe is either constant expressions — one for
    ``col = constant``, several for ``col IN (constants)`` — each
    evaluated once per execution against the empty row (the planner
    guarantees constness; ``$n`` parameters re-bind per execution), or
    ``bounds`` with no expressions: the inclusive integer range of
    ``col BETWEEN lo AND hi`` on an INTEGER column, probed value by
    value. NULL probe values are dropped, matching equality/IN
    semantics (NULL never compares equal). The union of matching
    rowids is fetched in rowid order.
    """

    def __init__(self, table: HeapTable, qualifier: str,
                 index, value_expression, track_lineage: bool,
                 bounds: tuple[int, int] | None = None) -> None:
        self.table = table
        self.schema = table.schema.qualified(qualifier)
        self.index = index
        self.bounds = bounds
        if isinstance(value_expression, (list, tuple)):
            self.value_expressions = list(value_expression)
        else:
            self.value_expressions = [value_expression]
        self._value_fns = [exprs.compile_expression(expression, Schema([]))
                           for expression in self.value_expressions]
        self.track_lineage = track_lineage

    def _probe_values(self):
        """The non-NULL values to probe with: the bounds as a range,
        else the constants deduplicated in order (a dict, so the
        snapshot path's membership test is O(1))."""
        if self.bounds is not None:
            low, high = self.bounds
            return range(low, high + 1)
        values = dict.fromkeys(value_fn(()) for value_fn in self._value_fns)
        values.pop(None, None)
        return values

    def scan_versions(self) -> Iterator[tuple[int, tuple, int]]:
        """``(rowid, values, version)`` of every row whose indexed
        column holds a probe value, in rowid order — the index-backed
        counterpart of :meth:`HeapTable.scan_versions`."""
        probe_values = self._probe_values()
        if not probe_values:
            return
        table = self.table
        if table.active_view() is not None:
            # hash buckets reflect only committed-latest state; under a
            # snapshot the index degrades to a visible scan + membership
            # filter so the result matches what SeqScan would produce
            position = self.index.position
            for entry in table.scan_versions():
                if entry[1][position] in probe_values:
                    yield entry
            return
        rowids: set[int] = set()
        for value in probe_values:
            rowids.update(self.index.lookup(value))
        rows = table.rows
        versions = table.versions
        for rowid in sorted(rowids):
            yield rowid, rows[rowid], versions[rowid]

    def batches(self) -> Iterator[RowBatch]:
        return _version_batches(self.scan_versions(), self.table.name,
                                self.track_lineage, len(self.schema))


class FusedScanFilterProject(Operator):
    """Scan→Filter→Project fused into one compiled per-batch kernel.

    The planner grows this node bottom-up: predicates pushed onto a
    scan join the fusion via :meth:`add_predicate`, and the final
    SELECT-list projection lands via :meth:`absorb_projections`. Each
    mutation recompiles the kernel (plan-time cost only). One batch
    then takes a single call: refine the selection through every
    predicate, gather the projected columns, pick the surviving
    lineage annotations.
    """

    def __init__(self, child: Operator,
                 predicates: list | None = None,
                 projections: list | None = None,
                 output_schema=None) -> None:
        self.child = child
        self.predicates = list(predicates or [])
        self.projections: list | None = None
        self.schema = child.schema
        if projections is not None:
            self.absorb_projections(projections, output_schema)
        else:
            self._recompile()

    def _recompile(self) -> None:
        self._kernel = exprs.compile_fused_kernel(
            self.predicates, self.projections, self.child.schema)

    def add_predicate(self, predicate: ast.Expression) -> None:
        if self.projections is not None:
            raise ExecutionError(
                "cannot add a predicate below an absorbed projection")
        self.predicates.append(predicate)
        self._recompile()

    def absorb_projections(self, projections: list,
                           output_schema) -> None:
        self.projections = list(projections)
        self.schema = output_schema
        self._recompile()
        # with a dense output this node is the scan's sole consumer;
        # if every expression is pure-vector the scan can skip
        # materializing the columns nothing reads
        if isinstance(self.child, SeqScan):
            self.child.needed_columns = exprs.vector_safe_columns(
                self.predicates + self.projections, self.child.schema)

    def batches(self) -> Iterator[RowBatch]:
        kernel = self._kernel
        dense = self.projections is not None
        for batch in self.child.batches():
            out_columns, out_sel, picked = kernel(batch.columns,
                                                  batch.selection())
            if not picked:
                continue
            if dense:
                lineages = (None if batch.lineages is None else
                            [batch.lineages[index] for index in picked])
                yield RowBatch(out_columns, len(picked), lineages)
            else:
                yield RowBatch(out_columns, batch.count, batch.lineages,
                               out_sel, batch.row_major)


class Filter(Operator):
    """Keep rows for which the predicate evaluates to TRUE.

    A selection-vector filter: refines ``sel``, copies nothing."""

    def __init__(self, child: Operator, predicate: ast.Expression) -> None:
        self.child = child
        self.schema = child.schema
        self.predicate = predicate
        self._refine = exprs.compile_batch_predicate(predicate,
                                                     child.schema)

    def batches(self) -> Iterator[RowBatch]:
        refine = self._refine
        for batch in self.child.batches():
            sel = refine(batch.columns, batch.selection())
            if sel:
                yield RowBatch(batch.columns, batch.count,
                               batch.lineages, sel, batch.row_major)


class Project(Operator):
    """Evaluate a list of output expressions: one compiled vector
    closure per output column."""

    def __init__(self, child: Operator,
                 output_expressions: list[ast.Expression],
                 output_schema: Schema) -> None:
        self.child = child
        self.schema = output_schema
        self.output_expressions = output_expressions
        self._batch_fns = [
            exprs.compile_batch_expression(expression, child.schema)
            for expression in output_expressions]

    def batches(self) -> Iterator[RowBatch]:
        batch_fns = self._batch_fns
        for batch in self.child.batches():
            sel = batch.selection()
            if not sel:
                continue
            columns = [fn(batch.columns, sel) for fn in batch_fns]
            yield RowBatch(columns, len(sel), batch.gathered_lineages())


class HashJoin(Operator):
    """Equi-join: build a hash table on one side, probe with the other
    one batch at a time.

    ``kind`` is ``"inner"`` or ``"left"``. Join keys are expressions
    evaluated against each side's schema. A residual predicate (the
    non-equi part of an ON / WHERE conjunction) can be applied to the
    concatenated row. ``build_side`` names which input is hashed —
    the planner picks the smaller one; a LEFT join must build on the
    right so the probe pass can pad unmatched preserved rows.

    The build side is hashed as row tuples (probe output is
    row-shaped anyway); the probe side evaluates its key expressions
    as column vectors, so the per-row probe loop touches only the hash
    lookup. NULL keys are never inserted into the build table, so
    probe lookups need no NULL checks — a missing key and a NULL key
    both miss. When neither input carries lineage annotations the
    probe loop skips all per-row lineage bookkeeping (no frozenset
    unions).
    """

    def __init__(self, left: Operator, right: Operator,
                 left_keys: list[ast.Expression],
                 right_keys: list[ast.Expression],
                 kind: str = "inner",
                 residual: ast.Expression | None = None,
                 build_side: str = "right") -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ExecutionError("hash join requires matching key lists")
        if kind not in ("inner", "left"):
            raise ExecutionError(f"unsupported hash join kind {kind!r}")
        if build_side not in ("left", "right"):
            raise ExecutionError(
                f"unsupported hash join build side {build_side!r}")
        if kind == "left" and build_side == "left":
            raise ExecutionError(
                "a left outer hash join must build on the right side")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.kind = kind
        self.residual = residual
        self.build_side = build_side
        self.schema = left.schema.concat(right.schema)
        self._residual_fn = (exprs.compile_predicate(residual, self.schema)
                             if residual is not None else None)
        self._left_batch_keys = [
            exprs.compile_batch_expression(expression, left.schema)
            for expression in left_keys]
        self._right_batch_keys = [
            exprs.compile_batch_expression(expression, right.schema)
            for expression in right_keys]
        self._prune_side(left, left_keys)
        self._prune_side(right, right_keys)

    @staticmethod
    def _prune_side(side: Operator, keys: list) -> None:
        """Prune an input scan down to the vector-read columns.

        The join touches its inputs two ways: key expressions as
        column vectors, and whole rows via ``rows()`` — which a scan
        serves from its ``row_major`` cache without reading column
        vectors. So the scan only needs to materialize the key (and
        pushed-predicate) columns, provided every such expression is
        pure-vector."""
        expressions = list(keys)
        if (isinstance(side, FusedScanFilterProject)
                and side.projections is None):
            expressions += side.predicates
            side = side.child
        if isinstance(side, SeqScan):
            side.needed_columns = exprs.vector_safe_columns(
                expressions, side.schema)

    def _build_table(self, side: Operator,
                     key_fns: list) -> tuple[dict, bool]:
        build: dict[Any, list] = {}
        tracked = False
        single = len(key_fns) == 1
        for batch in side.batches():
            sel = batch.selection()
            if not sel:
                continue
            rows = batch.rows()
            lineages = batch.gathered_lineages()
            if lineages is None:
                lineages = [EMPTY_LINEAGE] * len(rows)
            else:
                tracked = True
            key_vectors = [fn(batch.columns, sel) for fn in key_fns]
            if single:
                for position, key in enumerate(key_vectors[0]):
                    if key is None:
                        continue  # NULL never equi-joins
                    build.setdefault(key, []).append(
                        (rows[position], lineages[position]))
            else:
                for position, key in enumerate(zip(*key_vectors)):
                    if any(part is None for part in key):
                        continue
                    build.setdefault(key, []).append(
                        (rows[position], lineages[position]))
        return build, tracked

    def batches(self) -> Iterator[RowBatch]:
        build_on_left = self.build_side == "left"
        build, tracking = self._build_table(
            self.left if build_on_left else self.right,
            self._left_batch_keys if build_on_left
            else self._right_batch_keys)
        if not build and self.kind == "inner":
            return
        probe = self.right if build_on_left else self.left
        probe_key_fns = (self._right_batch_keys if build_on_left
                         else self._left_batch_keys)
        single = len(probe_key_fns) == 1
        residual = self._residual_fn
        left_outer = self.kind == "left"
        null_pad = (None,) * len(self.right.schema)
        width = len(self.schema)
        empty = EMPTY_LINEAGE
        lookup = build.get
        out_rows: list[tuple] = []
        out_lineages: list = []
        for batch in probe.batches():
            sel = batch.selection()
            if not sel:
                continue
            rows = batch.rows()
            key_vectors = [fn(batch.columns, sel) for fn in probe_key_fns]
            keys = key_vectors[0] if single else list(zip(*key_vectors))
            lineages = batch.gathered_lineages()
            if lineages is not None and not tracking:
                tracking = True
                out_lineages.extend([empty] * len(out_rows))
            append = out_rows.append
            if not tracking:
                if left_outer:
                    for position, key in enumerate(keys):
                        values = rows[position]
                        produced = False
                        matches = lookup(key)
                        if matches:
                            for other_values, _lin in matches:
                                joined = values + other_values
                                if residual is None or residual(joined):
                                    produced = True
                                    append(joined)
                        if not produced:
                            append(values + null_pad)
                else:
                    for values, key in zip(rows, keys):
                        matches = lookup(key)
                        if matches:
                            for other_values, _lin in matches:
                                joined = (other_values + values
                                          if build_on_left
                                          else values + other_values)
                                if residual is None or residual(joined):
                                    append(joined)
            else:
                append_lineage = out_lineages.append
                for position, key in enumerate(keys):
                    produced = False
                    matches = lookup(key)
                    if matches:
                        values = rows[position]
                        lineage = (lineages[position]
                                   if lineages is not None else empty)
                        for other_values, other_lineage in matches:
                            if build_on_left:
                                joined = other_values + values
                                merged = other_lineage | lineage
                            else:
                                joined = values + other_values
                                merged = lineage | other_lineage
                            if (residual is not None
                                    and not residual(joined)):
                                continue
                            produced = True
                            append(joined)
                            append_lineage(merged)
                    if left_outer and not produced:
                        append(rows[position] + null_pad)
                        append_lineage(lineages[position]
                                       if lineages is not None else empty)
            if len(out_rows) >= BATCH_SIZE:
                yield _dense_batch(out_rows,
                                   out_lineages if tracking else None,
                                   width)
                out_rows, out_lineages = [], []
        if out_rows:
            yield _dense_batch(out_rows,
                               out_lineages if tracking else None, width)


class NestedLoopJoin(Operator):
    """General theta-join; materializes the right side once and emits
    output rows in left-major order."""

    def __init__(self, left: Operator, right: Operator,
                 condition: ast.Expression | None = None,
                 kind: str = "inner") -> None:
        if kind not in ("inner", "left", "cross"):
            raise ExecutionError(f"unsupported join kind {kind!r}")
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        self.schema = left.schema.concat(right.schema)
        self._condition_fn = (exprs.compile_predicate(condition, self.schema)
                              if condition is not None else None)

    def batches(self) -> Iterator[RowBatch]:
        right_rows = list(self.right)
        condition = self._condition_fn
        left_outer = self.kind == "left"
        null_pad = (None,) * len(self.right.schema)
        width = len(self.schema)
        out_rows: list[tuple] = []
        out_lineages: list = []
        for values, lineage in self.left:
            produced = False
            for right_values, right_lineage in right_rows:
                joined = values + right_values
                if condition is not None and not condition(joined):
                    continue
                produced = True
                out_rows.append(joined)
                out_lineages.append(lineage | right_lineage)
            if left_outer and not produced:
                out_rows.append(values + null_pad)
                out_lineages.append(lineage)
            if len(out_rows) >= BATCH_SIZE:
                yield _dense_batch(out_rows, out_lineages, width)
                out_rows, out_lineages = [], []
        if out_rows:
            yield _dense_batch(out_rows, out_lineages, width)


class GroupAggregate(Operator):
    """Hash aggregation fused with output projection, fed whole batches.

    ``group_expressions`` define the grouping key (empty for a global
    aggregate); ``output_expressions`` may mix group expressions,
    aggregate calls, and scalar expressions over them. ``having`` is
    applied per group after accumulation.

    Each batch is partitioned by group key once; every accumulator
    then consumes its group's value vector through ``add_many`` —
    preserving left-to-right fold order within the group, so float
    aggregates are bit-identical to a row-by-row fold.

    The lineage of an output row is the union of the lineages of every
    input row in its group — the Lineage semantics for aggregation.

    For scalar sub-expressions that are neither aggregates nor group
    expressions, evaluation falls back to the group's first input row
    (safe for expressions functionally dependent on the group key,
    which is all standard SQL allows anyway).
    """

    def __init__(self, child: Operator,
                 group_expressions: list[ast.Expression],
                 output_expressions: list[ast.Expression],
                 output_schema: Schema,
                 having: ast.Expression | None = None) -> None:
        self.child = child
        self.schema = output_schema
        self.group_expressions = group_expressions
        self.output_expressions = output_expressions
        self.having = having
        aggregate_calls: dict[ast.FunctionCall, None] = {}
        for expression in list(output_expressions) + (
                [having] if having is not None else []):
            for call in exprs.find_aggregates(expression):
                aggregate_calls[call] = None
        self.aggregate_calls = list(aggregate_calls)
        self._group_batch_fns = [
            exprs.compile_batch_expression(expression, child.schema)
            for expression in group_expressions]
        # COUNT(*) reads nothing per row — its accumulator only needs
        # the group's cardinality, so it is fed the position bucket
        self._input_batch_fns = [
            None if (len(call.args) == 1
                     and isinstance(call.args[0], ast.Star))
            else exprs.compile_batch_expression(call.args[0],
                                                child.schema)
            for call in self.aggregate_calls]
        # aggregate results and group-key values are rebound per group
        # through slots; the output/HAVING closures are compiled once
        self._slots = exprs.BindingSlots(
            self.aggregate_calls + list(group_expressions))
        self._output_fns = [
            exprs.compile_expression(expression, child.schema, self._slots)
            for expression in output_expressions]
        self._having_fn = (
            exprs.compile_predicate(having, child.schema, self._slots)
            if having is not None else None)
        self._empty_representative = (None,) * len(child.schema)

    def _new_state(self, representative: tuple | None) -> dict[str, Any]:
        return {
            "accumulators": [exprs.make_accumulator(call)
                             for call in self.aggregate_calls],
            "representative": representative,
            "lineage": set(),
        }

    def _finalize(self, groups: dict, order: list) -> Iterator[Annotated]:
        slots = self._slots
        for key in order:
            state = groups[key]
            for call, accumulator in zip(self.aggregate_calls,
                                         state["accumulators"]):
                slots.assign(call, accumulator.result())
            for expression, value in zip(self.group_expressions, key):
                slots.assign(expression, value)
            representative = state["representative"]
            if representative is None:
                representative = self._empty_representative
            if self._having_fn is not None and not self._having_fn(
                    representative):
                continue
            out = tuple(fn(representative) for fn in self._output_fns)
            yield out, frozenset(state["lineage"])

    def batches(self) -> Iterator[RowBatch]:
        groups, order = self._accumulate()
        if not groups and not self.group_expressions:
            # global aggregate over empty input still yields one row
            groups[()] = self._new_state(None)
            order.append(())
        return _chunk_annotated(self._finalize(groups, order),
                                len(self.schema))

    def _accumulate(self) -> tuple[dict, list]:
        """Drain the child into per-group accumulator states."""
        group_fns = self._group_batch_fns
        input_fns = self._input_batch_fns
        single_key = len(group_fns) == 1
        groups: dict[tuple, dict[str, Any]] = {}
        order: list[tuple] = []
        for batch in self.child.batches():
            sel = batch.selection()
            size = len(sel)
            if size == 0:
                continue
            if group_fns:
                key_vectors = [fn(batch.columns, sel)
                               for fn in group_fns]
                # scalar partition keys in the common single-key case;
                # the groups dict still keys on tuples (finalize reads
                # group values back out of the key)
                keys = (key_vectors[0] if single_key
                        else list(zip(*key_vectors)))
                positions: dict[Any, list[int]] = {}
                bucket_of = positions.get
                for position, key in enumerate(keys):
                    bucket = bucket_of(key)
                    if bucket is None:
                        positions[key] = [position]
                    else:
                        bucket.append(position)
            else:
                positions = {(): list(range(size))}
            input_vectors = [None if fn is None
                             else fn(batch.columns, sel)
                             for fn in input_fns]
            lineages = batch.gathered_lineages()
            sel_list = sel if type(sel) is list else list(sel)
            row_major = batch.row_major
            for key, bucket in positions.items():
                group_key = ((key,) if group_fns and single_key
                             else key)
                state = groups.get(group_key)
                if state is None:
                    first = sel_list[bucket[0]]
                    representative = (
                        row_major[first] if row_major is not None
                        else tuple(column[first]
                                   for column in batch.columns))
                    state = self._new_state(representative)
                    groups[group_key] = state
                    order.append(group_key)
                whole = len(bucket) == size
                for vector, accumulator in zip(input_vectors,
                                               state["accumulators"]):
                    if vector is None:
                        fed = bucket  # COUNT(*): only len() matters
                    else:
                        fed = vector if whole else [vector[position]
                                                    for position in bucket]
                    accumulator.add_many(fed)
                if lineages is not None:
                    group_lineage = state["lineage"]
                    for position in bucket:
                        group_lineage.update(lineages[position])
        return groups, order


class Distinct(Operator):
    """Collapse duplicate rows, merging their lineages (first
    occurrence wins, annotations union).

    ``key_width`` limits duplicate detection to a prefix of the row
    (used when hidden ORDER BY columns were appended after the visible
    select list).
    """

    def __init__(self, child: Operator, key_width: int | None = None) -> None:
        self.child = child
        self.schema = child.schema
        self.key_width = key_width

    def batches(self) -> Iterator[RowBatch]:
        seen: dict[tuple, list] = {}
        order: list[tuple] = []
        key_width = self.key_width
        for batch in self.child.batches():
            rows = batch.rows()
            lineages = batch.gathered_lineages()
            for position, values in enumerate(rows):
                key = (values if key_width is None
                       else values[:key_width])
                entry = seen.get(key)
                if entry is None:
                    seen[key] = [values,
                                 set() if lineages is None
                                 else set(lineages[position])]
                    order.append(key)
                elif lineages is not None:
                    entry[1].update(lineages[position])
        return _chunk_annotated(
            ((seen[key][0], frozenset(seen[key][1])) for key in order),
            len(self.schema))


class _SortKey:
    """Total order over SQL values where NULL sorts last (ASC).

    Only the mixed-type fallback of :func:`_stable_key_sort` still
    allocates these — the common homogeneous-column case sorts raw
    values (one wrapper object per row per key was the old hot spot).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SortKey):
            return NotImplemented
        return self.value == other.value


def _stable_key_sort(order: list[int], values: list,
                     descending: bool) -> list[int]:
    """One stable sort pass of ``order`` by ``values[i]``.

    NULLs partition out first (last in ASC order, first in DESC —
    exactly the `_SortKey` contract) so the comparison sort only ever
    sees non-NULL values; a mixed-type column falls back to `_SortKey`
    wrappers, whose raw ``<`` raises the values' own TypeError (its
    message names the two mismatched types).
    """
    present = [index for index in order if values[index] is not None]
    missing = [index for index in order if values[index] is None]
    try:
        present.sort(key=values.__getitem__, reverse=descending)
    except TypeError:
        return sorted(order, key=lambda index: _SortKey(values[index]),
                      reverse=descending)
    if descending:
        return missing + present
    return present + missing


def ordered_indices(count: int,
                    key_columns: list[tuple[list, bool]]) -> list[int]:
    """Row permutation sorting by ``(values_vector, descending)`` keys.

    Stable multi-key semantics via one pass per key, last key first —
    used by :class:`Sort`.
    """
    order = list(range(count))
    for values, descending in reversed(key_columns):
        order = _stable_key_sort(order, values, descending)
    return order


def _concat_batches(batches: Iterator[RowBatch],
                    width: int) -> tuple[list, list | None, int]:
    """Materialize a batch stream into dense full-length columns."""
    columns: list[list] = [[] for _ in range(width)]
    lineages: list = []
    tracking = False
    count = 0
    for batch in batches:
        sel = batch.selection()
        size = len(sel)
        if size == 0:
            continue
        for out, column in zip(columns, batch.columns):
            out.extend(exprs._gather(column, sel))
        gathered = batch.gathered_lineages()
        if gathered is not None:
            if not tracking:
                lineages.extend([EMPTY_LINEAGE] * count)
                tracking = True
            lineages.extend(gathered)
        elif tracking:
            lineages.extend([EMPTY_LINEAGE] * size)
        count += size
    return columns, (lineages if tracking else None), count


def _rechunk(columns: list, lineages: list | None,
             count: int) -> Iterator[RowBatch]:
    """Emit dense full-length columns as BATCH_SIZE slices."""
    for start in range(0, count, BATCH_SIZE):
        stop = min(start + BATCH_SIZE, count)
        yield RowBatch(
            [column[start:stop] for column in columns], stop - start,
            lineages[start:stop] if lineages is not None else None,
            None)


class Sort(Operator):
    """Materializing sort on a list of (column index, descending) keys.

    Sorting permutes an index vector (:func:`ordered_indices` — the
    sort keys are already columns, no per-row key extraction) over the
    concatenated input and gathers each column once.
    """

    def __init__(self, child: Operator,
                 keys: list[tuple[int, bool]]) -> None:
        self.child = child
        self.schema = child.schema
        self.keys = keys

    def batches(self) -> Iterator[RowBatch]:
        columns, lineages, count = _concat_batches(
            self.child.batches(), len(self.schema))
        if count == 0:
            return
        if count > 1 and self.keys:
            key_columns = [(columns[index], descending)
                           for index, descending in self.keys]
            order = ordered_indices(count, key_columns)
            columns = [[column[index] for index in order]
                       for column in columns]
            if lineages is not None:
                lineages = [lineages[index] for index in order]
        yield from _rechunk(columns, lineages, count)


class Limit(Operator):
    """LIMIT / OFFSET by slicing selection vectors."""

    def __init__(self, child: Operator, limit: int | None,
                 offset: int | None) -> None:
        self.child = child
        self.schema = child.schema
        self.limit = limit
        self.offset = offset or 0

    def batches(self) -> Iterator[RowBatch]:
        to_skip = self.offset
        remaining = self.limit
        for batch in self.child.batches():
            size = len(batch)
            if size == 0:
                continue
            start = 0
            if to_skip:
                if to_skip >= size:
                    to_skip -= size
                    continue
                start = to_skip
                to_skip = 0
            stop = size
            if remaining is not None:
                if remaining <= 0:
                    return
                stop = min(stop, start + remaining)
            piece = batch.slice(start, stop)
            if remaining is not None:
                remaining -= len(piece)
            yield piece
            if remaining is not None and remaining <= 0:
                return


class StripColumns(Operator):
    """Drop hidden trailing columns appended for ORDER BY evaluation —
    a vector-list slice per batch."""

    def __init__(self, child: Operator, visible_width: int,
                 visible_schema: Schema) -> None:
        self.child = child
        self.visible_width = visible_width
        self.schema = visible_schema

    def batches(self) -> Iterator[RowBatch]:
        width = self.visible_width
        for batch in self.child.batches():
            yield RowBatch(batch.columns[:width], batch.count,
                           batch.lineages, batch.sel)


class Union(Operator):
    """Concatenate compatible inputs' batch streams (UNION ALL); wrap
    in :class:`Distinct` for set semantics.

    Lineage semantics: UNION ALL passes annotations through; the
    Distinct wrapper merges the lineages of collapsed duplicates, which
    is exactly the Lineage of a set union.
    """

    def __init__(self, children: list[Operator]) -> None:
        if not children:
            raise ExecutionError("UNION requires at least one input")
        width = len(children[0].schema)
        for child in children[1:]:
            if len(child.schema) != width:
                raise ExecutionError(
                    f"UNION inputs have {width} and "
                    f"{len(child.schema)} columns")
        self.children = children
        self.schema = children[0].schema

    def batches(self) -> Iterator[RowBatch]:
        for child in self.children:
            yield from child.batches()


class MaterializedSource(Operator):
    """Serve pre-computed annotated rows (used by INSERT ... SELECT etc.)."""

    def __init__(self, schema: Schema, rows: Iterable[Annotated]) -> None:
        self.schema = schema
        self.rows = list(rows)

    def batches(self) -> Iterator[RowBatch]:
        return _chunk_annotated(iter(self.rows), len(self.schema))


class Instrumented(Operator):
    """Transparent wrapper recording rows, batches and wall time.

    EXPLAIN ANALYZE wraps every operator in the plan with one of
    these. The clock is charged once per *batch* (a timer pair per row
    would re-impose the per-tuple overhead batching removes), so a
    blocking operator (Sort, GroupAggregate) attributes its
    materialization cost to its own first batch rather than to its
    parent. Rows are counted by batch length. The clock is injectable
    for deterministic tests.
    """

    def __init__(self, inner: Operator,
                 timer: Callable[[], float]) -> None:
        self.inner = inner
        self.schema = inner.schema
        self.timer = timer
        self.rows = 0
        self.batches_produced = 0
        self.total_seconds = 0.0
        self.loops = 0

    def batches(self) -> Iterator[RowBatch]:
        self.loops += 1
        timer = self.timer
        started = timer()
        # batches() is inside the timed region: operators that
        # materialize eagerly when asked for their stream
        # (GroupAggregate) must charge that work to themselves
        iterator = self.inner.batches()
        self.total_seconds += timer() - started
        while True:
            started = timer()
            try:
                batch = next(iterator)
            except StopIteration:
                self.total_seconds += timer() - started
                return
            self.total_seconds += timer() - started
            self.rows += len(batch)
            self.batches_produced += 1
            yield batch


_CHILD_ATTRS = ("child", "left", "right", "inner")


def instrument_plan(root: Operator,
                    timer: Callable[[], float]) -> Instrumented:
    """Wrap every operator in ``root``'s tree with :class:`Instrumented`.

    Mutates the tree in place (re-pointing child attributes), so it
    must only be applied to a freshly built plan — never to one served
    from the plan cache.
    """
    for attribute in _CHILD_ATTRS:
        child = getattr(root, attribute, None)
        if isinstance(child, Operator):
            setattr(root, attribute, instrument_plan(child, timer))
    children = getattr(root, "children", None)
    if isinstance(children, list):
        root.children = [instrument_plan(child, timer)
                        for child in children]
    return Instrumented(root, timer)
