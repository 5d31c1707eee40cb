"""Batch-at-a-time (vectorized) query operators.

The row executor in :mod:`repro.db.executor` moves one ``(values,
lineage)`` pair per Python ``next()`` call; at 100k rows the
interpreter dispatch around those calls dominates evaluation. The
operators here move a :class:`RowBatch` — column vectors plus a
parallel *annotation vector* of lineages — so per-tuple overhead is
paid once per ~:data:`BATCH_SIZE` rows, and expressions evaluate as
compiled list comprehensions over whole columns (see the batch
compilation section of :mod:`repro.db.expressions`).

Design rules:

* Every batch operator subclasses its row twin (``BatchFilter`` is a
  ``Filter``) so isinstance-based planner/EXPLAIN logic keeps working,
  and inherits a row-iterator compatibility shim from
  :class:`BatchOperator` — anything that consumes annotated rows
  (MVCC read views, the monitor's lineage capture, INSERT ... SELECT)
  sees the exact row stream the tuple engine produced.
* Lineage annotations ride in a vector parallel to the columns;
  ``None`` means "no annotations anywhere in this batch" so the
  non-provenance path never allocates per-row frozensets.
* A selection vector (``sel``) defers gathering after filters: a
  filter only refines ``sel``, the next gathering operator pays the
  copy once.
* Row-only operators (NestedLoopJoin, MaterializedSource) compose
  into batch plans through :func:`batches_of`, which chunks any
  annotated-row iterator into batches.

Fallbacks to full row-at-a-time planning: the
``interpreted_expressions()`` escape hatch and the
:func:`row_at_a_time_plans` context manager (used by benchmarks to
measure the tuple engine on identical plans).
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.db import executor as ex
from repro.db import expressions as exprs
from repro.db.provtypes import EMPTY_LINEAGE, lineage_singletons
from repro.db.sql import ast
from repro.errors import ExecutionError

# Rows per batch: large enough to amortize per-batch dispatch, small
# enough that column vectors stay cache-friendly Python lists.
BATCH_SIZE = 1024


# Benchmarks flip this off to run the tuple-at-a-time engine on the
# same queries; production code never touches it.
_VECTORIZED = True

# Lineage annotation vectors materialized by scan paths (operators and
# cached segments). The no-provenance path must keep this flat — zero
# allocations — and cached segments allocate once per segment instead
# of once per scan; tests assert both through this counter.
LINEAGE_VECTOR_BUILDS = 0


def note_lineage_vector_build() -> None:
    global LINEAGE_VECTOR_BUILDS
    LINEAGE_VECTOR_BUILDS += 1


@contextmanager
def row_at_a_time_plans():
    """Force plans built inside the block onto the row executor."""
    global _VECTORIZED
    previous = _VECTORIZED
    _VECTORIZED = False
    try:
        yield
    finally:
        _VECTORIZED = previous


def vectorized_enabled() -> bool:
    """Should the planner emit batch operators right now?

    Interpreted-expressions mode implies row plans: the escape hatch
    promises the *interpreter* evaluates every expression, and batch
    operators would re-route evaluation through vector closures.
    """
    return _VECTORIZED and not exprs._INTERPRET_ONLY


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
        """Selected rows as plain tuples (the row-shim's currency).

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


class BatchOperator(ex.Operator):
    """Base for batch operators: a stream of :class:`RowBatch`.

    The inherited iteration protocol is a compatibility shim — row
    consumers iterate ``(values, lineage)`` exactly as before, decoded
    from the batch stream.
    """

    def batches(self) -> Iterator[RowBatch]:  # pragma: no cover - interface
        raise NotImplementedError

    def __iter__(self) -> Iterator[ex.Annotated]:
        for batch in self.batches():
            lineages = batch.gathered_lineages()
            if lineages is None:
                for values in batch.rows():
                    yield values, EMPTY_LINEAGE
            else:
                yield from zip(batch.rows(), lineages)


def _chunk_annotated(iterator: Iterator[ex.Annotated],
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


def batches_of(operator: ex.Operator) -> Iterator[RowBatch]:
    """Batch view of any operator — the bridge for row-only operators
    (NestedLoopJoin, MaterializedSource) inside batch plans."""
    if isinstance(operator, BatchOperator):
        return operator.batches()
    return _chunk_annotated(iter(operator), len(operator.schema))


class BatchSeqScan(BatchOperator, ex.SeqScan):
    """Columnar full scan.

    Under an MVCC read view (or with lineage tracking) rows flow
    through ``scan_versions()`` so snapshot visibility and version
    stamps match the row scan exactly; the committed-latest
    no-lineage case slices the heap directly.

    ``needed_columns`` (set by a fused parent whose expressions are
    all pure-vector) prunes materialization: only those column
    vectors are built, the rest stay None placeholders that the
    kernel provably never reads.

    When the table belongs to a catalog with a scan cache
    (:mod:`repro.db.scancache`), the scan is served from prebuilt
    cached segments whenever that is provably exact — committed-latest
    reads, and snapshot reads the cache's delta pass covers — and
    ``cache_note`` records hit/miss for EXPLAIN ANALYZE. Anything the
    cache declines falls through to the walk below unchanged.
    """

    needed_columns: set[int] | None = None
    cache_note: str | None = None

    def batches(self) -> Iterator[RowBatch]:
        table = self.table
        width = len(self.schema)
        cache = table.scan_cache
        if cache is not None:
            served = cache.serve_seq_scan(self, table)
            if served is not None:
                yield from served
                return
        if self.track_lineage or table.active_view() is not None:
            name = table.name
            track = self.track_lineage
            iterator = table.scan_versions()
            while True:
                chunk = list(islice(iterator, BATCH_SIZE))
                if not chunk:
                    return
                chunk_rows = [values for _, values, _ in chunk]
                columns = list(zip(*chunk_rows)) if width else []
                lineages = None
                if track:
                    lineages = lineage_singletons(
                        name,
                        [(rowid, version) for rowid, _, version in chunk])
                    note_lineage_vector_build()
                yield RowBatch(columns, len(chunk), lineages, None,
                               chunk_rows)
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


class BatchIndexScan(BatchOperator, ex.IndexScan):
    """Columnar index lookup: chunks the row IndexScan's output (the
    probe itself is already set-at-a-time over the hash buckets)."""

    def batches(self) -> Iterator[RowBatch]:
        return _chunk_annotated(ex.IndexScan.__iter__(self),
                                len(self.schema))


class FusedScanFilterProject(BatchOperator):
    """Scan→Filter→Project fused into one compiled per-batch kernel.

    The planner grows this node bottom-up: predicates pushed onto a
    scan join the fusion via :meth:`add_predicate`, and the final
    SELECT-list projection lands via :meth:`absorb_projections`. Each
    mutation recompiles the kernel (plan-time cost only). One batch
    then takes a single call: refine the selection through every
    predicate, gather the projected columns, pick the surviving
    lineage annotations.
    """

    def __init__(self, child: BatchOperator,
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
        if isinstance(self.child, BatchSeqScan):
            self.child.needed_columns = exprs.vector_safe_columns(
                self.predicates + self.projections, self.child.schema)

    def batches(self) -> Iterator[RowBatch]:
        kernel = self._kernel
        dense = self.projections is not None
        for batch in batches_of(self.child):
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


class BatchFilter(BatchOperator, ex.Filter):
    """Selection-vector filter: refines ``sel``, copies nothing."""

    def __init__(self, child: ex.Operator,
                 predicate: ast.Expression) -> None:
        ex.Filter.__init__(self, child, predicate)
        self._refine = exprs.compile_batch_predicate(predicate,
                                                     child.schema)

    def batches(self) -> Iterator[RowBatch]:
        refine = self._refine
        for batch in batches_of(self.child):
            sel = refine(batch.columns, batch.selection())
            if sel:
                yield RowBatch(batch.columns, batch.count,
                               batch.lineages, sel, batch.row_major)


class BatchProject(BatchOperator, ex.Project):
    """Vectorized projection: one compiled closure per output column."""

    def __init__(self, child: ex.Operator,
                 output_expressions: list, output_schema) -> None:
        ex.Project.__init__(self, child, output_expressions,
                            output_schema)
        self._batch_fns = [
            exprs.compile_batch_expression(expression, child.schema)
            for expression in output_expressions]

    def batches(self) -> Iterator[RowBatch]:
        batch_fns = self._batch_fns
        for batch in batches_of(self.child):
            sel = batch.selection()
            if not sel:
                continue
            columns = [fn(batch.columns, sel) for fn in batch_fns]
            yield RowBatch(columns, len(sel), batch.gathered_lineages())


def _dense_batch(rows: list[tuple], lineages: list | None,
                 width: int) -> RowBatch:
    """Dense batch from produced row tuples (zip-transposed)."""
    columns = list(zip(*rows)) if width else []
    return RowBatch(columns, len(rows),
                    lineages if lineages and any(lineages) else None,
                    None, rows)


class BatchHashJoin(BatchOperator, ex.HashJoin):
    """Hash join probing one batch at a time.

    The build side is consumed through its batch stream and hashed as
    row tuples (probe output is row-shaped anyway); the probe side
    evaluates its key expressions as column vectors, so the per-row
    probe loop touches only the hash lookup. NULL keys are never
    inserted into the build table, so probe lookups need no NULL
    checks — a missing key and a NULL key both miss. When neither
    input carries lineage annotations the probe loop skips all
    per-row lineage bookkeeping (no frozenset unions)."""

    def __init__(self, left: ex.Operator, right: ex.Operator,
                 left_keys: list, right_keys: list,
                 kind: str = "inner", residual=None,
                 build_side: str = "right") -> None:
        ex.HashJoin.__init__(self, left, right, left_keys, right_keys,
                             kind, residual, build_side)
        self._left_batch_keys = [
            exprs.compile_batch_expression(expression, left.schema)
            for expression in left_keys]
        self._right_batch_keys = [
            exprs.compile_batch_expression(expression, right.schema)
            for expression in right_keys]
        self._prune_side(left, left_keys)
        self._prune_side(right, right_keys)

    @staticmethod
    def _prune_side(side: ex.Operator, keys: list) -> None:
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
        if isinstance(side, BatchSeqScan):
            side.needed_columns = exprs.vector_safe_columns(
                expressions, side.schema)

    def _build_table(self, side: ex.Operator,
                     key_fns: list) -> tuple[dict, bool]:
        build: dict[Any, list] = {}
        tracked = False
        single = len(key_fns) == 1
        for batch in batches_of(side):
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
        for batch in batches_of(probe):
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


class BatchGroupAggregate(BatchOperator, ex.GroupAggregate):
    """Hash aggregation fed whole batches.

    Each batch is partitioned by group key once; every accumulator
    then consumes its group's value vector through ``add_many`` —
    preserving left-to-right fold order within the group so float
    aggregates stay bit-identical to row execution.
    """

    def __init__(self, child: ex.Operator, group_expressions: list,
                 output_expressions: list, output_schema,
                 having=None) -> None:
        ex.GroupAggregate.__init__(self, child, group_expressions,
                                   output_expressions, output_schema,
                                   having)
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

    def batches(self) -> Iterator[RowBatch]:
        groups, order = self._accumulate()
        self._ensure_global_group(groups, order)
        return _chunk_annotated(self._finalize(groups, order),
                                len(self.schema))

    def _accumulate(self) -> tuple[dict, list]:
        """Drain the child into per-group accumulator states."""
        group_fns = self._group_batch_fns
        input_fns = self._input_batch_fns
        single_key = len(group_fns) == 1
        groups: dict[tuple, dict[str, Any]] = {}
        order: list[tuple] = []
        for batch in batches_of(self.child):
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


class BatchSort(BatchOperator, ex.Sort):
    """Materializing sort over concatenated column vectors.

    Sorting permutes an index vector (:func:`executor.ordered_indices`
    — the sort keys are already columns, no per-row key extraction)
    and gathers each column once.
    """

    def batches(self) -> Iterator[RowBatch]:
        columns, lineages, count = _concat_batches(
            batches_of(self.child), len(self.schema))
        if count == 0:
            return
        if count > 1 and self.keys:
            key_columns = [(columns[index], descending)
                           for index, descending in self.keys]
            order = ex.ordered_indices(count, key_columns)
            columns = [[column[index] for index in order]
                       for column in columns]
            if lineages is not None:
                lineages = [lineages[index] for index in order]
        yield from _rechunk(columns, lineages, count)


class BatchDistinct(BatchOperator, ex.Distinct):
    """Duplicate collapse over batches, merging lineages as the row
    operator does (first occurrence wins, annotations union)."""

    def batches(self) -> Iterator[RowBatch]:
        seen: dict[tuple, list] = {}
        order: list[tuple] = []
        key_width = self.key_width
        for batch in batches_of(self.child):
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


class BatchLimit(BatchOperator, ex.Limit):
    """LIMIT/OFFSET by slicing selection vectors."""

    def batches(self) -> Iterator[RowBatch]:
        to_skip = self.offset
        remaining = self.limit
        for batch in batches_of(self.child):
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


class BatchStripColumns(BatchOperator, ex.StripColumns):
    """Drop hidden trailing columns — a vector-list slice per batch."""

    def batches(self) -> Iterator[RowBatch]:
        width = self.visible_width
        for batch in batches_of(self.child):
            yield RowBatch(batch.columns[:width], batch.count,
                           batch.lineages, batch.sel)


class BatchUnion(BatchOperator, ex.Union):
    """UNION ALL: concatenates the children's batch streams."""

    def batches(self) -> Iterator[RowBatch]:
        for child in self.children:
            yield from batches_of(child)


class BatchInstrumented(BatchOperator, ex.Instrumented):
    """Per-batch accounting for EXPLAIN ANALYZE.

    The row :class:`executor.Instrumented` charges a timer pair per
    ``next()``; wrapping batch operators that way would re-impose the
    per-tuple overhead the batch engine removed. This variant charges
    the clock once per *batch* and counts rows by batch length.
    """

    def __init__(self, inner: ex.Operator,
                 timer: Callable[[], float]) -> None:
        ex.Instrumented.__init__(self, inner, timer)
        self.batches_produced = 0

    def batches(self) -> Iterator[RowBatch]:
        self.loops += 1
        timer = self.timer
        started = timer()
        iterator = batches_of(self.inner)
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
