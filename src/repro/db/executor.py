"""Batch-at-a-time query operators with optional lineage propagation.

Every operator produces a stream of :class:`RowBatch` through
:meth:`Operator.batches` — row tuples plus a parallel *annotation
vector* of lineages — so per-tuple interpreter overhead is paid once
per ~:data:`BATCH_SIZE` rows, and expressions evaluate as compiled row
closures mapped over the batch's rows (see the batch entry points of
:mod:`repro.db.expressions`). Iterating an operator is the
row view of the same stream: ``(values, lineage)`` pairs where
``values`` is a plain tuple and ``lineage`` a ``frozenset[TupleRef]``
(empty when lineage tracking is disabled). The monitor's lineage
capture and ``INSERT ... SELECT`` consume that view.

Design rules:

* Lineage annotations ride in a vector parallel to the rows;
  ``None`` means "no annotations anywhere in this batch" so the
  non-provenance path never allocates per-row frozensets.
* A batch holds only the rows still alive: a filter keeps the passing
  rows and their lineages, and LIMIT slices both.
* Operators compile their expressions **once in __init__**. Join
  residuals, aggregate outputs and index probe constants call row
  closures from :func:`repro.db.expressions.compile_expression`
  directly; filters, projections, join keys and aggregate inputs use
  the batch entry points built on the same closures.

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

from itertools import compress, islice
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
# enough that the vectors stay cache-friendly Python lists.
BATCH_SIZE = 1024

# Lineage annotation vectors materialized by scan paths. The
# no-provenance path must keep this flat — zero allocations; tests
# assert that through this counter.
LINEAGE_VECTOR_BUILDS = 0


def note_lineage_vector_build() -> None:
    global LINEAGE_VECTOR_BUILDS
    LINEAGE_VECTOR_BUILDS += 1


class RowBatch:
    """A batch of rows with lineage annotations.

    ``rows`` holds the row tuples. ``lineages`` is a parallel list of
    frozensets, or None when no row in the batch carries lineage.
    Consumers must treat both lists as immutable — operators share
    them across batches.
    """

    __slots__ = ("rows", "lineages")

    def __init__(self, rows: list, lineages: list | None = None) -> None:
        self.rows = rows
        self.lineages = lineages

    def __len__(self) -> int:
        return len(self.rows)


class Operator:
    """Base class: a stream of :class:`RowBatch` with a fixed schema."""

    schema: Schema

    def batches(self) -> Iterator[RowBatch]:  # pragma: no cover - interface
        raise NotImplementedError

    def __iter__(self) -> Iterator[Annotated]:
        """The row view: ``(values, lineage)`` pairs decoded from
        :meth:`batches`."""
        for batch in self.batches():
            if batch.lineages is None:
                for values in batch.rows:
                    yield values, EMPTY_LINEAGE
            else:
                yield from zip(batch.rows, batch.lineages)


def _dense_batch(rows: list[tuple], lineages: list | None) -> RowBatch:
    """A batch of produced rows; all-empty lineages become None."""
    return RowBatch(rows, lineages if lineages and any(lineages) else None)


def _chunk_annotated(iterator: Iterator[Annotated]) -> Iterator[RowBatch]:
    """Chunk an annotated-row iterator into batches."""
    while True:
        chunk = list(islice(iterator, BATCH_SIZE))
        if not chunk:
            return
        yield _dense_batch([values for values, _ in chunk],
                           [lineage for _, lineage in chunk])


def _version_batches(entries: Iterable[tuple[int, tuple, int]],
                     name: str, track_lineage: bool) -> Iterator[RowBatch]:
    """Chunk ``(rowid, values, version)`` scan entries into batches,
    annotating each row with its singleton lineage when tracking."""
    iterator = iter(entries)
    while True:
        chunk = list(islice(iterator, BATCH_SIZE))
        if not chunk:
            return
        lineages = None
        if track_lineage:
            lineages = lineage_singletons(
                name, [(rowid, version) for rowid, _, version in chunk])
            note_lineage_vector_build()
        yield RowBatch([values for _, values, _ in chunk], lineages)


class SeqScan(Operator):
    """Full scan of a heap table, optionally producing lineage.

    With lineage tracking, rows flow through ``scan_versions()``, which
    reports the version of each row it yields, so lineage references
    the tuple versions the statement saw. Without, the scan slices the
    heap's row tuples directly.
    """

    def __init__(self, table: HeapTable, qualifier: str,
                 track_lineage: bool) -> None:
        self.table = table
        self.qualifier = qualifier
        self.schema = table.schema.qualified(qualifier)
        self.track_lineage = track_lineage

    def batches(self) -> Iterator[RowBatch]:
        table = self.table
        if self.track_lineage:
            yield from _version_batches(table.scan_versions(), table.name,
                                        self.track_lineage)
            return
        heap = table.rows
        ordered = (list(heap.values()) if table.rowid_ordered
                   else [heap[rowid] for rowid in sorted(heap)])
        for start in range(0, len(ordered), BATCH_SIZE):
            yield RowBatch(ordered[start:start + BATCH_SIZE])


class IndexScan(Operator):
    """Lookup(s) through a hash index.

    The probe is either constant expressions — one for
    ``col = constant``, several for ``col IN (constants)`` — each
    evaluated once per execution against the empty row (the planner
    admits only literals), or
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
        else the constants deduplicated in order."""
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
        rowids: set[int] = set()
        for value in probe_values:
            rowids.update(self.index.lookup(value))
        rows = self.table.rows
        versions = self.table.versions
        for rowid in sorted(rowids):
            yield rowid, rows[rowid], versions[rowid]

    def batches(self) -> Iterator[RowBatch]:
        return _version_batches(self.scan_versions(), self.table.name,
                                self.track_lineage)


class Filter(Operator):
    """Keep the rows for which the predicate evaluates to TRUE, and
    their lineages; a batch left empty is dropped.

    A batch without lineages goes through the batch predicate, which
    returns the passing rows. A batch with lineages maps the row
    predicate into a mask that picks the rows and lineages alike.
    """

    def __init__(self, child: Operator, predicate: ast.Expression) -> None:
        self.child = child
        self.schema = child.schema
        self.predicate = predicate
        self._kept = exprs.compile_batch_predicate(predicate, child.schema)
        self._test = exprs.compile_predicate(predicate, child.schema)

    def batches(self) -> Iterator[RowBatch]:
        kept, test = self._kept, self._test
        for batch in self.child.batches():
            if batch.lineages is None:
                rows = kept(batch.rows)
                if rows:
                    yield RowBatch(rows)
                continue
            mask = list(map(test, batch.rows))
            rows = list(compress(batch.rows, mask))
            if rows:
                yield RowBatch(rows, list(compress(batch.lineages, mask)))


class Project(Operator):
    """Evaluate a list of output expressions: one compiled batch
    closure per output column, zipped back into row tuples."""

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
            rows = batch.rows
            if rows:
                yield RowBatch(list(zip(*[fn(rows) for fn in batch_fns])),
                               batch.lineages)


class HashJoin(Operator):
    """Equi-join: build a hash table on one side, probe with the other
    one batch at a time.

    ``kind`` is ``"inner"`` or ``"left"``. Join keys are expressions
    evaluated against each side's schema. A residual predicate (the
    non-equi part of an ON / WHERE conjunction) can be applied to the
    concatenated row. ``build_side`` names which input is hashed —
    the planner picks the smaller one; a LEFT join must build on the
    right so the probe pass can pad unmatched preserved rows.

    The build side is hashed as row tuples; the probe side evaluates
    its key expressions one batch at a time into key vectors, so the
    per-row probe loop touches only the hash lookup. NULL keys are
    never inserted into the build table, so probe lookups need no NULL
    checks — a missing key and a NULL key both miss. When neither
    input carries lineage annotations the probe loop skips all
    per-row lineage bookkeeping (no frozenset unions).
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

    def _build_table(self, side: Operator,
                     key_fns: list) -> tuple[dict, bool]:
        build: dict[Any, list] = {}
        tracked = False
        single = len(key_fns) == 1
        for batch in side.batches():
            rows = batch.rows
            if not rows:
                continue
            lineages = batch.lineages
            if lineages is None:
                lineages = [EMPTY_LINEAGE] * len(rows)
            else:
                tracked = True
            key_vectors = [fn(rows) for fn in key_fns]
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
        empty = EMPTY_LINEAGE
        lookup = build.get
        out_rows: list[tuple] = []
        out_lineages: list = []
        for batch in probe.batches():
            rows = batch.rows
            if not rows:
                continue
            key_vectors = [fn(rows) for fn in probe_key_fns]
            keys = key_vectors[0] if single else list(zip(*key_vectors))
            lineages = batch.lineages
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
                                   out_lineages if tracking else None)
                out_rows, out_lineages = [], []
        if out_rows:
            yield _dense_batch(out_rows, out_lineages if tracking else None)


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
                yield _dense_batch(out_rows, out_lineages)
                out_rows, out_lineages = [], []
        if out_rows:
            yield _dense_batch(out_rows, out_lineages)


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
        return _chunk_annotated(self._finalize(groups, order))

    def _accumulate(self) -> tuple[dict, list]:
        """Drain the child into per-group accumulator states."""
        group_fns = self._group_batch_fns
        input_fns = self._input_batch_fns
        single_key = len(group_fns) == 1
        groups: dict[tuple, dict[str, Any]] = {}
        order: list[tuple] = []
        for batch in self.child.batches():
            rows = batch.rows
            size = len(rows)
            if size == 0:
                continue
            if group_fns:
                key_vectors = [fn(rows) for fn in group_fns]
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
            input_vectors = [None if fn is None else fn(rows)
                             for fn in input_fns]
            lineages = batch.lineages
            for key, bucket in positions.items():
                group_key = ((key,) if group_fns and single_key
                             else key)
                state = groups.get(group_key)
                if state is None:
                    state = self._new_state(rows[bucket[0]])
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
            lineages = batch.lineages
            for position, values in enumerate(batch.rows):
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
            (seen[key][0], frozenset(seen[key][1])) for key in order)


def _stable_key_sort(order: list[int], values: list,
                     descending: bool) -> list[int]:
    """One stable sort pass of ``order`` by ``values[i]``.

    NULLs partition out first (last in ASC order, first in DESC) so
    the comparison sort only ever sees non-NULL values. Values with no
    order between them (text and numbers) fail the raw sort with a
    TypeError; the rerun through :class:`exprs.Ordered` keys raises
    the one-line error a WHERE comparison of the pair raises.
    """
    present = [index for index in order if values[index] is not None]
    missing = [index for index in order if values[index] is None]
    try:
        present.sort(key=values.__getitem__, reverse=descending)
    except TypeError:
        present = sorted(
            (index for index in order if values[index] is not None),
            key=lambda index: exprs.Ordered(values[index]),
            reverse=descending)
    if descending:
        return missing + present
    return present + missing


def _concat_batches(batches: Iterator[RowBatch]) -> tuple[list, list | None]:
    """Materialize a batch stream into one row list and its lineages
    (None when no batch carried any)."""
    rows: list[tuple] = []
    lineages: list = []
    tracking = False
    for batch in batches:
        if batch.lineages is not None:
            if not tracking:
                lineages.extend([EMPTY_LINEAGE] * len(rows))
                tracking = True
            lineages.extend(batch.lineages)
        elif tracking:
            lineages.extend([EMPTY_LINEAGE] * len(batch.rows))
        rows.extend(batch.rows)
    return rows, (lineages if tracking else None)


class Sort(Operator):
    """Materializing sort on a list of (column index, descending) keys.

    Sorting permutes an index vector over the concatenated input, one
    stable pass per key (last key first) over that key's values read
    off the rows, then gathers the rows and lineages once.
    """

    def __init__(self, child: Operator,
                 keys: list[tuple[int, bool]]) -> None:
        self.child = child
        self.schema = child.schema
        self.keys = keys

    def batches(self) -> Iterator[RowBatch]:
        rows, lineages = _concat_batches(self.child.batches())
        if len(rows) > 1 and self.keys:
            order = list(range(len(rows)))
            for index, descending in reversed(self.keys):
                order = _stable_key_sort(
                    order, list(map(itemgetter(index), rows)), descending)
            rows = [rows[position] for position in order]
            if lineages is not None:
                lineages = [lineages[position] for position in order]
        for start in range(0, len(rows), BATCH_SIZE):
            yield RowBatch(rows[start:start + BATCH_SIZE],
                           None if lineages is None
                           else lineages[start:start + BATCH_SIZE])


class Limit(Operator):
    """LIMIT / OFFSET by slicing each batch's rows and lineages."""

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
            lineages = batch.lineages
            piece = RowBatch(batch.rows[start:stop],
                             None if lineages is None
                             else lineages[start:stop])
            if remaining is not None:
                remaining -= len(piece)
            yield piece
            if remaining is not None and remaining <= 0:
                return


class StripColumns(Operator):
    """Drop hidden trailing columns appended for ORDER BY evaluation —
    a slice of each row."""

    def __init__(self, child: Operator, visible_width: int,
                 visible_schema: Schema) -> None:
        self.child = child
        self.visible_width = visible_width
        self.schema = visible_schema

    def batches(self) -> Iterator[RowBatch]:
        width = self.visible_width
        for batch in self.child.batches():
            yield RowBatch([values[:width] for values in batch.rows],
                           batch.lineages)


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
        return _chunk_annotated(iter(self.rows))


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


def map_inputs(operator: Operator,
               visit: Callable[[Operator], Operator]) -> None:
    """Call ``visit`` on each input of ``operator`` in EXPLAIN order
    (``child``, ``left``, ``right``, then each of ``children``) and
    re-point the input to what it returns. An :class:`Instrumented`
    wrapper is looked through to the operator it wraps.

    The one place that knows where operators keep their inputs: the
    EXPLAIN renderers pass a ``visit`` that returns its argument,
    :func:`instrument_plan` one that wraps it.
    """
    if isinstance(operator, Instrumented):
        operator = operator.inner
    for attribute in ("child", "left", "right"):
        node = getattr(operator, attribute, None)
        if isinstance(node, Operator):
            setattr(operator, attribute, visit(node))
    children = getattr(operator, "children", None)
    if isinstance(children, list):
        operator.children = [visit(node) for node in children]


def instrument_plan(root: Operator,
                    timer: Callable[[], float]) -> Instrumented:
    """Wrap every operator in ``root``'s tree with :class:`Instrumented`.

    Mutates the tree in place (re-pointing child attributes), so it
    must only be applied to a freshly built plan.
    """
    map_inputs(root, lambda node: instrument_plan(node, timer))
    return Instrumented(root, timer)
