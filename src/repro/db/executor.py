"""Pull-based query operators with optional lineage propagation.

Every operator is an iterator over ``(values, lineage)`` pairs where
``values`` is a plain tuple and ``lineage`` is a
``frozenset[TupleRef]`` (empty when lineage tracking is disabled, so
downstream code never needs a None check).

Operators compile their expressions **once in __init__** via
:func:`repro.db.expressions.compile_expression` — the per-row work is
a chain of closures, not an AST walk (see docs/engine-internals.md).
:class:`Instrumented` wraps any operator transparently to record rows
produced and wall time for ``EXPLAIN ANALYZE``.

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

from typing import Any, Callable, Iterable, Iterator

from repro.db import expressions as exprs
from repro.db.provtypes import EMPTY_LINEAGE, TupleRef
from repro.db.sql import ast
from repro.db.storage import HeapTable
from repro.db.types import Schema
from repro.errors import ExecutionError

Row = tuple
Annotated = tuple[Row, frozenset]


class Operator:
    """Base class: an iterable of annotated rows with a fixed schema."""

    schema: Schema

    def __iter__(self) -> Iterator[Annotated]:  # pragma: no cover - interface
        raise NotImplementedError


class SeqScan(Operator):
    """Full scan of a heap table, optionally producing lineage."""

    def __init__(self, table: HeapTable, qualifier: str,
                 track_lineage: bool) -> None:
        self.table = table
        self.qualifier = qualifier
        self.schema = table.schema.qualified(qualifier)
        self.track_lineage = track_lineage

    def __iter__(self) -> Iterator[Annotated]:
        if self.track_lineage:
            name = self.table.name
            # scan_versions reports the begin stamp of the version the
            # ambient read view actually saw — under a snapshot that
            # may be a history entry or the session's own write, so
            # lineage references the snapshot's tuple versions
            for rowid, values, version in self.table.scan_versions():
                yield values, frozenset((TupleRef(name, rowid, version),))
        else:
            for _rowid, values in self.table.scan():
                yield values, EMPTY_LINEAGE


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

    def __iter__(self) -> Iterator[Annotated]:
        if self.track_lineage:
            name = self.table.name
            for rowid, values, version in self.scan_versions():
                yield values, frozenset((TupleRef(name, rowid, version),))
        else:
            for _rowid, values, _version in self.scan_versions():
                yield values, EMPTY_LINEAGE


class Filter(Operator):
    """Keep rows for which the predicate evaluates to TRUE."""

    def __init__(self, child: Operator, predicate: ast.Expression) -> None:
        self.child = child
        self.schema = child.schema
        self.predicate = predicate
        self._matches = exprs.compile_predicate(predicate, child.schema)

    def __iter__(self) -> Iterator[Annotated]:
        matches = self._matches
        for values, lineage in self.child:
            if matches(values):
                yield values, lineage


class Project(Operator):
    """Evaluate a list of output expressions per input row."""

    def __init__(self, child: Operator,
                 output_expressions: list[ast.Expression],
                 output_schema: Schema) -> None:
        self.child = child
        self.schema = output_schema
        self.output_expressions = output_expressions
        self._output_fns = [exprs.compile_expression(expression, child.schema)
                            for expression in output_expressions]

    def __iter__(self) -> Iterator[Annotated]:
        output_fns = self._output_fns
        for values, lineage in self.child:
            out = tuple(fn(values) for fn in output_fns)
            yield out, lineage


class HashJoin(Operator):
    """Equi-join: build a hash table on one side, probe with the other.

    ``kind`` is ``"inner"`` or ``"left"``. Join keys are expressions
    evaluated against each side's schema. A residual predicate (the
    non-equi part of an ON / WHERE conjunction) can be applied to the
    concatenated row. ``build_side`` names which input is hashed —
    the planner picks the smaller one; a LEFT join must build on the
    right so the probe pass can pad unmatched preserved rows.
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
        self._left_key_fns = [exprs.compile_expression(expression, left.schema)
                              for expression in left_keys]
        self._right_key_fns = [exprs.compile_expression(expression,
                                                        right.schema)
                               for expression in right_keys]
        self._residual_fn = (exprs.compile_predicate(residual, self.schema)
                             if residual is not None else None)

    def __iter__(self) -> Iterator[Annotated]:
        if self.build_side == "left":
            yield from self._iter_build_left()
            return
        build: dict[tuple, list[Annotated]] = {}
        right_key_fns = self._right_key_fns
        for values, lineage in self.right:
            key = tuple(fn(values) for fn in right_key_fns)
            if any(part is None for part in key):
                continue  # NULL never equi-joins
            build.setdefault(key, []).append((values, lineage))
        left_key_fns = self._left_key_fns
        residual = self._residual_fn
        right_width = len(self.right.schema)
        null_pad = (None,) * right_width
        for values, lineage in self.left:
            key = tuple(fn(values) for fn in left_key_fns)
            produced = False
            if not any(part is None for part in key):
                for right_values, right_lineage in build.get(key, ()):
                    joined = values + right_values
                    if residual is not None and not residual(joined):
                        continue
                    produced = True
                    yield joined, lineage | right_lineage
            if self.kind == "left" and not produced:
                yield values + null_pad, lineage

    def _iter_build_left(self) -> Iterator[Annotated]:
        # inner join only (validated in __init__): hash the left input,
        # stream the right past it; output column order stays left+right
        build: dict[tuple, list[Annotated]] = {}
        left_key_fns = self._left_key_fns
        for values, lineage in self.left:
            key = tuple(fn(values) for fn in left_key_fns)
            if any(part is None for part in key):
                continue
            build.setdefault(key, []).append((values, lineage))
        right_key_fns = self._right_key_fns
        residual = self._residual_fn
        for values, lineage in self.right:
            key = tuple(fn(values) for fn in right_key_fns)
            if any(part is None for part in key):
                continue
            for left_values, left_lineage in build.get(key, ()):
                joined = left_values + values
                if residual is not None and not residual(joined):
                    continue
                yield joined, left_lineage | lineage


class NestedLoopJoin(Operator):
    """General theta-join; materializes the right side once."""

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

    def __iter__(self) -> Iterator[Annotated]:
        right_rows = list(self.right)
        condition = self._condition_fn
        right_width = len(self.right.schema)
        null_pad = (None,) * right_width
        for values, lineage in self.left:
            produced = False
            for right_values, right_lineage in right_rows:
                joined = values + right_values
                if condition is not None and not condition(joined):
                    continue
                produced = True
                yield joined, lineage | right_lineage
            if self.kind == "left" and not produced:
                yield values + null_pad, lineage


class GroupAggregate(Operator):
    """Hash aggregation fused with output projection.

    ``group_expressions`` define the grouping key (empty for a global
    aggregate); ``output_expressions`` may mix group expressions,
    aggregate calls, and scalar expressions over them. ``having`` is
    applied per group after accumulation.

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
        self._group_fns = [exprs.compile_expression(expression, child.schema)
                           for expression in group_expressions]
        # COUNT(*) feeds the whole row; other aggregates compile their
        # single argument expression once
        self._input_fns = [
            None if (len(call.args) == 1
                     and isinstance(call.args[0], ast.Star))
            else exprs.compile_expression(call.args[0], child.schema)
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

    def _ensure_global_group(self, groups: dict, order: list) -> None:
        if not groups and not self.group_expressions:
            # global aggregate over empty input still yields one row
            groups[()] = self._new_state(None)
            order.append(())

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

    def __iter__(self) -> Iterator[Annotated]:
        group_fns = self._group_fns
        input_fns = self._input_fns
        groups: dict[tuple, dict[str, Any]] = {}
        order: list[tuple] = []
        for values, lineage in self.child:
            key = tuple(fn(values) for fn in group_fns)
            state = groups.get(key)
            if state is None:
                state = self._new_state(values)
                groups[key] = state
                order.append(key)
            for input_fn, accumulator in zip(input_fns,
                                             state["accumulators"]):
                if input_fn is None:
                    accumulator.add(values)  # COUNT(*): every row counts
                else:
                    accumulator.add(input_fn(values))
            state["lineage"].update(lineage)
        self._ensure_global_group(groups, order)
        yield from self._finalize(groups, order)


class Distinct(Operator):
    """Collapse duplicate rows, merging their lineages.

    ``key_width`` limits duplicate detection to a prefix of the row
    (used when hidden ORDER BY columns were appended after the visible
    select list).
    """

    def __init__(self, child: Operator, key_width: int | None = None) -> None:
        self.child = child
        self.schema = child.schema
        self.key_width = key_width

    def __iter__(self) -> Iterator[Annotated]:
        seen: dict[tuple, list] = {}
        order: list[tuple] = []
        for values, lineage in self.child:
            key = values if self.key_width is None else values[: self.key_width]
            entry = seen.get(key)
            if entry is None:
                seen[key] = [values, set(lineage)]
                order.append(key)
            else:
                entry[1].update(lineage)
        for key in order:
            values, lineage = seen[key]
            yield values, frozenset(lineage)


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
    wrappers, whose raw ``<`` raises the same TypeError the row
    engine raised.
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
    shared by :class:`Sort` and the batch sort in ``vector.py``.
    """
    order = list(range(count))
    for values, descending in reversed(key_columns):
        order = _stable_key_sort(order, values, descending)
    return order


class Sort(Operator):
    """Materializing sort on a list of (column index, descending) keys."""

    def __init__(self, child: Operator,
                 keys: list[tuple[int, bool]]) -> None:
        self.child = child
        self.schema = child.schema
        self.keys = keys

    def __iter__(self) -> Iterator[Annotated]:
        rows = list(self.child)
        if len(rows) > 1:
            key_columns = [([item[0][index] for item in rows], descending)
                           for index, descending in self.keys]
            order = ordered_indices(len(rows), key_columns)
            rows = [rows[index] for index in order]
        return iter(rows)


class Limit(Operator):
    """LIMIT / OFFSET."""

    def __init__(self, child: Operator, limit: int | None,
                 offset: int | None) -> None:
        self.child = child
        self.schema = child.schema
        self.limit = limit
        self.offset = offset or 0

    def __iter__(self) -> Iterator[Annotated]:
        skipped = 0
        emitted = 0
        for item in self.child:
            if skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and emitted >= self.limit:
                return
            emitted += 1
            yield item


class StripColumns(Operator):
    """Drop hidden trailing columns appended for ORDER BY evaluation."""

    def __init__(self, child: Operator, visible_width: int,
                 visible_schema: Schema) -> None:
        self.child = child
        self.visible_width = visible_width
        self.schema = visible_schema

    def __iter__(self) -> Iterator[Annotated]:
        width = self.visible_width
        for values, lineage in self.child:
            yield values[:width], lineage


class Union(Operator):
    """Concatenate compatible inputs (UNION ALL); wrap in
    :class:`Distinct` for set semantics.

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

    def __iter__(self) -> Iterator[Annotated]:
        for child in self.children:
            yield from child


class MaterializedSource(Operator):
    """Serve pre-computed annotated rows (used by INSERT ... SELECT etc.)."""

    def __init__(self, schema: Schema, rows: Iterable[Annotated]) -> None:
        self.schema = schema
        self.rows = list(rows)

    def __iter__(self) -> Iterator[Annotated]:
        return iter(self.rows)


class Instrumented(Operator):
    """Transparent wrapper recording rows produced and wall time.

    EXPLAIN ANALYZE wraps every operator in the plan with one of
    these. Time is charged per ``next()`` call, so a blocking operator
    (Sort, GroupAggregate) attributes its materialization cost to its
    own first row rather than to its parent. The clock is injectable
    for deterministic tests.
    """

    def __init__(self, inner: Operator,
                 timer: Callable[[], float]) -> None:
        self.inner = inner
        self.schema = inner.schema
        self.timer = timer
        self.rows = 0
        self.total_seconds = 0.0
        self.loops = 0

    def __iter__(self) -> Iterator[Annotated]:
        self.loops += 1
        timer = self.timer
        started = timer()
        # iter() is inside the timed region: operators that materialize
        # eagerly in __iter__ (Sort) must charge that work to themselves
        iterator = iter(self.inner)
        self.total_seconds += timer() - started
        while True:
            started = timer()
            try:
                item = next(iterator)
            except StopIteration:
                self.total_seconds += timer() - started
                return
            self.total_seconds += timer() - started
            self.rows += 1
            yield item


_CHILD_ATTRS = ("child", "left", "right", "inner")


def instrument_plan(root: Operator,
                    timer: Callable[[], float]) -> Instrumented:
    """Wrap every operator in ``root``'s tree with :class:`Instrumented`.

    Mutates the tree in place (re-pointing child attributes), so it
    must only be applied to a freshly built plan — never to one served
    from the plan cache.
    """
    from repro.db import vector  # deferred: vector imports this module
    for attribute in _CHILD_ATTRS:
        child = getattr(root, attribute, None)
        if isinstance(child, Operator):
            setattr(root, attribute, instrument_plan(child, timer))
    children = getattr(root, "children", None)
    if isinstance(children, list):
        root.children = [instrument_plan(child, timer)
                        for child in children]
    if isinstance(root, vector.BatchOperator):
        return vector.BatchInstrumented(root, timer)
    return Instrumented(root, timer)
