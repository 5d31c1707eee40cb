"""Logical planning: turn a SELECT AST into an operator tree.

The planner performs the classical minimum needed to make the paper's
TPC-H workload tractable in a pure-Python executor:

* predicate pushdown of single-table WHERE conjuncts below joins,
* extraction of cross-table equi-conjuncts as hash-join keys,
* greedy join ordering (join any source connected to the current
  result by an equi-predicate before considering cross products),
* star expansion and output-type inference,
* hidden sort columns so ORDER BY can reference non-projected
  expressions.

The rules are rote: no statistics are kept. The one data-dependent
choice, a hash join's build side, compares heap row counts, which
include an open transaction's own writes, so a bulk insert inside it
steers its own plans. Every choice is advisory: all plan shapes
produce identical rows and lineage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.db import expressions as exprs
from repro.db.catalog import Catalog
from repro.db.executor import (
    Distinct,
    Filter,
    GroupAggregate,
    HashJoin,
    IndexScan,
    Instrumented,
    Limit,
    MaterializedSource,
    NestedLoopJoin,
    Operator,
    Project,
    SeqScan,
    Sort,
    StripColumns,
    Union,
    map_inputs,
)
from repro.db.sql import ast
from repro.db.storage import HashIndex, HeapTable
from repro.db.types import Column, Schema, SQLType
from repro.errors import CatalogError, ExecutionError, SQLSyntaxError


@dataclass
class PlannedQuery:
    """A ready-to-run operator tree plus its visible output schema."""

    root: Operator
    schema: Schema
    source_tables: list[str]


def explain_plan(root: Operator) -> list[str]:
    """Render an operator tree as indented EXPLAIN lines.

    :class:`Instrumented` wrappers (EXPLAIN ANALYZE) are transparent:
    the wrapped operator is described, with its measured row count and
    wall time appended as ``(rows=N time=T ms)``.
    """
    lines: list[str] = []

    def describe(operator: Operator) -> str:
        if isinstance(operator, Instrumented):
            return (describe_bare(operator.inner)
                    + f" (rows={operator.rows} "
                    f"time={operator.total_seconds * 1000.0:.3f} ms)")
        return describe_bare(operator)

    def describe_bare(operator: Operator) -> str:
        if isinstance(operator, IndexScan):
            from repro.db.sql.render import render_expression
            if operator.bounds is not None:
                low, high = operator.bounds
                probe = (f"{operator.index.column} BETWEEN {low} "
                         f"AND {high}")
            elif len(operator.value_expressions) == 1:
                (value,) = operator.value_expressions
                probe = (f"{operator.index.column} = "
                         f"{render_expression(value)}")
            else:
                rendered = ", ".join(
                    render_expression(expression)
                    for expression in operator.value_expressions)
                probe = f"{operator.index.column} IN ({rendered})"
            return (f"IndexScan on {operator.table.name} using "
                    f"{operator.index.name} ({probe})")
        if isinstance(operator, SeqScan):
            return f"SeqScan on {operator.table.name}"
        if isinstance(operator, Filter):
            from repro.db.sql.render import render_expression
            return f"Filter: {render_expression(operator.predicate)}"
        if isinstance(operator, HashJoin):
            from repro.db.sql.render import render_expression
            keys = " AND ".join(
                f"{render_expression(l)} = {render_expression(r)}"
                for l, r in zip(operator.left_keys, operator.right_keys))
            return (f"HashJoin ({operator.kind}, "
                    f"build={operator.build_side}) on {keys}")
        if isinstance(operator, NestedLoopJoin):
            return f"NestedLoopJoin ({operator.kind})"
        if isinstance(operator, GroupAggregate):
            return (f"GroupAggregate "
                    f"({len(operator.group_expressions)} keys, "
                    f"{len(operator.aggregate_calls)} aggregates)")
        if isinstance(operator, Sort):
            return f"Sort on {operator.keys}"
        if isinstance(operator, Limit):
            return f"Limit {operator.limit} offset {operator.offset}"
        return type(operator).__name__

    def walk(operator: Operator, depth: int) -> Operator:
        lines.append("  " * depth + describe(operator))
        map_inputs(operator, lambda node: walk(node, depth + 1))
        return operator

    walk(root, 0)
    return lines


def analyze_stats(root: Operator) -> list[dict]:
    """Flatten an instrumented tree into per-operator measurements.

    Returns one entry per plan node in EXPLAIN order:
    ``{"operator", "depth", "rows", "seconds", "loops", "batches"}``.
    Nodes that are not wrapped report zero counters (never happens for
    trees built by :func:`repro.db.executor.instrument_plan`).
    """
    entries: list[dict] = []

    def walk(operator: Operator, depth: int) -> Operator:
        inner = operator
        rows = seconds = loops = batches = 0
        if isinstance(operator, Instrumented):
            inner = operator.inner
            rows = operator.rows
            seconds = operator.total_seconds
            loops = operator.loops
            batches = operator.batches_produced
        entries.append({
            "operator": type(inner).__name__,
            "depth": depth,
            "rows": rows,
            "seconds": seconds,
            "loops": loops,
            "batches": batches,
        })
        map_inputs(operator, lambda node: walk(node, depth + 1))
        return operator

    walk(root, 0)
    return entries


# ---------------------------------------------------------------------------
# Expression utilities
# ---------------------------------------------------------------------------


def split_conjuncts(expression: Optional[ast.Expression]) -> list[ast.Expression]:
    """Flatten a WHERE clause into its top-level AND conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: list[ast.Expression]) -> Optional[ast.Expression]:
    """Rebuild an AND tree from a conjunct list (None when empty)."""
    result: Optional[ast.Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.BinaryOp("and", result, conjunct)
    return result


def infer_type(expression: ast.Expression, schema: Schema) -> SQLType:
    """Best-effort static type of an output expression."""
    if isinstance(expression, ast.Literal):
        value = expression.value
        if isinstance(value, bool):
            return SQLType.BOOLEAN
        if isinstance(value, int):
            return SQLType.INTEGER
        if isinstance(value, float):
            return SQLType.FLOAT
        return SQLType.TEXT
    if isinstance(expression, ast.ColumnRef):
        try:
            index = schema.index_of(expression.name, expression.qualifier)
        except CatalogError:
            return SQLType.TEXT
        return schema.columns[index].sql_type
    if isinstance(expression, ast.UnaryOp):
        if expression.op == "not":
            return SQLType.BOOLEAN
        return infer_type(expression.operand, schema)
    if isinstance(expression, ast.BinaryOp):
        if expression.op in ("and", "or", "=", "<>", "<", "<=", ">", ">="):
            return SQLType.BOOLEAN
        if expression.op == "||":
            return SQLType.TEXT
        left = infer_type(expression.left, schema)
        right = infer_type(expression.right, schema)
        if expression.op == "/" or SQLType.FLOAT in (left, right):
            if left is SQLType.INTEGER and right is SQLType.INTEGER:
                return SQLType.INTEGER
            return SQLType.FLOAT
        return left
    if isinstance(expression, (ast.Between, ast.Like, ast.InList, ast.IsNull)):
        return SQLType.BOOLEAN
    if isinstance(expression, ast.FunctionCall):
        name = expression.name
        if name == "count":
            return SQLType.INTEGER
        if name == "avg":
            return SQLType.FLOAT
        if name in ("sum", "min", "max", "abs", "mod"):
            if expression.args and not isinstance(expression.args[0], ast.Star):
                return infer_type(expression.args[0], schema)
            return SQLType.INTEGER
        if name in ("length", "floor", "ceil"):
            return SQLType.INTEGER
        if name == "round":
            return SQLType.FLOAT
        if name == "coalesce" and expression.args:
            return infer_type(expression.args[0], schema)
        return SQLType.TEXT
    if isinstance(expression, ast.CaseWhen):
        return infer_type(expression.branches[0][1], schema)
    return SQLType.TEXT


def derive_column_name(expression: ast.Expression, index: int) -> str:
    """Column name for an unaliased select item."""
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.FunctionCall):
        return expression.name
    return f"column{index + 1}"


# ---------------------------------------------------------------------------
# Source planning (FROM + WHERE decomposition)
# ---------------------------------------------------------------------------


class _SourceSet:
    """Tracks which leaf sources a plan fragment covers, for conjunct
    classification."""

    def __init__(self, operator: Operator, aliases: frozenset[str]) -> None:
        self.operator = operator
        self.aliases = aliases


def _plan_table(ref: ast.TableRef, catalog: Catalog,
                track_lineage: bool) -> _SourceSet:
    table = catalog.get_table(ref.name)
    scan = SeqScan(table, ref.effective_alias, track_lineage)
    return _SourceSet(scan, frozenset({ref.effective_alias.lower()}))


def _merge_sets(left: _SourceSet, right: _SourceSet,
                operator: Operator) -> _SourceSet:
    return _SourceSet(operator, left.aliases | right.aliases)


def _estimate_rows(operator: Operator) -> int | None:
    """Base-table row count feeding a plan fragment.

    Walks single-child chains (filters) down to the scan;
    gives up (None) at joins and other multi-input nodes.
    """
    node = operator
    while node is not None:
        if isinstance(node, (SeqScan, IndexScan)):
            return node.table.row_count
        node = getattr(node, "child", None)
    return None


def _choose_build_side(kind: str, left: _SourceSet,
                       right: _SourceSet) -> str:
    """Hash the smaller input. LEFT joins must build on the right
    (the probe pass pads unmatched preserved rows); ties and unknown
    cardinalities keep the historical build-right choice."""
    if kind != "inner":
        return "right"
    left_rows = _estimate_rows(left.operator)
    right_rows = _estimate_rows(right.operator)
    if left_rows is None or right_rows is None:
        return "right"
    return "left" if left_rows < right_rows else "right"


def _make_hash_join(left: _SourceSet, right: _SourceSet,
                    left_keys: list[ast.Expression],
                    right_keys: list[ast.Expression], kind: str,
                    residual: Optional[ast.Expression]) -> _SourceSet:
    build_side = _choose_build_side(kind, left, right)
    operator = HashJoin(left.operator, right.operator, left_keys,
                        right_keys, kind, residual, build_side)
    return _merge_sets(left, right, operator)


def _plan_join_source(source, catalog: Catalog,
                      track_lineage: bool) -> _SourceSet:
    """Plan a FROM entry, which may be a TableRef or an explicit Join."""
    if isinstance(source, ast.TableRef):
        return _plan_table(source, catalog, track_lineage)
    if isinstance(source, ast.Join):
        left = _plan_join_source(source.left, catalog, track_lineage)
        right = _plan_table(source.right, catalog, track_lineage)
        if source.kind == "cross" or source.condition is None:
            operator: Operator = NestedLoopJoin(
                left.operator, right.operator, None, "cross")
            return _merge_sets(left, right, operator)
        equi, residual = _extract_equi_keys(
            split_conjuncts(source.condition), left, right)
        if equi:
            left_keys = [pair[0] for pair in equi]
            right_keys = [pair[1] for pair in equi]
            return _make_hash_join(left, right, left_keys, right_keys,
                                   source.kind, conjoin(residual))
        operator = NestedLoopJoin(left.operator, right.operator,
                                  source.condition, source.kind)
        return _merge_sets(left, right, operator)
    raise ExecutionError(f"unsupported FROM entry {source!r}")


def _aliases_of(expression: ast.Expression,
                sources: list[_SourceSet]) -> frozenset[str] | None:
    """The set of source fragments an expression's columns resolve to.

    Returns None when any column reference cannot be resolved uniquely
    (forces the conjunct to be applied as a post-join filter where full
    schema resolution produces a proper error message).
    """
    aliases: set[str] = set()
    for ref in exprs.columns_referenced(expression):
        owner = _resolve_owner(ref, sources)
        if owner is None:
            return None
        aliases.add(owner)
    return frozenset(aliases)


def _resolve_owner(ref: ast.ColumnRef,
                   sources: list[_SourceSet]) -> str | None:
    """Which fragment (by canonical alias) owns a column reference."""
    owners = []
    for source in sources:
        if ref.qualifier is not None:
            if (ref.qualifier.lower() in source.aliases
                    and source.operator.schema.has_column(
                        ref.name, ref.qualifier)):
                owners.append(source)
        elif source.operator.schema.has_column(ref.name):
            owners.append(source)
    if len(owners) != 1:
        return None
    return min(owners[0].aliases)


def _extract_equi_keys(conjuncts: list[ast.Expression],
                       left: _SourceSet, right: _SourceSet):
    """Split conjuncts into hash-join key pairs and a residual list."""
    equi: list[tuple[ast.Expression, ast.Expression]] = []
    residual: list[ast.Expression] = []
    for conjunct in conjuncts:
        pair = _as_equi_pair(conjunct, left, right)
        if pair is not None:
            equi.append(pair)
        else:
            residual.append(conjunct)
    return equi, residual


def _as_equi_pair(conjunct: ast.Expression, left: _SourceSet,
                  right: _SourceSet):
    """Return (left_key, right_key) if the conjunct is `a = b` across
    the two sides, else None."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    sides = [left, right]
    left_aliases = _aliases_of(conjunct.left, sides)
    right_aliases = _aliases_of(conjunct.right, sides)
    if not left_aliases or not right_aliases:
        return None
    if left_aliases <= left.aliases and right_aliases <= right.aliases:
        return conjunct.left, conjunct.right
    if left_aliases <= right.aliases and right_aliases <= left.aliases:
        return conjunct.right, conjunct.left
    return None


def _plan_from_where(select: ast.Select, catalog: Catalog,
                     track_lineage: bool) -> tuple[Operator, list[str]]:
    """Plan the FROM/WHERE part, returning the source operator tree and
    the list of base tables it reads."""
    source_tables = _collect_source_tables(select.sources)
    if not select.sources:
        # SELECT without FROM: one empty row so literals evaluate once
        schema = Schema([])
        root: Operator = MaterializedSource(
            schema, [((), frozenset())])
        if select.where is not None:
            root = Filter(root, select.where)
        return root, source_tables

    fragments = [_plan_join_source(source, catalog, track_lineage)
                 for source in select.sources]
    conjuncts = split_conjuncts(select.where)

    # push single-fragment conjuncts down onto their fragment;
    # column-free conjuncts (e.g. WHERE 1 = 0) go on the first
    # fragment so they short-circuit before any join
    remaining: list[ast.Expression] = []
    for conjunct in conjuncts:
        aliases = _aliases_of(conjunct, fragments)
        placed = False
        if aliases is not None:
            if not aliases:
                fragments[0].operator = Filter(
                    fragments[0].operator, conjunct)
                placed = True
            else:
                for fragment in fragments:
                    if aliases <= fragment.aliases:
                        if not _try_index_scan(fragment, conjunct,
                                               track_lineage):
                            fragment.operator = Filter(
                                fragment.operator, conjunct)
                        placed = True
                        break
        if not placed:
            remaining.append(conjunct)

    # greedy join ordering in FROM order: join the first pending
    # fragment connected to the current result by an equi-predicate,
    # and fall back to a cross product only when none is
    current = fragments[0]
    pending = fragments[1:]
    while pending:
        chosen = None
        for index, candidate in enumerate(pending):
            equi, _ = _extract_equi_keys(remaining, current, candidate)
            if equi:
                chosen = (index, equi)
                break
        if chosen is None:
            candidate = pending.pop(0)
            operator: Operator = NestedLoopJoin(
                current.operator, candidate.operator, None, "cross")
            current = _merge_sets(current, candidate, operator)
            continue
        chosen_index, chosen_equi = chosen
        candidate = pending.pop(chosen_index)
        left_keys = [pair[0] for pair in chosen_equi]
        right_keys = [pair[1] for pair in chosen_equi]
        current = _make_hash_join(current, candidate, left_keys,
                                  right_keys, "inner", None)
        # remove consumed equi conjuncts from the remaining list
        consumed = set()
        for left_key, right_key in chosen_equi:
            consumed.add((left_key, right_key))
        remaining = [
            conjunct for conjunct in remaining
            if not (isinstance(conjunct, ast.BinaryOp)
                    and conjunct.op == "="
                    and ((conjunct.left, conjunct.right) in consumed
                         or (conjunct.right, conjunct.left) in consumed))
        ]

    root = current.operator
    residual = conjoin(remaining)
    if residual is not None:
        root = Filter(root, residual)
    return root, source_tables


@dataclass(frozen=True)
class IndexProbe:
    """A hash-index access path answering one WHERE conjunct.

    ``values`` holds the constant expressions of ``col = constant`` or
    ``col IN (constants)``; ``bounds`` the inclusive integer range of
    ``col BETWEEN lo AND hi``. Exactly one of the two is set. The rows
    the probe fetches are exactly those for which the conjunct is
    TRUE, so they are a superset of the rows the whole WHERE selects.
    """

    index: HashIndex
    values: tuple[ast.Expression, ...] = ()
    bounds: Optional[tuple[int, int]] = None


def _probe_candidates(conjunct: ast.Expression):
    """``(column, values, bounds)`` shapes an index might answer.

    Only non-negated ``col IN (constant, ...)`` qualifies: the probe
    skips NULL items, which is safe because a NULL item can only make
    the predicate UNKNOWN — never TRUE — and filters drop UNKNOWN.
    A BETWEEN qualifies only with two ``int`` literal bounds.
    """
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        for column, value in ((conjunct.left, conjunct.right),
                              (conjunct.right, conjunct.left)):
            if (isinstance(column, ast.ColumnRef)
                    and isinstance(value, ast.Literal)):
                yield column, (value,), None
    elif (isinstance(conjunct, ast.InList) and not conjunct.negated
            and isinstance(conjunct.operand, ast.ColumnRef)
            and conjunct.items
            and all(isinstance(item, ast.Literal)
                    for item in conjunct.items)):
        yield conjunct.operand, tuple(conjunct.items), None
    elif (isinstance(conjunct, ast.Between) and not conjunct.negated
            and isinstance(conjunct.operand, ast.ColumnRef)
            and all(isinstance(bound, ast.Literal)
                    and type(bound.value) is int
                    for bound in (conjunct.low, conjunct.high))):
        yield conjunct.operand, (), (conjunct.low.value,
                                     conjunct.high.value)


def index_probe(table: HeapTable, schema: Schema,
                where: Optional[ast.Expression]) -> Optional[IndexProbe]:
    """The first top-level WHERE conjunct a hash index on ``table``
    can answer, as an :class:`IndexProbe` (None when there is none).

    ``schema`` resolves the column references (the scan's qualified
    schema). Recognized conjuncts: ``col = constant``,
    ``col IN (constants)``, and ``col BETWEEN lo AND hi`` on an
    INTEGER column — a range only while ``0 <= hi - lo`` stays below
    the live row count, since probing more values than there are rows
    cannot beat reading them. This is the one place both SELECT
    planning and UPDATE/DELETE targeting take their index rules from.
    """
    for conjunct in split_conjuncts(where):
        for column, values, bounds in _probe_candidates(conjunct):
            if not schema.has_column(column.name, column.qualifier):
                continue
            index = table.index_on(column.name)
            if index is None:
                continue
            if bounds is not None:
                low, high = bounds
                column_type = table.schema.columns[index.position].sql_type
                if (column_type is not SQLType.INTEGER
                        or not 0 <= high - low
                        < table.row_count):
                    continue
            return IndexProbe(index, values, bounds)
    return None


def _try_index_scan(fragment: _SourceSet, conjunct: ast.Expression,
                    track_lineage: bool) -> bool:
    """Turn a bare SeqScan plus a conjunct :func:`index_probe` accepts
    into an IndexScan."""
    operator = fragment.operator
    if not isinstance(operator, SeqScan):
        return False
    probe = index_probe(operator.table, operator.schema, conjunct)
    if probe is None:
        return False
    fragment.operator = IndexScan(
        operator.table, operator.qualifier, probe.index, probe.values,
        track_lineage, bounds=probe.bounds)
    return True


def _collect_source_tables(sources) -> list[str]:
    tables: list[str] = []

    def visit(source) -> None:
        if isinstance(source, ast.TableRef):
            tables.append(source.name.lower())
        elif isinstance(source, ast.Join):
            visit(source.left)
            tables.append(source.right.name.lower())

    for source in sources:
        visit(source)
    return tables


# ---------------------------------------------------------------------------
# Full SELECT planning
# ---------------------------------------------------------------------------


def _expand_stars(select: ast.Select, schema: Schema) -> list[ast.SelectItem]:
    """Replace * / alias.* select items with explicit column references."""
    items: list[ast.SelectItem] = []
    for item in select.items:
        if isinstance(item.expression, ast.Star):
            qualifier = item.expression.qualifier
            matched = False
            for column, column_qualifier in zip(schema.columns,
                                                schema.qualifiers):
                if qualifier is not None and (
                        column_qualifier is None
                        or column_qualifier.lower() != qualifier.lower()):
                    continue
                matched = True
                items.append(ast.SelectItem(
                    ast.ColumnRef(column.name, column_qualifier)))
            if not matched:
                raise ExecutionError(
                    f"unknown table alias in {qualifier}.*")
        else:
            items.append(item)
    return items


def plan_select(select: ast.Select, catalog: Catalog,
                track_lineage: bool = False) -> PlannedQuery:
    """Plan a SELECT statement into an executable operator tree.

    Plain execution and EXPLAIN ANALYZE run the same tree: one node
    per scan, filter and projection.
    """
    source, source_tables = _plan_from_where(select, catalog,
                                             track_lineage)
    items = _expand_stars(select, source.schema)

    output_expressions = [item.expression for item in items]
    output_columns = []
    for index, item in enumerate(items):
        name = item.alias or derive_column_name(item.expression, index)
        output_columns.append(
            Column(name, infer_type(item.expression, source.schema)))
    visible_width = len(output_expressions)
    visible_schema = Schema(output_columns)

    has_aggregates = bool(select.group_by) or any(
        exprs.contains_aggregate(expression)
        for expression in output_expressions) or (
            select.having is not None
            and exprs.contains_aggregate(select.having))
    if select.having is not None and not has_aggregates:
        raise SQLSyntaxError("HAVING requires aggregation")

    # ORDER BY handling: match select aliases / expressions, else append
    # hidden output columns.
    sort_keys: list[tuple[int, bool]] = []
    hidden: list[ast.Expression] = []
    for order_item in select.order_by:
        index = _match_order_expression(order_item.expression, items)
        if index is None:
            index = visible_width + len(hidden)
            hidden.append(order_item.expression)
        sort_keys.append((index, order_item.descending))
    all_expressions = output_expressions + hidden
    full_columns = list(output_columns) + [
        Column(f"_sort{i}", infer_type(expression, source.schema))
        for i, expression in enumerate(hidden)]
    full_schema = Schema(full_columns)

    if has_aggregates:
        root: Operator = GroupAggregate(
            source, list(select.group_by), all_expressions,
            full_schema, select.having)
    else:
        root = Project(source, all_expressions, full_schema)

    if select.distinct:
        root = Distinct(root, visible_width if hidden else None)
    if sort_keys:
        root = Sort(root, sort_keys)
    if select.limit is not None or select.offset is not None:
        root = Limit(root, select.limit, select.offset)
    if hidden:
        root = StripColumns(root, visible_width, visible_schema)
    return PlannedQuery(root, visible_schema, source_tables)


def plan_setop(setop: ast.SetOp, catalog: Catalog,
               track_lineage: bool = False) -> PlannedQuery:
    """Plan a UNION [ALL] chain into a Union (+ Distinct) operator."""
    branches: list[tuple[ast.Select, bool]] = []

    def flatten(node, all_rows: bool) -> None:
        # a chain a UNION b UNION ALL c is left-associative; each
        # SetOp's `all` flag governs the duplicates of the whole chain
        # up to that point, so track the strictest (non-ALL) flag seen
        if isinstance(node, ast.SetOp):
            flatten(node.left, all_rows and node.all)
            branches.append((node.right, True))
        else:
            branches.append((node, True))

    flatten(setop, True)
    planned = [plan_select(select, catalog, track_lineage)
               for select, _ in branches]
    first_schema = planned[0].schema
    root: Operator = Union([entry.root for entry in planned])
    # SQL UNION (without ALL) applies set semantics to the whole chain;
    # a chain with any non-ALL link deduplicates (standard semantics
    # for a left-deep chain ending in UNION)
    if not setop.all:
        root = Distinct(root)
        root.schema = first_schema  # type: ignore[assignment]
    source_tables: list[str] = []
    for entry in planned:
        source_tables.extend(entry.source_tables)
    return PlannedQuery(root, first_schema, source_tables)


def _match_order_expression(expression: ast.Expression,
                            items: list[ast.SelectItem]) -> int | None:
    """Match an ORDER BY expression to a select item by alias or equality."""
    if isinstance(expression, ast.ColumnRef) and expression.qualifier is None:
        for index, item in enumerate(items):
            if item.alias and item.alias.lower() == expression.name.lower():
                return index
    for index, item in enumerate(items):
        if item.expression == expression:
            return index
    # ORDER BY 1 style positional reference
    if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
        position = expression.value
        if 1 <= position <= len(items):
            return position - 1
    return None
