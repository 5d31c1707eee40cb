"""Spans for the traced run: record calls into each layer, attribute
self time, and check that a stage's parts add up to its wall time.

A span is one call of a wrapped function: its name, start, end, and
the span that was open when it began (its parent). Recording only
happens while a stage root is open, so work outside the measured
stages (building worlds) costs one extra call frame and nothing else.
Spans stay in memory until their stage ends; the stage is then reduced
to self time per name and a call-path tree, and its spans are dropped
so deep-lineage audits (hundreds of thousands of builder calls) do not
hold every span at once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None for a root


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    result = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.end - span.start
    return result


def nesting_errors(spans: Sequence[Span]) -> list[str]:
    """Spans that end before they start or leave their parent's interval
    (an unwrapped exit path, or a clock that went backwards)."""
    errors = []
    for index, span in enumerate(spans):
        if span.end < span.start:
            errors.append(f"span {index} ({span.name}) ends before it starts")
        if span.parent is not None:
            parent = spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                errors.append(f"span {index} ({span.name}) is outside "
                              f"its parent {span.parent} ({parent.name})")
    return errors


@dataclass
class StageBreakdown:
    """One stage reduced to the numbers the report needs.

    ``self_s`` sums self time per span name, the root excluded; the
    root's own self time is ``unattributed_s``. Telescoping makes
    ``sum(self_s) + unattributed_s == wall_s`` hold up to float error,
    which :meth:`attributed_error` measures. ``counts`` holds what
    wrappers added with :meth:`SpanRecorder.add` during the stage.
    """

    name: str
    wall_s: float
    unattributed_s: float
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    # call path ("a/b/c") -> [calls, total seconds, self seconds]
    tree: dict[str, list] = field(default_factory=dict)

    def attributed_error(self) -> float:
        """|parts − wall| as a share of the wall time."""
        parts = sum(self.self_s.values()) + self.unattributed_s
        return abs(parts - self.wall_s) / self.wall_s if self.wall_s else 0.0


def reduce_stage(spans: Sequence[Span]) -> StageBreakdown:
    """Reduce a stage's spans (``spans[0]`` is its root, every other
    span descends from it) to a :class:`StageBreakdown`."""
    errors = nesting_errors(spans)
    if errors:
        raise ValueError("malformed spans: " + "; ".join(errors[:3]))
    own = self_times(spans)
    root = spans[0]
    breakdown = StageBreakdown(name=root.name,
                               wall_s=root.end - root.start,
                               unattributed_s=own[0])
    paths: list[str] = []
    for index, span in enumerate(spans):
        path = (span.name if span.parent is None
                else f"{paths[span.parent]}/{span.name}")
        paths.append(path)
        node = breakdown.tree.setdefault(path, [0, 0.0, 0.0])
        node[0] += 1
        node[1] += span.end - span.start
        node[2] += own[index]
        if index:
            breakdown.self_s[span.name] = (
                breakdown.self_s.get(span.name, 0.0) + own[index])
            breakdown.calls[span.name] = breakdown.calls.get(span.name, 0) + 1
    return breakdown


class SpanRecorder:
    """Keeps the spans of the stage being recorded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._open: list[list] = []  # [name, start, end, parent] records
        self._stack: list[int] = []
        self._counts: dict[str, float] = {}

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def add(self, name: str, amount: float) -> None:
        """Add to a count of the stage being recorded."""
        if self.active:
            self._counts[name] = self._counts.get(name, 0) + amount

    def begin(self, name: str) -> int:
        index = len(self._open)
        parent = self._stack[-1] if self._stack else None
        self._open.append([name, self.clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int, name: str | None = None) -> None:
        record = self._open[index]
        record[2] = self.clock()
        if name is not None:
            record[0] = name
        if self._stack.pop() != index:
            raise RuntimeError(f"span {record[0]} closed out of order")

    def stage(self, name: str) -> "_StageScope":
        """Context manager recording one stage; its ``breakdown`` is
        set on exit."""
        return _StageScope(self, name)

    def _take(self) -> tuple[list[Span], dict[str, float]]:
        spans = [Span(*record) for record in self._open]
        counts = self._counts
        self._open = []
        self._counts = {}
        return spans, counts


class _StageScope:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.breakdown: Optional[StageBreakdown] = None

    def __enter__(self) -> "_StageScope":
        if self.recorder.active:
            raise RuntimeError("stages do not nest")
        self._root = self.recorder.begin(self.name)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.recorder.end(self._root)
        spans, counts = self.recorder._take()
        if exc_info[0] is None:
            self.breakdown = reduce_stage(spans)
            self.breakdown.counts = counts


def traced_call(recorder: SpanRecorder, name: str, fn: Callable,
                rename: Callable[[Any], str] | None = None) -> Callable:
    """``fn`` recording one span per call while a stage is open.
    ``rename`` maps a successful call's return value to the span name
    (used to split engine time by statement kind)."""
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        final = None
        try:
            result = fn(*args, **kwargs)
            if rename is not None:
                final = rename(result)
            return result
        finally:
            recorder.end(index, final)
    return traced


def traced_generator(recorder: SpanRecorder, name: str,
                     fn: Callable) -> Callable:
    """Like :func:`traced_call` for a generator function: every resume
    is one span, so the consumer's work between items is not charged
    to the generator."""
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
        iterator = fn(*args, **kwargs)
        while True:
            index = recorder.begin(name) if recorder.active else None
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                if index is not None:
                    recorder.end(index)
            yield item
    return traced


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def wrap_attribute(self, owner: Any, attribute: str,
                       make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` (a function, method, classmethod
        or staticmethod) with ``make(function)``."""
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        owned = attribute in vars(owner)
        setattr(owner, attribute, replacement)
        self._undo.append((owner, attribute, raw, owned))

    def wrap_function(self, module: Any, name: str,
                      make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function in its module and in every
        loaded ``repro`` module that imported it by name."""
        original = getattr(module, name)
        wrapped = make(original)
        for other in list(sys.modules.values()):
            other_name = getattr(other, "__name__", "") or ""
            if other is not module and not other_name.startswith("repro"):
                continue
            if vars(other).get(name) is original:
                setattr(other, name, wrapped)
                self._undo.append((other, name, original, True))

    def undo(self) -> None:
        while self._undo:
            owner, attribute, raw, owned = self._undo.pop()
            if owned:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)
