"""Span self time and the sum-to-wall check, on hand-built spans with
fixed timestamps, plus the recorder and wrappers on a scripted clock."""

import pytest

from benchmarks.ldv.layers import STAGE_METRICS, layer_values
from benchmarks.ldv.spans import (
    Patches,
    Span,
    SpanRecorder,
    nesting_errors,
    reduce_stage,
    self_times,
    traced_call,
    traced_generator,
)

# stage [0, 10] > a [1, 4] > x [2, 3];  stage > b [5, 9] > x [6, 7]
SPANS = [
    Span("stage", 0.0, 10.0, None),
    Span("a", 1.0, 4.0, 0),
    Span("x", 2.0, 3.0, 1),
    Span("b", 5.0, 9.0, 0),
    Span("x", 6.0, 7.0, 3),
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(SPANS) == [3.0, 2.0, 1.0, 3.0, 1.0]


def test_layer_self_times_plus_unattributed_equal_wall():
    stage = reduce_stage(SPANS)
    assert stage.wall_s == 10.0
    assert stage.unattributed_s == 3.0
    assert stage.self_s == {"a": 2.0, "x": 2.0, "b": 3.0}
    assert stage.calls == {"a": 1, "x": 2, "b": 1}
    assert sum(stage.self_s.values()) + stage.unattributed_s == stage.wall_s
    assert stage.attributed_error() == 0.0


def test_call_path_tree_keeps_same_names_apart():
    tree = reduce_stage(SPANS).tree
    assert tree["stage/a/x"] == [1, 1.0, 1.0]
    assert tree["stage/b/x"] == [1, 1.0, 1.0]
    assert tree["stage"] == [1, 10.0, 3.0]


def test_spans_leaving_their_parent_are_rejected():
    bad = SPANS[:3] + [Span("late", 3.5, 4.5, 1)]
    assert nesting_errors(bad) == ["span 3 (late) is outside its parent 1 (a)"]
    with pytest.raises(ValueError):
        reduce_stage(bad)


def _scripted_clock(*ticks):
    iterator = iter(ticks)
    return lambda: next(iterator)


def test_recorder_nests_wrapped_calls_and_names_by_result():
    # stage 0..10 > outer 1..7 > inner 2..3 and inner 4..6
    recorder = SpanRecorder(clock=_scripted_clock(0, 1, 2, 3, 4, 6, 7, 10))
    inner = traced_call(recorder, "inner", lambda: "select",
                        rename=lambda kind: f"inner[{kind}]")
    outer = traced_call(recorder, "outer", lambda: [inner(), inner()])
    with recorder.stage("stage") as scope:
        assert outer() == ["select", "select"]
    stage = scope.breakdown
    assert stage.wall_s == 10
    assert stage.self_s == {"outer": 3, "inner[select]": 3}
    assert stage.unattributed_s == 4


def test_counts_added_during_a_stage_reach_its_breakdown():
    recorder = SpanRecorder(clock=_scripted_clock(0, 1, 2, 3))
    recorder.add("rows", 5)  # outside a stage: dropped
    with recorder.stage("stage") as scope:
        traced_call(recorder, "f", lambda: recorder.add("rows", 3))()
        recorder.add("rows", 4)
    assert scope.breakdown.counts == {"rows": 7}


def test_a_stage_whose_layer_did_not_run_reports_it_as_zero():
    # replay.ptu declares checkpoint.s and the engine's layers; only
    # ReplaySession.prepare ran, and no engine counters were read
    spans = [Span("replay.ptu", 0.0, 4.0, None),
             Span("ReplaySession.prepare", 1.0, 3.0, 0)]
    values = layer_values("replay.ptu", reduce_stage(spans),
                          {"replay.restored_tuples": 9})
    assert set(STAGE_METRICS["replay.ptu"]) <= set(values)
    assert values["replay.prepare_s"] == 2.0
    assert values["unattributed_s"] == 2.0
    assert values["checkpoint.s"] == 0.0
    assert values["execute.dml_self_s"] == 0.0
    assert values["plan_cache.hit_rate"] == 0.0
    assert values["parse.calls"] == 0
    assert values["replay.restored_tuples"] == 9


def test_wrappers_pass_through_outside_a_stage():
    recorder = SpanRecorder(clock=_scripted_clock())  # any tick would raise
    assert traced_call(recorder, "f", lambda x: x + 1)(1) == 2
    numbers = traced_generator(recorder, "g", lambda: iter([1, 2]))
    assert list(numbers()) == [1, 2]


def test_generator_spans_cover_resumes_not_the_consumer():
    recorder = SpanRecorder(clock=_scripted_clock(0, 1, 2, 5, 6, 8, 9, 20))

    def rows():
        yield 1
        yield 2

    traced_rows = traced_generator(recorder, "rows", rows)
    with recorder.stage("stage") as scope:
        assert list(traced_rows()) == [1, 2]
    # three resumes (two items, then exhaustion): 1..2, 5..6, 8..9
    assert scope.breakdown.self_s == {"rows": 3}
    assert scope.breakdown.calls == {"rows": 3}


class _Owner:
    def method(self):
        return "method"

    @classmethod
    def build(cls):
        return cls.__name__


class _Child(_Owner):
    pass


def test_patches_wrap_methods_and_classmethods_and_undo():
    def make(fn):
        return lambda *args: ("wrapped", fn(*args))

    patches = Patches()
    patches.wrap_attribute(_Owner, "method", make)
    patches.wrap_attribute(_Child, "build", make)
    assert _Owner().method() == ("wrapped", "method")
    assert _Child.build() == ("wrapped", "_Child")
    patches.undo()
    assert _Owner().method() == "method"
    assert _Child.build() == "_Child"
    assert "build" not in vars(_Child)
