"""Every workload once at SF 0.001 through the Python API: all metrics
declared in BENCHMARK.json are emitted and no op fails."""

import json

import pytest

from benchmarks.ldv import ROOT, layers
from benchmarks.ldv.pipeline import E2E_METRICS, measure
from benchmarks.ldv.workloads import DEFAULT_SEED, WORKLOADS

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_are_the_harness_metrics():
    assert ([metric["name"] for metric in DECLARED["end_to_end"]]
            == [name for name, _ in E2E_METRICS])
    assert ([metric["name"] for metric in DECLARED["per_layer"]]
            == layers.per_layer_names())
    assert ([workload["name"] for workload in DECLARED["workloads"]]
            == list(WORKLOADS))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_repetition_emits_every_declared_metric(name, tmp_path):
    # one untraced and one traced repetition: both metric families
    measurement = measure(WORKLOADS[name], DEFAULT_SEED, tmp_path,
                          seconds=0.0, trace=True)
    assert measurement.repetitions == 1
    assert measurement.failures == []
    assert measurement.trace_errors == []
    assert measurement.failed / measurement.ops == 0
    e2e = measurement.e2e_metrics()
    per_layer = measurement.layer_metrics()
    units = {**{key: value["unit"] for key, value in e2e.items()},
             **{key: value["unit"] for key, value in per_layer.items()}}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert units.get(metric["name"]) == metric["unit"], metric["name"]
    for stage, check in measurement.stage_checks().items():
        assert check["max_attributed_error"] <= 0.01, stage
