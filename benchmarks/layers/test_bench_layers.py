"""Self-test of the layered benchmark harness on a tiny inline workload.

    python3 -m pytest benchmarks/layers/test_bench_layers.py -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os

import pytest

import bench

TINY = bench.Workload("tiny", "pos", (100_000, 1_900_000), (64, 1500), 0.002)


def _emitted(report, trace: bool) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        bench.emit(report, trace, {"commit": "test"})
    return out.getvalue().splitlines()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A traced measurement: pipelines alternate untraced and traced."""
    before = bench.layer_bindings()
    report = bench.measure(TINY, seed=0, seconds=0, trace=True,
                           work=str(tmp_path_factory.mktemp("work")))
    return before, report


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(traced, trace):
    _, report = traced
    lines = _emitted(report, trace)
    printed = {}
    for line in lines[2:-1]:
        name, value, unit = line.split(" ")
        printed[name] = (float(value), unit)
    declared = dict(bench.END_TO_END)
    if trace:
        declared.update(bench.PER_LAYER)
    for name, unit in declared.items():
        assert printed[name][1] == unit, name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= TINY.runs and result["failed"] == 0
    chosen = bench.PER_LAYER if trace else bench.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == chosen


def test_traced_self_times_sum_to_traced_total(traced):
    _, report = traced
    assert report.traces
    for spans in report.traces:
        metrics = bench.layer_metrics(spans)
        self_times = sum(
            value for name, value in metrics.items()
            if name.endswith((".self_s", ".wait_s"))
        )
        total = metrics["traced_pipeline_s"]
        assert self_times + metrics["unattributed_s"] == \
            pytest.approx(total, rel=0.01)
        assert metrics["core.scheduler.execute_run.calls"] == TINY.runs


def test_traced_results_equal_untraced(traced):
    _, report = traced
    assert report.problems == []
    assert report.per_layer["trace_overhead"] > 0


def test_untraced_run_leaves_wrapped_functions_identical(traced, tmp_path):
    before, _ = traced
    bench.run_pipeline(TINY, 0, str(tmp_path / "untraced"), problems=[])
    after = bench.layer_bindings()
    for name, bindings in before.items():
        original = bindings[0][2]
        for owner, attr, obj in bindings:
            assert owner.__dict__[attr] is obj, f"{name} in {owner}"
        assert all(obj is original for _, _, obj in after[name]), name


def test_warm_cache_serves_every_run(tmp_path):
    warm = dataclasses.replace(TINY, warm_cache=True)
    report = bench.measure(warm, seed=3, seconds=0, trace=True,
                           work=str(tmp_path))
    assert report.problems == []
    assert report.per_layer["cache.hit_ratio"] == 1.0
    assert report.per_layer["core.scheduler.execute_run.calls"] == 0
