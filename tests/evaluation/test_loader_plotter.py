"""Tests for the result loader and the out-of-the-box plotter."""

from __future__ import annotations

import os
import shutil

import pytest

from repro.casestudy import run_case_study
from repro.core import yamlite
from repro.core.errors import EvaluationError, ResultError
from repro.evaluation.loader import load_experiment
from repro.evaluation.plotter import (
    latency_samples_us,
    plot_experiment,
    throughput_figure,
)
from repro.faults.plan import FaultPlan, FaultSpec


@pytest.fixture(scope="module")
def pos_results(tmp_path_factory):
    """One small pos case-study run shared by the module's tests."""
    root = tmp_path_factory.mktemp("results")
    handle = run_case_study(
        "pos",
        str(root),
        rates=[200_000, 1_000_000, 2_000_000],
        sizes=(64, 1500),
        duration_s=0.05,
        interval_s=0.01,
    )
    return load_experiment(handle.result_path)


@pytest.fixture(scope="module")
def vpos_results(tmp_path_factory):
    root = tmp_path_factory.mktemp("vresults")
    handle = run_case_study(
        "vpos",
        str(root),
        rates=[20_000, 60_000],
        sizes=(64,),
        duration_s=0.1,
        interval_s=0.05,
        seed=3,
    )
    return load_experiment(handle.result_path)


class TestLoader:
    def test_loads_all_runs_in_order(self, pos_results):
        assert len(pos_results.runs) == 6
        assert [run.index for run in pos_results.runs] == list(range(6))

    def test_metadata_and_variables_present(self, pos_results):
        assert pos_results.name == "linux-router-forwarding-pos"
        assert pos_results.variables["loop"]["pkt_sz"] == [64, 1500]

    def test_run_outputs_by_role(self, pos_results):
        run = pos_results.runs[0]
        assert "moongen.log" in run.outputs["loadgen"]
        assert "dut-stats.txt" in run.outputs["dut"]
        assert run.ok

    def test_filter_by_loop_value(self, pos_results):
        small = pos_results.filter(pkt_sz=64)
        assert len(small) == 3
        assert all(run.loop["pkt_sz"] == 64 for run in small)

    def test_filter_combined(self, pos_results):
        runs = pos_results.filter(pkt_sz=64, pkt_rate=1_000_000)
        assert len(runs) == 1

    def test_loop_values_order(self, pos_results):
        assert pos_results.loop_values("pkt_sz") == [64, 1500]

    def test_moongen_accessor_parses(self, pos_results):
        output = pos_results.runs[0].moongen()
        assert output.tx_summary is not None

    def test_missing_output_error_message(self, pos_results):
        run = pos_results.runs[0]
        with pytest.raises(ResultError, match="no file"):
            run.output("loadgen", "nonexistent.bin")
        with pytest.raises(ResultError, match="no outputs"):
            run.output("ghost-role", "x")

    def test_load_missing_folder(self):
        with pytest.raises(ResultError, match="no such"):
            load_experiment("/nonexistent/experiment")

    def test_inventory_records_testbed(self, pos_results):
        assert "testbed" in pos_results.inventory
        assert pos_results.inventory["nodes"]["tartu"]["power"]["protocol"] == "ipmi"


class TestOlderLayout:
    def test_status_yml_tree_loads_with_the_same_ok(self, tmp_path):
        """A tree whose roles carry ``status.yml`` and whose metadata has
        no ``scripts:`` block (the layout published before the status
        moved into ``metadata.yml``) evaluates exactly as before."""
        handle = run_case_study(
            "pos", str(tmp_path / "new"), rates=[200_000, 400_000],
            sizes=(64,), duration_s=0.05, interval_s=0.02,
            on_error="continue", script_style="shell",
            fault_plan=FaultPlan(
                [FaultSpec(kind="script", runs=(1,), times=1)], seed=11
            ),
        )
        new = load_experiment(handle.result_path)
        assert [run.ok for run in new.runs] == [True, False]

        old_path = str(tmp_path / "old")
        shutil.copytree(handle.result_path, old_path)
        for entry in os.listdir(old_path):
            if not entry.startswith("run-"):
                continue
            metadata_path = os.path.join(old_path, entry, "metadata.yml")
            metadata = yamlite.load_file(metadata_path)
            for role, status in metadata.pop("scripts").items():
                yamlite.dump_file(
                    status, os.path.join(old_path, entry, role, "status.yml")
                )
            yamlite.dump_file(metadata, metadata_path)
        old = load_experiment(old_path)
        assert [run.ok for run in old.runs] == [True, False]
        assert [run.status for run in old.runs] == [
            run.status for run in new.runs
        ]
        assert [run.outputs for run in old.runs] == [
            run.outputs for run in new.runs
        ]


class TestThroughputFigure:
    def test_one_series_per_packet_size(self, pos_results):
        figure = throughput_figure(pos_results)
        labels = [series.label for series in figure.series]
        assert labels == ["pkt_sz=64", "pkt_sz=1500"]

    def test_points_sorted_by_offered_rate(self, pos_results):
        figure = throughput_figure(pos_results)
        xs = [x for x, __ in figure.series[0].points]
        assert xs == sorted(xs)

    def test_fig3a_shape(self, pos_results):
        """64 B tops out near 1.75 Mpps; 1500 B near the 10 G line rate."""
        figure = throughput_figure(pos_results)
        by_label = {series.label: series.points for series in figure.series}
        peak_64 = max(y for __, y in by_label["pkt_sz=64"])
        peak_1500 = max(y for __, y in by_label["pkt_sz=1500"])
        assert peak_64 == pytest.approx(1.75, rel=0.05)
        assert peak_1500 == pytest.approx(0.82, rel=0.05)

    def test_missing_logs_raise(self, tmp_path):
        from repro.evaluation.loader import ExperimentResults

        empty = ExperimentResults(
            path=str(tmp_path), metadata={}, variables={}, inventory={}
        )
        with pytest.raises(EvaluationError, match="no plottable runs"):
            throughput_figure(empty)


class TestLatencySamples:
    def test_pos_runs_have_latency(self, pos_results):
        samples = latency_samples_us(pos_results, pkt_sz=64)
        assert samples
        assert all(sample > 0 for sample in samples)

    def test_vpos_runs_have_none(self, vpos_results):
        assert latency_samples_us(vpos_results) == []


class TestPlotExperiment:
    def test_pos_produces_throughput_and_latency_figures(self, pos_results):
        written = plot_experiment(pos_results, formats=("svg",))
        names = sorted(os.path.basename(path) for path in written)
        assert names == [
            "latency_cdf.svg",
            "latency_hdr.svg",
            "latency_hist.svg",
            "latency_violin.svg",
            "loss.svg",
            "throughput.svg",
        ]

    def test_vpos_produces_throughput_only(self, vpos_results):
        """Appendix A: no latency figures on the virtual testbed."""
        written = plot_experiment(vpos_results, formats=("svg",))
        names = sorted(os.path.basename(path) for path in written)
        assert names == ["loss.svg", "throughput.svg"]

    def test_custom_output_dir(self, pos_results, tmp_path):
        written = plot_experiment(
            pos_results, output_dir=str(tmp_path / "figs"), formats=("tex",)
        )
        assert all(str(tmp_path) in path for path in written)


class TestLossFigure:
    def test_loss_knee_matches_ceiling(self, pos_results):
        from repro.evaluation.plotter import loss_figure

        figure = loss_figure(pos_results)
        by_label = {series.label: series.points for series in figure.series}
        # 64 B: no loss at 1.0 Mpps, visible loss at 2.0 Mpps.
        losses = dict(by_label["pkt_sz=64"])
        assert losses[1.0] < 1.0
        assert losses[2.0] > 10.0

    def test_loss_is_percentage_bounded(self, pos_results):
        from repro.evaluation.plotter import loss_figure

        figure = loss_figure(pos_results)
        for series in figure.series:
            for __, loss in series.points:
                assert 0.0 <= loss <= 100.0
