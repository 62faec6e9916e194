"""Tests for the central result tree."""

from __future__ import annotations

import os

import pytest

from repro.core import yamlite
from repro.core.errors import ResultError
from repro.core.results import ResultStore, format_timestamp
from repro.core.scripts import ScriptResult
from repro.netsim.host import CommandResult


class TestTimestamps:
    def test_format_matches_paper_artifact_style(self):
        # The paper's repository uses 2020-10-12_11-20-32_230471.
        stamp = format_timestamp(1602501632.230471)
        assert stamp == "2020-10-12_11-20-32_230471"

    def test_lexicographic_order_follows_time(self):
        assert format_timestamp(1000.0) < format_timestamp(2000.0)


class TestResultStore:
    def test_layout(self, tmp_path):
        store = ResultStore(str(tmp_path), clock=lambda: 1600000000.0)
        exp_dir = store.create_experiment_dir("user", "router-test")
        assert os.path.isdir(exp_dir.path)
        parts = os.path.relpath(exp_dir.path, tmp_path).split(os.sep)
        assert parts[0] == "user"
        assert parts[1] == "router-test"

    def test_collision_disambiguation(self, tmp_path):
        store = ResultStore(str(tmp_path), clock=lambda: 1600000000.0)
        first = store.create_experiment_dir("user", "exp")
        second = store.create_experiment_dir("user", "exp")
        assert first.path != second.path
        assert os.path.isdir(second.path)

    def test_latest_and_listing(self, tmp_path):
        times = iter([1000.0, 2000.0])
        store = ResultStore(str(tmp_path), clock=lambda: next(times))
        store.create_experiment_dir("user", "exp")
        newest = store.create_experiment_dir("user", "exp")
        assert store.latest("user", "exp") == newest.path
        assert len(store.experiments_for("user", "exp")) == 2

    def test_latest_without_results_raises(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(ResultError, match="no results"):
            store.latest("user", "exp")

    def test_unsafe_names_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(ResultError):
            store.create_experiment_dir("../escape", "exp")

    def test_path_separators_sanitized(self, tmp_path):
        store = ResultStore(str(tmp_path), clock=lambda: 1000.0)
        exp_dir = store.create_experiment_dir("user", "exp/with/slashes")
        assert "/with/" not in os.path.relpath(exp_dir.path, tmp_path)


class TestExperimentDir:
    def test_metadata_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path), clock=lambda: 1000.0)
        exp_dir = store.create_experiment_dir("user", "exp")
        exp_dir.write_metadata({"name": "exp", "runs_completed": 3})
        loaded = yamlite.load_file(os.path.join(exp_dir.path, "experiment.yml"))
        assert loaded["runs_completed"] == 3

    def test_run_dir_metadata(self, tmp_path):
        store = ResultStore(str(tmp_path), clock=lambda: 1000.0)
        exp_dir = store.create_experiment_dir("user", "exp")
        run_dir = exp_dir.create_run_dir(5)
        run_dir.write_metadata({"pkt_sz": 64, "pkt_rate": 10000})
        loaded = yamlite.load_file(os.path.join(run_dir.path, "metadata.yml"))
        assert loaded == {"run": 5, "loop": {"pkt_sz": 64, "pkt_rate": 10000}}
        assert run_dir.path.endswith("run-005")

    def test_record_script_writes_all_captures(self, tmp_path):
        store = ResultStore(str(tmp_path), clock=lambda: 1000.0)
        run_dir = store.create_experiment_dir("user", "exp").create_run_dir(0)
        result = ScriptResult(
            script="measure",
            role="loadgen",
            phase="measurement",
            ok=True,
            commands=[CommandResult("echo hi", 0, "hi")],
            uploads=[("moongen.log", "TX: data")],
            log_lines=["started"],
        )
        status = run_dir.record_script(result)
        role_dir = os.path.join(run_dir.path, "loadgen")
        # The status is returned for metadata.yml, not written per role.
        assert sorted(os.listdir(role_dir)) == [
            "commands.log", "moongen.log", "pos.log",
        ]
        assert status == {"script": "measure", "phase": "measurement", "ok": True}
        with open(os.path.join(role_dir, "commands.log")) as handle:
            log = handle.read()
        assert "$ echo hi" in log and "(exit 0)" in log

    def test_record_failed_script_status(self, tmp_path):
        store = ResultStore(str(tmp_path), clock=lambda: 1000.0)
        run_dir = store.create_experiment_dir("user", "exp").create_run_dir(0)
        result = ScriptResult(
            script="measure", role="dut", phase="measurement",
            ok=False, error="boom",
        )
        status = run_dir.record_script(result)
        assert status["ok"] is False
        assert status["error"] == "boom"
        # A role without captures still gets its (empty) folder.
        assert os.listdir(os.path.join(run_dir.path, "dut")) == []

    def test_setup_script_status_is_written_per_role(self, tmp_path):
        store = ResultStore(str(tmp_path), clock=lambda: 1000.0)
        exp_dir = store.create_experiment_dir("user", "exp")
        exp_dir.record_setup_script(ScriptResult(
            script="setup", role="dut", phase="setup", ok=False, error="boom",
        ))
        status = yamlite.load_file(
            os.path.join(exp_dir.path, "setup", "dut", "status.yml")
        )
        assert status == {
            "script": "setup", "phase": "setup", "ok": False, "error": "boom",
        }

    def test_upload_names_are_sanitized(self, tmp_path):
        store = ResultStore(str(tmp_path), clock=lambda: 1000.0)
        run_dir = store.create_experiment_dir("user", "exp").create_run_dir(0)
        result = ScriptResult(
            script="s", role="r", phase="measurement", ok=True,
            uploads=[("../../evil.txt", "x")],
        )
        run_dir.record_script(result)
        files = os.listdir(os.path.join(run_dir.path, "r"))
        assert all(".." not in name for name in files)
        # Nothing escaped the run directory:
        assert not os.path.exists(os.path.join(str(tmp_path), "evil.txt"))
