"""Degenerate inputs to ``pos trace`` must diagnose, not traceback.

Each test pins one artifact shape a user can actually hand the CLI —
a telemetry-disabled folder, a crashed-before-first-delivery trace, a
zero-delivered-runs trace, a campaign ledger written by an older
planner without window bounds, a campaign folder whose admission
ledger is gone — and asserts the result is a one-line ``pos: error:``
diagnosis or a clean report, never an unhandled exception.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli.main import main as cli_main
from repro.telemetry.criticalpath import TraceError, analyze


def span_trace(tmp_path, records):
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(tmp_path)


ROOT_ONLY = [{
    "seq": 0, "parent": None, "name": "experiment", "start": 1.0,
    "end": 9.0, "clock": "ticks",
    "attrs": {"experiment": "x", "runs": 4, "unfinished": True},
}]


class TestExperimentShapes:
    def test_telemetry_disabled_folder_is_one_error(self, tmp_path, capsys):
        assert cli_main(["trace", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pos: error: no trace.jsonl")
        assert "Traceback" not in err

    def test_empty_trace_is_one_error(self, tmp_path, capsys):
        folder = span_trace(tmp_path, [])
        assert cli_main(["trace", folder]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pos: error:")
        assert "no complete trace record" in err

    def test_zero_delivered_runs_render_cleanly(self, tmp_path, capsys):
        # An experiment span exists but no run was ever delivered (killed
        # before the first result): a zero-valued profile, not a crash.
        folder = span_trace(tmp_path, ROOT_ONLY)
        assert cli_main(["trace", folder]) == 0
        out = capsys.readouterr().out
        assert "0/4 runs traced" in out
        analysis = analyze(folder)
        assert analysis["total"] == 0.0
        assert all(value == 0.0 for value in analysis["phases"].values())

    def test_dispatch_log_without_pump_timings_profiles_on_sim(self, tmp_path):
        # A dispatch.jsonl whose records carry no transport instant `t`
        # (written before the pump timings moved into it) holds no pump
        # lifetime to attribute: the profile falls back to the sim clock.
        folder = span_trace(tmp_path, ROOT_ONLY)
        with open(tmp_path / "dispatch.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "seq": 1, "event": "agent-spawn", "agent": "agent-00",
                "generation": 0,
            }) + "\n")
        assert analyze(folder)["clock"] == "sim"

    def test_sim_clock_can_be_forced(self, tmp_path):
        folder = span_trace(tmp_path, ROOT_ONLY)
        assert analyze(folder, clock="sim")["clock"] == "sim"
        with pytest.raises(TraceError, match="unknown trace clock"):
            analyze(folder, clock="wall")


class TestCampaignShapes:
    def test_windowless_admission_rows_render_cleanly(self, tmp_path, capsys):
        # Older planners appended admit rows without window bounds;
        # rendering them crashed with a TypeError before this was pinned.
        with open(tmp_path / "admission.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "event": "admit", "experiment": "e1", "user": "u",
            }) + "\n")
        assert cli_main(["trace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(no window)" in out
        assert "e1" in out

    def test_campaign_without_admission_is_one_error(self, tmp_path, capsys):
        # Campaign-shaped (has experiments/) but the ledger is gone:
        # descending into the first experiment's trace would mis-scope
        # the profile, so the CLI must refuse with a diagnosis.
        os.makedirs(tmp_path / "experiments" / "u" / "e1")
        assert cli_main(["trace", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pos: error:")
        assert "looks like a campaign folder" in err
        assert "admission.jsonl" in err
