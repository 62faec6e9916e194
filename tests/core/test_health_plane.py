"""Health artifacts: determinism, crash+resume, kill switch, schemas.

Each run's health payload (the ``health`` field of its ``journal.jsonl``
record) and the experiment-level ``health.json`` obey
the same contract as every other artifact of the toolchain: byte-
identical for any ``--jobs N`` and across a crash + resume, and pinned
by checked-in JSON schemas.  ``POS_TELEMETRY=0`` suppresses them along
with every other deterministic observation artifact.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.casestudy import run_case_study
from repro.faults.plan import FaultPlan, FaultSpec
from repro.telemetry.jsonl import fold_journal
from repro.telemetry.schema import validate_experiment
from repro.testbed.health import HEALTH_NAME

CLOCK = lambda: 1_600_000_000.0  # noqa: E731 - fixed clock => fixed tree paths

SWEEP = dict(
    rates=[200_000, 400_000],
    sizes=(64, 1500),
    duration_s=0.05,
    interval_s=0.02,
    clock=CLOCK,
)

SMALL = dict(
    rates=[200_000], sizes=(64,), duration_s=0.05, interval_s=0.02, clock=CLOCK
)


class CrashRequested(RuntimeError):
    """Simulated controller death: NOT a PosError, so nothing handles it."""


def crashing_progress(after):
    def callback(done, total):
        if done >= after:
            raise CrashRequested(f"killed after {after} runs")

    return callback


def journal_runs(result_path):
    """The journal's latest run record per index, evidence included."""
    return fold_journal(os.path.join(result_path, "journal.jsonl"))[1]


def health_files(root):
    """Every health artifact under root: relative path -> bytes for the
    ``health.json`` aggregates, ``<journal>#<run>`` -> canonical JSON for
    each journalled run's payload."""
    picked = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            relative = os.path.relpath(path, root)
            if name == HEALTH_NAME:
                with open(path, "rb") as handle:
                    picked[relative] = handle.read()
            elif name == "journal.jsonl":
                for index, entry in journal_runs(dirpath).items():
                    if "health" in entry:
                        picked[f"{relative}#{index}"] = json.dumps(
                            entry["health"], sort_keys=True
                        )
    return picked


def find_result_dir(root):
    for dirpath, _, filenames in os.walk(root):
        if "journal.jsonl" in filenames:
            return dirpath
    raise AssertionError(f"no journal found under {root}")


class TestHealthArtifacts:
    def test_every_run_gets_a_snapshot_and_the_fold_matches(self, tmp_path):
        handle = run_case_study("pos", str(tmp_path), jobs=1, **SWEEP)
        root = handle.result_path
        with open(os.path.join(root, HEALTH_NAME)) as stream:
            aggregate = json.load(stream)
        assert aggregate["experiment"] == "linux-router-forwarding-pos"
        assert aggregate["runs"] == 4
        assert set(aggregate["nodes"]) == {"riga", "tartu"}
        for node in aggregate["nodes"].values():
            assert node["state"] == "healthy"
            assert node["observations"]["healthy"] == 4
            assert node["transitions"] == []
            assert node["sensors"]["fan_rpm"] > 0
        runs = journal_runs(root)
        for index in range(4):
            snapshot = runs[index]["health"]
            assert snapshot["run"] == index
            assert set(snapshot["nodes"]) == {"riga", "tartu"}
            assert not os.path.exists(
                os.path.join(root, runs[index]["dir"], HEALTH_NAME)
            )

    def test_health_artifacts_validate_against_schemas(self, tmp_path):
        handle = run_case_study("pos", str(tmp_path), jobs=1, **SMALL)
        validated = validate_experiment(handle.result_path)
        # The per-run payloads are validated inside the journal.
        assert any(path.endswith("journal.jsonl") for path in validated)
        assert any(
            os.path.basename(path) == HEALTH_NAME
            and "run-" not in os.path.basename(os.path.dirname(path))
            for path in validated
        )

    def test_recovery_is_visible_in_health(self, tmp_path):
        """A power-cycle recovery shows up as SEL records + a state dip."""
        handle = run_case_study(
            "pos", str(tmp_path),
            rates=[200_000, 400_000], sizes=(64,),
            duration_s=0.05, interval_s=0.02, clock=CLOCK,
            on_error="recover", script_style="shell",
            fault_plan=FaultPlan(
                [FaultSpec(kind="script", runs=(1,), times=1)], seed=11
            ),
        )
        assert handle.completed_runs == 2 and handle.failed_runs == 0
        with open(os.path.join(handle.result_path, HEALTH_NAME)) as stream:
            aggregate = json.load(stream)
        degraded = [
            (name, node) for name, node in aggregate["nodes"].items()
            if node["observations"]["degraded"] > 0
        ]
        assert degraded, "recovery cycle must degrade at least one node"
        name, node = degraded[0]
        assert node["sel_records"] > 0
        assert {"run": 1, "from": "healthy", "to": "degraded"} \
            in node["transitions"]
        entry = journal_runs(handle.result_path)[1]
        assert entry["dir"] == "run-001-retry"  # the retry got its own folder
        struck = entry["health"]
        assert struck["nodes"][name]["observation"] == "degraded"
        assert any(
            record["sensor"] == "chassis"
            for record in struck["nodes"][name]["sel"]
        )


class TestHealthDeterminism:
    def test_identical_jobs_1_vs_4(self, tmp_path):
        run_case_study("pos", str(tmp_path / "seq"), jobs=1, **SWEEP)
        run_case_study("pos", str(tmp_path / "par"), jobs=4, **SWEEP)
        seq = health_files(str(tmp_path / "seq"))
        par = health_files(str(tmp_path / "par"))
        assert len(seq) == 5  # experiment aggregate + one per run
        assert par == seq

    def test_identical_across_crash_and_resume(self, tmp_path):
        run_case_study("pos", str(tmp_path / "clean"), jobs=1, **SWEEP)
        clean = health_files(str(tmp_path / "clean"))

        with pytest.raises(CrashRequested):
            run_case_study(
                "pos", str(tmp_path / "crashed"), jobs=2,
                progress=crashing_progress(2), **SWEEP,
            )
        result_dir = find_result_dir(str(tmp_path / "crashed"))
        handle = run_case_study(
            "pos", str(tmp_path / "crashed"), jobs=2,
            resume_path=result_dir, **SWEEP,
        )
        assert handle.completed_runs == 4 and handle.resumed_runs == 2
        assert health_files(str(tmp_path / "crashed")) == clean

    def test_telemetry_kill_switch_suppresses_health(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("POS_TELEMETRY", "0")
        handle = run_case_study("pos", str(tmp_path), jobs=1, **SMALL)
        root = handle.result_path
        for name in ("trace.jsonl", "telemetry.json", HEALTH_NAME):
            assert not os.path.exists(os.path.join(root, name))
        for entry in journal_runs(root).values():
            assert "telemetry" not in entry and "health" not in entry

    def test_sel_events_enter_the_trace(self, tmp_path):
        """Health SEL records surface as telemetry events under the run."""
        handle = run_case_study(
            "pos", str(tmp_path),
            rates=[200_000, 400_000], sizes=(64,),
            duration_s=0.05, interval_s=0.02, clock=CLOCK,
            on_error="recover", script_style="shell",
            fault_plan=FaultPlan(
                [FaultSpec(kind="script", runs=(1,), times=1)], seed=11
            ),
        )
        with open(os.path.join(handle.result_path, "trace.jsonl")) as stream:
            records = [json.loads(line) for line in stream]
        sel_spans = [r for r in records if r["name"] == "health.sel"]
        assert sel_spans, "SEL records must be mirrored into the trace"
        assert all(r["attrs"]["node"] for r in sel_spans)
        with open(
            os.path.join(handle.result_path, "telemetry.json")
        ) as stream:
            counters = json.load(stream)["metrics"]["counters"]
        assert counters["health.sel_records"] == len(sel_spans)
        assert counters["health.observation.degraded"] >= 1
