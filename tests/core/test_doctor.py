"""Acceptance tests for ``pos doctor`` — automated diagnosis.

The contract under test:

* a clean execution diagnoses as *healthy* with **no findings**, and
  the report is byte-identical no matter which schedule produced the
  tree (serial, ``--jobs``, ``--agents``, crash + resume) — evidence
  sidecars differ across schedules, but findings only fire on notable
  events, so quiet evidence folds to the same zeros everywhere;
* a chaos execution (seeded agent kill) produces a finding that names
  the killed agent and the dispatch evidence it was folded from;
* an anomalous run (duration far outside the fleet's robust spread)
  and a failed run each produce ranked findings with evidence
  pointers.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.casestudy import run_case_study
from repro.faults.plan import FaultPlan, FaultSpec
from repro.telemetry.doctor import (
    DoctorError,
    diagnose,
    render_diagnosis,
)
from repro.telemetry.schema import validate
from tests.core.test_parallel_scheduler import (
    CrashRequested,
    crashing_progress,
    find_result_dir,
)

CLOCK = lambda: 1_600_000_000.0  # noqa: E731 - fixed clock => fixed paths

KWARGS = dict(duration_s=0.2, max_runs=4, clock=CLOCK)

CHAOS = FaultPlan([
    FaultSpec(kind="agent", operation="kill", node="agent-00", times=1),
])


def run_tree(root, **overrides):
    params = dict(KWARGS)
    params.update(overrides)
    run_case_study("vpos", str(root), **params)
    return find_result_dir(str(root))


def synthetic_tree(tmp_path, durations, failures=()):
    """A minimal artifact tree built by hand: a journal whose run
    records carry their telemetry, and the run folders."""
    root = tmp_path / "synthetic"
    root.mkdir()
    with open(root / "journal.jsonl", "w", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "event": "experiment", "name": "synthetic",
            "total_runs": len(durations),
        }) + "\n")
        for index, duration in enumerate(durations):
            handle.write(json.dumps({
                "event": "run", "index": index, "dir": f"run-{index:03d}",
                "loop": {"i": index}, "ok": index not in failures,
                "error": "boom" if index in failures else None,
                "telemetry": {
                    "spans": [{"name": "run", "start": 0.0, "end": duration}],
                },
            }) + "\n")
        handle.write(json.dumps({"event": "complete"}) + "\n")
    for index in range(len(durations)):
        (root / f"run-{index:03d}").mkdir()
    return str(root)


class TestHealthyExecution:
    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        return run_tree(tmp_path_factory.mktemp("clean"))

    def test_clean_run_has_no_findings(self, clean):
        diagnosis = diagnose(clean)
        assert diagnosis["findings"] == []
        assert diagnosis["verdict"] == "healthy"
        assert diagnosis["summary"]["complete"] is True
        assert diagnosis["summary"]["deaths"] == 0

    def test_report_matches_schema(self, clean):
        schema_path = os.path.join(
            os.path.dirname(__file__), "..", "..", "docs", "schemas",
            "doctor.schema.json",
        )
        with open(schema_path, "r", encoding="utf-8") as handle:
            validate(
                json.loads(json.dumps(diagnose(clean))), json.load(handle)
            )


class TestScheduleInvariance:
    """Evidence differs across schedules; the diagnosis must not."""

    def diagnose_from(self, tree, workdir):
        shutil.copytree(tree, str(workdir / "tree"))
        cwd = os.getcwd()
        os.chdir(str(workdir))
        try:
            diagnosis = diagnose("tree")
        finally:
            os.chdir(cwd)
        return (
            render_diagnosis(diagnosis),
            json.dumps(diagnosis, sort_keys=True),
        )

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        serial = run_tree(tmp_path_factory.mktemp("serial"))
        return self.diagnose_from(serial, tmp_path_factory.mktemp("ref"))

    @pytest.mark.parametrize("schedule", ["jobs2", "agents2", "agents3",
                                          "crash"])
    def test_any_schedule_diagnoses_identically(
        self, tmp_path, reference, schedule,
    ):
        root = tmp_path / schedule
        if schedule == "jobs2":
            run_tree(root, jobs=2)
        elif schedule == "agents2":
            run_tree(root, agents=2)
        elif schedule == "agents3":
            run_tree(root, agents=3)
        else:
            with pytest.raises(CrashRequested):
                run_tree(root, progress=crashing_progress(2))
            resumed = find_result_dir(str(root))
            run_case_study(
                "vpos", str(root), resume_path=resumed, **KWARGS
            )
        variant = find_result_dir(str(root))
        assert self.diagnose_from(variant, tmp_path) == reference


class TestChaosDiagnosis:
    def test_agent_death_is_named(self, tmp_path):
        tree = run_tree(tmp_path, agents=2, dist_fault_plan=CHAOS)
        diagnosis = diagnose(tree)
        deaths = [
            f for f in diagnosis["findings"] if f["code"] == "agent-death"
        ]
        assert len(deaths) == 1
        assert "agent-00" in deaths[0]["message"]
        assert deaths[0]["evidence"]["file"] == "dispatch.jsonl"
        assert deaths[0]["evidence"]["agents"] == ["agent-00"]
        assert diagnosis["summary"]["deaths"] == 1
        assert diagnosis["verdict"] == "degraded"
        rendered = render_diagnosis(diagnosis)
        assert "agent-00" in rendered
        assert "dispatch.jsonl" in rendered


class TestSyntheticFindings:
    def test_anomalous_run_is_flagged(self, tmp_path):
        tree = synthetic_tree(tmp_path, [1.0, 1.0, 1.0, 1.0, 1.0, 5.0])
        diagnosis = diagnose(tree)
        anomalies = [
            f for f in diagnosis["findings"] if f["code"] == "anomalous-run"
        ]
        assert len(anomalies) == 1
        assert anomalies[0]["evidence"]["runs"] == [5]
        assert "slower" in anomalies[0]["message"]

    def test_uniform_fleet_is_not_flagged(self, tmp_path):
        tree = synthetic_tree(tmp_path, [1.0] * 6)
        assert diagnose(tree)["findings"] == []

    def test_failed_runs_rank_above_warnings(self, tmp_path):
        tree = synthetic_tree(
            tmp_path, [1.0, 1.0, 1.0, 1.0, 1.0, 5.0], failures={1},
        )
        diagnosis = diagnose(tree)
        assert diagnosis["verdict"] == "unhealthy"
        codes = [f["code"] for f in diagnosis["findings"]]
        assert codes[0] == "run-failures"
        assert "boom" in diagnosis["findings"][0]["message"]
        assert codes.index("run-failures") < codes.index("anomalous-run")

    def test_folder_without_journal_is_one_error(self, tmp_path):
        with pytest.raises(DoctorError, match="journal"):
            diagnose(str(tmp_path))


class TestFastPathFallback:
    def test_ineligible_guest_is_named_with_its_run_count(
        self, tmp_path, monkeypatch,
    ):
        # A guest whose service_time override was never vouched for
        # replays on the event path; every run says so in its telemetry
        # and the doctor folds that into one warning.
        from repro.netsim.vm import VirtualizedLinuxRouter
        from repro.testbed import scenarios

        class CalmerGuest(VirtualizedLinuxRouter):
            def service_time(self, packet):
                return super().service_time(packet) * 0.5

        monkeypatch.setattr(scenarios, "VirtualizedLinuxRouter", CalmerGuest)
        tree = run_tree(tmp_path, max_runs=3)
        diagnosis = diagnose(tree)
        fallbacks = [
            f for f in diagnosis["findings"]
            if f["code"] == "fastpath-fallback"
        ]
        assert len(fallbacks) == 1
        assert fallbacks[0]["severity"] == "warning"
        assert fallbacks[0]["message"] == (
            "3 run(s) fell back to the per-packet event path: "
            "vtartu-router: CalmerGuest.service_time overrides behaviour "
            "below the seeded_service declaration of VirtualizedLinuxRouter"
        )
        assert fallbacks[0]["evidence"]["runs"] == [0, 1, 2]
        assert diagnosis["verdict"] == "degraded"
