"""Acceptance tests for the fault-tolerant distributed execution plane.

The hard invariant under test: the merged artifact tree is
*byte-identical* to a sequential, fault-free execution for any agent
count, transport, and seeded crash schedule — including agent SIGKILLs
mid-shard and a controller crash followed by resume.  The only file
allowed to differ is the ``dispatch.jsonl`` evidence sidecar, which is
deliberately outside the determinism contract.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.casestudy import run_case_study
from repro.dist.report import agents_status, format_agents_status
from repro.faults.plan import FaultPlan, FaultSpec
from repro.telemetry.plane import DISPATCH_NAME, EVIDENCE_SIDECARS
from tests.core.test_parallel_scheduler import (
    CrashRequested,
    crashing_progress,
    find_result_dir,
    journal_entries,
    run_dir_files,
    tree,
)

CLOCK = lambda: 1_600_000_000.0  # noqa: E731 - fixed clock => fixed tree paths

KWARGS = dict(duration_s=0.2, max_runs=4, clock=CLOCK)


def dist_tree(root):
    """Tree mapping without the evidence sidecars (outside the contract)."""
    return {
        rel: data
        for rel, data in tree(root).items()
        if os.path.basename(rel) not in EVIDENCE_SIDECARS
    }


def dispatch_events(root):
    path = os.path.join(find_result_dir(root), DISPATCH_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture(scope="module")
def serial_tree(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("serial"))
    run_case_study("vpos", root, **KWARGS)
    return dist_tree(root)


class TestByteIdentity:
    @pytest.mark.parametrize("agents", [1, 2, 3])
    def test_any_agent_count_matches_serial(
        self, tmp_path, serial_tree, agents,
    ):
        root = str(tmp_path / f"agents-{agents}")
        handle = run_case_study("vpos", root, agents=agents, **KWARGS)
        assert handle.completed_runs == 4 and handle.failed_runs == 0
        assert dist_tree(root) == serial_tree

    def test_more_agents_than_runs(self, tmp_path, serial_tree):
        root = str(tmp_path / "wide")
        run_case_study("vpos", root, agents=16, **KWARGS)
        assert dist_tree(root) == serial_tree

    def test_dispatch_sidecar_can_be_disabled(
        self, tmp_path, serial_tree, monkeypatch,
    ):
        monkeypatch.setenv("POS_DISPATCH_LOG", "0")
        root = str(tmp_path / "quiet")
        run_case_study("vpos", root, agents=2, **KWARGS)
        # With the sidecar off the *whole* tree is identical, no filter.
        assert tree(root) == serial_tree


class TestCrashSchedules:
    def test_agent_killed_mid_shard_matches_serial(
        self, tmp_path, serial_tree,
    ):
        # agent-00's first incarnation is killed before its first run;
        # the lease expires, the work is re-dispatched, and a second
        # incarnation (or the survivor) finishes the shard.
        plan = FaultPlan([
            FaultSpec(kind="agent", operation="kill", node="agent-00", times=1),
        ])
        root = str(tmp_path / "killed")
        run_case_study("vpos", root, agents=2, dist_fault_plan=plan, **KWARGS)
        assert dist_tree(root) == serial_tree
        events = dispatch_events(root)
        assert any(event["event"] == "agent-dead" for event in events)
        # The orphaned work went out again — either as a reconcile
        # "redispatch" or as a fresh dispatch flagged with that reason.
        assert any(
            event["event"] == "redispatch"
            or (event["event"] == "dispatch"
                and event.get("reason") == "redispatch")
            for event in events
        )

    def test_lost_result_is_reexecuted_not_lost(self, tmp_path, serial_tree):
        # kill-after: the run executed but the result died with the
        # agent — the at-least-once leg must re-dispatch and the dedupe
        # leg must keep the tree identical.
        plan = FaultPlan([
            FaultSpec(kind="agent", operation="kill-after",
                      node="agent-01", times=1),
        ])
        root = str(tmp_path / "lost-result")
        run_case_study("vpos", root, agents=2, dist_fault_plan=plan, **KWARGS)
        assert dist_tree(root) == serial_tree

    def test_full_chaos_schedule_matches_serial(self, tmp_path, serial_tree):
        plan = FaultPlan([
            FaultSpec(kind="agent", operation="kill", node="agent-00", times=1),
            FaultSpec(kind="transport", operation="drop:result", times=1),
            FaultSpec(kind="transport", operation="delay:heartbeat", times=3),
            FaultSpec(kind="transport", operation="duplicate:result", times=2),
        ])
        root = str(tmp_path / "chaos")
        handle = run_case_study(
            "vpos", root, agents=3, dist_fault_plan=plan, **KWARGS,
        )
        assert handle.completed_runs == 4 and handle.failed_runs == 0
        assert dist_tree(root) == serial_tree

    def test_dying_agents_work_migrates_to_the_survivor(
        self, tmp_path, serial_tree,
    ):
        # agent-00 is killed whenever it is about to execute a run; its
        # orphaned shard migrates and agent-01 absorbs the whole sweep.
        plan = FaultPlan([
            FaultSpec(kind="agent", operation="kill",
                      node="agent-00", times=None),
        ])
        root = str(tmp_path / "migrate")
        run_case_study("vpos", root, agents=2, dist_fault_plan=plan, **KWARGS)
        assert dist_tree(root) == serial_tree
        events = dispatch_events(root)
        assert any(
            event["event"] == "agent-dead" and event["agent"] == "agent-00"
            for event in events
        )
        delivered_by = [
            event["agent"] for event in events if event["event"] == "result"
        ]
        assert delivered_by.count("agent-01") == 4

    def test_initial_shard_waits_for_its_late_agent(
        self, tmp_path, serial_tree,
    ):
        # agent-00's first registrations are lost, so agent-01 holds a
        # lease first.  agent-00's shard still waits for agent-00: the
        # kill aimed at it strikes, and its work is redispatched.
        plan = FaultPlan([
            FaultSpec(kind="transport", operation="drop:register",
                      node="agent-00", times=2),
            FaultSpec(kind="agent", operation="kill", node="agent-00", times=1),
        ])
        root = str(tmp_path / "late")
        run_case_study("vpos", root, agents=2, dist_fault_plan=plan, **KWARGS)
        assert dist_tree(root) == serial_tree
        events = dispatch_events(root)
        registered = [e["agent"] for e in events if e["event"] == "register"]
        assert registered[:2] == ["agent-01", "agent-00"]
        assert any(
            event["event"] == "dispatch" and event["agent"] == "agent-00"
            and event["reason"] == "shard"
            for event in events
        )
        assert any(
            event["event"] == "agent-dead" and event["agent"] == "agent-00"
            for event in events
        )

    def test_chaos_stays_out_of_the_inventory(self, tmp_path):
        # The chaos plan must never leak into the experiment artifacts:
        # inventory.json documents the in-world plan only.
        plan = FaultPlan([
            FaultSpec(kind="transport", operation="duplicate:result", times=1),
        ])
        serial_root = str(tmp_path / "inv-serial")
        run_case_study("vpos", serial_root, **KWARGS)
        root = str(tmp_path / "inv")
        run_case_study("vpos", root, agents=2, dist_fault_plan=plan, **KWARGS)

        def inventory(contents):
            return next(
                data for rel, data in contents.items()
                if os.path.basename(rel) == "inventory.yml"
            )

        # Byte-for-byte the same inventory as a chaos-free serial run:
        # the dist plan never reaches the in-world fault description.
        assert inventory(dist_tree(root)) == inventory(dist_tree(serial_root))


class TestControllerCrashResume:
    def test_crash_then_resume_reruns_zero_completed_runs(self, tmp_path):
        clean_root = str(tmp_path / "clean")
        run_case_study("vpos", clean_root, **KWARGS)
        clean = tree(clean_root)

        with pytest.raises(CrashRequested):
            run_case_study(
                "vpos", str(tmp_path / "crashed"), agents=2,
                progress=crashing_progress(2), **KWARGS,
            )
        result_dir = find_result_dir(str(tmp_path / "crashed"))
        completed_before = {
            entry["index"]
            for entry in journal_entries(tree(str(tmp_path / "crashed")))
            if entry.get("event") == "run"
        }
        assert len(completed_before) >= 2

        handle = run_case_study(
            "vpos", str(tmp_path / "crashed"), agents=2,
            resume_path=result_dir, **KWARGS,
        )
        assert handle.resumed_runs == len(completed_before)
        resumed = tree(str(tmp_path / "crashed"))
        assert run_dir_files(resumed) == run_dir_files(clean)
        # The journal promises each run exactly once.
        run_entries = [
            entry for entry in journal_entries(resumed)
            if entry.get("event") == "run"
        ]
        assert sorted(entry["index"] for entry in run_entries) == [0, 1, 2, 3]
        # Zero re-runs: the sidecar is append-only across the crash, so
        # a journal-promised run must appear exactly once in the whole
        # result history — delivered pre-crash, never re-delivered by
        # the resumed execution's agents.
        results = [
            event["run"]
            for event in dispatch_events(str(tmp_path / "crashed"))
            if event["event"] == "result"
        ]
        for index in completed_before:
            assert results.count(index) == 1

    def test_resume_onto_the_serial_path_from_a_dist_crash(self, tmp_path):
        clean_root = str(tmp_path / "clean")
        run_case_study("vpos", clean_root, **KWARGS)
        with pytest.raises(CrashRequested):
            run_case_study(
                "vpos", str(tmp_path / "crashed"), agents=3,
                progress=crashing_progress(1), **KWARGS,
            )
        result_dir = find_result_dir(str(tmp_path / "crashed"))
        run_case_study(
            "vpos", str(tmp_path / "crashed"), resume_path=result_dir,
            **KWARGS,
        )
        assert run_dir_files(tree(str(tmp_path / "crashed"))) == run_dir_files(
            tree(clean_root)
        )


class TestPipeTransport:
    def test_pipe_happy_path_matches_serial(self, tmp_path, serial_tree):
        root = str(tmp_path / "pipe")
        handle = run_case_study(
            "vpos", root, agents=2, transport="pipe", **KWARGS,
        )
        assert handle.completed_runs == 4 and handle.failed_runs == 0
        assert dist_tree(root) == serial_tree

    def test_real_sigkill_is_absorbed(self, tmp_path, serial_tree):
        # A real subprocess agent SIGKILLs itself; the controller sees
        # the broken pipe, fences, respawns, and the tree is identical.
        plan = FaultPlan([
            FaultSpec(kind="agent", operation="kill", node="agent-00", times=1),
        ])
        root = str(tmp_path / "pipe-kill")
        handle = run_case_study(
            "vpos", root, agents=2, transport="pipe",
            dist_fault_plan=plan, **KWARGS,
        )
        assert handle.completed_runs == 4 and handle.failed_runs == 0
        assert dist_tree(root) == serial_tree
        events = dispatch_events(root)
        assert any(event["event"] == "agent-dead" for event in events)


class TestAgentsStatusReport:
    def test_fleet_report_folds_the_evidence(self, tmp_path):
        plan = FaultPlan([
            FaultSpec(kind="agent", operation="kill", node="agent-00", times=1),
        ])
        root = str(tmp_path / "report")
        run_case_study("vpos", root, agents=2, dist_fault_plan=plan, **KWARGS)
        status = agents_status(root)
        assert status["totals"]["completed"] is True
        assert status["totals"]["results"] == 4
        assert status["totals"]["deaths"] >= 1
        by_id = {entry["agent"]: entry for entry in status["agents"]}
        assert by_id["agent-00"]["spawns"] >= 2  # initial + respawn
        text = format_agents_status(status)
        assert "agent-00" in text and "complete" in text

    def test_report_tolerates_a_torn_tail(self, tmp_path):
        root = str(tmp_path / "torn")
        run_case_study("vpos", root, agents=2, **KWARGS)
        path = os.path.join(find_result_dir(root), DISPATCH_NAME)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 9999, "event": "agent-d')  # torn write
        status = agents_status(root)  # must not raise
        assert status["totals"]["completed"] is True

    def test_missing_sidecar_is_a_clear_error(self, tmp_path):
        from repro.core.errors import ExperimentError

        root = str(tmp_path / "none")
        run_case_study("vpos", root, **KWARGS)  # serial: no sidecar
        with pytest.raises(ExperimentError, match="--agents"):
            agents_status(root)
