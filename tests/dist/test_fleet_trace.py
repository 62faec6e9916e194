"""Acceptance tests for the causal tracing and critical-path plane.

The tentpole contract: the fleet DAG that
:func:`~repro.telemetry.criticalpath.load_fleet_trace` derives from
``trace.jsonl`` is *deterministic* — identical for any
``--jobs``/``--agents`` count, transport, and crash schedule (including
a controller crash followed by resume) — while every real timing of
the distributed pump lives in the quarantined ``dispatch.jsonl``
evidence sidecar.  On top of the pair, ``pos trace`` must attribute
the pump's whole lifetime to phases that sum to the total by
construction, even for a crashed-and-resumed chaos execution.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.casestudy import run_case_study
from repro.cli.main import main as cli_main
from repro.core.errors import PosError
from repro.dist.report import agents_status
from repro.faults.plan import FaultPlan, FaultSpec
from repro.telemetry.criticalpath import PHASES, analyze, load_fleet_trace
from repro.telemetry.plane import DISPATCH_NAME, TRACE_NAME
from repro.telemetry.schema import validate_experiment
from tests.core.test_parallel_scheduler import (
    CrashRequested,
    crashing_progress,
    find_result_dir,
)

CLOCK = lambda: 1_600_000_000.0  # noqa: E731 - fixed clock => fixed tree paths

KWARGS = dict(duration_s=0.2, max_runs=4, clock=CLOCK)

CHAOS = FaultPlan([
    FaultSpec(kind="agent", operation="kill", node="agent-00", times=1),
    FaultSpec(kind="transport", operation="drop:result", times=1),
    FaultSpec(kind="transport", operation="duplicate:result", times=2),
])

#: What a 2-run serial pos sweep's ``fleet-trace.jsonl`` held when the
#: DAG was still written as a file of its own: the derivation must
#: reproduce it record for record.
SERIAL_POS_RECORDS = [
    {"attrs": {}, "clock": "causal", "end": 0.0, "name": "fleet.dispatch",
     "parent": "root", "run": 0, "seq": 1, "span": "r0.dispatch",
     "start": 0.0, "trace": "8fe9b7ac3475ee8b"},
    {"attrs": {"attempts": 1, "faults": 0, "ok": True, "recovered": False},
     "clock": "sim", "end": 1000.25, "name": "fleet.run",
     "parent": "r0.dispatch", "run": 0, "seq": 2, "span": "r0.run",
     "start": 1000.0, "trace": "8fe9b7ac3475ee8b"},
    {"attrs": {}, "clock": "causal", "end": 1.0, "name": "fleet.persist",
     "parent": "r0.run", "run": 0, "seq": 3, "span": "r0.persist",
     "start": 1.0, "trace": "8fe9b7ac3475ee8b"},
    {"attrs": {}, "clock": "causal", "end": 2.0, "name": "fleet.dispatch",
     "parent": "root", "run": 1, "seq": 4, "span": "r1.dispatch",
     "start": 2.0, "trace": "8fe9b7ac3475ee8b"},
    {"attrs": {"attempts": 1, "faults": 0, "ok": True, "recovered": False},
     "clock": "sim", "end": 1100.25, "name": "fleet.run",
     "parent": "r1.dispatch", "run": 1, "seq": 5, "span": "r1.run",
     "start": 1100.0, "trace": "8fe9b7ac3475ee8b"},
    {"attrs": {}, "clock": "causal", "end": 3.0, "name": "fleet.persist",
     "parent": "r1.run", "run": 1, "seq": 6, "span": "r1.persist",
     "start": 3.0, "trace": "8fe9b7ac3475ee8b"},
    {"attrs": {"experiment": "linux-router-forwarding-pos", "runs": 2},
     "clock": "causal", "end": 4.0, "name": "fleet.experiment",
     "parent": None, "run": None, "seq": 7, "span": "root", "start": 0.0,
     "trace": "8fe9b7ac3475ee8b"},
]


def fleet_records(root):
    path = os.path.join(find_result_dir(root), TRACE_NAME)
    return load_fleet_trace(path)["records"]


def dispatch_records(root):
    path = os.path.join(find_result_dir(root), DISPATCH_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture(scope="module")
def serial_fleet_records(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("serial"))
    run_case_study("vpos", root, **KWARGS)
    return fleet_records(root)


class TestDeterministicTrace:
    @pytest.mark.parametrize("agents", [1, 2, 3])
    def test_any_agent_count_traces_identically(
        self, tmp_path, serial_fleet_records, agents,
    ):
        root = str(tmp_path / f"agents-{agents}")
        run_case_study("vpos", root, agents=agents, **KWARGS)
        assert fleet_records(root) == serial_fleet_records

    def test_jobs_trace_identically(self, tmp_path, serial_fleet_records):
        root = str(tmp_path / "jobs")
        run_case_study("vpos", root, jobs=2, **KWARGS)
        assert fleet_records(root) == serial_fleet_records

    def test_chaos_traces_identically(self, tmp_path, serial_fleet_records):
        root = str(tmp_path / "chaos")
        handle = run_case_study(
            "vpos", root, agents=3, dist_fault_plan=CHAOS, **KWARGS,
        )
        assert handle.completed_runs == 4
        assert fleet_records(root) == serial_fleet_records

    def test_crash_resume_traces_identically(
        self, tmp_path, serial_fleet_records,
    ):
        root = str(tmp_path / "crashed")
        with pytest.raises(CrashRequested):
            run_case_study(
                "vpos", root, agents=3, progress=crashing_progress(2),
                **KWARGS,
            )
        result_dir = find_result_dir(root)
        run_case_study(
            "vpos", root, agents=3, resume_path=result_dir, **KWARGS,
        )
        assert fleet_records(root) == serial_fleet_records

    def test_serial_pos_sweep_derives_the_written_records(self, tmp_path):
        root = str(tmp_path / "pos")
        run_case_study("pos", root, duration_s=0.2, max_runs=2, clock=CLOCK)
        assert fleet_records(root) == SERIAL_POS_RECORDS

    def test_aborted_execution_derives_an_unfinished_root(self, tmp_path):
        root = str(tmp_path / "aborted")
        plan = FaultPlan([FaultSpec(kind="script", runs=(1,), times=1)], seed=5)
        with pytest.raises(PosError):
            run_case_study(
                "vpos", root, script_style="shell", fault_plan=plan, **KWARGS,
            )
        records = fleet_records(root)
        assert [record["span"] for record in records] == [
            "r0.dispatch", "r0.run", "r0.persist",
            "r1.dispatch", "r1.run", "r1.persist", "root",
        ]
        assert records[4]["attrs"]["ok"] is False
        assert records[-1]["attrs"] == {
            "experiment": "linux-router-forwarding-vpos", "runs": 4,
            "unfinished": True,
        }
        assert records[-1]["end"] == 4.0

    def test_trace_shape_and_schema(self, tmp_path):
        root = str(tmp_path / "shape")
        run_case_study("vpos", root, agents=2, **KWARGS)
        records = fleet_records(root)
        # One dispatch -> run -> persist chain per run, root post-order,
        # in strict run-index order.
        spans = [record["span"] for record in records]
        expected = [
            f"r{index}.{stage}"
            for index in range(4)
            for stage in ("dispatch", "run", "persist")
        ] + ["root"]
        assert spans == expected
        assert all(
            record["trace"] == records[0]["trace"] for record in records
        )
        root_record = records[-1]
        assert root_record["parent"] is None
        assert root_record["attrs"]["runs"] == 4
        # The chains hang off the root; run spans off their dispatch.
        by_span = {record["span"]: record for record in records}
        for index in range(4):
            assert by_span[f"r{index}.dispatch"]["parent"] == "root"
            assert by_span[f"r{index}.run"]["parent"] == f"r{index}.dispatch"
            assert by_span[f"r{index}.persist"]["parent"] == f"r{index}.run"
        # The envelopes carry the derived DAG's trace id.
        begin = dispatch_records(root)[0]
        assert begin["event"] == "begin"
        assert begin["trace"] == records[0]["trace"]
        # The published schemas accept every line.
        validated = validate_experiment(find_result_dir(root))
        assert any(path.endswith(TRACE_NAME) for path in validated)
        assert any(path.endswith(DISPATCH_NAME) for path in validated)

    def test_pump_timings_ride_the_dispatch_log(self, tmp_path):
        serial_root = str(tmp_path / "serial")
        run_case_study("vpos", serial_root, **KWARGS)
        assert not os.path.isfile(
            os.path.join(find_result_dir(serial_root), DISPATCH_NAME)
        )
        dist_root = str(tmp_path / "dist")
        run_case_study("vpos", dist_root, agents=2, **KWARGS)
        events = dispatch_records(dist_root)
        assert all("t" in event for event in events)
        kinds = {event["event"] for event in events}
        assert {"begin", "send", "recv", "result", "deliver", "complete"} <= kinds
        assert not any(
            name.startswith("fleet-trace")
            for name in os.listdir(find_result_dir(dist_root))
        )

    def test_dispatch_log_switch_silences_pump_but_not_trace(
        self, tmp_path, monkeypatch,
    ):
        # POS_DISPATCH_LOG=0 silences every evidence sidecar; the
        # deterministic causal skeleton lives in trace.jsonl, an
        # artifact, not evidence, and must survive.
        monkeypatch.setenv("POS_DISPATCH_LOG", "0")
        root = str(tmp_path / "quiet")
        run_case_study("vpos", root, agents=2, **KWARGS)
        result_dir = find_result_dir(root)
        assert not os.path.isfile(os.path.join(result_dir, DISPATCH_NAME))
        assert len(fleet_records(root)) == 13
        assert analyze(result_dir)["clock"] == "sim"


class TestCriticalPath:
    def test_chaos_crash_resume_breakdown_sums_to_total(self, tmp_path):
        # The acceptance scenario: a crashed-and-resumed --agents 3
        # chaos execution still yields a breakdown that accounts for
        # every instant of the pump's lifetime.
        root = str(tmp_path / "chaos")
        with pytest.raises(CrashRequested):
            run_case_study(
                "vpos", root, agents=3, dist_fault_plan=CHAOS,
                progress=crashing_progress(2), **KWARGS,
            )
        result_dir = find_result_dir(root)
        run_case_study(
            "vpos", root, agents=3, resume_path=result_dir, **KWARGS,
        )
        analysis = analyze(result_dir)
        assert analysis["runs_traced"] == 4
        assert analysis["clock"] == "transport"
        total = analysis["total"]
        assert total > 0
        assert sum(analysis["phases"].values()) == pytest.approx(total)
        assert set(analysis["phases"]) == set(PHASES)
        # Every phase is a non-negative share of the lifetime.
        assert all(value >= 0.0 for value in analysis["phases"].values())

    def test_serial_profile_falls_back_to_sim_clock(self, tmp_path):
        root = str(tmp_path / "serial")
        run_case_study("vpos", root, **KWARGS)
        analysis = analyze(find_result_dir(root))
        assert analysis["clock"] == "sim"
        assert analysis["phases"]["run"] == pytest.approx(analysis["total"])
        assert analysis["agents"] == []

    def test_agent_occupancy_and_slowest_runs(self, tmp_path):
        root = str(tmp_path / "dist")
        run_case_study("vpos", root, agents=2, **KWARGS)
        analysis = analyze(find_result_dir(root))
        agents = {book["agent"] for book in analysis["agents"]}
        assert agents <= {"agent-00", "agent-01"} and agents
        for book in analysis["agents"]:
            assert 0.0 <= book["utilization"] <= 1.0
            assert book["busy"] + book["idle"] == pytest.approx(
                analysis["total"]
            )
        assert len(analysis["slowest"]) == 4
        durations = [row["duration"] for row in analysis["slowest"]]
        assert durations == sorted(durations, reverse=True)

    def test_torn_dispatch_log_still_profiles(self, tmp_path):
        root = str(tmp_path / "torn")
        run_case_study("vpos", root, agents=2, **KWARGS)
        path = os.path.join(find_result_dir(root), DISPATCH_NAME)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 9999, "event": "re')  # torn write
        analysis = analyze(find_result_dir(root))  # must not raise
        assert sum(analysis["phases"].values()) == pytest.approx(
            analysis["total"]
        )


class TestTraceCli:
    def test_text_report(self, tmp_path, capsys):
        root = str(tmp_path / "dist")
        run_case_study("vpos", root, agents=2, **KWARGS)
        assert cli_main(["trace", find_result_dir(root)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "4/4 runs traced" in out
        for phase in PHASES:
            assert phase in out
        assert "slowest runs" in out

    def test_json_report_sums_to_total(self, tmp_path, capsys):
        root = str(tmp_path / "dist")
        run_case_study("vpos", root, agents=2, **KWARGS)
        assert cli_main(["trace", "--json", find_result_dir(root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["phases"].values()) == pytest.approx(
            payload["total"]
        )
        assert payload["runs_traced"] == 4

    def test_missing_trace_is_a_clear_error(self, tmp_path, capsys):
        assert cli_main(["trace", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "no trace.jsonl" in err


class TestTornDispatchLog:
    def test_agents_status_folds_from_every_torn_offset(self, tmp_path):
        # Crash evidence has no atomicity: a writer can die mid-byte.
        # The fold must survive *any* prefix of the sidecar — walk every
        # truncation offset of a real log and require a clean answer.
        root = str(tmp_path / "torn")
        run_case_study("vpos", root, agents=2, **KWARGS)
        path = os.path.join(find_result_dir(root), DISPATCH_NAME)
        with open(path, "rb") as handle:
            original = handle.read()
        assert len(original) > 0
        complete = agents_status(root)
        assert complete["totals"]["completed"] is True
        for offset in range(len(original) + 1):
            with open(path, "wb") as handle:
                handle.write(original[:offset])
            status = agents_status(root)  # must not raise at any offset
            assert status["totals"]["results"] <= complete["totals"]["results"]
        # Full bytes restored by the final iteration: same answer again.
        assert agents_status(root) == complete
