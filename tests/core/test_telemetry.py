"""Telemetry plane: deterministic spans, metrics, and provenance artifacts.

The plane's contract mirrors the scheduler's: `trace.jsonl`,
`telemetry.json`, and `journal.jsonl` (whose run records carry each run's
telemetry snapshot) are *byte-identical*
for any ``--jobs N``, for the event path and the batched fast path alike,
and across a crash + ``Controller.resume``.  Wall-clock measurements never
enter those files.
``pos report`` reconstructs per-run attempts/faults/paths from the
published artifacts alone, and the checked-in JSON schemas pin the
artifact format.
"""

from __future__ import annotations

import json
import os
import re
import shutil

import pytest

from repro.casestudy import run_case_study
from repro.core import yamlite
from repro.core.journal import JOURNAL_NAME
from repro.faults.plan import FaultPlan, FaultSpec
from repro.publication.bundle import build_manifest
from repro.telemetry.jsonl import fold_journal
from repro.telemetry.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.telemetry.report import load_report, render_report
from repro.telemetry.schema import SchemaError, validate, validate_experiment
from repro.telemetry.spans import RunTelemetry
from tests.conftest import tree

CLOCK = lambda: 1_600_000_000.0  # noqa: E731 - fixed wall clock => fixed tree paths

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


def find_result_dir(root):
    for dirpath, _, filenames in os.walk(root):
        if JOURNAL_NAME in filenames:
            return dirpath
    raise AssertionError(f"no journal found under {root}")


def telemetry_files(root):
    """Relative path -> bytes for every deterministic telemetry artifact:
    the trace, the aggregate and the journal carrying the run snapshots."""
    picked = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name not in ("trace.jsonl", "telemetry.json", JOURNAL_NAME):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                picked[os.path.relpath(path, root)] = handle.read()
    return picked


@pytest.fixture(scope="module")
def result_dir(tmp_path_factory):
    """One completed 4-run pos execution, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("telemetry")
    handle = run_case_study("pos", str(root), jobs=1, **SWEEP)
    assert handle.completed_runs == 4 and handle.failed_runs == 0
    return handle.result_path


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_sum_and_snapshot_sorts(self):
        registry = MetricsRegistry()
        registry.count("b", 2)
        registry.count("a")
        registry.count("b")
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 1, "b": 3}
        assert list(snapshot["counters"]) == ["a", "b"]

    def test_gauges_overwrite(self):
        registry = MetricsRegistry()
        registry.gauge("runs.total", 4)
        registry.gauge("runs.total", 8)
        assert registry.snapshot()["gauges"] == {"runs.total": 8}

    def test_histogram_buckets_observations(self):
        registry = MetricsRegistry()
        registry.observe("latency_s", 1e-9)   # below first edge
        registry.observe("latency_s", 1.0)    # above last edge -> overflow
        histogram = registry.snapshot()["histograms"]["latency_s"]
        assert histogram["buckets"] == list(LATENCY_BUCKETS_S)
        assert len(histogram["counts"]) == len(LATENCY_BUCKETS_S) + 1
        assert histogram["total"] == 2
        assert histogram["counts"][0] == 1 and histogram["counts"][-1] == 1

    def test_observe_many_equals_one_at_a_time(self):
        # Every bucket edge, values between and beyond them, an int: the
        # batch lands each in the same bucket and sums in the same order.
        values = [edge * factor for edge in LATENCY_BUCKETS_S
                  for factor in (0.7, 1.0, 1.3)] + [0, 3, 1e-9, 0.1 / 3]
        one, many = MetricsRegistry(), MetricsRegistry()
        for value in values:
            one.observe("h", value)
        many.observe_many("h", values[:5])
        many.observe_many("h", values[5:])
        assert many.snapshot() == one.snapshot()

    def test_merge_from_registry_and_snapshot(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.count("x", 1)
        left.observe("h", 0.001)
        right.count("x", 2)
        right.gauge("g", 7)
        right.observe("h", 0.001)
        left.merge(right)
        left.merge(right.snapshot())  # dict form, as shipped in RunOutcome
        snapshot = left.snapshot()
        assert snapshot["counters"]["x"] == 5
        assert snapshot["gauges"]["g"] == 7
        assert snapshot["histograms"]["h"]["total"] == 3

    def test_merge_rejects_mismatched_buckets(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.001)
        bad = registry.snapshot()
        bad["histograms"]["h"]["buckets"] = [1.0, 2.0]
        target = MetricsRegistry()
        target.observe("h", 0.002)
        with pytest.raises(ValueError):
            target.merge(bad)


# --------------------------------------------------------------------------
# run-scoped span collector
# --------------------------------------------------------------------------


class TestRunTelemetry:
    def test_nesting_and_postorder(self):
        ticks = iter(range(100))
        collector = RunTelemetry(clock=lambda: float(next(ticks)))
        outer = collector.begin("run", index=3)
        with collector.span("attempt", number=1):
            collector.event("fault", kind="script")
        collector.finish(outer)
        names = [span["name"] for span in collector.spans]
        assert names == ["fault", "attempt", "run"]  # children precede parents
        by_name = {span["name"]: span for span in collector.spans}
        assert by_name["run"]["parent"] is None
        assert by_name["attempt"]["parent"] == by_name["run"]["seq"]
        assert by_name["fault"]["parent"] == by_name["attempt"]["seq"]
        assert by_name["fault"]["start"] == by_name["fault"]["end"]

    def test_finish_pops_dangling_children(self):
        collector = RunTelemetry()
        outer = collector.begin("run")
        collector.begin("attempt")  # never finished explicitly
        collector.finish(outer)
        assert [span["name"] for span in collector.spans] == ["attempt", "run"]

    def test_payload_is_plain_data(self):
        import pickle

        collector = RunTelemetry()
        with collector.span("run"):
            collector.count("engine.events", 10)
            collector.observe("loadgen.latency_s", 0.0001)
        payload = collector.payload()
        assert pickle.loads(pickle.dumps(payload)) == payload
        assert payload["metrics"]["counters"]["engine.events"] == 10


# --------------------------------------------------------------------------
# emitted artifacts of one execution
# --------------------------------------------------------------------------


class TestArtifacts:
    def test_trace_structure(self, result_dir):
        with open(os.path.join(result_dir, "trace.jsonl")) as handle:
            records = [json.loads(line) for line in handle]
        seqs = [record["seq"] for record in records]
        assert len(set(seqs)) == len(seqs), "sequence numbers must be unique"
        assert all(record["clock"] in ("ticks", "sim") for record in records)
        # Completion order: every parent is written after all its children.
        position = {record["seq"]: index for index, record in enumerate(records)}
        for record in records:
            if record["parent"] is not None:
                assert position[record["parent"]] > position[record["seq"]]
        # The experiment root closes last.
        assert records[-1]["name"] == "experiment"
        assert records[-1]["parent"] is None
        names = {record["name"] for record in records}
        assert {"phase.setup", "phase.measurement", "phase.finalize",
                "run", "attempt", "script"} <= names

    def test_run_spans_on_simulated_clock(self, result_dir):
        with open(os.path.join(result_dir, "trace.jsonl")) as handle:
            records = [json.loads(line) for line in handle]
        runs = sorted(
            (record for record in records if record["name"] == "run"),
            key=lambda record: record["attrs"]["index"],
        )
        assert [record["attrs"]["index"] for record in runs] == [0, 1, 2, 3]
        assert all(record["clock"] == "sim" for record in runs)
        starts = [record["start"] for record in runs]
        assert starts == sorted(starts) and len(set(starts)) == 4

    def test_per_run_snapshots(self, result_dir):
        runs = fold_journal(os.path.join(result_dir, JOURNAL_NAME))[1]
        assert sorted(runs) == [0, 1, 2, 3]
        for index, entry in sorted(runs.items()):
            snapshot = entry["telemetry"]
            assert snapshot["run"] == index
            span_names = [span["name"] for span in snapshot["spans"]]
            assert "run" in span_names and "attempt" in span_names
            counters = snapshot["metrics"]["counters"]
            # The pos platform engages the batched fast path by default.
            assert counters["fastpath.batches"] >= 1
            assert counters["loadgen.jobs"] == 1
            assert counters["loadgen.latency_samples"] > 0
            # Drop counters are recorded even when zero: absence of drops
            # is provenance too.
            assert "netsim.tx_ring_drops" in counters
            assert "netsim.backlog_drops" in counters
            # Wall-clock measurements never reach the deterministic file.
            assert all("wall_s" not in span for span in snapshot["spans"])

    def test_run_folder_holds_metadata_and_captures_only(self, result_dir):
        for index in range(4):
            run_dir = os.path.join(result_dir, f"run-{index:03d}")
            assert sorted(os.listdir(run_dir)) == [
                "dut", "loadgen", "metadata.yml",
            ]
            for role in ("dut", "loadgen"):
                names = os.listdir(os.path.join(run_dir, role))
                assert names and "status.yml" not in names
            metadata = yamlite.load_file(os.path.join(run_dir, "metadata.yml"))
            assert set(metadata["scripts"]) == {"dut", "loadgen"}
            assert all(
                status["ok"] is True and status["phase"] == "measurement"
                for status in metadata["scripts"].values()
            )

    def test_experiment_aggregate(self, result_dir):
        with open(os.path.join(result_dir, "telemetry.json")) as handle:
            aggregate = json.load(handle)
        gauges = aggregate["metrics"]["gauges"]
        assert gauges["runs.total"] == 4
        assert gauges["runs.completed"] == 4
        assert gauges["journal.appends"] == 6  # header + 4 runs + complete
        assert aggregate["metrics"]["counters"]["loadgen.jobs"] == 4
        with open(os.path.join(result_dir, "trace.jsonl")) as handle:
            assert aggregate["spans"] == sum(1 for _ in handle)

    def test_legacy_log_format_unchanged(self, result_dir):
        with open(os.path.join(result_dir, "controller.log")) as handle:
            lines = handle.read().splitlines()
        assert lines, "controller.log must still be written"
        sequences = [
            int(match.group(1))
            for match in (re.match(r"^\[(\d{4})\] ", line) for line in lines)
            if match
        ]
        assert sequences == list(range(1, len(lines) + 1))

    def test_publication_manifest_covers_telemetry(self, result_dir):
        paths = {entry["path"] for entry in build_manifest(result_dir)}
        assert "trace.jsonl" in paths
        assert "telemetry.json" in paths
        assert JOURNAL_NAME in paths  # the per-run snapshots ride in it
        assert not any(
            path.startswith("run-") and path.endswith("/telemetry.json")
            for path in paths
        )


# --------------------------------------------------------------------------
# determinism: jobs, event path, crash + resume
# --------------------------------------------------------------------------


class TestArtifactDeterminism:
    @pytest.mark.parametrize("batch", ["0", "1"], ids=["event-path", "fast-path"])
    def test_identical_jobs_1_vs_4(self, tmp_path, monkeypatch, batch):
        monkeypatch.setenv("POS_NETSIM_BATCH", batch)
        run_case_study("pos", str(tmp_path / "seq"), jobs=1, **SWEEP)
        run_case_study("pos", str(tmp_path / "par"), jobs=4, **SWEEP)
        seq = telemetry_files(str(tmp_path / "seq"))
        par = telemetry_files(str(tmp_path / "par"))
        # trace + experiment aggregate + the journal with the snapshots
        assert len(seq) == 3
        assert par == seq

    def test_identical_across_crash_and_resume(self, tmp_path):
        run_case_study("pos", str(tmp_path / "clean"), jobs=1, **SWEEP)
        clean = telemetry_files(str(tmp_path / "clean"))

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

        # Adopted runs replay their snapshots into the rewritten trace:
        # the finished artifacts are a pure function of the run set.
        assert telemetry_files(str(tmp_path / "crashed")) == clean

        # The legacy log, by contrast, *appends*: resume evidence is kept
        # and sequence numbers continue instead of restarting at 0001.
        with open(os.path.join(result_dir, "controller.log")) as log:
            sequences = [
                int(match.group(1))
                for match in (
                    re.match(r"^\[(\d{4})\] ", line) for line in log
                )
                if match
            ]
        assert sequences == list(range(1, len(sequences) + 1))
        assert len(sequences) > 0

    def test_torn_final_record_drops_only_that_run(self, tmp_path):
        run_case_study("pos", str(tmp_path / "clean"), jobs=1, **SWEEP)
        clean = telemetry_files(str(tmp_path / "clean"))
        clean_dir = find_result_dir(str(tmp_path / "clean"))
        torn_dir = os.path.join(str(tmp_path / "torn"), "tree")
        shutil.copytree(clean_dir, torn_dir)
        path = os.path.join(torn_dir, JOURNAL_NAME)
        with open(path) as handle:
            lines = handle.readlines()
        # Header, runs 0-3, complete: die halfway through run 3's record.
        assert json.loads(lines[4])["index"] == 3
        with open(path, "w") as handle:
            handle.writelines(lines[:4])
            handle.write(lines[4][: len(lines[4]) // 2])
        runs = fold_journal(path)[1]
        assert sorted(runs) == [0, 1, 2]
        assert all("telemetry" in e and "health" in e for e in runs.values())

        handle = run_case_study(
            "pos", str(tmp_path / "torn"), jobs=1, resume_path=torn_dir,
            **SWEEP,
        )
        assert handle.completed_runs == 4 and handle.resumed_runs == 3
        resumed = telemetry_files(str(tmp_path / "torn"))
        for name in ("trace.jsonl", "telemetry.json"):
            assert resumed[os.path.join("tree", name)] == clean[
                os.path.relpath(os.path.join(clean_dir, name),
                                str(tmp_path / "clean"))
            ]
        # Run 3 re-executed into a fresh attempt folder; its record is
        # the clean one but for the folder name.
        rerun = fold_journal(path)[1][3]
        assert rerun.pop("dir") == "run-003-retry"
        reference = fold_journal(os.path.join(clean_dir, JOURNAL_NAME))[1]
        assert reference[3].pop("dir") == "run-003"
        assert rerun == reference[3]

    def test_serial_jobs_and_agents_journals_identical(self, tmp_path):
        journals = []
        for name, plane in (
            ("serial", {}), ("jobs2", {"jobs": 2}), ("agents2", {"agents": 2}),
        ):
            root = str(tmp_path / name)
            run_case_study("pos", root, **plane, **SWEEP)
            with open(os.path.join(find_result_dir(root), JOURNAL_NAME),
                      "rb") as handle:
                journals.append(handle.read())
        assert journals[1] == journals[0]
        assert journals[2] == journals[0]
        records = [json.loads(line) for line in journals[0].splitlines()]
        runs = [record for record in records if record["event"] == "run"]
        assert len(runs) == 4
        assert all("telemetry" in run and "health" in run for run in runs)

    def test_kill_switch_suppresses_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POS_TELEMETRY", "0")
        handle = run_case_study("pos", str(tmp_path), jobs=1, **SMALL)
        root = handle.result_path
        assert not os.path.exists(os.path.join(root, "trace.jsonl"))
        assert not os.path.exists(os.path.join(root, "telemetry.json"))
        runs = fold_journal(os.path.join(root, JOURNAL_NAME))[1]
        assert "telemetry" not in runs[0]
        # The legacy log and journal are unconditional.
        assert os.path.exists(os.path.join(root, "controller.log"))
        assert os.path.exists(os.path.join(root, JOURNAL_NAME))

    def test_retired_switches_leave_the_tree_unchanged(
        self, tmp_path, monkeypatch
    ):
        """``POS_TELEMETRY`` and ``POS_DISPATCH_LOG`` are the only
        observation switches: variables that once gated health, a
        wall-clock sidecar or the run cache change nothing."""
        run_case_study("pos", str(tmp_path / "plain"), jobs=1, **SMALL)
        monkeypatch.setenv("POS_HEALTH", "0")
        monkeypatch.setenv("POS_TELEMETRY_WALLCLOCK", "1")
        monkeypatch.setenv("POS_RUN_CACHE", "0")
        run_case_study("pos", str(tmp_path / "retired"), jobs=1, **SMALL)
        assert tree(str(tmp_path / "retired")) == tree(str(tmp_path / "plain"))


# --------------------------------------------------------------------------
# pos report: provenance from artifacts alone
# --------------------------------------------------------------------------


class TestReport:
    def test_load_report(self, result_dir):
        report = load_report(result_dir)
        assert report["complete"] is True
        assert report["total_runs"] == 4
        assert [row["run"] for row in report["runs"]] == [0, 1, 2, 3]
        for row in report["runs"]:
            assert row["ok"] and not row["retried"]
            assert row["attempts"] == 1
            assert row["faults"] == 0
            assert row["path"] == "fast"  # pos platform -> batched replay
            assert row["duration_s"] > 0

    def test_render_report(self, result_dir):
        text = render_report(result_dir)
        assert "runs: 4/4 journalled, execution complete" in text
        body = text.splitlines()
        rows = [line for line in body if line.strip().startswith(("0 ", "1 ", "2 ", "3 "))]
        assert len(rows) == 4
        assert all(" ok " in row for row in rows)
        assert "journal.appends" in text

    def test_report_shows_recovery_and_faults(self, tmp_path):
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
        report = load_report(handle.result_path)
        struck = report["runs"][1]
        assert struck["retried"]
        assert struck["attempts"] == 2
        assert struck["faults"] == 1
        assert "recovered" in render_report(handle.result_path)

    def test_report_requires_journal(self, tmp_path):
        from repro.telemetry.report import ReportError

        with pytest.raises(ReportError):
            load_report(str(tmp_path))


# --------------------------------------------------------------------------
# schema validation
# --------------------------------------------------------------------------


class TestSchemas:
    def test_all_artifacts_validate(self, result_dir):
        validated = validate_experiment(result_dir)
        # trace + aggregate telemetry/health + the journal, whose run
        # records embed the per-run telemetry/health (the fleet DAG is
        # derived from trace.jsonl, not a file)
        assert len(validated) == 4
        assert any(path.endswith("/trace.jsonl") for path in validated)
        assert any(path.endswith("/" + JOURNAL_NAME) for path in validated)
        assert not any("fleet-trace" in path for path in validated)
        assert any(path.endswith("health.json") for path in validated)

    def test_trace_violation_detected(self, tmp_path):
        with open(os.path.join(tmp_path, "trace.jsonl"), "w") as handle:
            handle.write('{"seq": 0, "name": "run"}\n')  # missing keys
        with pytest.raises(SchemaError, match="trace.jsonl:1"):
            validate_experiment(str(tmp_path))

    @pytest.mark.parametrize("field", ["telemetry", "health"])
    def test_embedded_run_evidence_violation_names_the_line(
        self, tmp_path, result_dir, field,
    ):
        with open(os.path.join(result_dir, JOURNAL_NAME)) as handle:
            lines = handle.readlines()
        record = json.loads(lines[2])  # header, run 0, run 1
        assert record["index"] == 1
        record[field] = {"run": 1}  # spans/metrics or nodes missing
        lines[2] = json.dumps(record, sort_keys=True) + "\n"
        with open(os.path.join(tmp_path, JOURNAL_NAME), "w") as handle:
            handle.writelines(lines)
        with pytest.raises(
            SchemaError, match=rf"journal\.jsonl:3: \$\.{field}: missing"
        ):
            validate_experiment(str(tmp_path))

    def test_aggregate_violation_detected(self, tmp_path):
        with open(os.path.join(tmp_path, "telemetry.json"), "w") as handle:
            json.dump({"experiment": "x"}, handle)
        with pytest.raises(SchemaError, match="required"):
            validate_experiment(str(tmp_path))

    def test_validator_subset(self):
        validate(3, {"type": "integer", "minimum": 0})
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})  # bools are not integers
        with pytest.raises(SchemaError):
            validate(-1, {"type": "integer", "minimum": 0})
        with pytest.raises(SchemaError):
            validate({"a": 1}, {"type": "object", "additionalProperties": False})
        with pytest.raises(SchemaError):
            validate("x", {"enum": ["ticks", "sim"]})
