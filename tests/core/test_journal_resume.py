"""Tests for the crash-safe run journal, resume, and the watchdog.

These cover the resilience plane end to end: journal durability and
torn-tail tolerance, resuming a killed experiment without re-executing
or overwriting completed runs, the retry-folder naming that keeps
failure evidence, the post-failure health watchdog, and quarantine.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import yamlite
from repro.core.allocation import Allocator
from repro.core.calendar import Calendar
from repro.core.controller import Controller
from repro.core.errors import JournalError, PowerError, ScriptError
from repro.core.experiment import Experiment, Role
from repro.core.journal import JOURNAL_NAME, RunJournal
from repro.core.results import ResultStore
from repro.core.scripts import CommandScript, PythonScript
from repro.core.variables import Variables
from repro.faults.injector import install_fault_plan
from repro.netsim.host import SimHost
from repro.testbed.images import default_registry
from repro.testbed.node import Node
from repro.testbed.power import IpmiController, PowerControl
from repro.testbed.transport import SshTransport


def make_node(name, power_class=IpmiController, **power_kwargs):
    host = SimHost(name)
    return Node(
        name,
        host=host,
        power=power_class(host, **power_kwargs),
        transport=SshTransport(host),
    )


def make_testbed(tmp_path, fault_plan=None, **controller_kwargs):
    nodes = {name: make_node(name) for name in ("tartu", "riga")}
    injector = None
    if fault_plan is not None:
        injector = install_fault_plan(nodes, fault_plan)
    calendar = Calendar(clock=lambda: 1000.0)
    allocator = Allocator(calendar, nodes)
    results = ResultStore(str(tmp_path / "results"), clock=lambda: 1600000000.0)
    controller = Controller(
        allocator, default_registry(), results,
        fault_injector=injector, **controller_kwargs,
    )
    return controller, nodes


def simple_experiment(loop_vars=None, dut_measure=None):
    roles = [
        Role(
            name="dut",
            node="tartu",
            setup=CommandScript("dut-setup", ["pos barrier setup-done"]),
            measurement=dut_measure or CommandScript(
                "dut-measure", ["echo measuring at $pkt_rate"]
            ),
        ),
        Role(
            name="loadgen",
            node="riga",
            setup=CommandScript("lg-setup", ["pos barrier setup-done"]),
            measurement=CommandScript("lg-measure", ["echo load $pkt_rate"]),
        ),
    ]
    return Experiment(
        name="exp",
        roles=roles,
        variables=Variables(loop_vars=loop_vars or {"pkt_rate": [100, 200]}),
        duration_s=60.0,
    )


class CrashRequested(RuntimeError):
    """Simulated controller death: NOT a PosError, so nothing handles it."""


def crash_after(n):
    """An on_run_complete callback that kills the controller after n runs."""
    seen = {"count": 0}

    def callback(record, run_path):
        seen["count"] += 1
        if seen["count"] >= n:
            raise CrashRequested(f"killed after {n} runs")

    return callback


def read_journal(result_path):
    with open(os.path.join(result_path, JOURNAL_NAME)) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# --------------------------------------------------------------------------
# journal primitives
# --------------------------------------------------------------------------


class TestRunJournal:
    def test_create_writes_header(self, tmp_path):
        journal = RunJournal.create(str(tmp_path), "exp", 4)
        journal.close()
        entries = read_journal(str(tmp_path))
        assert entries == [
            {"event": "experiment", "name": "exp", "total_runs": 4}
        ]

    def test_every_line_is_flushed_to_disk_immediately(self, tmp_path):
        journal = RunJournal.create(str(tmp_path), "exp", 2)
        journal.record_run(0, {"r": 1}, ok=True, run_dir="run-000")
        # Read through a *separate* handle while the journal is open.
        assert len(read_journal(str(tmp_path))) == 2

    def test_open_tolerates_torn_tail(self, tmp_path):
        journal = RunJournal.create(str(tmp_path), "exp", 2)
        journal.record_run(0, {"r": 1}, ok=True, run_dir="run-000")
        journal.close()
        with open(os.path.join(str(tmp_path), JOURNAL_NAME), "a") as handle:
            handle.write('{"event": "run", "index": 1, "ok": tr')  # torn write
        reopened = RunJournal.open(str(tmp_path))
        assert sorted(reopened.completed()) == [0]
        reopened.close()

    def test_open_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="nothing to resume"):
            RunJournal.open(str(tmp_path))

    def test_completed_takes_the_latest_entry_per_index(self, tmp_path):
        journal = RunJournal.create(str(tmp_path), "exp", 2)
        journal.record_run(0, {"r": 1}, ok=False, error="flaked")
        journal.record_run(0, {"r": 1}, ok=True, retried=True,
                           run_dir="run-000-retry")
        completed = journal.completed()
        assert completed[0]["dir"] == "run-000-retry"
        journal.close()

    def test_validate_against_rejects_other_experiments(self, tmp_path):
        RunJournal.create(str(tmp_path), "exp", 4).close()
        journal = RunJournal.open(str(tmp_path))
        with pytest.raises(JournalError, match="belongs to"):
            journal.validate_against("other-exp", 4)
        with pytest.raises(JournalError, match="4 runs"):
            journal.validate_against("exp", 9)
        journal.close()


# --------------------------------------------------------------------------
# journalling during a normal run
# --------------------------------------------------------------------------


class TestJournalDuringRun:
    def test_every_run_is_journalled(self, tmp_path):
        controller, __ = make_testbed(tmp_path)
        handle = controller.run(simple_experiment())
        entries = read_journal(handle.result_path)
        runs = [entry for entry in entries if entry["event"] == "run"]
        assert [run["index"] for run in runs] == [0, 1]
        assert all(run["ok"] for run in runs)
        assert runs[0]["dir"] == "run-000"
        assert entries[-1] == {"event": "complete", "ok": True}

    def test_failed_runs_are_journalled_with_error(self, tmp_path):
        controller, __ = make_testbed(tmp_path)
        experiment = simple_experiment(
            dut_measure=CommandScript("dut-measure", ["false"])
        )
        handle = controller.run(experiment, on_error="continue")
        runs = [e for e in read_journal(handle.result_path)
                if e["event"] == "run"]
        assert all(not run["ok"] and run["error"] for run in runs)


# --------------------------------------------------------------------------
# crash + resume
# --------------------------------------------------------------------------


class TestResume:
    def run_to_crash(self, controller, experiment, after):
        with pytest.raises(CrashRequested):
            controller.run(experiment, on_run_complete=crash_after(after))

    def find_result_path(self, tmp_path):
        root = str(tmp_path / "results")
        paths = []
        for dirpath, __, filenames in os.walk(root):
            if JOURNAL_NAME in filenames:
                paths.append(dirpath)
        assert len(paths) == 1
        return paths[0]

    def test_resume_completes_exactly_the_remainder(self, tmp_path):
        experiment = simple_experiment(loop_vars={"pkt_rate": [1, 2, 3, 4, 5]})
        controller, __ = make_testbed(tmp_path)
        self.run_to_crash(controller, experiment, after=2)
        result_path = self.find_result_path(tmp_path)

        resumed, __ = make_testbed(tmp_path)
        handle = resumed.resume(experiment, result_path)
        assert handle.completed_runs == 5
        assert handle.resumed_runs == 2  # adopted, not re-executed
        assert sorted(record.index for record in handle.runs) == [0, 1, 2, 3, 4]
        # No duplicated indices anywhere.
        assert len({record.index for record in handle.runs}) == 5

    def test_resume_does_not_rewrite_completed_run_metadata(self, tmp_path):
        experiment = simple_experiment(loop_vars={"pkt_rate": [1, 2, 3, 4]})
        controller, __ = make_testbed(tmp_path)
        self.run_to_crash(controller, experiment, after=2)
        result_path = self.find_result_path(tmp_path)

        def metadata_bytes(index):
            name = f"run-{index:03d}"
            with open(os.path.join(result_path, name, "metadata.yml"), "rb") as f:
                return f.read()

        before = {index: metadata_bytes(index) for index in (0, 1)}
        resumed, __ = make_testbed(tmp_path)
        handle = resumed.resume(experiment, result_path)
        assert handle.completed_runs == 4
        after = {index: metadata_bytes(index) for index in (0, 1)}
        assert before == after  # byte-identical: the folders were adopted

    def test_resume_after_first_run(self, tmp_path):
        experiment = simple_experiment(loop_vars={"pkt_rate": [1, 2, 3]})
        controller, __ = make_testbed(tmp_path)
        self.run_to_crash(controller, experiment, after=1)
        result_path = self.find_result_path(tmp_path)
        resumed, __ = make_testbed(tmp_path)
        handle = resumed.resume(experiment, result_path)
        assert handle.resumed_runs == 1
        assert handle.completed_runs == 3

    def test_resume_validates_experiment_identity(self, tmp_path):
        experiment = simple_experiment(loop_vars={"pkt_rate": [1, 2, 3]})
        controller, __ = make_testbed(tmp_path)
        self.run_to_crash(controller, experiment, after=1)
        result_path = self.find_result_path(tmp_path)
        other = simple_experiment(loop_vars={"pkt_rate": [1, 2, 3]})
        other.name = "different-exp"
        resumed, __ = make_testbed(tmp_path)
        with pytest.raises(JournalError, match="belongs to"):
            resumed.resume(other, result_path)

    def test_resume_validates_loop_instances(self, tmp_path):
        experiment = simple_experiment(loop_vars={"pkt_rate": [1, 2, 3]})
        controller, __ = make_testbed(tmp_path)
        self.run_to_crash(controller, experiment, after=1)
        result_path = self.find_result_path(tmp_path)
        # Same name, same run count, different cross product.
        reshaped = simple_experiment(loop_vars={"pkt_rate": [7, 8, 9]})
        resumed, __ = make_testbed(tmp_path)
        with pytest.raises(Exception, match="refusing to resume"):
            resumed.resume(reshaped, result_path)

    def test_resumed_journal_records_the_remainder(self, tmp_path):
        experiment = simple_experiment(loop_vars={"pkt_rate": [1, 2, 3]})
        controller, __ = make_testbed(tmp_path)
        self.run_to_crash(controller, experiment, after=2)
        result_path = self.find_result_path(tmp_path)
        resumed, __ = make_testbed(tmp_path)
        resumed.resume(experiment, result_path)
        runs = [e for e in read_journal(result_path) if e["event"] == "run"]
        # Runs 0 and 1 journalled once (before the kill), run 2 after.
        assert [run["index"] for run in runs] == [0, 1, 2]

    def test_failed_run_is_reexecuted_on_resume_into_retry_folder(self, tmp_path):
        """A run that failed before the crash is re-executed on resume,
        landing next to — not on top of — the failed attempt."""
        fails = {"armed": True}

        def sometimes_fails(ctx):
            if ctx.run_index == 0 and fails["armed"]:
                fails["armed"] = False
                raise ScriptError("transient bug")

        experiment = simple_experiment(
            loop_vars={"pkt_rate": [1, 2, 3]},
            dut_measure=PythonScript("dut-measure", sometimes_fails),
        )
        controller, __ = make_testbed(tmp_path)
        with pytest.raises(CrashRequested):
            controller.run(
                experiment, on_error="continue",
                on_run_complete=crash_after(2),
            )
        result_path = self.find_result_path(tmp_path)
        resumed, __ = make_testbed(tmp_path)
        handle = resumed.resume(experiment, result_path, on_error="continue")
        assert handle.completed_runs == 3
        entries = sorted(os.listdir(result_path))
        assert "run-000" in entries          # the failed attempt's evidence
        assert "run-000-retry" in entries    # the successful re-execution
        retry_meta = yamlite.load_file(
            os.path.join(result_path, "run-000-retry", "metadata.yml")
        )
        assert retry_meta["attempt"] == 1
        assert retry_meta["loop"] == {"pkt_rate": 1}


# --------------------------------------------------------------------------
# retry-folder naming during recovery (the run-dir collision fix)
# --------------------------------------------------------------------------


class TestRecoveryRunDirs:
    def test_recover_retry_lands_in_suffixed_folder(self, tmp_path):
        state = {"wedged_once": False}

        def wedging_measure(ctx):
            if not state["wedged_once"]:
                state["wedged_once"] = True
                ctx.node.host.wedge()
                ctx.tools.run("echo this will fail")

        experiment = simple_experiment(
            dut_measure=PythonScript("dut-measure", wedging_measure)
        )
        controller, __ = make_testbed(tmp_path)
        handle = controller.run(experiment, on_error="recover")
        assert handle.completed_runs == 2
        entries = sorted(os.listdir(handle.result_path))
        assert "run-000" in entries and "run-000-retry" in entries
        failed = yamlite.load_file(os.path.join(
            handle.result_path, "run-000", "metadata.yml"
        ))
        assert failed["scripts"]["dut"]["ok"] is False
        retried = yamlite.load_file(os.path.join(
            handle.result_path, "run-000-retry", "metadata.yml"
        ))
        assert retried["scripts"]["dut"]["ok"] is True
        assert retried["attempt"] == 1

    def test_journal_points_at_the_successful_attempt(self, tmp_path):
        state = {"wedged_once": False}

        def wedging_measure(ctx):
            if not state["wedged_once"]:
                state["wedged_once"] = True
                ctx.node.host.wedge()
                ctx.tools.run("echo fail")

        experiment = simple_experiment(
            dut_measure=PythonScript("dut-measure", wedging_measure)
        )
        controller, __ = make_testbed(tmp_path)
        handle = controller.run(experiment, on_error="recover")
        runs = [e for e in read_journal(handle.result_path)
                if e["event"] == "run"]
        assert runs[0]["ok"] and runs[0]["retried"]
        assert runs[0]["dir"] == "run-000-retry"


# --------------------------------------------------------------------------
# watchdog & quarantine
# --------------------------------------------------------------------------


class TestWatchdog:
    def test_wedged_dut_is_power_cycled_before_next_run(self, tmp_path):
        """Regression: under on_error='continue' a wedged DuT must be
        recovered out of band before the next run, or every subsequent
        run fails against the dead host."""
        state = {"wedged": False}

        def wedge_once(ctx):
            if not state["wedged"]:
                state["wedged"] = True
                ctx.node.host.wedge()
                ctx.tools.run("echo poke the wedged host")

        experiment = simple_experiment(
            loop_vars={"pkt_rate": [1, 2, 3]},
            dut_measure=PythonScript("dut-measure", wedge_once),
        )
        controller, nodes = make_testbed(tmp_path)
        boots_before = nodes["tartu"].host.boot_count
        handle = controller.run(experiment, on_error="continue")
        # Run 0 failed, but the watchdog recovered the host: 1 and 2 pass.
        assert handle.failed_runs == 1
        assert handle.completed_runs == 2
        assert not nodes["tartu"].host.wedged
        assert nodes["tartu"].host.boot_count > boots_before + 1

    def test_healthy_nodes_are_not_power_cycled_by_failures(self, tmp_path):
        """A failing script on a live host is the script's problem; the
        watchdog must not reboot healthy nodes."""
        experiment = simple_experiment(
            loop_vars={"pkt_rate": [1, 2]},
            dut_measure=CommandScript("dut-measure", ["false"]),
        )
        controller, nodes = make_testbed(tmp_path)
        handle = controller.run(experiment, on_error="continue")
        assert handle.failed_runs == 2
        # One boot each from the setup phase, none from the watchdog.
        assert nodes["tartu"].host.boot_count == 1
        assert nodes["riga"].host.boot_count == 1

    def test_unrecoverable_node_is_quarantined_and_rest_skipped(self, tmp_path):
        class DyingPower(PowerControl):
            """Works for the initial boot, then the BMC dies for good."""

            protocol = "dying-ipmi"

            def __init__(self, host, good_cycles=1):
                super().__init__(host)
                self._good = good_cycles

            def power_cycle(self):
                if self.power_cycles >= self._good:
                    raise PowerError("bmc dead")
                super().power_cycle()

        nodes = {
            "tartu": make_node("tartu", power_class=DyingPower),
            "riga": make_node("riga"),
        }
        calendar = Calendar(clock=lambda: 1000.0)
        allocator = Allocator(calendar, nodes)
        results = ResultStore(str(tmp_path / "results"), clock=lambda: 1.0)
        controller = Controller(allocator, default_registry(), results)

        def wedge_always(ctx):
            ctx.node.host.wedge()
            ctx.tools.run("echo fails")

        experiment = simple_experiment(
            loop_vars={"pkt_rate": [1, 2, 3, 4]},
            dut_measure=PythonScript("dut-measure", wedge_always),
        )
        handle = controller.run(experiment, on_error="continue")
        assert "tartu" in handle.quarantined
        assert "recovery failed" in handle.quarantined["tartu"]
        # Run 0 failed and triggered the quarantine; 1..3 were skipped.
        assert handle.failed_runs == 4
        assert handle.skipped_runs == 3
        skipped = [record for record in handle.runs if record.skipped]
        assert all("quarantined" in record.error for record in skipped)

    def test_quarantine_threshold_counts_consecutive_probe_failures(self, tmp_path):
        def wedge_always(ctx):
            ctx.node.host.wedge()
            ctx.tools.run("echo fails")

        experiment = simple_experiment(
            loop_vars={"pkt_rate": [1, 2, 3, 4]},
            dut_measure=PythonScript("dut-measure", wedge_always),
        )
        controller, nodes = make_testbed(tmp_path, quarantine_threshold=1)
        handle = controller.run(experiment, on_error="continue")
        # The very first failed probe quarantines the node.
        assert "tartu" in handle.quarantined
        assert "consecutive health probes" in handle.quarantined["tartu"]
        assert handle.skipped_runs == 3

    def test_recovered_node_resets_its_health_counter(self, tmp_path):
        """wedge → recover → healthy again: the counter must go back to
        zero, so an occasional wedge never accumulates to quarantine."""
        def wedge_on_odd(ctx):
            if ctx.run_index % 2 == 1:
                ctx.node.host.wedge()
                ctx.tools.run("echo fails")

        experiment = simple_experiment(
            loop_vars={"pkt_rate": [1, 2, 3, 4, 5, 6]},
            dut_measure=PythonScript("dut-measure", wedge_on_odd),
        )
        controller, __ = make_testbed(tmp_path, quarantine_threshold=2)
        handle = controller.run(experiment, on_error="continue")
        assert handle.quarantined == {}
        assert handle.completed_runs == 3
        assert handle.failed_runs == 3
        assert handle.skipped_runs == 0

    def test_skipped_runs_are_journalled_not_given_folders(self, tmp_path):
        def wedge_always(ctx):
            ctx.node.host.wedge()
            ctx.tools.run("echo fails")

        experiment = simple_experiment(
            loop_vars={"pkt_rate": [1, 2, 3]},
            dut_measure=PythonScript("dut-measure", wedge_always),
        )
        controller, __ = make_testbed(tmp_path, quarantine_threshold=1)
        handle = controller.run(experiment, on_error="continue")
        entries = sorted(os.listdir(handle.result_path))
        assert "run-000" in entries
        assert "run-001" not in entries and "run-002" not in entries
        journalled = [e for e in read_journal(handle.result_path)
                      if e["event"] == "run"]
        assert [e.get("skipped", False) for e in journalled] == [
            False, True, True
        ]

    def test_quarantine_recorded_in_experiment_metadata(self, tmp_path):
        def wedge_always(ctx):
            ctx.node.host.wedge()
            ctx.tools.run("echo fails")

        experiment = simple_experiment(
            loop_vars={"pkt_rate": [1, 2]},
            dut_measure=PythonScript("dut-measure", wedge_always),
        )
        controller, __ = make_testbed(tmp_path, quarantine_threshold=1)
        handle = controller.run(experiment, on_error="continue")
        metadata = yamlite.load_file(
            os.path.join(handle.result_path, "experiment.yml")
        )
        assert "tartu" in metadata["quarantined"]
        assert metadata["runs_skipped"] == 1
