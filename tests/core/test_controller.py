"""Integration tests for the testbed controller workflow."""

from __future__ import annotations

import os

import pytest

from repro.core import yamlite
from repro.core.allocation import Allocator
from repro.core.calendar import Calendar
from repro.core.controller import POS_TOOLS_PATH, Controller
from repro.core.errors import AllocationError, ScriptError
from repro.core.experiment import Experiment, Role
from repro.core.results import ResultStore
from repro.core.scripts import CommandScript, PythonScript
from repro.core.variables import Variables
from repro.netsim.host import SimHost
from repro.testbed.images import default_registry
from repro.testbed.node import Node, NodeState
from repro.testbed.power import FlakyPowerControl, IpmiController
from repro.testbed.transport import SshTransport


def make_node(name, power_class=IpmiController, **power_kwargs):
    host = SimHost(name)
    return Node(
        name,
        host=host,
        power=power_class(host, **power_kwargs),
        transport=SshTransport(host),
    )


def make_testbed(tmp_path, node_names=("tartu", "riga"), progress=None):
    nodes = {name: make_node(name) for name in node_names}
    calendar = Calendar(clock=lambda: 1000.0)
    allocator = Allocator(calendar, nodes)
    results = ResultStore(str(tmp_path / "results"), clock=lambda: 1600000000.0)
    controller = Controller(allocator, default_registry(), results, progress=progress)
    return controller, nodes, allocator


def simple_experiment(loop_vars=None, dut_measure=None, duration=60.0):
    roles = [
        Role(
            name="dut",
            node="tartu",
            setup=CommandScript("dut-setup", [
                "sysctl -w net.ipv4.ip_forward=1",
                "pos barrier setup-done",
            ]),
            measurement=dut_measure or CommandScript("dut-measure", [
                "echo measuring at $pkt_rate",
            ]),
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
        duration_s=duration,
    )


class TestHappyPath:
    def test_full_workflow(self, tmp_path):
        controller, nodes, __ = make_testbed(tmp_path)
        handle = controller.run(simple_experiment())
        assert handle.completed_runs == 2
        assert handle.failed_runs == 0
        assert not handle.aborted
        # Nodes were booted with the pinned image and freed afterwards.
        assert nodes["tartu"].host.image == "debian-buster"
        assert nodes["tartu"].state is NodeState.FREE

    def test_result_tree_layout(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        handle = controller.run(simple_experiment())
        entries = sorted(os.listdir(handle.result_path))
        assert "experiment.yml" in entries
        assert "variables.yml" in entries
        assert "inventory.yml" in entries
        assert "scripts.yml" in entries
        assert "run-000" in entries and "run-001" in entries
        assert "setup" in entries

    def test_run_metadata_has_loop_instance(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        handle = controller.run(simple_experiment())
        metadata = yamlite.load_file(
            os.path.join(handle.result_path, "run-001", "metadata.yml")
        )
        assert metadata["loop"] == {"pkt_rate": 200}

    def test_command_output_captured_per_role(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        handle = controller.run(simple_experiment())
        with open(os.path.join(
            handle.result_path, "run-000", "loadgen", "commands.log"
        )) as handle_file:
            content = handle_file.read()
        assert "load 100" in content

    def test_loop_variables_substituted_per_run(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        handle = controller.run(simple_experiment())
        with open(os.path.join(
            handle.result_path, "run-001", "dut", "commands.log"
        )) as handle_file:
            assert "measuring at 200" in handle_file.read()

    def test_tools_deployed_before_setup(self, tmp_path):
        controller, nodes, __ = make_testbed(tmp_path)
        controller.run(simple_experiment())
        assert POS_TOOLS_PATH in nodes["tartu"].host.filesystem

    def test_progress_callback(self, tmp_path):
        seen = []
        controller, __, __ = make_testbed(
            tmp_path, progress=lambda done, total: seen.append((done, total))
        )
        controller.run(simple_experiment())
        assert seen == [(1, 2), (2, 2)]

    def test_max_runs_limits_cross_product(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        handle = controller.run(
            simple_experiment(loop_vars={"pkt_rate": [1, 2, 3, 4]}), max_runs=2
        )
        assert handle.completed_runs == 2

    def test_inventory_records_image_pin(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        handle = controller.run(simple_experiment())
        inventory = yamlite.load_file(
            os.path.join(handle.result_path, "inventory.yml")
        )
        dut = inventory["nodes"]["tartu"]
        assert dut["image"]["name"] == "debian-buster"
        assert dut["power"]["protocol"] == "ipmi"

    def test_evaluation_hook_runs_after_measurements(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        seen = {}
        experiment = simple_experiment()
        experiment.evaluation = lambda path: seen.setdefault("path", path)
        handle = controller.run(experiment)
        assert seen["path"] == handle.result_path


class TestLiveBootSemantics:
    def test_state_does_not_leak_between_experiments(self, tmp_path):
        """R3: live images enforce a clean slate.  A file written during
        experiment 1 must be gone in experiment 2."""
        controller, nodes, __ = make_testbed(tmp_path)
        polluting = simple_experiment(
            dut_measure=CommandScript("dirty", ["write-file /tmp/state leftover"]),
        )
        controller.run(polluting)
        assert "/tmp/state" in nodes["tartu"].host.filesystem
        checking = simple_experiment(
            dut_measure=CommandScript("check", ["-cat /tmp/state", "echo done"]),
        )
        handle = controller.run(checking)
        assert handle.completed_runs == 2
        assert "/tmp/state" not in nodes["tartu"].host.filesystem

    def test_sysctl_reset_between_experiments(self, tmp_path):
        controller, nodes, __ = make_testbed(tmp_path)
        controller.run(simple_experiment())
        assert nodes["tartu"].host.sysctl["net.ipv4.ip_forward"] == "1"
        # A second experiment whose setup does NOT enable forwarding
        # starts from the default-off state, not the leaked one.
        experiment = simple_experiment()
        experiment.roles[0].setup = CommandScript(
            "dut-setup", ["pos barrier setup-done"]
        )
        controller.run(experiment)
        assert nodes["tartu"].host.sysctl["net.ipv4.ip_forward"] == "0"


class TestBarriers:
    def test_missing_setup_barrier_fails_experiment(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        experiment = simple_experiment()
        # loadgen never reaches the setup barrier.
        experiment.roles[1].setup = CommandScript("lg-setup", ["true"])
        with pytest.raises(Exception, match="barrier"):
            controller.run(experiment)

    def test_measurement_barrier_mismatch_fails_run(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        experiment = simple_experiment()
        experiment.roles[0].measurement = CommandScript(
            "dut-measure", ["pos barrier run-done"]
        )
        # loadgen does not hit run-done.
        handle = controller.run(experiment, on_error="continue")
        assert handle.failed_runs == 2


class TestErrorPolicies:
    def failing_experiment(self, fail_on="200"):
        dut_measure = CommandScript("dut-measure", [
            f"echo rate $pkt_rate",
            # 'false' only when the loop variable matches the failing rate.
            f"-write-file /tmp/rate $pkt_rate",
        ])
        return simple_experiment(dut_measure=dut_measure)

    def test_abort_policy_raises_and_marks_aborted(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        experiment = simple_experiment(
            dut_measure=CommandScript("dut-measure", ["false"]),
        )
        with pytest.raises(ScriptError):
            controller.run(experiment, on_error="abort")

    def test_abort_releases_allocation(self, tmp_path):
        controller, nodes, allocator = make_testbed(tmp_path)
        experiment = simple_experiment(
            dut_measure=CommandScript("dut-measure", ["false"]),
        )
        with pytest.raises(ScriptError):
            controller.run(experiment)
        assert nodes["tartu"].state is NodeState.FREE
        # And a new experiment can allocate immediately — but the earlier
        # booking window is gone from the calendar too.
        controller.run(simple_experiment())

    def test_continue_policy_records_failures(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        experiment = simple_experiment(
            dut_measure=CommandScript("dut-measure", ["false"]),
        )
        handle = controller.run(experiment, on_error="continue")
        assert handle.failed_runs == 2
        assert handle.completed_runs == 0
        assert not handle.aborted

    def test_failed_run_recorded_in_result_tree(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        experiment = simple_experiment(
            dut_measure=CommandScript("dut-measure", ["false"]),
        )
        handle = controller.run(experiment, on_error="continue")
        metadata = yamlite.load_file(os.path.join(
            handle.result_path, "run-000", "metadata.yml"
        ))
        assert metadata["scripts"]["dut"]["ok"] is False
        assert not os.path.exists(os.path.join(
            handle.result_path, "run-000", "dut", "status.yml"
        ))

    def test_unknown_policy_rejected(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        with pytest.raises(Exception, match="policy"):
            controller.run(simple_experiment(), on_error="shrug")

    def test_setup_failure_aborts_before_any_run(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        experiment = simple_experiment()
        experiment.roles[0].setup = CommandScript("dut-setup", ["false"])
        with pytest.raises(ScriptError, match="setup"):
            controller.run(experiment)
        # No run directory was created.
        results_root = str(tmp_path / "results")
        run_dirs = [
            name
            for __, dirs, __ in os.walk(results_root)
            for name in dirs
            if name.startswith("run-")
        ]
        assert run_dirs == []


class TestRecovery:
    def test_recover_policy_power_cycles_and_retries(self, tmp_path):
        """A run that wedges the DuT is retried once after an out-of-band
        power cycle and setup replay (R3)."""
        controller, nodes, __ = make_testbed(tmp_path)
        state = {"wedged_once": False}

        def wedging_measure(ctx):
            if not state["wedged_once"]:
                state["wedged_once"] = True
                ctx.node.host.wedge()
                ctx.tools.run("echo this will fail")  # transport error

        experiment = simple_experiment(
            dut_measure=PythonScript("dut-measure", wedging_measure),
        )
        boot_count_before = nodes["tartu"].host.boot_count
        handle = controller.run(experiment, on_error="recover")
        assert handle.completed_runs == 2
        assert any(record.retried for record in handle.runs)
        # An extra boot happened for the recovery.
        assert nodes["tartu"].host.boot_count > boot_count_before + 1

    def test_flaky_power_is_retried_transparently(self, tmp_path):
        nodes = {
            "tartu": make_node("tartu", power_class=FlakyPowerControl, failures=2),
            "riga": make_node("riga"),
        }
        calendar = Calendar(clock=lambda: 1000.0)
        allocator = Allocator(calendar, nodes)
        results = ResultStore(str(tmp_path / "results"), clock=lambda: 1.0)
        controller = Controller(allocator, default_registry(), results)
        handle = controller.run(simple_experiment())
        assert handle.completed_runs == 2


class TestAllocationInteraction:
    def test_concurrent_experiments_on_same_node_rejected(self, tmp_path):
        controller, nodes, allocator = make_testbed(tmp_path)
        allocator.allocate("someone-else", ["tartu"], duration=3600.0)
        with pytest.raises(AllocationError):
            controller.run(simple_experiment())


class TestAsyncEvaluation:
    def test_on_run_complete_fires_per_run_with_run_dir(self, tmp_path):
        """The paper's asynchronous evaluation: results can be processed
        'asynchronously during their runtime'."""
        controller, __, __ = make_testbed(tmp_path)
        seen = []

        def live_eval(record, run_path):
            assert os.path.isdir(run_path)
            assert os.path.isfile(os.path.join(run_path, "metadata.yml"))
            seen.append((record.index, record.ok, record.loop_instance))

        handle = controller.run(
            simple_experiment(), on_run_complete=live_eval
        )
        assert seen == [
            (0, True, {"pkt_rate": 100}),
            (1, True, {"pkt_rate": 200}),
        ]

    def test_on_run_complete_sees_failures(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        outcomes = []
        experiment = simple_experiment(
            dut_measure=CommandScript("dut-measure", ["false"]),
        )
        controller.run(
            experiment,
            on_error="continue",
            on_run_complete=lambda record, path: outcomes.append(record.ok),
        )
        assert outcomes == [False, False]

    def test_live_evaluation_can_aggregate_partial_series(self, tmp_path):
        """An asynchronous evaluator builds the throughput series while
        the experiment is still running."""
        controller, __, __ = make_testbed(tmp_path)
        partial_series = []

        def live_eval(record, run_path):
            partial_series.append(
                (record.loop_instance["pkt_rate"], len(partial_series) + 1)
            )

        controller.run(
            simple_experiment(loop_vars={"pkt_rate": [1, 2, 3]}),
            on_run_complete=live_eval,
        )
        assert [rate for rate, __ in partial_series] == [1, 2, 3]


class TestWorkflowLog:
    def test_controller_log_traces_all_phases(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        handle = controller.run(simple_experiment())
        with open(os.path.join(handle.result_path, "controller.log")) as f:
            log = f.read()
        assert "allocated nodes: tartu, riga" in log
        assert "live-booted" in log
        assert "utility tools deployed" in log
        assert "2 runs queued" in log
        assert "run 0: {'pkt_rate': 100} -> ok" in log
        assert "nodes released" in log
        # Sequence numbers are strictly increasing.
        numbers = [int(line[1:5]) for line in log.splitlines()]
        assert numbers == sorted(numbers) and len(set(numbers)) == len(numbers)

    def test_aborted_experiment_logged(self, tmp_path):
        controller, __, __ = make_testbed(tmp_path)
        experiment = simple_experiment(
            dut_measure=CommandScript("dut-measure", ["false"]),
        )
        with pytest.raises(ScriptError):
            controller.run(experiment)
        import glob
        logs = glob.glob(str(tmp_path / "results" / "**" / "controller.log"),
                         recursive=True)
        with open(logs[0]) as f:
            content = f.read()
        assert "ABORTED" in content

    def test_log_is_deterministic(self, tmp_path):
        logs = []
        for sub in ("a", "b"):
            controller, __, __ = make_testbed(tmp_path / sub)
            handle = controller.run(simple_experiment())
            with open(os.path.join(handle.result_path, "controller.log")) as f:
                logs.append(f.read())
        assert logs[0] == logs[1]
