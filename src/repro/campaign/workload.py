"""Campaign experiment workloads and their isolated worker worlds.

Each admitted experiment executes in a *fresh* simulated world — its
own hosts (named after the pool nodes the admission plan assigned),
power controllers, transports, calendar, allocator and controller — so
concurrent experiments share nothing but the parent's bookkeeping.
Everything a worker needs crosses the process boundary as a plain dict
(:func:`execution_request`), and :func:`run_placement` is module-level
so it pickles by reference, exactly like the run-level scheduler's
worker factories.

Determinism: the world is a pure function of the request, the
controller's result-store clock is pinned to the experiment's *virtual
admission epoch* (base epoch + planned start), and the workload scripts
are fixed commands over the spec's loop variable — so the artifact tree
of an experiment depends only on the admission plan, never on which
worker ran it or when.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Optional

from repro.campaign.admission import Placement
from repro.core.allocation import Allocator
from repro.core.calendar import Calendar
from repro.core.controller import Controller
from repro.core.errors import JournalError, PosError
from repro.core.experiment import Experiment, Role
from repro.core.journal import RunJournal
from repro.core.results import ResultStore, format_timestamp
from repro.core.scripts import CommandScript
from repro.core.variables import Variables
from repro.netsim.host import SimHost
from repro.testbed.images import default_registry
from repro.testbed.node import Node
from repro.testbed.power import IpmiController
from repro.testbed.transport import SshTransport

__all__ = [
    "EXPERIMENTS_SUBDIR",
    "build_campaign_experiment",
    "execution_request",
    "expected_result_dir",
    "inspect_result_dir",
    "run_placement",
]

#: Where per-experiment result trees live inside a campaign directory.
EXPERIMENTS_SUBDIR = "experiments"


def build_campaign_experiment(
    name: str, node_names: List[str], duration: float, rates: List[int],
    loop: Optional[Dict[str, List[object]]] = None,
) -> Experiment:
    """A deterministic sweep workload over the assigned nodes.

    One role per node; every role synchronizes on the setup barrier and
    echoes a fixed measurement line per loop instance, so the captured
    artifacts are a pure function of (name, nodes, rates/loop).

    Without ``loop`` this is the classic single-variable sweep (one run
    per rate).  With ``loop`` the measurement sweeps the full cross
    product of the given variables and echoes every ``name=value``
    assignment, so downstream evaluation can parse the whole loop
    instance back out of the captured ``pos.log``/``commands.log``.
    """
    if loop is None:
        loop_vars: Dict[str, List[object]] = {"pkt_rate": list(rates)}
        measure = "echo {name} measuring at $pkt_rate on {node}"
    else:
        loop_vars = {variable: list(levels) for variable, levels in loop.items()}
        assignments = " ".join(
            f"{variable}=${variable}" for variable in loop_vars
        )
        measure = "echo {name} measuring " + assignments + " on {node}"
    roles = [
        Role(
            name=f"role-{node}",
            node=node,
            setup=CommandScript(
                f"setup-{node}",
                ["sysctl -w net.ipv4.ip_forward=1", "pos barrier setup-done"],
            ),
            measurement=CommandScript(
                f"measure-{node}",
                [measure.format(name=name, node=node)],
            ),
        )
        for node in sorted(node_names)
    ]
    return Experiment(
        name=name,
        roles=roles,
        variables=Variables(loop_vars=loop_vars),
        duration_s=duration,
    )


def execution_request(
    campaign_dir: str, base_epoch: float, placement: Placement, mode: str,
    agents: Optional[int] = None,
) -> dict:
    """The plain-dict work order shipped to a worker process.

    ``agents`` > 0 makes the worker execute its experiment's runs on
    the fault-tolerant distributed plane (:mod:`repro.dist`) instead of
    inline — campaigns ride the same controller → node-agent split as
    single experiments, and the artifact tree stays byte-identical.
    """
    return {
        "campaign_dir": campaign_dir,
        "index": placement.execution_index,
        "name": placement.spec.name,
        "user": placement.spec.user,
        "nodes": list(placement.nodes),
        "duration": placement.spec.duration,
        "rates": list(placement.spec.rates),
        "loop": (
            None if placement.spec.loop is None
            else {
                variable: list(levels)
                for variable, levels in placement.spec.loop.items()
            }
        ),
        "epoch": base_epoch + placement.start,
        "mode": mode,
        "agents": int(agents) if agents else 0,
    }


def expected_result_dir(
    campaign_dir: str, base_epoch: float, placement: Placement,
) -> str:
    """The deterministic result path an admitted experiment will use."""
    return os.path.join(
        campaign_dir,
        EXPERIMENTS_SUBDIR,
        placement.spec.user,
        placement.spec.name,
        format_timestamp(base_epoch + placement.start),
    )


def inspect_result_dir(path: str, total_runs: int) -> str:
    """Classify an experiment directory for resume.

    Returns ``"missing"`` (no directory or no readable journal — any
    partial tree is deleted and the experiment re-runs from scratch),
    ``"complete"`` (its own journal records every run ok and a complete
    marker — the tree is adopted untouched, without invoking the
    controller), or ``"partial"`` (a trustworthy journal prefix exists —
    the controller resumes it, adopting completed runs).
    """
    if not os.path.isdir(path):
        return "missing"
    try:
        journal = RunJournal.open(path)
    except JournalError:
        shutil.rmtree(path)
        return "missing"
    try:
        completed = journal.completed()
        finished = any(
            entry.get("event") == "complete" and entry.get("ok")
            for entry in journal.entries
        )
    finally:
        journal.close()
    if finished and len(completed) >= total_runs:
        return "complete"
    return "partial"


def completed_counts(path: str) -> Dict[str, int]:
    """Run statistics of a finished experiment, from its journal alone."""
    journal = RunJournal.open(path)
    try:
        latest = journal.latest()
        ok = sum(1 for entry in latest.values() if entry.get("ok"))
        return {"runs_completed": ok, "runs_failed": len(latest) - ok}
    finally:
        journal.close()


def _build_world(node_names: List[str]) -> Dict[str, Node]:
    """Fresh simulated hosts named after the assigned pool nodes."""
    nodes: Dict[str, Node] = {}
    for name in sorted(node_names):
        host = SimHost(name)
        nodes[name] = Node(
            name,
            host=host,
            power=IpmiController(host),
            transport=SshTransport(host),
        )
    return nodes


def _campaign_worker_world(node_names: List[str]) -> "WorkerWorld":
    """One node agent's isolated world for a campaign experiment.

    Module-level so the :class:`~repro.core.scheduler.WorkerEnv` recipe
    pickles by reference, exactly like the case study's worker factory.
    A fresh set of simulated hosts per call — agents share nothing.
    """
    from repro.core.scheduler import WorkerWorld

    return WorkerWorld(
        nodes=_build_world(node_names),
        images=default_registry(),
        context_extra={},
        fault_injector=None,
    )


def run_placement(request: dict) -> dict:
    """Execute one admitted experiment in an isolated world.

    Runs inside a worker process (or inline for ``--jobs 1`` — same
    function, same world, same artifacts).  Returns a picklable outcome
    dict; the campaign journal entry is derived from it by the parent,
    in admission order, through the reorder buffer.
    """
    campaign_dir = request["campaign_dir"]
    epoch = float(request["epoch"])
    nodes = _build_world(request["nodes"])
    calendar = Calendar(clock=lambda: epoch)
    allocator = Allocator(calendar, nodes)
    results = ResultStore(
        os.path.join(campaign_dir, EXPERIMENTS_SUBDIR), clock=lambda: epoch
    )
    controller = Controller(allocator, default_registry(), results)
    experiment = build_campaign_experiment(
        request["name"], request["nodes"], request["duration"],
        request["rates"], loop=request.get("loop"),
    )
    outcome = {
        "index": request["index"],
        "name": request["name"],
        "user": request["user"],
        "ok": False,
        "dir": None,
        "runs_completed": 0,
        "runs_failed": 0,
        "error": None,
        "adopted": False,
    }
    agents = int(request.get("agents") or 0)
    extra: dict = {}
    if agents > 0:
        from repro.core.scheduler import WorkerEnv

        # Campaigns always fan out over the loopback transport: it is
        # deterministic, and a campaign worker may itself be a pool
        # subprocess that must not spawn grandchildren.
        extra = {
            "jobs": 1,  # agents and jobs are mutually exclusive planes
            "agents": agents,
            "transport": "loopback",
            "worker_env": WorkerEnv(
                factory=_campaign_worker_world,
                kwargs={"node_names": sorted(request["nodes"])},
            ),
        }
    result_path: Optional[str] = None
    try:
        if request["mode"] == "resume":
            result_path = os.path.join(
                campaign_dir,
                EXPERIMENTS_SUBDIR,
                request["user"],
                request["name"],
                format_timestamp(epoch),
            )
            handle = controller.resume(
                experiment, result_path, user=request["user"], **extra
            )
        else:
            handle = controller.run(experiment, user=request["user"], **extra)
        result_path = handle.result_path
        outcome["ok"] = handle.failed_runs == 0 and not handle.aborted
        outcome["runs_completed"] = handle.completed_runs
        outcome["runs_failed"] = handle.failed_runs
    except PosError as exc:
        outcome["error"] = str(exc)
    if result_path is not None:
        outcome["dir"] = os.path.relpath(result_path, campaign_dir)
    return outcome
