"""The pos testbed controller.

Implements the experimental workflow of Fig. 2: the controller
allocates the desired devices through the calendar, configures
variables and live images, reboots the hosts out of band, deploys the
utility tools, executes the setup scripts (synchronized with a
barrier), queues one measurement run after another over the loop-
variable cross product, and collects every artifact centrally.

Error handling follows R3: a failing host can be recovered by a
power cycle back into the well-defined live-image state.  Three
policies are available per experiment run: ``abort`` (default, raise),
``continue`` (record the failure, probe the hosts, power-cycle a
wedged one, and move on to the next run) and ``recover`` (power-cycle
the failed node, replay its setup script and retry the run once).

Resilience plumbing on top of the policies:

* every finished run is journalled durably (``journal.jsonl``), and
  :meth:`Controller.resume` continues a killed experiment from the
  last good run without re-executing completed loop instances;
* under ``continue`` a node health watchdog probes the hosts after
  every failed run and recovers wedged ones out of band; a node that
  stays wedged for ``quarantine_threshold`` consecutive probes is
  quarantined and its remaining runs are marked skipped instead of
  poisoning the whole cross product;
* recovery itself runs under the unified
  :class:`~repro.faults.retry.RetryPolicy`;
* a :class:`~repro.faults.injector.FaultInjector` can be attached so a
  seeded fault plan strikes by run index.

The measurement loop can also run *in parallel*: ``run(jobs=N)`` (or
``POS_JOBS=N``) streams the cross product run by run to worker
processes that each own a fully isolated testbed world (see
:mod:`repro.core.scheduler`), while the parent merges results into the
canonical artifact tree in deterministic cross-product order — the
artifacts of a parallel execution are byte-identical to a sequential
one.  The workflow primitives themselves (boot, tool deployment, setup,
run execution, recovery) live in :mod:`repro.core.scheduler` and are
shared between this controller and the workers, so the two paths cannot
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core import scheduler as _scheduler
from repro.core.allocation import Allocation, Allocator
from repro.core.errors import (
    ExperimentError,
    NodeError,
    PosError,
    ScriptError,
    TransportError,
)
from repro.core.experiment import Experiment, Role
from repro.core.journal import RunJournal
from repro.core.results import ExperimentDir, ResultStore

from repro.core.scheduler import (
    POS_TOOLS_PATH,
    CachePlan,
    ParallelScheduler,
    ReorderBuffer,
    RunRecord,
    WorkerEnv,
    resolve_jobs,
)
from repro.core.scripts import Script, ScriptResult
from repro.core.tools import SharedStore
from repro.faults.clock import Clock, SimClock
from repro.faults.retry import RetryPolicy
from repro.telemetry.plane import ExperimentTelemetry
from repro.testbed.images import ImageRegistry

__all__ = ["RunRecord", "ExperimentHandle", "Controller", "POS_TOOLS_PATH"]

#: How the controller retries its own recovery procedure before giving
#: up on a wedged node.
DEFAULT_RECOVERY_POLICY = RetryPolicy(
    max_attempts=2, base_delay_s=1.0, multiplier=2.0, max_delay_s=30.0
)


@dataclass
class ExperimentHandle:
    """What a finished (or aborted) experiment run returns."""

    experiment: str
    user: str
    result_path: str
    runs: List[RunRecord] = field(default_factory=list)
    setup_results: List[ScriptResult] = field(default_factory=list)
    aborted: bool = False
    quarantined: Dict[str, str] = field(default_factory=dict)

    @property
    def completed_runs(self) -> int:
        return sum(1 for record in self.runs if record.ok)

    @property
    def failed_runs(self) -> int:
        return sum(1 for record in self.runs if not record.ok)

    @property
    def skipped_runs(self) -> int:
        return sum(1 for record in self.runs if record.skipped)

    @property
    def resumed_runs(self) -> int:
        return sum(1 for record in self.runs if record.resumed)


class Controller:
    """Testbed controller orchestrating the full experimental workflow."""

    def __init__(
        self,
        allocator: Allocator,
        images: ImageRegistry,
        results: ResultStore,
        inventory_extra: Optional[Callable[[], dict]] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        fault_injector=None,
        recovery_policy: Optional[RetryPolicy] = None,
        quarantine_threshold: int = 3,
        clock: Optional[Clock] = None,
        run_cache=None,
        provenance: Optional[dict] = None,
    ):
        self._allocator = allocator
        self._images = images
        self._results = results
        self._inventory_extra = inventory_extra
        #: Reproducibility fingerprint (code epoch, platform, seed, …)
        #: recorded verbatim in ``telemetry.json`` so ``pos diff`` can
        #: attribute result deltas between two executions to an input
        #: change.  Must be a pure function of the experiment's inputs.
        self.provenance = dict(provenance) if provenance else None
        self._progress = progress
        self.fault_injector = fault_injector
        #: Optional :class:`repro.cache.RunCache`.  Consulted before the
        #: measurement phase dispatches each run — sequentially, under
        #: --jobs and under --agents alike — and fed with fresh eligible
        #: outcomes.  Never active alongside a fault injector: injected
        #: faults make outcomes a function of the plan, not the run.
        self.run_cache = run_cache
        self.recovery_policy = recovery_policy or DEFAULT_RECOVERY_POLICY
        if quarantine_threshold < 1:
            raise ExperimentError("quarantine_threshold must be at least 1")
        self.quarantine_threshold = quarantine_threshold
        self.clock = clock or SimClock()

    # -- public API ----------------------------------------------------------

    def run(
        self,
        experiment: Experiment,
        user: str = "user",
        on_error: str = "abort",
        max_runs: Optional[int] = None,
        setup_context_extra: Optional[dict] = None,
        on_run_complete: Optional[Callable[[RunRecord, str], None]] = None,
        jobs: Optional[int] = None,
        worker_env: Optional[WorkerEnv] = None,
        agents: Optional[int] = None,
        transport: str = "loopback",
        dist_fault_plan=None,
    ) -> ExperimentHandle:
        """Execute the whole experimental workflow for ``experiment``.

        ``setup_context_extra`` entries are attached to every script
        context (the simulated :class:`TestbedSetup` travels this way).

        ``on_run_complete(record, run_dir_path)`` implements the paper's
        asynchronous evaluation: "the evaluation script processes the
        result files either after all runs have been completed or
        asynchronously during their runtime" — the callback fires after
        each measurement run with that run's result folder.

        ``jobs`` (default: the ``POS_JOBS`` environment variable, else 1)
        streams the measurement runs to that many worker processes,
        one run per task; ``worker_env`` must then supply the recipe for
        building each worker's isolated testbed world.  Artifacts are
        byte-identical for any job count.

        ``agents`` (default: the ``POS_AGENTS`` environment variable,
        else 0 = off) instead fans the measurement phase out to that
        many node-agent daemons over a message ``transport``
        (``loopback`` in-process, ``pipe`` subprocess), with heartbeat
        leases, crash re-dispatch and journal-backed dedupe — see
        :mod:`repro.dist`.  ``dist_fault_plan`` is a seeded chaos plan
        striking only that plane (agent kills, dropped/duplicated/
        delayed messages); unlike ``fault_injector`` it never touches
        the in-world management plane and leaves no trace in the
        deterministic artifacts.  Artifacts are byte-identical for any
        agent count, placement, and crash schedule.
        """
        self._check_policy(on_error)
        executor = self._check_execution_plane(
            jobs, worker_env, on_error, agents, transport, dist_fault_plan,
        )
        experiment.validate()
        exp_dir = self._results.create_experiment_dir(user, experiment.name)
        total = self._total_runs(experiment, max_runs)
        journal = RunJournal.create(exp_dir.path, experiment.name, total)
        return self._run_workflow(
            experiment, exp_dir, journal, completed={}, user=user,
            on_error=on_error, max_runs=max_runs,
            setup_context_extra=setup_context_extra,
            on_run_complete=on_run_complete, resumed=False,
            executor=executor,
        )

    def resume(
        self,
        experiment: Experiment,
        result_path: str,
        user: str = "user",
        on_error: str = "abort",
        max_runs: Optional[int] = None,
        setup_context_extra: Optional[dict] = None,
        on_run_complete: Optional[Callable[[RunRecord, str], None]] = None,
        jobs: Optional[int] = None,
        worker_env: Optional[WorkerEnv] = None,
        agents: Optional[int] = None,
        transport: str = "loopback",
        dist_fault_plan=None,
    ) -> ExperimentHandle:
        """Continue a killed or aborted experiment from its journal.

        The hosts are re-initialized (boot, tools, setup — a crashed
        controller leaves no trustworthy in-band state), then the
        measurement loop replays the cross product, *skipping* every
        loop instance the journal records as completed.  Adopted run
        folders are left untouched; re-executed runs land in
        attempt-suffixed folders so nothing is overwritten.  ``jobs``
        and ``agents`` parallelize the remaining runs exactly as in
        :meth:`run` — a sequential sweep may be resumed distributed and
        vice versa, with zero completed runs re-executed.
        """
        self._check_policy(on_error)
        executor = self._check_execution_plane(
            jobs, worker_env, on_error, agents, transport, dist_fault_plan,
        )
        experiment.validate()
        journal = RunJournal.open(result_path)
        try:
            journal.validate_against(
                experiment.name, self._total_runs(experiment, max_runs)
            )
            completed = journal.completed()
        except PosError:
            journal.close()
            raise
        exp_dir = ExperimentDir(result_path)
        return self._run_workflow(
            experiment, exp_dir, journal, completed=completed, user=user,
            on_error=on_error, max_runs=max_runs,
            setup_context_extra=setup_context_extra,
            on_run_complete=on_run_complete, resumed=True,
            executor=executor,
        )

    # -- workflow ---------------------------------------------------------------

    @staticmethod
    def _check_policy(on_error: str) -> None:
        if on_error not in ("abort", "continue", "recover"):
            raise ExperimentError(f"unknown error policy {on_error!r}")

    def _check_execution_plane(
        self,
        jobs: Optional[int],
        worker_env: Optional[WorkerEnv],
        on_error: str,
        agents: Optional[int],
        transport: str,
        dist_fault_plan,
    ):
        """Validate how the measurement phase executes; return the executor.

        ``None`` executes the runs inline, in this process; otherwise a
        :class:`ParallelScheduler` (``jobs > 1``) or a
        :class:`~repro.dist.DistScheduler` (``agents >= 1``) executes
        the pending runs.  Every executor delivers through the same
        :func:`~repro.core.scheduler.build_deliver`.
        """
        from repro.dist import DistScheduler, resolve_agents

        jobs, agents = resolve_jobs(jobs), resolve_agents(agents)
        if agents == 0 and dist_fault_plan is not None:
            raise ExperimentError(
                "a dist fault plan needs the distributed plane; "
                "pass agents >= 1 (or --agents N)"
            )
        if jobs > 1 and agents > 0:
            raise ExperimentError(
                "jobs and agents are mutually exclusive ways to "
                "parallelize the measurement phase; pick one"
            )
        if jobs == 1 and agents == 0:
            return None
        plane = (
            "distributed execution (agents >= 1)" if agents
            else "parallel execution (jobs > 1)"
        )
        if worker_env is None:
            raise ExperimentError(
                f"{plane} needs a worker_env recipe for building "
                f"isolated testbed worlds"
            )
        if on_error == "continue":
            raise ExperimentError(
                f"{plane} supports on_error='abort' or 'recover'; the "
                f"'continue' policy couples runs through shared "
                f"watchdog/quarantine state and cannot be sharded"
            )
        if self.fault_injector is not None:
            _scheduler.validate_parallel_fault_plan(self.fault_injector.plan)
        if agents:
            return DistScheduler(
                agents, worker_env, self.recovery_policy,
                transport=transport, fault_plan=dist_fault_plan,
                quarantine_threshold=self.quarantine_threshold,
            )
        return ParallelScheduler(jobs, worker_env, self.recovery_policy)

    @staticmethod
    def _total_runs(experiment: Experiment, max_runs: Optional[int]) -> int:
        count = len(experiment.variables.runs())
        return count if max_runs is None else min(count, max_runs)

    def _run_workflow(
        self,
        experiment: Experiment,
        exp_dir: ExperimentDir,
        journal: RunJournal,
        completed: Dict[int, dict],
        user: str,
        on_error: str,
        max_runs: Optional[int],
        setup_context_extra: Optional[dict],
        on_run_complete: Optional[Callable[[RunRecord, str], None]],
        resumed: bool,
        executor,
    ) -> ExperimentHandle:
        # ---- setup phase: allocate, configure, boot -------------------------
        allocation = self._allocator.allocate(
            user, experiment.node_names, experiment.duration_s
        )
        handle = ExperimentHandle(
            experiment=experiment.name, user=user, result_path=exp_dir.path
        )
        store = SharedStore()
        extra = dict(setup_context_extra or {})
        total = self._total_runs(experiment, max_runs)
        log = ExperimentTelemetry(exp_dir.path, resumed=resumed)
        if resumed:
            # Resume markers stay in the legacy log and the journal only;
            # trace.jsonl is rewritten as a pure function of the run set,
            # so it must not know whether the execution was resumed.
            log.event(
                f"RESUME: journal lists {len(completed)} completed run(s)"
            )
        log.event(f"allocated nodes: {', '.join(experiment.node_names)}")
        exp_span = log.begin_span(
            "experiment", experiment=experiment.name, user=user, runs=total,
        )
        try:
            with log.span("phase.setup"):
                with log.span("boot"):
                    self._boot_phase(experiment, allocation)
                log.event("setup phase: all nodes live-booted")
                with log.span("tools"):
                    self._deploy_tools(experiment, allocation)
                log.event("utility tools deployed")
                with log.span("scripts.setup"):
                    handle.setup_results = self._setup_phase(
                        experiment, allocation, store, exp_dir, extra
                    )
                store.check_barriers(set(experiment.role_names))
                store.reset_barriers()
                log.event("setup scripts completed; barrier passed")
            log.flush(fsync=True)
            measurement_span = log.begin_span("phase.measurement")
            self._measurement_phase(
                experiment, allocation, store, exp_dir, handle, extra,
                on_error, max_runs, on_run_complete, log, journal,
                completed, executor,
            )
            log.finish_span(measurement_span)
            log.flush(fsync=True)
            log.event(
                f"measurement phase done: {handle.completed_runs} ok, "
                f"{handle.failed_runs} failed"
            )
            with log.span("phase.finalize"):
                self._finalize(experiment, allocation, exp_dir, handle)
            journal.record_event("complete", ok=handle.failed_runs == 0)
            log.finish_span(exp_span)
            log.finalize(
                experiment.name,
                runs={
                    "total": total,
                    "completed": handle.completed_runs,
                    "failed": handle.failed_runs,
                    "skipped": handle.skipped_runs,
                },
                journal_entries=len(journal.entries),
                provenance=self.provenance,
            )
        except PosError as exc:
            handle.aborted = True
            log.event(f"ABORTED: {exc}")
            self._finalize(experiment, allocation, exp_dir, handle)
            log.finalize(
                experiment.name,
                runs={
                    "total": total,
                    "completed": handle.completed_runs,
                    "failed": handle.failed_runs,
                    "skipped": handle.skipped_runs,
                },
                journal_entries=len(journal.entries),
                provenance=self.provenance,
            )
            raise
        finally:
            log.event("nodes released")
            log.close()
            journal.close()
            allocation.release()

        # ---- evaluation phase -------------------------------------------------
        if experiment.evaluation is not None:
            experiment.evaluation(exp_dir.path)
        return handle

    # -- workflow phases ---------------------------------------------------------

    def _boot_phase(self, experiment: Experiment, allocation: Allocation) -> None:
        """Pin images and boot parameters, then reset every node."""
        _scheduler.boot_nodes(experiment, allocation.node, self._images)

    def _deploy_tools(self, experiment: Experiment, allocation: Allocation) -> None:
        """Upload the utility-tool stub to every host that takes files."""
        _scheduler.deploy_tools(experiment, allocation.node)

    def _setup_phase(
        self,
        experiment: Experiment,
        allocation: Allocation,
        store: SharedStore,
        exp_dir: ExperimentDir,
        extra: dict,
    ) -> List[ScriptResult]:
        return _scheduler.run_setup_phase(
            experiment, allocation.node, store, extra,
            record=exp_dir.record_setup_script,
        )

    def _measurement_phase(
        self,
        experiment: Experiment,
        allocation: Allocation,
        store: SharedStore,
        exp_dir: ExperimentDir,
        handle: ExperimentHandle,
        extra: dict,
        on_error: str,
        max_runs: Optional[int],
        on_run_complete: Optional[Callable[[RunRecord, str], None]],
        log: ExperimentTelemetry,
        journal: RunJournal,
        completed: Dict[int, dict],
        executor,
    ) -> None:
        runs = experiment.variables.runs()
        if max_runs is not None:
            runs = runs[:max_runs]
        total = len(runs)
        cache_plan = self._cache_plan(experiment, runs, log)
        # Deliberately job-count-agnostic: the artifact tree of a
        # parallel execution is byte-identical to a sequential one.
        log.event(
            f"measurement phase: {total} runs queued "
            f"(cross product of loop variables)"
        )
        # An inline run's fault events are already in the injector that
        # fired them; only a worker's or an agent's are merged into it.
        deliver = _scheduler.build_deliver(
            runs, completed, exp_dir, journal, handle, log,
            self.fault_injector if executor is not None else None,
            on_error, on_run_complete, self._progress,
            self._adopt_completed_run, cache_plan,
        )
        if executor is not None:
            # Adopted and cached runs are staged here, each delivered as
            # soon as every run below it is; the executor gets the rest.
            buffer = ReorderBuffer(total, deliver)
            pending = []
            for index in range(total):
                adopted = index in completed
                outcome = None if adopted else cache_plan.probe(index)
                if adopted or outcome is not None:
                    buffer.put(index, outcome)
                    buffer.drain()
                else:
                    pending.append(index)
            if pending:
                executor.execute(
                    experiment, runs, pending, buffer, on_error, log,
                )
            return
        # Inline, only what couples runs stays here: a quarantined
        # node's runs are skipped, and under ``continue`` the watchdog
        # probes the hosts after every failed run.
        health: Dict[str, int] = {}
        isolation = getattr(extra.get("setup"), "begin_run", None)
        for index, loop_instance in enumerate(runs):
            if index in completed:
                deliver(index, None)
                continue
            blocked = sorted(
                {role.node for role in experiment.roles
                 if role.node in handle.quarantined}
            )
            if blocked:
                error = f"node(s) quarantined: {', '.join(blocked)}"
                handle.runs.append(RunRecord(
                    index=index, loop_instance=dict(loop_instance), ok=False,
                    skipped=True, error=error,
                ))
                journal.record_run(
                    index, loop_instance, ok=False, skipped=True, error=error,
                )
                log.event(f"run {index}: {loop_instance} -> SKIPPED ({error})")
                if self._progress is not None:
                    self._progress(index + 1, total)
                continue
            outcome = cache_plan.probe(index)
            if outcome is None:
                outcome = _scheduler.execute_run(
                    experiment, allocation.node, store, extra, index,
                    loop_instance, on_error, self.recovery_policy, self.clock,
                    self.fault_injector, isolation,
                )
            deliver(index, outcome)
            if handle.runs[-1].ok:
                # A good run means every node is demonstrably healthy:
                # probe-failure streaks are no longer consecutive.
                health.clear()
            elif on_error == "continue":
                self._watchdog(
                    experiment, allocation, store, exp_dir, extra,
                    health, handle.quarantined, log,
                )

    def _cache_plan(
        self,
        experiment: Experiment,
        runs: List[Dict[str, Any]],
        log: Optional[ExperimentTelemetry],
    ) -> CachePlan:
        """The run cache's plan for this measurement phase.

        The controller probes each pending run through it when the run
        is reached and settles the run's ``cache.jsonl`` evidence when
        it is delivered (:class:`~repro.core.scheduler.CachePlan`).  A
        hit replays a cached :class:`RunOutcome` through the unchanged
        persistence pipeline, so a warm tree is byte-identical to a
        cold one by construction.  The plan is inert without a cache.

        A fault injector disables the cache outright: planned faults
        make outcomes a function of the plan, and even a run the plan
        spares must not be served stale from a plan-free execution.
        """
        cache = self.run_cache if self.fault_injector is None else None
        return CachePlan(
            cache, experiment, runs,
            evidence=log.cache_event if log is not None else None,
        )

    @staticmethod
    def _adopt_completed_run(
        exp_dir: ExperimentDir,
        index: int,
        loop_instance: Dict[str, Any],
        entry: dict,
    ) -> RunRecord:
        journalled_loop = entry.get("loop", {})
        if journalled_loop != dict(loop_instance):
            raise ExperimentError(
                f"journal run {index} was {journalled_loop}, the experiment "
                f"defines {dict(loop_instance)} — refusing to resume"
            )
        exp_dir.adopt_run_dir(index, entry.get("dir"))
        return RunRecord(
            index=index, loop_instance=dict(loop_instance), ok=True,
            retried=bool(entry.get("retried", False)), resumed=True,
        )

    # -- recovery & health -------------------------------------------------------

    def _recover(
        self,
        experiment: Experiment,
        allocation: Allocation,
        store: SharedStore,
        exp_dir: ExperimentDir,
        extra: dict,
    ) -> None:
        """Run the recovery procedure under the controller's retry policy."""
        _scheduler.recover_with_policy(
            experiment, allocation.node, store, extra,
            self.recovery_policy, self.clock,
        )

    def _watchdog(
        self,
        experiment: Experiment,
        allocation: Allocation,
        store: SharedStore,
        exp_dir: ExperimentDir,
        extra: dict,
        health: Dict[str, int],
        quarantined: Dict[str, str],
        log: Optional[ExperimentTelemetry],
    ) -> None:
        """Probe the hosts after a failed run and recover wedged ones.

        A failed run under ``continue`` must not leave a wedged DuT to
        poison every subsequent run: each node is probed in band, and a
        node that does not answer is power-cycled back into the clean
        state (with a full setup replay, keeping the barrier semantics
        intact).  A node failing ``quarantine_threshold`` consecutive
        probes — or whose recovery fails outright — is quarantined.
        """
        node_names = list(dict.fromkeys(role.node for role in experiment.roles))
        wedged = [
            name for name in node_names
            if name not in quarantined and not allocation.node(name).probe()
        ]
        for name in node_names:
            if name in quarantined:
                continue
            health[name] = health.get(name, 0) + 1 if name in wedged else 0
        for name in wedged:
            if health[name] >= self.quarantine_threshold:
                quarantined[name] = (
                    f"failed {health[name]} consecutive health probes"
                )
                if log is not None:
                    log.event(
                        f"watchdog: QUARANTINED {name} ({quarantined[name]})"
                    )
        still_wedged = [name for name in wedged if name not in quarantined]
        if not still_wedged:
            return
        if log is not None:
            log.event(
                f"watchdog: wedged node(s) {', '.join(still_wedged)} — "
                f"power-cycling back into the live-image state"
            )
        try:
            self._recover(experiment, allocation, store, exp_dir, extra)
        except (NodeError, ScriptError, TransportError) as exc:
            for name in still_wedged:
                quarantined[name] = f"recovery failed: {exc}"
                if log is not None:
                    log.event(f"watchdog: QUARANTINED {name} (recovery failed)")

    def _run_script(
        self,
        script: Script,
        experiment: Experiment,
        role: Role,
        allocation: Allocation,
        store: SharedStore,
        phase: str,
        loop_instance: Dict[str, Any],
        run_index: Optional[int],
        extra: dict,
    ) -> ScriptResult:
        return _scheduler.run_role_script(
            script, experiment, role, allocation.node(role.node), store,
            phase, loop_instance, run_index, extra,
        )

    def _finalize(
        self,
        experiment: Experiment,
        allocation: Allocation,
        exp_dir: ExperimentDir,
        handle: ExperimentHandle,
    ) -> None:
        """Write the experiment-level artifact record."""
        metadata = experiment.describe()
        metadata["user"] = handle.user
        metadata["aborted"] = handle.aborted
        metadata["runs_completed"] = handle.completed_runs
        metadata["runs_failed"] = handle.failed_runs
        if handle.skipped_runs:
            metadata["runs_skipped"] = handle.skipped_runs
        if handle.quarantined:
            metadata["quarantined"] = dict(handle.quarantined)
        exp_dir.write_metadata(metadata)
        exp_dir.write_variables(experiment.variables.describe())
        inventory: Dict[str, Any] = {
            "nodes": {
                name: node.describe() for name, node in allocation.nodes.items()
            }
        }
        if self._inventory_extra is not None:
            inventory.update(self._inventory_extra())
        if self.fault_injector is not None:
            inventory["fault_injection"] = self.fault_injector.describe()
        exp_dir.write_inventory(inventory)
        exp_dir.write_scripts(
            [role.describe() for role in experiment.roles]
        )
