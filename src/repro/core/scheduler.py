"""Parallel cross-product run scheduler.

pos explicitly supports running multiple independent experiments in
parallel on a shared testbed (Sec. 4.4), and sweep-style experiments —
the loop-variable cross product of the case study — are embarrassingly
parallel *if* each run is independent of execution history.  This
module makes that independence real and exploits it:

* the expanded cross product runs as **per-run tasks on warm
  per-worker worlds**: every worker process builds its *own* isolated
  testbed world from a factory once (boot, tools, setup with barrier),
  so no two workers ever share a node, a simulator, or any state;
* tasks carry one run index each, handed out in ascending order, and
  return an in-memory :class:`RunOutcome` as soon as the run ends;
* the parent merges outcomes into the canonical ``run-NNN`` tree **in
  deterministic cross-product order** and appends journal entries in
  completion-safe order: run *k* is persisted and journalled as soon
  as every run below *k* is, so a crash leaves a journal prefix that
  :meth:`Controller.resume` understands, identical to the sequential
  controller's.

Runs are made history-independent by the run-isolation hook (see
:meth:`repro.testbed.scenarios.TestbedSetup.begin_run`): before each
run the testbed clock is aligned to a canonical per-run-index epoch and
every stochastic component is reseeded from the run index.  A run then
produces bit-identical artifacts no matter which worker executes it or
which runs preceded it — ``--jobs 4`` and ``--jobs 1`` result trees are
byte-identical.

The sequential controller shares the primitives below
(:func:`execute_run`, :func:`build_deliver`, …), so equality between
job counts holds by construction rather than by testing luck.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import (
    ExperimentError,
    NodeError,
    PosError,
    RetryExhausted,
    ScriptError,
    TransportError,
)
from repro.core.experiment import Experiment, Role
from repro.core.results import ExperimentDir, RunDir
from repro.core.scripts import Script, ScriptContext, ScriptResult
from repro.core.tools import PosTools, SharedStore
from repro.faults.clock import Clock, SimClock
from repro.faults.retry import RetryPolicy
from repro.telemetry import context as _telemetry_context
from repro.telemetry import plane as _telemetry_plane
from repro.telemetry.spans import RunTelemetry
from repro.testbed import health as _health

__all__ = [
    "POS_TOOLS_PATH",
    "RunRecord",
    "AttemptResult",
    "RunOutcome",
    "WorkerEnv",
    "WorkerWorld",
    "ReorderBuffer",
    "CachePlan",
    "ParallelScheduler",
    "build_deliver",
    "resolve_jobs",
    "shard_runs",
    "boot_nodes",
    "deploy_tools",
    "run_setup_phase",
    "perform_run",
    "execute_run",
    "persist_outcome",
    "recover_with_policy",
    "validate_parallel_fault_plan",
]

#: Where the deployed utility-tool stub lives on every experiment host.
POS_TOOLS_PATH = "/usr/local/bin/pos"

_POS_TOOLS_STUB = (
    "#!/bin/sh\n"
    "# pos utility tools: variable access, barriers, command capture.\n"
    "# Deployed automatically by the testbed controller after boot.\n"
)


@dataclass
class RunRecord:
    """Bookkeeping for one measurement run."""

    index: int
    loop_instance: Dict[str, Any]
    ok: bool
    retried: bool = False
    skipped: bool = False
    resumed: bool = False
    error: Optional[str] = None
    script_results: List[ScriptResult] = field(default_factory=list)


@dataclass
class AttemptResult:
    """One execution attempt of one run: script results, no filesystem."""

    ok: bool = True
    error: Optional[str] = None
    script_results: List[ScriptResult] = field(default_factory=list)


@dataclass
class RunOutcome:
    """Everything one run produced, in memory and picklable.

    ``attempts`` holds one entry normally, two when the ``recover``
    policy power-cycled and retried.  ``fault_events`` are the injected
    faults that fired during this run, for the parent's inventory.
    ``telemetry`` is the run's span/metric buffer
    (:meth:`repro.telemetry.spans.RunTelemetry.payload`): local sequence
    numbers starting at 0, so the parent can re-sequence buffers in run
    order no matter which worker produced them.  ``health`` is the
    run's out-of-band node-health payload
    (:meth:`repro.testbed.health.HealthMonitor.collect_run`): SEL
    slices with run-local record ids, so the payload is identical no
    matter which worker's cumulative BMC state produced it.
    """

    index: int
    loop_instance: Dict[str, Any]
    attempts: List[AttemptResult]
    fault_events: List[Any] = field(default_factory=list)
    telemetry: Optional[dict] = None
    health: Optional[dict] = None


@dataclass
class WorkerEnv:
    """Recipe for building an isolated testbed world inside a worker.

    ``factory(**kwargs)`` must be a module-level callable (it crosses
    the process boundary by reference) returning a :class:`WorkerWorld`
    — a *fresh* world per call, sharing nothing with the parent's.
    """

    factory: Callable[..., "WorkerWorld"]
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class WorkerWorld:
    """What a worker needs to run the workflow without a controller."""

    nodes: Dict[str, Any]
    images: Any
    context_extra: Dict[str, Any] = field(default_factory=dict)
    fault_injector: Any = None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve the worker count: explicit value, else ``POS_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get("POS_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ExperimentError(f"POS_JOBS must be an integer, got {raw!r}") from exc
    if jobs < 1:
        raise ExperimentError(f"jobs must be at least 1, got {jobs}")
    return jobs


def shard_runs(indices: List[int], jobs: int) -> List[List[int]]:
    """Shard run indices round-robin into at most ``jobs`` shards.

    Round-robin keeps shard sizes balanced for homogeneous runs and is
    order-independent: the shard of run *k* is ``k mod jobs`` over the
    pending list, a pure function of the pending set and the job count.
    Every shard is internally ascending, so each worker executes its
    runs in cross-product order.
    """
    shards: List[List[int]] = [[] for _ in range(jobs)]
    for position, index in enumerate(indices):
        shards[position % jobs].append(index)
    return [shard for shard in shards if shard]


def validate_parallel_fault_plan(plan) -> None:
    """Reject fault plans whose firing state couples runs together.

    Under ``--jobs N`` every worker owns a fresh copy of the plan, so a
    spec's firing budget and PRNG are per-worker.  Identical firing
    under any job count therefore requires *run-scoped* specs: pinned
    to explicit run indices, deterministic (probability 1), with a
    budget that never truncates the pinned set.  Wildcard or
    probabilistic specs consume shared state in sequential-history
    order and cannot be replayed worker-locally.
    """
    for position, spec in enumerate(getattr(plan, "specs", [])):
        if spec.runs is None:
            raise ExperimentError(
                f"fault spec #{position} ({spec.kind}) is not pinned to run "
                f"indices; parallel execution needs run-scoped fault specs"
            )
        if spec.probability < 1.0:
            raise ExperimentError(
                f"fault spec #{position} ({spec.kind}) is probabilistic; "
                f"parallel execution needs deterministic fault specs"
            )
        if spec.times is not None and spec.times < len(spec.runs):
            raise ExperimentError(
                f"fault spec #{position} ({spec.kind}) has a firing budget "
                f"({spec.times}) below its pinned run count ({len(spec.runs)}); "
                f"the budget would be consumed in execution order, which is "
                f"job-count-dependent"
            )


# --------------------------------------------------------------------------
# workflow primitives, shared by the sequential controller and the workers
# --------------------------------------------------------------------------

def boot_nodes(experiment: Experiment, node_of: Callable[[str], Any], images) -> None:
    """Pin images and boot parameters, then reset every node."""
    for role in experiment.roles:
        node = node_of(role.node)
        image_name, image_version = role.image
        node.set_image(images.resolve(image_name, image_version))
        node.set_boot_parameters(role.boot_parameters)
    # Booting happens in a second pass so a resolution error in any
    # role's image leaves no node rebooted.
    for role in experiment.roles:
        node_of(role.node).reset()


def deploy_tools(experiment: Experiment, node_of: Callable[[str], Any]) -> None:
    """Upload the utility-tool stub to every host that takes files."""
    for role in experiment.roles:
        node = node_of(role.node)
        try:
            node.put_file(POS_TOOLS_PATH, _POS_TOOLS_STUB)
        except TransportError:
            # Devices managed via SNMP-style transports have no
            # filesystem; the controller-side tools still work.
            pass


def run_role_script(
    script: Script,
    experiment: Experiment,
    role: Role,
    node,
    store: SharedStore,
    phase: str,
    loop_instance: Dict[str, Any],
    run_index: Optional[int],
    extra: dict,
) -> ScriptResult:
    """Run one role's script with the full pos tool surface attached."""
    tools = PosTools(store, node, role.name)
    ctx = ScriptContext(
        node=node,
        role=role.name,
        phase=phase,
        variables=experiment.variables.for_host(role.name, loop_instance),
        tools=tools,
        setup=extra.get("setup"),
        run_index=run_index,
        loop_instance=dict(loop_instance),
    )
    collector = _telemetry_context.current()
    span = None
    if collector is not None:
        span = collector.begin(
            "script", script=script.name, role=role.name, node=role.node,
            phase=phase,
        )
    try:
        result = script.run(ctx)
        if span is not None:
            span.set(ok=result.ok)
        return result
    except ScriptError as exc:
        if span is not None:
            span.set(ok=False, error=str(exc))
        result = ScriptResult(
            script=script.name,
            role=role.name,
            phase=phase,
            ok=False,
            commands=list(tools.command_log),
            uploads=list(tools.uploads),
            log_lines=list(tools.log_lines),
            error=str(exc),
        )
        if phase == "setup":
            return result
        raise
    finally:
        if span is not None:
            collector.finish(span)


def run_setup_phase(
    experiment: Experiment,
    node_of: Callable[[str], Any],
    store: SharedStore,
    extra: dict,
    record: Optional[Callable[[ScriptResult], None]] = None,
) -> List[ScriptResult]:
    """Run every role's setup script; raise on the first failure."""
    results: List[ScriptResult] = []
    for role in experiment.roles:
        result = run_role_script(
            role.setup, experiment, role, node_of(role.node), store,
            phase="setup", loop_instance={}, run_index=None, extra=extra,
        )
        if record is not None:
            record(result)
        results.append(result)
        if not result.ok:
            raise ScriptError(
                f"setup of role {role.name!r} failed: {result.error}"
            )
    return results


def perform_run(
    experiment: Experiment,
    node_of: Callable[[str], Any],
    store: SharedStore,
    extra: dict,
    index: int,
    loop_instance: Dict[str, Any],
) -> AttemptResult:
    """Execute one measurement run's scripts.  No filesystem access."""
    attempt = AttemptResult()
    for role in experiment.roles:
        try:
            result = run_role_script(
                role.measurement, experiment, role, node_of(role.node), store,
                phase="measurement", loop_instance=loop_instance,
                run_index=index, extra=extra,
            )
        except (ScriptError, TransportError) as exc:
            attempt.ok = False
            attempt.error = str(exc)
            attempt.script_results.append(
                ScriptResult(
                    script=role.measurement.name,
                    role=role.name,
                    phase="measurement",
                    ok=False,
                    error=str(exc),
                )
            )
            break
        attempt.script_results.append(result)
    if attempt.ok:
        try:
            store.check_barriers(set(experiment.role_names))
        except PosError as exc:
            attempt.ok = False
            attempt.error = str(exc)
    store.reset_barriers()
    return attempt


def recover_nodes(
    experiment: Experiment,
    node_of: Callable[[str], Any],
    store: SharedStore,
    extra: dict,
) -> None:
    """R3 in action: power-cycle every node back into the clean state
    and replay the setup scripts before retrying the failed run."""
    for role in experiment.roles:
        node_of(role.node).reset()
    deploy_tools(experiment, node_of)
    for role in experiment.roles:
        result = run_role_script(
            role.setup, experiment, role, node_of(role.node), store,
            phase="setup", loop_instance={}, run_index=None, extra=extra,
        )
        if not result.ok:
            raise ScriptError(
                f"recovery setup of role {role.name!r} failed: {result.error}"
            )
    store.reset_barriers()


def recover_with_policy(
    experiment: Experiment,
    node_of: Callable[[str], Any],
    store: SharedStore,
    extra: dict,
    recovery_policy: RetryPolicy,
    clock: Clock,
) -> None:
    """Run the recovery procedure under the unified retry policy."""
    try:
        recovery_policy.call(
            lambda: recover_nodes(experiment, node_of, store, extra),
            retry_on=(NodeError, ScriptError, TransportError),
            clock=clock,
            describe="node recovery",
        )
    except RetryExhausted as exc:
        raise exc.last_error


def _run_telemetry(extra: dict) -> Optional[RunTelemetry]:
    """A run-scoped collector on the testbed's virtual clock, if enabled."""
    if not _telemetry_plane.enabled():
        return None
    sim = getattr(extra.get("setup"), "sim", None)
    clock = None if sim is None else (lambda: sim.now)
    return RunTelemetry(clock=clock)


def _health_monitor(
    experiment: Experiment, node_of: Callable[[str], Any],
) -> Optional[_health.HealthMonitor]:
    """A per-run health monitor over the experiment's nodes, if enabled.

    Created *after* the run-isolation hook: construction captures each
    node's SEL baseline, so only records appended during this run land
    in its slice.
    """
    if not _health.health_enabled():
        return None
    return _health.HealthMonitor.for_experiment(experiment, node_of)


def _record_health(collector: RunTelemetry, payload: dict) -> None:
    """Feed one run's health payload into the telemetry collector."""
    for name in sorted(payload.get("nodes", {})):
        entry = payload["nodes"][name]
        collector.count(f"health.observation.{entry['observation']}")
        for record in entry.get("sel", []):
            collector.count("health.sel_records")
            collector.event(
                "health.sel",
                node=name,
                sensor=record["sensor"],
                severity=record["severity"],
                event=record["event"],
            )


def _drop_snapshot(setup) -> Tuple[int, int]:
    """Cumulative (TX-ring drops, router-backlog drops) of the testbed."""
    ring = 0
    backlog = 0
    router = getattr(setup, "router", None)
    if router is not None:
        backlog = router.stats.backlog_dropped
        ring += sum(port.stats.tx_dropped for port in router.ports)
    loadgen = getattr(setup, "loadgen", None)
    if loadgen is not None:
        ring += loadgen.tx_nic.stats.tx_dropped
    return ring, backlog


def _measured_attempt(
    collector: Optional[RunTelemetry],
    number: int,
    experiment: Experiment,
    node_of: Callable[[str], Any],
    store: SharedStore,
    extra: dict,
    index: int,
    loop_instance: Dict[str, Any],
) -> AttemptResult:
    if collector is None:
        return perform_run(experiment, node_of, store, extra, index, loop_instance)
    span = collector.begin("attempt", number=number)
    try:
        attempt = perform_run(
            experiment, node_of, store, extra, index, loop_instance
        )
        span.set(ok=attempt.ok)
        if attempt.error is not None:
            span.set(error=attempt.error)
        return attempt
    finally:
        collector.finish(span)


def execute_run(
    experiment: Experiment,
    node_of: Callable[[str], Any],
    store: SharedStore,
    extra: dict,
    index: int,
    loop_instance: Dict[str, Any],
    on_error: str,
    recovery_policy: RetryPolicy,
    clock: Clock,
    injector=None,
    isolation: Optional[Callable[[int], None]] = None,
) -> RunOutcome:
    """One run end to end: isolate, inject, execute, maybe recover+retry.

    ``isolation`` is the run-isolation hook (clock epoch alignment and
    reseeding); it runs first so the run's world state is a function of
    the run index alone, which is what makes outcomes identical under
    any job count.  The telemetry collector is activated strictly
    *after* isolation: the epoch fast-forward drains the previous run's
    leftover events, which depend on execution history, so its engine
    activity must never enter this run's buffer.
    """
    if isolation is not None:
        isolation(index)
    collector = _run_telemetry(extra)
    # The monitor snapshots SEL baselines now — after isolation, before
    # any fault can fire — so this run's health slice contains exactly
    # the chassis events this run caused.
    monitor = _health_monitor(experiment, node_of)
    health_payload: Optional[dict] = None
    events_before = len(injector.events) if injector is not None else 0
    if injector is not None:
        injector.begin_run(index)
    setup = extra.get("setup")
    attempts: List[AttemptResult] = []
    run_span = None
    drops_before = (0, 0)
    if collector is not None:
        drops_before = _drop_snapshot(setup)
        _telemetry_context.activate(collector)
        run_span = collector.begin("run", index=index, loop=dict(loop_instance))
    try:
        attempts.append(
            _measured_attempt(
                collector, 0, experiment, node_of, store, extra, index,
                loop_instance,
            )
        )
        if not attempts[0].ok and on_error == "recover":
            if collector is not None:
                recovery_span = collector.begin("recovery")
                try:
                    recover_with_policy(
                        experiment, node_of, store, extra, recovery_policy,
                        clock,
                    )
                finally:
                    collector.finish(recovery_span)
            else:
                recover_with_policy(
                    experiment, node_of, store, extra, recovery_policy, clock
                )
            attempts.append(
                _measured_attempt(
                    collector, 1, experiment, node_of, store, extra, index,
                    loop_instance,
                )
            )
    finally:
        if injector is not None:
            injector.end_run()
        if monitor is not None:
            health_payload = monitor.collect_run(index)
            if collector is not None:
                # SEL records become spans/metrics inside the run span.
                _record_health(collector, health_payload)
        if collector is not None:
            ring_after, backlog_after = _drop_snapshot(setup)
            collector.count("netsim.tx_ring_drops", ring_after - drops_before[0])
            collector.count(
                "netsim.backlog_drops", backlog_after - drops_before[1]
            )
            recovered = len(attempts) > 1 and attempts[-1].ok
            if recovered:
                collector.count("runs.recovered")
            run_span.set(
                ok=bool(attempts) and attempts[-1].ok,
                attempts=len(attempts),
                recovered=recovered,
                faults=(
                    len(injector.events) - events_before
                    if injector is not None else 0
                ),
            )
            collector.finish(run_span)
            _telemetry_context.deactivate(collector)
    events = (
        list(injector.events[events_before:]) if injector is not None else []
    )
    return RunOutcome(
        index=index,
        loop_instance=dict(loop_instance),
        attempts=attempts,
        fault_events=events,
        telemetry=collector.payload() if collector is not None else None,
        health=health_payload,
    )


def persist_outcome(
    exp_dir: ExperimentDir,
    outcome: RunOutcome,
    log=None,
) -> Tuple[RunRecord, RunDir]:
    """Write one run's attempts into the canonical result tree.

    One ``run-NNN[-retry]`` folder per attempt, exactly like the
    sequential controller: a recovery retry never overwrites the failed
    attempt's artifacts.  Each folder's ``metadata.yml`` is written once,
    after the captures, with every role's script status in it.
    """
    run_dir: Optional[RunDir] = None
    for attempt_number, attempt in enumerate(outcome.attempts):
        if attempt_number == 1 and log is not None:
            log.event(
                f"run {outcome.index}: recovery power-cycle + setup replay"
            )
        run_dir = exp_dir.create_run_dir(outcome.index)
        scripts = {
            result.role: run_dir.record_script(result)
            for result in attempt.script_results
        }
        run_dir.write_metadata(outcome.loop_instance, {"scripts": scripts})
    last = outcome.attempts[-1]
    record = RunRecord(
        index=outcome.index,
        loop_instance=dict(outcome.loop_instance),
        ok=last.ok,
        retried=len(outcome.attempts) > 1,
        error=last.error,
        script_results=list(last.script_results),
    )
    return record, run_dir


# --------------------------------------------------------------------------
# worker side
# --------------------------------------------------------------------------

def _warm_world(worker_env, experiment, on_error, recovery_policy):
    """Build a private world, replay boot → tools → setup (with
    barrier) on it, and return its ``(index, instance) -> RunOutcome``
    executor.  Runs never touch the disk; the parent persists them."""
    world = worker_env.factory(**worker_env.kwargs)
    node_of = world.nodes.__getitem__
    store = SharedStore()
    extra = dict(world.context_extra or {})
    boot_nodes(experiment, node_of, world.images)
    deploy_tools(experiment, node_of)
    run_setup_phase(experiment, node_of, store, extra)
    store.check_barriers(set(experiment.role_names))
    store.reset_barriers()
    clock, injector = SimClock(), world.fault_injector
    isolation = getattr(extra.get("setup"), "begin_run", None)
    return lambda index, instance: execute_run(
        experiment, node_of, store, extra, index, instance, on_error,
        recovery_policy, clock, injector, isolation,
    )


#: This worker's recipe (from the pool initializer) and its executor,
#: built by its first task: one pool per pass, one world per worker.
_recipe: Tuple = ()
_world: Optional[Callable[..., RunOutcome]] = None


def _init_worker(*recipe) -> None:
    """Pool initializer: store the recipe only.  A world built here
    would turn a setup failure into a broken pool (retried as a dead
    worker) instead of failing a task with the setup's own error."""
    global _recipe, _world
    _recipe, _world = recipe, None


def _run_task(index: int, instance: Dict[str, Any]) -> RunOutcome:
    """Execute one run on this worker's warm world (building it first)."""
    global _world
    if _world is None:
        _world = _warm_world(*_recipe)
    return _world(index, instance)


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------

class ReorderBuffer:
    """Deliver indexed payloads strictly in ascending index order.

    Producers :meth:`put` payloads as they complete, in any order; every
    :meth:`drain` call delivers the consecutive ready prefix.  This is
    the determinism primitive shared by the run scheduler (merging
    worker outcomes into the result tree) and the campaign scheduler
    (merging experiment outcomes into the campaign journal): whatever
    completion order concurrency produces, the side effects happen in
    index order, so artifacts and journals are byte-identical for any
    job count and a crash always leaves a resumable prefix.
    """

    def __init__(self, total: int, deliver: Callable[[int, Any], None]):
        self._total = total
        self._deliver = deliver
        self._next = 0
        self._pending: Dict[int, Any] = {}

    @property
    def next_index(self) -> int:
        """The lowest index not yet delivered."""
        return self._next

    def complete(self) -> bool:
        """Whether every index below ``total`` has been delivered."""
        return self._next >= self._total

    def seen(self, index: int) -> bool:
        """Whether ``index`` was already delivered or is staged.

        The broken-pool retry below re-runs only unseen indices, and
        the distributed controller drops duplicate outcomes instead of
        tripping the duplicate guard in :meth:`put` — re-execution is
        safe, re-delivery is not.
        """
        return index < self._next or index in self._pending

    def put(self, index: int, payload: Any) -> None:
        """Stage one payload; duplicate or already-delivered indices raise."""
        if index < self._next or index in self._pending:
            raise ExperimentError(
                f"reorder buffer received index {index} twice"
            )
        if index >= self._total:
            raise ExperimentError(
                f"reorder buffer sized for {self._total} got index {index}"
            )
        self._pending[index] = payload

    def drain(self) -> None:
        """Deliver every consecutive ready payload, in index order.

        The cursor advances *before* the delivery callback runs, so a
        callback that raises (e.g. ``on_error="abort"``) leaves the
        buffer consistent with everything already delivered.
        """
        while self._next < self._total and self._next in self._pending:
            index = self._next
            payload = self._pending.pop(index)
            self._next += 1
            self._deliver(index, payload)


@dataclass
class _Probe:
    """One run's cache probe: its key, the cached outcome (None on a
    miss) and the ``cache.jsonl`` records the probe produced."""

    key: str
    outcome: Optional[RunOutcome]
    evidence: List[Tuple[str, Dict[str, Any]]]


class CachePlan:
    """The run cache's side of one measurement phase, shared by every
    executor: each run is probed when it is reached, not all up front.

    :meth:`probe` fingerprints and looks up one run and holds the key,
    the cached outcome and the probe's evidence until the run settles.
    :meth:`settle` runs when that run is delivered, in index order: it
    writes the probe's evidence — any ``cache.corrupt`` raised inside
    the lookup, then ``cache.hit`` or ``cache.miss`` — stores a freshly
    executed outcome (``cache.store``) and forgets the run.  Deferring
    the evidence to delivery makes ``cache.jsonl`` byte-identical for
    every executor, however early one of them probed: a run that is
    adopted from the journal, skipped, or never delivered after an
    abort leaves no line.

    Without a cache (``cache=None``) every probe misses and settling
    does nothing.
    """

    def __init__(
        self,
        cache=None,
        experiment: Optional[Experiment] = None,
        runs: Optional[List[Dict[str, Any]]] = None,
        evidence: Optional[Callable[..., None]] = None,
    ):
        self.cache = cache
        self._runs = runs or []
        self._emit = evidence
        self._probes: Dict[int, _Probe] = {}
        self._captured: List[Tuple[str, Dict[str, Any]]] = []
        if cache is not None:
            self._described = experiment.describe()
            # Corrupt-as-miss degradations inside lookup() are held
            # with the probe that raised them, not written at once.
            cache.evidence = self._capture

    def _capture(self, event: str, **fields: Any) -> None:
        self._captured.append((event, fields))

    def probe(self, index: int) -> Optional[RunOutcome]:
        """The cached outcome of run ``index``, or None to execute it."""
        if self.cache is None:
            return None
        key = self.cache.key(self._described, index, self._runs[index])
        captured = self._captured = []
        outcome = self.cache.lookup(key)
        captured.append((
            "cache.hit" if outcome is not None else "cache.miss",
            {"run": index, "key": key},
        ))
        self._probes[index] = _Probe(key, outcome, captured)
        return outcome

    def settle(self, index: int, outcome: RunOutcome) -> None:
        """Write run ``index``'s evidence and store it if it was executed."""
        probe = self._probes.pop(index, None)
        if probe is None:
            return
        emit = self._emit
        if emit is not None:
            for event, fields in probe.evidence:
                emit(event, **fields)
        if probe.outcome is None and self.cache.store(probe.key, outcome):
            if emit is not None:
                emit("cache.store", run=index, key=probe.key)


def build_deliver(
    runs: List[Dict[str, Any]],
    completed: Dict[int, dict],
    exp_dir: ExperimentDir,
    journal,
    handle,
    log,
    injector,
    on_error: str,
    on_run_complete: Optional[Callable] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    adopt: Optional[Callable] = None,
    cache_plan: Optional[CachePlan] = None,
) -> Callable[[int, Optional[RunOutcome]], None]:
    """The canonical per-run persistence step, as a reorder-buffer sink.

    The one delivery path of every executor: the controller's inline
    loop calls it directly, and the process pool and the distributed
    controller (:mod:`repro.dist`) drain their outcomes into it through
    the controller's :class:`ReorderBuffer`.  However outcomes were
    produced, every run is persisted, journalled, logged and reported
    here, in strict index order — which is what makes the result tree
    byte-identical across executors.  A ``None`` payload marks a
    journal adoption on resume.  ``injector`` collects the fault events
    of runs executed in another process; an inline run's events are
    already in the injector that fired them.

    Each delivered run is settled with the ``cache_plan``
    (:meth:`CachePlan.settle`) right after it is persisted: its probe
    evidence goes to ``cache.jsonl`` and a freshly executed eligible
    outcome is stored — in index order, at delivery, so the sidecar is
    executor-independent no matter when the executor probed the run.
    """
    total = len(runs)
    plan = cache_plan or CachePlan()

    def deliver(index: int, outcome: Optional[RunOutcome]) -> None:
        """Persist one ready run; ``None`` marks a journal adoption."""
        if outcome is None:
            record = adopt(exp_dir, index, runs[index], completed[index])
            handle.runs.append(record)
            adopt_telemetry = getattr(log, "adopt_run", None)
            if adopt_telemetry is not None:
                adopt_telemetry(completed[index])
            if log is not None:
                log.event(
                    f"run {index}: {runs[index]} -> ok (adopted from journal)"
                )
            if progress is not None:
                progress(index + 1, total)
            return
        record, run_dir = persist_outcome(exp_dir, outcome, log)
        handle.runs.append(record)
        plan.settle(index, outcome)
        # Re-sequence the worker's telemetry buffer in run order; its
        # snapshot is journalled with the run, in the same record.
        merge_telemetry = getattr(log, "merge_run", None)
        evidence = {}
        if merge_telemetry is not None:
            evidence = merge_telemetry(
                index, outcome.telemetry, health=outcome.health,
            )
        if injector is not None:
            injector.events.extend(outcome.fault_events)
        if journal is not None:
            journal.record_run(
                index, outcome.loop_instance, ok=record.ok,
                retried=record.retried, error=record.error,
                run_dir=os.path.basename(run_dir.path), **evidence,
            )
        if log is not None:
            status = "ok" if record.ok else f"FAILED ({record.error})"
            log.event(f"run {index}: {outcome.loop_instance} -> {status}")
        if on_run_complete is not None:
            on_run_complete(record, run_dir.path)
        if progress is not None:
            progress(index + 1, total)
        if not record.ok and on_error == "abort":
            raise ScriptError(
                f"measurement run {index} failed: {record.error}"
            )

    return deliver


class ParallelScheduler:
    """Fan a measurement phase's pending runs out over a process pool.

    Runs are per-run tasks on warm per-worker worlds.  Each outcome is
    put into the controller's reorder buffer as it arrives, so run *k*
    is persisted, journalled, logged and reported strictly after every
    run below *k* — the artifacts of a parallel execution are
    byte-identical to a sequential one, and a crash leaves the same
    resumable journal prefix.  A delivery that raises (``abort``)
    cancels every run still queued.

    A worker that dies *uncleanly* (SIGKILL, OOM kill — anything that
    breaks the pool rather than raising) is an infrastructure fault,
    not an experiment result: the pass is retried under the recovery
    policy with a fresh pool, re-running exactly the runs whose
    outcomes were lost.  Run isolation makes the re-execution
    byte-identical, so the retry is invisible in the artifacts.
    """

    def __init__(
        self,
        jobs: int,
        worker_env: WorkerEnv,
        recovery_policy: RetryPolicy,
    ):
        self.jobs = jobs
        self.worker_env = worker_env
        self.recovery_policy = recovery_policy

    def execute(
        self,
        experiment: Experiment,
        runs: List[Dict[str, Any]],
        pending: List[int],
        buffer: ReorderBuffer,
        on_error: str,
        log=None,
    ) -> None:
        """Execute the ``pending`` runs and drain each into ``buffer``.

        ``log`` is part of the executor contract shared with the
        distributed controller; the pool leaves no evidence of its own.
        """
        def run_pass() -> None:
            remaining = [index for index in pending if not buffer.seen(index)]
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(remaining)),
                initializer=_init_worker,
                initargs=(self.worker_env, experiment, on_error,
                          self.recovery_policy),
            )
            try:
                # Ascending submission: workers take tasks off one FIFO
                # queue, so each executes increasing indices, which the
                # run-isolation hook's forward-only epochs require.
                futures = [
                    pool.submit(_run_task, index, runs[index])
                    for index in remaining
                ]
                for future in as_completed(futures):
                    outcome = future.result()
                    buffer.put(outcome.index, outcome)
                    buffer.drain()
            except BrokenProcessPool as exc:
                lost = [i for i in pending if not buffer.seen(i)]
                raise NodeError(
                    f"worker process died uncleanly with "
                    f"{len(lost)} run(s) unmerged: {exc}"
                ) from exc
            finally:
                pool.shutdown(wait=True, cancel_futures=True)

        try:
            self.recovery_policy.call(
                run_pass,
                retry_on=(NodeError,),
                clock=SimClock(),
                describe="parallel worker pool",
            )
        except RetryExhausted as exc:
            raise exc.last_error
