"""The distributed run controller: leases, re-dispatch, dedupe.

:class:`DistScheduler` is one of the experiment controller's executors,
a peer of :class:`~repro.core.scheduler.ParallelScheduler` with the same
``execute`` contract: the controller stages adopted and cached runs,
hands over the pending ones, and every outcome goes through the
controller's one delivery path.  Instead of a process pool it drives a
fleet of node agents over a message
:class:`~repro.dist.transport.Bus`:

* the pending run indices are sharded round-robin and dispatched to
  agents as they register;
* every agent holds a **lease** renewed by any message it sends; a
  lease that expires means the agent is presumed dead, its outstanding
  runs are orphaned and re-dispatched to survivors (after the
  transport fences the old incarnation);
* delivery is **at-least-once** — dropped results are detected by
  reconciling the agent's executed-set against the delivered-set and
  re-dispatching the difference — made safe by **idempotent dedupe**:
  a run index already delivered (or journalled by a previous,
  crashed controller execution) is dropped on arrival, never
  re-persisted;
* agents that die repeatedly are **quarantined** after a threshold and
  their work migrates to the survivors; if every agent is quarantined
  while work remains, the experiment fails loudly.

Determinism contract: outcomes are put into the controller's
:class:`~repro.core.scheduler.ReorderBuffer`, whose sink is
:func:`~repro.core.scheduler.build_deliver` as for every other
executor, in strict run-index order, and each run is a pure function of
its index — so the merged artifact tree is byte-identical for any agent
count, any placement, and any crash/re-dispatch schedule, including a
crash + ``--resume`` of the controller itself.  The *evidence* of the
distributed execution (who ran what, who died when, every pump
instant on the transport clock) goes to the ``dispatch.jsonl`` sidecar,
which is deliberately outside that contract.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core.errors import ExperimentError
from repro.core.scheduler import ReorderBuffer, WorkerEnv, shard_runs
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.dist.agent import AgentConfig, LoopbackAgent
from repro.dist.transport import (
    BUS_FAULT_OPERATIONS,
    ENVELOPE_KINDS,
    Envelope,
    LoopbackBus,
    PipeBus,
    resolve_agents_env,
)
from repro.telemetry.criticalpath import fleet_trace_id

__all__ = [
    "AgentState",
    "DistScheduler",
    "resolve_agents",
    "validate_dist_fault_plan",
]

TRANSPORTS = ("loopback", "pipe")

#: Agent-kill operations understood by the agent-side fault check.
AGENT_FAULT_OPERATIONS = ("kill", "kill-after")


def resolve_agents(agents: Optional[int]) -> int:
    """Resolve the agent count: explicit value, else ``POS_AGENTS``, else 0.

    Zero means the distributed plane is off (the default); any positive
    count fans the measurement phase out to that many node agents.
    """
    if agents is None:
        agents = resolve_agents_env()
    if agents < 0:
        raise ExperimentError(f"agents must be non-negative, got {agents}")
    return agents


def validate_dist_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Reject chaos plans that would strike outside the dist plane.

    The ``--dist-fault-plan`` is consulted only at the transport wire
    (bus verbs) and at the agent run boundary (``kind: agent``); specs
    for the in-world kinds (power, script, …) belong in the regular
    ``--fault-plan`` and would silently never fire here.
    """
    if plan is None:
        return
    for position, spec in enumerate(plan.specs):
        if spec.kind == "agent":
            if spec.operation is not None and (
                spec.operation not in AGENT_FAULT_OPERATIONS
            ):
                raise ExperimentError(
                    f"dist fault spec #{position}: agent operation must be "
                    f"one of {', '.join(AGENT_FAULT_OPERATIONS)}, "
                    f"got {spec.operation!r}"
                )
        elif spec.kind == "transport":
            operation = spec.operation
            if operation is None:
                raise ExperimentError(
                    f"dist fault spec #{position}: transport specs need an "
                    f"explicit bus operation "
                    f"({', '.join(BUS_FAULT_OPERATIONS)})"
                )
            verb, _, env_kind = operation.partition(":")
            if verb not in BUS_FAULT_OPERATIONS:
                raise ExperimentError(
                    f"dist fault spec #{position}: unknown bus operation "
                    f"{verb!r} (known: {', '.join(BUS_FAULT_OPERATIONS)})"
                )
            if env_kind and env_kind not in ENVELOPE_KINDS:
                raise ExperimentError(
                    f"dist fault spec #{position}: unknown envelope kind "
                    f"{env_kind!r} (known: {', '.join(ENVELOPE_KINDS)})"
                )
        else:
            raise ExperimentError(
                f"dist fault spec #{position}: kind {spec.kind!r} strikes "
                f"the in-world management plane; put it in the regular "
                f"fault plan (--fault-plan), not the dist chaos plan"
            )


@dataclass
class AgentState:
    """The controller's book on one agent identity (across incarnations)."""

    agent_id: str
    generation: int = 0
    registered: bool = False
    lease_expires: Optional[float] = None
    assigned: Set[int] = field(default_factory=set)
    failures: int = 0
    quarantined: bool = False


class DistScheduler:
    """Dispatch run shards to leased node agents; merge byte-identically.

    Same ``execute`` contract as the process-pool scheduler; the fleet,
    transport and chaos plan are fixed at construction.
    """

    def __init__(
        self,
        agents: int,
        worker_env: WorkerEnv,
        recovery_policy: RetryPolicy,
        transport: str = "loopback",
        fault_plan: Optional[FaultPlan] = None,
        quarantine_threshold: int = 3,
        lease_ttl: Optional[float] = None,
        heartbeat_every: Optional[float] = None,
        register_policy: Optional[RetryPolicy] = None,
        redispatch_limit: int = 5,
        stall_timeout: Optional[float] = None,
    ):
        if agents < 1:
            raise ExperimentError(f"agents must be at least 1, got {agents}")
        if transport not in TRANSPORTS:
            raise ExperimentError(
                f"unknown transport {transport!r} (known: {', '.join(TRANSPORTS)})"
            )
        if quarantine_threshold < 1:
            raise ExperimentError("quarantine_threshold must be at least 1")
        validate_dist_fault_plan(fault_plan)
        self.agents = agents
        self.worker_env = worker_env
        self.recovery_policy = recovery_policy
        self.transport = transport
        self.fault_plan = fault_plan
        self.quarantine_threshold = quarantine_threshold
        self.redispatch_limit = redispatch_limit
        loopback = transport == "loopback"
        # Clock units are virtual rounds on loopback, seconds on pipe.
        self.lease_ttl = lease_ttl if lease_ttl is not None else (
            8.0 if loopback else 3.0
        )
        self.heartbeat_every = heartbeat_every if heartbeat_every is not None else (
            1.0 if loopback else 0.5
        )
        self.register_policy = register_policy if register_policy is not None else (
            RetryPolicy(
                max_attempts=6, base_delay_s=1.0, multiplier=2.0,
                max_delay_s=8.0, jitter_fraction=0.0,
            )
        )
        self.stall_timeout = stall_timeout if stall_timeout is not None else (
            200.0 if loopback else 30.0
        )
        #: One chaos-plan copy per agent *identity*, persisting across
        #: incarnations on loopback so firing budgets (e.g. a
        #: ``times: 1`` kill) are consumed once per identity.  A pipe
        #: agent gets the copy pickled at spawn time — a real remote
        #: daemon cannot share budget state either.
        self._agent_plans: Dict[str, Optional[FaultPlan]] = {}

    # -- wiring ----------------------------------------------------------

    def _agent_plan(self, agent_id: str) -> Optional[FaultPlan]:
        if agent_id not in self._agent_plans:
            self._agent_plans[agent_id] = (
                None if self.fault_plan is None
                else copy.deepcopy(self.fault_plan)
            )
        return self._agent_plans[agent_id]

    def _agent_config(
        self, agent_id: str, generation: int, experiment, on_error: str,
    ) -> AgentConfig:
        return AgentConfig(
            agent_id=agent_id,
            generation=generation,
            worker_env=self.worker_env,
            experiment=experiment,
            on_error=on_error,
            recovery_policy=self.recovery_policy,
            register_policy=self.register_policy,
            heartbeat_every=self.heartbeat_every,
            fault_plan=self._agent_plan(agent_id),
        )

    def _make_bus(self, experiment, on_error: str):
        if self.transport == "loopback":
            def factory(agent_id: str, generation: int, send):
                return LoopbackAgent(
                    self._agent_config(agent_id, generation, experiment, on_error),
                    send,
                )

            return LoopbackBus(factory, fault_plan=self.fault_plan)

        def config(agent_id: str, generation: int) -> AgentConfig:
            return self._agent_config(agent_id, generation, experiment, on_error)

        return PipeBus(config, fault_plan=self.fault_plan)

    # -- execution -------------------------------------------------------

    def execute(
        self,
        experiment,
        runs: List[Dict[str, Any]],
        pending: List[int],
        buffer: ReorderBuffer,
        on_error: str,
        log=None,
    ) -> None:
        """Execute the ``pending`` runs on the fleet and drain each
        result into ``buffer``; the pump's evidence goes to ``log``."""
        total = len(runs)
        # The causal trace context stamped on every controller envelope
        # (and echoed back by the agents): the id of the fleet DAG that
        # pos trace derives from trace.jsonl.
        trace_id = fleet_trace_id(experiment.name, total)

        # Journal-backed dedupe: everything the buffer has seen — what
        # the (possibly crashed, resumed) journal already promised, every
        # cache hit the controller staged, every result received — is
        # delivered once and never re-persisted, no matter how often an
        # agent re-produces it.
        agent_count = min(self.agents, len(pending))
        states = {
            f"agent-{position:02d}": AgentState(f"agent-{position:02d}")
            for position in range(agent_count)
        }
        # Each initial shard waits for the agent it was spawned for;
        # only a death releases it to the strays any agent may take.
        reserved = dict(zip(sorted(states), shard_runs(pending, agent_count)))
        shards: deque = deque()
        orphans: List[int] = []
        redispatches: Dict[int, int] = {}
        controller_seq = 0
        bus = self._make_bus(experiment, on_error)
        last_progress = bus.now()
        sink = getattr(log, "dispatch_event", None)

        def evidence(event: str, **fields: Any) -> None:
            """One dispatch.jsonl record, stamped with the transport
            clock (duck-typed: a telemetry-less log records nothing)."""
            if sink is not None:
                sink(event, t=bus.now(), **fields)

        def send(agent_id: str, kind: str, payload: Any = None) -> None:
            nonlocal controller_seq
            controller_seq += 1
            trace = {
                "id": trace_id,
                "parent": "root",
                "span": f"env-{controller_seq}",
                "seq": controller_seq,
            }
            bus.send(agent_id, Envelope(
                kind=kind, sender="controller", seq=controller_seq,
                payload=payload, trace=trace,
            ))
            fields: Dict[str, Any] = {"kind": kind, "agent": agent_id}
            if kind == "dispatch":
                fields["runs"] = [index for index, _ in payload["runs"]]
            evidence("send", span=trace["span"], **fields)

        def note_delivered(before: int) -> None:
            """Stamp the instant each run cleared the reorder buffer."""
            for index in range(before, buffer.next_index):
                evidence("deliver", run=index)

        def renew(state: AgentState) -> None:
            state.lease_expires = bus.now() + self.lease_ttl

        def give(state: AgentState, indices: List[int], reason: str) -> None:
            state.assigned.update(indices)
            send(state.agent_id, "dispatch", {
                "runs": [(index, runs[index]) for index in indices],
            })
            evidence(
                "dispatch", agent=state.agent_id,
                generation=state.generation, runs=list(indices),
                reason=reason,
            )

        def budget(indices: List[int]) -> None:
            for index in indices:
                redispatches[index] = redispatches.get(index, 0) + 1
                if redispatches[index] > self.redispatch_limit:
                    raise ExperimentError(
                        f"run {index} re-dispatched {redispatches[index] - 1} "
                        f"times without a delivered result; transport or "
                        f"agents are too unreliable to make progress"
                    )

        def reconcile(state: AgentState, executed: List[int]) -> None:
            """Re-dispatch assigned runs an *idle* agent cannot account
            for — the at-least-once leg.  An idle agent's undelivered
            assignment means either its result was dropped on the wire
            (``index in executed``) or the dispatch itself never
            arrived; both are cured by sending the work again, and the
            reorder buffer's dedupe absorbs any double execution."""
            executed_set = set(executed)
            lost = sorted(
                index for index in state.assigned if not buffer.seen(index)
            )
            if not lost:
                return
            budget(lost)
            evidence(
                "redispatch", agent=state.agent_id, runs=lost,
                reason=(
                    "lost-result"
                    if all(index in executed_set for index in lost)
                    else "lost-dispatch"
                ),
            )
            send(state.agent_id, "dispatch", {
                "runs": [(index, runs[index]) for index in lost],
            })

        def on_death(state: AgentState, reason: str) -> None:
            if state.quarantined:
                return
            if state.agent_id in reserved:
                shards.append(reserved.pop(state.agent_id))
            was_registered = state.registered
            state.registered = False
            state.lease_expires = None
            orphaned = sorted(
                index for index in state.assigned if not buffer.seen(index)
            )
            state.assigned = set()
            orphans.extend(orphaned)
            state.failures += 1
            evidence(
                "agent-dead", agent=state.agent_id,
                generation=state.generation, reason=reason,
                registered=was_registered, orphaned=orphaned,
                failures=state.failures,
            )
            if state.failures >= self.quarantine_threshold:
                state.quarantined = True
                evidence(
                    "quarantine", agent=state.agent_id,
                    failures=state.failures,
                )
                return
            # Fence-then-respawn: the transport guarantees the old
            # incarnation is silenced before a new one takes the id,
            # and the agent re-registers under RetryPolicy backoff.
            state.generation += 1
            bus.spawn(state.agent_id, state.generation)
            evidence(
                "agent-spawn", agent=state.agent_id,
                generation=state.generation,
            )

        def handle(env: Envelope) -> None:
            nonlocal last_progress
            state = states.get(env.sender)
            if state is None:
                return
            if env.kind != "result":
                evidence("recv", kind=env.kind, agent=env.sender, ctx=env.trace)
            if env.kind == "register":
                generation = env.payload["generation"]
                if state.quarantined or generation < state.generation:
                    return  # a stale or banned incarnation gets no lease
                state.registered = True
                state.generation = generation
                renew(state)
                last_progress = bus.now()
                evidence(
                    "register", agent=state.agent_id, generation=generation,
                )
                send(state.agent_id, "lease", {
                    "ttl": self.lease_ttl, "generation": generation,
                })
                if state.agent_id in reserved:
                    give(state, reserved.pop(state.agent_id), reason="shard")
                elif not state.assigned and shards:
                    give(state, shards.popleft(), reason="shard")
            elif env.kind == "heartbeat":
                if (
                    not state.registered
                    or env.payload["generation"] != state.generation
                ):
                    return
                renew(state)
                if env.payload.get("idle"):
                    reconcile(state, env.payload.get("executed") or [])
            elif env.kind == "result":
                outcome = env.payload["outcome"]
                index = outcome.index
                if state.registered:
                    renew(state)
                for other in states.values():
                    other.assigned.discard(index)
                if buffer.seen(index):
                    evidence(
                        "duplicate-dropped", agent=state.agent_id, run=index,
                    )
                    return
                last_progress = bus.now()
                evidence(
                    "result", agent=state.agent_id,
                    generation=env.payload.get("generation"), run=index,
                    wall_s=env.payload.get("wall_s"), ctx=env.trace,
                )
                before = buffer.next_index
                buffer.put(index, outcome)
                buffer.drain()
                note_delivered(before)
            elif env.kind == "shard-done":
                if state.registered:
                    renew(state)
                evidence(
                    "shard-done", agent=state.agent_id,
                    executed=list(env.payload.get("executed") or []),
                )
                reconcile(state, env.payload.get("executed") or [])

        def assign_strays() -> None:
            candidates = [
                state for state in states.values()
                if state.registered and not state.quarantined
            ]
            if not candidates:
                if all(state.quarantined for state in states.values()):
                    outstanding = sum(
                        1 for index in pending if not buffer.seen(index)
                    )
                    raise ExperimentError(
                        f"every agent is quarantined with {outstanding} "
                        f"run(s) outstanding; raise --agents or fix the fleet"
                    )
                return
            while shards:
                target = min(
                    candidates,
                    key=lambda state: (len(state.assigned), state.agent_id),
                )
                give(target, shards.popleft(), reason="late-shard")
            if orphans:
                batch = sorted(
                    {index for index in orphans if not buffer.seen(index)}
                )
                orphans.clear()
                if batch:
                    budget(batch)
                    target = min(
                        candidates,
                        key=lambda state: (len(state.assigned), state.agent_id),
                    )
                    give(target, batch, reason="redispatch")

        try:
            evidence(
                "begin", pending=len(pending), agents=agent_count,
                transport=self.transport, trace=trace_id,
            )
            for agent_id in sorted(states):
                bus.spawn(agent_id, 0)
                evidence("agent-spawn", agent=agent_id, generation=0)
            while not buffer.complete():
                bus.advance()
                inbound, dead = bus.poll()
                for agent_id in dead:
                    if agent_id in states:
                        on_death(states[agent_id], "transport-closed")
                for env in inbound:
                    handle(env)
                now = bus.now()
                for state in states.values():
                    if (
                        state.registered
                        and state.lease_expires is not None
                        and now > state.lease_expires
                    ):
                        on_death(state, "lease-expired")
                assign_strays()
                bus.step()
                if bus.now() - last_progress > self.stall_timeout:
                    outstanding = sorted(
                        index for index in pending if not buffer.seen(index)
                    )
                    raise ExperimentError(
                        f"distributed execution stalled: no progress for "
                        f"{self.stall_timeout:g} clock units with runs "
                        f"{outstanding} outstanding"
                    )
            evidence(
                "complete",
                delivered=total,
                redispatched=sum(redispatches.values()),
            )
        finally:
            for state in states.values():
                if state.registered:
                    send(state.agent_id, "shutdown")
            bus.step()
            bus.close()
