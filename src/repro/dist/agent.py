"""The node agent: owns a slice of the node pool, executes run shards.

An agent is the remote half of the controller → node-agent split.  It
registers with the controller (exponential-backoff re-registration
through :class:`~repro.faults.retry.RetryPolicy`), receives dispatch
envelopes naming run indices, executes them through the *same* worker
world machinery the process-pool scheduler uses
(:class:`~repro.core.scheduler.WorkerEnv` →
:func:`~repro.core.scheduler.execute_run`), and streams each
:class:`~repro.core.scheduler.RunOutcome` back as soon as it finishes.

Two incarnations of the same logic:

* :class:`LoopbackAgent` — a cooperative state machine stepped by the
  :class:`~repro.dist.transport.LoopbackBus` pump, fully deterministic;
* :func:`agent_main` — the blocking subprocess loop behind a
  :class:`~repro.dist.transport.PipeBus` pipe.

Both consult the seeded fault plan for ``kind: agent`` strikes: a
``kill`` fires *before* the dispatched run executes, a ``kill-after``
fires after the run executed but before its result is sent — the
lost-result case at-least-once re-dispatch must absorb.  A struck
loopback agent goes permanently silent (its death is only discoverable
through lease expiry); a struck pipe agent SIGKILLs its own process.

Because every run is a pure function of its run index (the
run-isolation hook re-aligns the clock epoch and reseeds all stochastic
components), a re-executed run produces byte-identical artifacts — the
property that turns at-least-once delivery plus journal-backed dedupe
into exactly-once *effects*.
"""

from __future__ import annotations

import os
import signal
import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.scheduler import (
    WorkerEnv,
    boot_nodes,
    deploy_tools,
    execute_run,
    run_setup_phase,
)
from repro.core.tools import SharedStore
from repro.faults.clock import SimClock
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.dist.transport import Envelope

__all__ = ["AgentConfig", "ShardRunner", "LoopbackAgent", "agent_main"]


@dataclass
class AgentConfig:
    """Everything one agent incarnation needs.  Must stay picklable:
    a :class:`PipeBus` ships it across the fork to :func:`agent_main`."""

    agent_id: str
    generation: int
    worker_env: WorkerEnv
    experiment: Any
    on_error: str
    recovery_policy: RetryPolicy
    #: Backoff schedule for (re-)registration attempts.  Delays are
    #: virtual rounds on a loopback bus, seconds on a pipe bus.
    register_policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=6, base_delay_s=1.0, multiplier=2.0,
            max_delay_s=8.0, jitter_fraction=0.0,
        )
    )
    #: Idle heartbeat cadence (rounds / seconds, transport-dependent).
    heartbeat_every: float = 1.0
    #: Seeded chaos plan; only ``kind: agent`` strikes are consulted
    #: here (bus verbs strike at the controller's wire).
    fault_plan: Optional[FaultPlan] = None


class ShardRunner:
    """Executes dispatched runs inside the agent's private world.

    The world is built lazily on the first run — registration must not
    pay the boot/setup cost (or fail) before the controller has even
    granted a lease — and replays the exact pipeline a pool worker
    replays: factory → boot → tool deploy → setup (with barriers),
    then :func:`execute_run` per dispatched index.
    """

    def __init__(self, config: AgentConfig):
        self._config = config
        self._world = None
        self._node_of = None
        self._store: Optional[SharedStore] = None
        self._extra: Optional[dict] = None
        self._isolation = None
        self._clock = SimClock()
        self._last_index: Optional[int] = None

    def _ensure_world(self) -> None:
        if self._world is not None:
            return
        config = self._config
        world = config.worker_env.factory(**config.worker_env.kwargs)
        node_of = world.nodes.__getitem__
        store = SharedStore()
        extra = dict(world.context_extra or {})
        boot_nodes(config.experiment, node_of, world.images)
        deploy_tools(config.experiment, node_of)
        run_setup_phase(config.experiment, node_of, store, extra)
        store.check_barriers(set(config.experiment.role_names))
        store.reset_barriers()
        setup = extra.get("setup")
        self._world = world
        self._node_of = node_of
        self._store = store
        self._extra = extra
        self._isolation = getattr(setup, "begin_run", None)

    def run(self, index: int, instance: Dict[str, Any]):
        if self._last_index is not None and index <= self._last_index:
            # A re-dispatched run is jumping backwards (or repeating):
            # the run-isolation epoch only ever fast-forwards, and any
            # run-pinned in-world fault budget is already consumed.  A
            # fresh world — boot, tools, setup, exactly what a real
            # recovery replays — restores both, so the re-execution is
            # byte-identical to the first.
            self.close()
        self._ensure_world()
        config = self._config
        outcome = execute_run(
            config.experiment, self._node_of, self._store, self._extra,
            index, instance, config.on_error, config.recovery_policy,
            self._clock, self._world.fault_injector, self._isolation,
        )
        self._last_index = index
        return outcome

    def close(self) -> None:
        if self._world is None:
            return
        hypervisor = getattr(self._extra.get("setup"), "hypervisor", None)
        if hypervisor is not None:
            hypervisor.stop()
        self._world = None


def _kill_strikes(config: AgentConfig, operation: str, index: int) -> bool:
    """Whether a seeded agent-kill fault strikes this run boundary."""
    if config.fault_plan is None:
        return False
    return config.fault_plan.fire(
        ("agent",), operation, config.agent_id, index
    ) is not None


def _register_schedule(policy: RetryPolicy) -> List[float]:
    """The (re-)registration backoff delays; never empty."""
    delays = policy.delays()
    return delays if delays else [1.0]


def _echo(
    cause: Optional[dict], config: AgentConfig, seq: int,
) -> Optional[dict]:
    """The trace context an agent stamps on an outgoing envelope.

    Child of the controller envelope that caused it: same trace id,
    parented on the causing envelope's span.  ``None`` when the agent
    has seen no traced envelope yet (registration) — the context only
    ever *rides* the protocol.
    """
    if cause is None:
        return None
    return {
        "id": cause.get("id"),
        "parent": cause.get("span"),
        "span": f"{config.agent_id}.g{config.generation}.e{seq}",
        "seq": seq,
    }


class LoopbackAgent:
    """Cooperative agent for the deterministic in-process bus.

    The controller's pump loop calls :meth:`step` once per round, in
    sorted agent-id order; within one step the agent (re-)registers if
    it holds no lease, drains its inbox, heartbeats, and executes *at
    most one* dispatched run — streaming its result immediately, so
    outcomes interleave across agents exactly as they would across
    machines.
    """

    def __init__(self, config: AgentConfig, send) -> None:
        self.config = config
        self.alive = True
        self.inbox: List[Envelope] = []
        self._send_raw = send
        self._runner = ShardRunner(config)
        self._registered = False
        self._queue: deque = deque()
        self._executed: List[int] = []
        self._seq = 0
        self._register_attempt = 0
        self._next_register_at: Optional[float] = None
        self._last_heartbeat: Optional[float] = None
        #: Trace context of the latest controller envelope (lease wins
        #: the race for the first one) and of the dispatch that named
        #: each run — results echo the *dispatch* context so a late
        #: duplicate stitches to the send that caused it.
        self._ctx: Optional[dict] = None
        self._run_ctx: Dict[int, Optional[dict]] = {}

    # -- helpers -------------------------------------------------------------

    def _send(
        self, kind: str, payload: Any = None, cause: Optional[dict] = None,
    ) -> None:
        env = Envelope(
            kind=kind, sender=self.config.agent_id, seq=self._seq,
            payload=payload,
            trace=_echo(cause, self.config, self._seq),
        )
        self._seq += 1
        self._send_raw(env)

    def _die(self) -> None:
        """Simulated SIGKILL: permanent silence, no goodbye on the wire."""
        self.alive = False
        self._runner.close()

    def _status_payload(self) -> dict:
        return {
            "agent": self.config.agent_id,
            "generation": self.config.generation,
            "executed": sorted(self._executed),
            "idle": not self._queue,
        }

    # -- protocol ------------------------------------------------------------

    def step(self, now: float) -> None:
        if not self.alive:
            return
        for env in self.inbox:
            if env.trace is not None:
                self._ctx = env.trace
            if env.kind == "lease":
                self._registered = True
                self._register_attempt = 0
                self._next_register_at = None
            elif env.kind == "dispatch":
                self._queue.extend(env.payload["runs"])
                for index, _ in env.payload["runs"]:
                    self._run_ctx[index] = env.trace
            elif env.kind == "shutdown":
                self.alive = False
                self._runner.close()
                return
        self.inbox = []
        if not self._registered:
            if self._next_register_at is None or now >= self._next_register_at:
                self._send("register", {
                    "agent": self.config.agent_id,
                    "generation": self.config.generation,
                })
                delays = _register_schedule(self.config.register_policy)
                delay = delays[min(self._register_attempt, len(delays) - 1)]
                self._register_attempt += 1
                self._next_register_at = now + max(1.0, delay)
            return
        if (
            self._last_heartbeat is None
            or now - self._last_heartbeat >= self.config.heartbeat_every
        ):
            self._last_heartbeat = now
            self._send("heartbeat", self._status_payload(), cause=self._ctx)
        if not self._queue:
            return
        index, instance = self._queue.popleft()
        if index in self._executed:
            # A re-dispatch of a run whose result was lost on the wire:
            # re-executing is safe (pure function of the index), but
            # the agent can short-circuit nothing — the controller
            # needs the bytes, so execute again.
            pass
        if _kill_strikes(self.config, "kill", index):
            self._die()
            return
        started = _time.perf_counter()
        outcome = self._runner.run(index, instance)
        wall_s = _time.perf_counter() - started
        self._executed.append(index)
        if _kill_strikes(self.config, "kill-after", index):
            self._die()
            return
        self._send("result", {
            "outcome": outcome,
            "generation": self.config.generation,
            "wall_s": wall_s,
        }, cause=self._run_ctx.get(index, self._ctx))
        if not self._queue:
            self._send("shard-done", self._status_payload(), cause=self._ctx)

    def close(self) -> None:
        self._runner.close()


# --------------------------------------------------------------------------
# pipe transport: real subprocess agent
# --------------------------------------------------------------------------

def agent_main(conn, config: AgentConfig) -> None:
    """Blocking agent daemon loop on the far end of a PipeBus pipe.

    Same protocol as :class:`LoopbackAgent`, on wall time.  Agent-kill
    strikes deliver a real ``SIGKILL`` to the agent's own process — the
    controller sees a broken pipe, exactly like a crashed remote
    machine.
    """
    runner = ShardRunner(config)
    seq = 0
    registered = False
    queue: deque = deque()
    executed: List[int] = []
    delays = _register_schedule(config.register_policy)
    register_attempt = 0
    next_register = 0.0
    last_heartbeat: Optional[float] = None
    ctx: Optional[dict] = None
    run_ctx: Dict[int, Optional[dict]] = {}

    def send(
        kind: str, payload: Any = None, cause: Optional[dict] = None,
    ) -> bool:
        nonlocal seq
        env = Envelope(kind=kind, sender=config.agent_id, seq=seq,
                       payload=payload, trace=_echo(cause, config, seq))
        seq += 1
        try:
            conn.send(env)
            return True
        except (BrokenPipeError, OSError):
            return False

    def status() -> dict:
        return {
            "agent": config.agent_id,
            "generation": config.generation,
            "executed": sorted(executed),
            "idle": not queue,
        }

    try:
        while True:
            now = _time.monotonic()
            if not registered and now >= next_register:
                if not send("register", {
                    "agent": config.agent_id,
                    "generation": config.generation,
                }):
                    return
                delay = delays[min(register_attempt, len(delays) - 1)]
                register_attempt += 1
                # Wall-time backoff is scaled down: the loopback default
                # counts virtual rounds, a subprocess should re-register
                # within milliseconds.
                next_register = now + min(delay, 0.05 * (register_attempt))
            drained = False
            while conn.poll(0.0 if (registered and queue) else 0.01):
                try:
                    env = conn.recv()
                except (EOFError, OSError):
                    return
                drained = True
                if env.trace is not None:
                    ctx = env.trace
                if env.kind == "lease":
                    registered = True
                    register_attempt = 0
                elif env.kind == "dispatch":
                    queue.extend(env.payload["runs"])
                    for index, _ in env.payload["runs"]:
                        run_ctx[index] = env.trace
                elif env.kind == "shutdown":
                    return
            if not registered:
                continue
            if (
                last_heartbeat is None
                or now - last_heartbeat >= config.heartbeat_every
            ):
                last_heartbeat = now
                if not send("heartbeat", status(), cause=ctx):
                    return
            if not queue:
                if not drained:
                    _time.sleep(0.002)
                continue
            index, instance = queue.popleft()
            if _kill_strikes(config, "kill", index):
                os.kill(os.getpid(), signal.SIGKILL)
            started = _time.perf_counter()
            outcome = runner.run(index, instance)
            wall_s = _time.perf_counter() - started
            executed.append(index)
            if _kill_strikes(config, "kill-after", index):
                os.kill(os.getpid(), signal.SIGKILL)
            if not send("result", {
                "outcome": outcome,
                "generation": config.generation,
                "wall_s": wall_s,
            }, cause=run_ctx.get(index, ctx)):
                return
            if not queue and not send("shard-done", status()):
                return
    finally:
        runner.close()
        try:
            conn.close()
        except OSError:
            pass
