"""Message transport between the distributed controller and its agents.

Two implementations of one small contract (:class:`Bus`):

* :class:`LoopbackBus` — in-process and fully deterministic.  Agents are
  cooperative state machines stepped by the controller's pump loop on a
  virtual round clock; message queues are plain lists.  This is the
  transport the determinism and chaos tests run on: given the same
  fault plan seed, every pump round, fault strike, lease expiry and
  re-dispatch replays identically.
* :class:`PipeBus` — real fan-out.  Each agent is a forked process on
  the far end of a :func:`multiprocessing.Pipe`; a SIGKILLed agent is
  detected through the broken pipe and through liveness polls, exactly
  like a crashed remote daemon.

Transport faults ride the existing seeded fault plane
(:mod:`repro.faults.plan`): a spec with ``kind: transport`` and an
``operation`` of ``drop``, ``duplicate`` or ``delay`` (optionally
suffixed ``drop:result`` to strike one envelope kind only) is consulted
on every send, with the agent id as the spec's ``node`` and — for
``result`` envelopes — the run index as the spec's run scope.  Faults
strike *on the wire*, so both endpoints keep believing the message was
sent: exactly the failure model at-least-once delivery plus idempotent
dedupe must absorb.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import ExperimentError
from repro.faults.plan import FaultPlan

__all__ = [
    "BUS_FAULT_OPERATIONS",
    "Envelope",
    "BusFaults",
    "Bus",
    "LoopbackBus",
    "PipeBus",
]

#: The fault verbs the bus understands (spec ``operation`` values).
BUS_FAULT_OPERATIONS: Tuple[str, ...] = ("drop", "duplicate", "delay")

#: Envelope kinds, for reference and validation.
ENVELOPE_KINDS: Tuple[str, ...] = (
    "register",    # agent -> controller: request a lease
    "lease",       # controller -> agent: lease grant / renewal ack
    "dispatch",    # controller -> agent: run a list of (index, instance)
    "heartbeat",   # agent -> controller: still alive
    "result",      # agent -> controller: one finished RunOutcome
    "shard-done",  # agent -> controller: every dispatched index executed
    "shutdown",    # controller -> agent: experiment over, exit
)


@dataclass
class Envelope:
    """One message on the bus.  ``payload`` must be picklable.

    ``trace`` is the causal trace context riding every controller
    envelope: ``{"id": the fleet trace id (see
    :func:`repro.telemetry.criticalpath.fleet_trace_id`), "parent":
    span id of the envelope that caused this one, "span": this
    envelope's own span id, "seq": sender-local causal seq}``.  Agents
    echo the context of the dispatch they are working on, so a result
    (or a late duplicate of one) can be stitched to the exact dispatch
    — across re-dispatches and agent generations — in the
    ``dispatch.jsonl`` evidence.  ``None`` before the first lease (an
    agent registering knows no trace yet); the protocol never requires
    it.
    """

    kind: str
    sender: str
    seq: int
    payload: Any = None
    trace: Optional[dict] = None


def _run_index(env: Envelope) -> Optional[int]:
    """The run index an envelope is about, for fault-spec run scoping."""
    if env.kind == "result":
        outcome = (env.payload or {}).get("outcome")
        return None if outcome is None else outcome.index
    return None


class BusFaults:
    """Consults a seeded :class:`FaultPlan` for every wire transfer.

    Firing state (budgets, per-spec PRNGs) lives in the one plan
    instance the controller owns, so the strike sequence is global and
    deterministic no matter how many agents the messages involve.
    """

    def __init__(self, plan: Optional[FaultPlan]):
        self.plan = plan

    def verdict(self, env: Envelope, agent_id: str) -> str:
        """``deliver``, ``drop``, ``duplicate`` or ``delay`` for one send."""
        if self.plan is None:
            return "deliver"
        run_index = _run_index(env)
        for verb in BUS_FAULT_OPERATIONS:
            for operation in (f"{verb}:{env.kind}", verb):
                if self.plan.fire(
                    ("transport",), operation, agent_id, run_index
                ) is not None:
                    return verb
        return "deliver"


class Bus:
    """What the distributed controller needs from a transport.

    ``poll`` returns the envelopes that reached the controller since
    the last call plus the agents whose death the transport *itself*
    detected (a broken pipe).  A silently dead agent — the loopback
    bus never detects death — surfaces only through lease expiry,
    which is the point: the failure model cannot rely on the transport
    being helpful.
    """

    transport = "abstract"

    def now(self) -> float:
        raise NotImplementedError

    def advance(self) -> None:
        """One pump-round boundary: release due delayed messages."""
        raise NotImplementedError

    def send(self, agent_id: str, env: Envelope) -> None:
        raise NotImplementedError

    def poll(self) -> Tuple[List[Envelope], List[str]]:
        raise NotImplementedError

    def spawn(self, agent_id: str, generation: int) -> None:
        raise NotImplementedError

    def kill(self, agent_id: str) -> None:
        raise NotImplementedError

    def step(self) -> None:
        """Give agents execution time (loopback) or yield briefly (pipe)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------
# loopback: deterministic in-process agents on a virtual round clock
# --------------------------------------------------------------------------

class LoopbackBus(Bus):
    """Deterministic in-process transport for tests and chaos replay.

    ``agent_factory(agent_id, generation, send)`` must return an object
    with ``inbox`` (a list the bus appends to), ``step(now)`` (process
    messages, maybe execute one run) and ``alive`` (False once the
    agent died); ``send(env)`` is the callback the agent uses to talk
    back to the controller.  The bus owns the virtual clock: one
    :meth:`advance` per pump round.
    """

    transport = "loopback"

    def __init__(self, agent_factory, fault_plan: Optional[FaultPlan] = None):
        self._factory = agent_factory
        self._faults = BusFaults(fault_plan)
        self._agents: Dict[str, Any] = {}
        self._to_controller: List[Envelope] = []
        #: (due_round, arrival_seq, destination agent id or None, envelope)
        self._delayed: List[Tuple[float, int, Optional[str], Envelope]] = []
        self._round = 0.0
        self._arrivals = 0

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        return self._round

    def advance(self) -> None:
        self._round += 1.0
        due = [item for item in self._delayed if item[0] <= self._round]
        self._delayed = [item for item in self._delayed if item[0] > self._round]
        for __, __, destination, env in sorted(due, key=lambda item: item[1]):
            self._deliver(destination, env)

    # -- wire ----------------------------------------------------------------

    def _deliver(self, destination: Optional[str], env: Envelope) -> None:
        if destination is None:
            self._to_controller.append(env)
            return
        agent = self._agents.get(destination)
        if agent is not None and agent.alive:
            agent.inbox.append(env)

    def _transfer(self, destination: Optional[str], env: Envelope,
                  agent_id: str) -> None:
        verdict = self._faults.verdict(env, agent_id)
        if verdict == "drop":
            return
        self._deliver(destination, env)
        if verdict == "duplicate":
            self._deliver(destination, env)
        elif verdict == "delay":
            self._arrivals += 1
            self._delayed.append(
                (self._round + 1.0, self._arrivals, destination, env)
            )

    def send(self, agent_id: str, env: Envelope) -> None:
        self._transfer(agent_id, env, agent_id)

    def poll(self) -> Tuple[List[Envelope], List[str]]:
        inbound, self._to_controller = self._to_controller, []
        return inbound, []  # silent death: only leases notice

    # -- agents --------------------------------------------------------------

    def spawn(self, agent_id: str, generation: int) -> None:
        def send(env: Envelope) -> None:
            self._transfer(None, env, agent_id)

        self._agents[agent_id] = self._factory(agent_id, generation, send)

    def kill(self, agent_id: str) -> None:
        agent = self._agents.get(agent_id)
        if agent is not None:
            agent.alive = False

    def step(self) -> None:
        for agent_id in sorted(self._agents):
            agent = self._agents[agent_id]
            if agent.alive:
                agent.step(self._round)

    def close(self) -> None:
        for agent in self._agents.values():
            close = getattr(agent, "close", None)
            if close is not None:
                close()
        self._agents.clear()


# --------------------------------------------------------------------------
# pipe: one forked process per agent, real crashes, wall clock
# --------------------------------------------------------------------------

class PipeBus(Bus):
    """Real fan-out: agents are processes behind multiprocessing pipes.

    ``agent_config(agent_id, generation)`` must return a picklable work
    order for :func:`repro.dist.agent.agent_main`.  Death is detected
    both through broken pipes and through liveness polls, so a
    SIGKILLed agent is reported quickly; a *hung* agent (alive but
    silent) is still only caught by lease expiry.
    """

    transport = "pipe"

    def __init__(self, agent_config, fault_plan: Optional[FaultPlan] = None,
                 poll_timeout_s: float = 0.02):
        import multiprocessing as mp

        self._mp = mp
        self._config = agent_config
        self._faults = BusFaults(fault_plan)
        self._poll_timeout_s = poll_timeout_s
        self._procs: Dict[str, Any] = {}
        self._conns: Dict[str, Any] = {}
        self._reported_dead: set = set()
        self._delayed: List[Tuple[float, int, Optional[str], Envelope]] = []
        self._inbound_backlog: List[Envelope] = []
        self._arrivals = 0

    def now(self) -> float:
        return _time.time()

    def advance(self) -> None:
        now = self.now()
        due = [item for item in self._delayed if item[0] <= now]
        self._delayed = [item for item in self._delayed if item[0] > now]
        for __, __, destination, env in sorted(due, key=lambda item: item[1]):
            self._push(destination, env)

    def _push(self, destination: Optional[str], env: Envelope) -> None:
        if destination is None:
            # Delayed inbound envelopes are re-queued for the next poll.
            self._inbound_backlog.append(env)
            return
        conn = self._conns.get(destination)
        if conn is None:
            return
        try:
            conn.send(env)
        except (BrokenPipeError, OSError):
            pass  # death is reported by poll()

    def _transfer(self, destination: Optional[str], env: Envelope,
                  agent_id: str) -> None:
        verdict = self._faults.verdict(env, agent_id)
        if verdict == "drop":
            return
        self._push(destination, env)
        if verdict == "duplicate":
            self._push(destination, env)
        elif verdict == "delay":
            self._arrivals += 1
            self._delayed.append(
                (self.now() + 2 * self._poll_timeout_s, self._arrivals,
                 destination, env)
            )

    def send(self, agent_id: str, env: Envelope) -> None:
        self._transfer(agent_id, env, agent_id)

    def poll(self) -> Tuple[List[Envelope], List[str]]:
        from multiprocessing.connection import wait

        inbound: List[Envelope] = list(self._inbound_backlog)
        self._inbound_backlog = []
        dead: List[str] = []
        conns = {conn: agent_id for agent_id, conn in self._conns.items()}
        if conns:
            for conn in wait(list(conns), timeout=self._poll_timeout_s):
                agent_id = conns[conn]
                try:
                    while True:
                        env = conn.recv()
                        verdict = self._faults.verdict(env, agent_id)
                        if verdict == "drop":
                            pass
                        elif verdict == "duplicate":
                            inbound.extend([env, env])
                        else:
                            inbound.append(env)
                        if not conn.poll(0):
                            break
                except (EOFError, OSError):
                    dead.append(agent_id)
        for agent_id, proc in list(self._procs.items()):
            if agent_id in dead:
                continue
            if not proc.is_alive() and not self._conns[agent_id].poll(0):
                dead.append(agent_id)
        for agent_id in sorted(dead):
            self._drop_agent(agent_id)
        dead = [a for a in dead if a not in self._reported_dead]
        self._reported_dead.update(dead)
        return inbound, sorted(dead)

    def _drop_agent(self, agent_id: str) -> None:
        conn = self._conns.pop(agent_id, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        proc = self._procs.pop(agent_id, None)
        if proc is not None and proc.is_alive():
            # Fencing: a presumed-dead incarnation must actually be
            # dead before its id is reused and its work re-dispatched.
            proc.kill()
            proc.join(timeout=1.0)

    def spawn(self, agent_id: str, generation: int) -> None:
        self._drop_agent(agent_id)
        self._reported_dead.discard(agent_id)
        parent_conn, child_conn = self._mp.Pipe()
        from repro.dist.agent import agent_main

        proc = self._mp.Process(
            target=agent_main,
            args=(child_conn, self._config(agent_id, generation)),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[agent_id] = proc
        self._conns[agent_id] = parent_conn

    def kill(self, agent_id: str) -> None:
        proc = self._procs.get(agent_id)
        if proc is not None and proc.is_alive():
            proc.kill()

    def step(self) -> None:
        pass  # agents run on their own; poll() already waited

    def close(self) -> None:
        for agent_id in list(self._conns):
            try:
                self._conns[agent_id].send(
                    Envelope(kind="shutdown", sender="controller", seq=0)
                )
            except (BrokenPipeError, OSError):
                pass
        deadline = _time.time() + 2.0
        for proc in self._procs.values():
            proc.join(timeout=max(0.0, deadline - _time.time()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._procs.clear()
        self._conns.clear()


# The env knob mirrors POS_JOBS: how many agents a CLI run fans out to.
POS_AGENTS_ENV = "POS_AGENTS"


def resolve_agents_env() -> int:
    raw = os.environ.get(POS_AGENTS_ENV, "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ExperimentError(
            f"{POS_AGENTS_ENV} must be an integer, got {raw!r}"
        ) from exc
