"""Batched packet-event fast path: DAG compiler + column-pass replay kernel.

The discrete-event engine schedules roughly six Python-level events per
generated packet, so a Fig. 3 sweep costs ``rates x sizes x packets``
heap operations and callback dispatches.  For every topology the case
studies measure — a load generator wired through deterministic
store-and-forward elements and back — those events are analytically
predictable: the network between the generator's TX and RX ports is a
*feed-forward DAG of FIFO stages* with constant per-stage delays, so
each packet's full trajectory follows from Lindley-style recurrences
over the packets sent before it.

:func:`compile_dag` walks the wiring from the TX port and emits a
:class:`DagSpec` — a stage table of serialization, FIFO-service,
RSS-fan-out, match-action and seeded-VM stages — when every link
declares ``constant_delay()`` and every device a replay capability:
``deterministic_service`` (a size-pure cost model) or
``seeded_service`` (draws from the device's own seeded RNG in a fixed
order, the vpos guest of :mod:`repro.netsim.vm`).  Eligibility is
declared, not hard-coded: a :class:`~repro.netsim.router.LinuxRouter`
subclass with a different (but still size-pure) cost model compiles as
long as it re-declares the capability for its own overrides; a
subclass that overrides behaviour below the declaring class is
rejected.  Consecutive runs that share a compiled topology (a rate x
size sweep on one world) reuse the spec through :func:`acquire_dag`,
which re-verifies quiescence instead of recompiling.

:func:`run_batched` replays one whole measurement job as a short
sequence of whole-column passes that CPython executes in C
(``itertools.accumulate``, ``map``, list comprehensions, ``bisect``,
``all(map(operator.le, ...))``): no heap, no callbacks, no ``Packet``
allocations and — in every regime that verifies — no per-packet
Python loop body.  Sends are processed in blocks of :data:`_BLOCK`;
each FIFO stage (the generator's TX ring, a device backlog, an egress
NIC ring) carries its server free time and its last ``cap`` ring pop
times from block to block, so a run's memory is bounded by the block,
not by its packet count.

Each FIFO stage picks a *regime* up front from its nominal input
spacing versus its service time, then proves the choice on every block
with a C-level check before committing any state:

* **under-loaded** (service < spacing): every frame finds the server
  idle, completions are element-wise ``F = a + s``; verified by
  ``all(map(ge, A[1:], F))``.  No drops.
* **critical** (service ≈ spacing — an egress NIC fed frames spaced
  exactly one serialization time apart, where rounding leaves 1-ulp
  waits): the max-plus recurrence ``f = max(a, f) + s`` as one
  ``accumulate``, or the plain chain ``accumulate(repeat(s))`` when
  every frame arrives by its predecessor's completion; verified by the
  ring never filling (``P[i - cap] <= A[i]`` for the ring pop times
  ``P``).
* **saturated** (service > spacing): the server is busy from the first
  admitted frame, so completions are the chain ``accumulate(repeat(s))``
  and the m-th admitted frame is the first arrival at or after the pop
  time ``P[m - cap]``.  When every arrival gap is below every ring-pop
  gap (``s`` less one ulp of the last completion), the ring has two
  slots or more and the free-slot admissions check out one by one,
  that proves both the admissions and the busy premise, and the
  admissions stay implicit (:class:`_Admitted`): a prefix count,
  ``k0 + bisect_right(pops, a)``, which interval counters, latency
  samples and further stages query.  An RSS or VM stage, or a second
  dropping stage, lists them.  Otherwise (Poisson bursts, a one-slot
  ring, a block whose pops outrun its arrivals) admitted positions
  come from ``bisect`` plus a running maximum, verified by every
  admitted frame arriving no later than its predecessor's completion.

A regime whose check fails hands the block to the next more general
one (under-loaded → critical → saturated) and finally to the
per-packet recurrence (:func:`_queue_loop`), which carries the same
state; only a block that nothing else verifies pays for it.  Poisson
send times keep their RNG loop (one ``expovariate`` draw per send,
after the send) and then flow through the same stage passes; an RSS
stage keeps its per-packet body inside the block pipeline and holds
back completions a later block could still precede.  A seeded VM stage
(:class:`_VmStage`) is a per-packet loop over the guest's arrivals,
completions and its hypervisor's pauses, in the event heap's order,
making the event path's RNG draws in the event path's order; it too
holds back the completions a later arrival could still influence.

Every float is produced by the same operation, on the same operands,
in the same order as the event engine, so the replay is bit-identical:

* send times and interval boundaries accumulate iteratively
  (``t + gap``, ``boundary + interval_s``), like the event chain does;
* TX-ring occupancy uses the pop-at-serialization-start semantics of
  :class:`~repro.netsim.nic.Nic`, device backlogs the
  pop-at-completion semantics of
  :class:`~repro.netsim.router.ForwardingDevice`;
* RSS completions from different cores are merged back into egress
  arrival order on (completion time, service start, arrival index) —
  the earlier-started service's finish event entered the heap first
  and wins the tie;
* latency samples, per-interval counters, NIC statistics and device
  statistics are accounted under the same conditions as the event path
  (a frame arriving at or after the job deadline is not counted
  against the job because the job's finish event wins the heap tie,
  interval boundaries roll on ``now >= boundary`` capped at the
  deadline, the send sequence number advances even for ring-dropped
  frames, a bridge's FDB learns the flow's source exactly when a frame
  completes service).

Ineligible topologies — undeclared overrides, contended cut-through
switch ports, flooding multi-port bridges, a device busy or paused at
compile time — run on the legacy per-packet event path, which remains
the semantic reference.  The fallback is not silent: the compiler names
the port, link or device and the rule it broke (:func:`_compile`), and
``MoonGen.start`` counts ``fastpath.fallback.<reason>`` in the run's
telemetry, which ``pos doctor`` reports.  ``POS_NETSIM_BATCH=0``
disables the fast path globally, which is how the equivalence tests and
benchmarks pit the two implementations against each other.

The fast path computes the *fully drained* end state: every frame in
flight at the deadline is followed to its terminal stage.  That equals
the event path's post-run state only if the caller then runs the
simulator at least until the last replayed event, so the kernel records
that instant on the job (``MoonGenJob.drain_horizon_s``) and callers
check it with :meth:`~repro.loadgen.moongen.MoonGenJob.check_drained`
against their ``sim.run(until=...)`` window.
"""

from __future__ import annotations

import copy
import math
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate, chain, islice, repeat
from operator import add, ge, le, sub
from typing import Dict, List, Optional

from repro.core.envcache import EnvSwitch
from repro.core.errors import SimulationError
from repro.loadgen.moongen import IntervalStats
from repro.netsim.asicswitch import PIPELINE_LATENCY_S, AsicSwitch
from repro.netsim.bridge import LinuxBridge
from repro.netsim.engine import PeriodicTimer
from repro.netsim.multicore import MultiCoreRouter
from repro.netsim.nic import Nic
from repro.netsim.packet import MIN_FRAME_SIZE, Packet, wire_bits
from repro.netsim.router import ForwardingDevice
from repro.netsim.vm import Hypervisor, VirtualizedLinuxRouter
from repro.telemetry import context as _telemetry

__all__ = [
    "DagSpec",
    "StageSpec",
    "compile_dag",
    "acquire_dag",
    "run_batched",
    "enabled",
]

#: Whether the batched path may engage (``POS_NETSIM_BATCH`` != 0).
#: Resolved once per world (:mod:`repro.core.envcache`), not per job.
enabled = EnvSwitch("POS_NETSIM_BATCH")

#: Feed-forward walk depth bound: a path longer than this is not a
#: measurement chain (and might be a wiring loop).
_MAX_HOPS = 64

#: Behaviour methods a capability declaration vouches for: each must be
#: defined at or above the class declaring the capability.
_DEVICE_METHODS = (
    "service_time",
    "output_port",
    "_on_receive",
    "_start_service",
    "_finish_service",
    "_start_core",
    "_finish_core",
    "core_for",
    "backlog_depth",
    "pause",
    "resume",
    "clear",
    "_overload_factor",
)

#: The replay capabilities a device class can declare, in the order
#: the compiler tries them.
_CAPABILITIES = ("deterministic_service", "seeded_service")

#: Queueing methods the seeded stage replays as ForwardingDevice's.
_SEEDED_QUEUE_METHODS = (
    "_on_receive", "_start_service", "_finish_service", "output_port",
    "pause", "resume",
)

_capability_cache: Dict[type, tuple] = {}
_link_cache: Dict[type, bool] = {}


def _defining_class(cls: type, name: str) -> Optional[type]:
    """The class in ``cls``'s MRO that defines attribute ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


def _device_capability(cls: type) -> tuple:
    """Which replay capability ``cls`` holds: ``(flag, None)`` or ``(None, why)``.

    For each capability flag in turn, the first class in the MRO that
    *declares* the flag must declare it truthy, and every behaviour
    method must be defined at or above that declarer — overriding
    behaviour below the declaration silently voids it.
    """
    cached = _capability_cache.get(cls)
    if cached is not None:
        return cached
    result = (None, f"{cls.__name__} declares no replay capability")
    for flag in _CAPABILITIES:
        declarer = _defining_class(cls, flag)
        if declarer is None or not vars(declarer)[flag]:
            continue
        result = (flag, None)
        allowed = set(declarer.__mro__)
        for name in _DEVICE_METHODS:
            defining = _defining_class(cls, name)
            if defining is not None and defining not in allowed:
                result = (None, (
                    f"{defining.__name__}.{name} overrides behaviour below "
                    f"the {flag} declaration of {declarer.__name__}"
                ))
                break
        break
    _capability_cache[cls] = result
    return result


def _link_replayable(cls: type) -> bool:
    """Whether a link class's ``carry`` is vouched by ``constant_delay``."""
    cached = _link_cache.get(cls)
    if cached is not None:
        return cached
    declarer = _defining_class(cls, "constant_delay")
    ok = declarer is not None
    if ok:
        allowed = set(declarer.__mro__)
        for name in ("carry", "peer"):
            defining = _defining_class(cls, name)
            if defining is not None and defining not in allowed:
                ok = False
                break
    _link_cache[cls] = ok
    return ok


def _link_delay(link) -> Optional[float]:
    """Constant carry delay of a link, or None when not replayable."""
    if link is None or not _link_replayable(type(link)):
        return None
    return link.constant_delay()


@dataclass
class StageSpec:
    """One stage of a compiled feed-forward path.

    Kinds: ``serialize`` (a NIC's TX ring + line-rate serialization,
    followed by ``post_delay_s`` of constant wire delay), ``fifo`` (a
    single-server :class:`ForwardingDevice` queue), ``rss`` (a
    :class:`MultiCoreRouter`'s per-core FIFO fan-out), ``asic`` (a
    match-action pipeline with constant latency), ``vm`` (a
    :class:`VirtualizedLinuxRouter` behind its hypervisor, replayed
    draw for draw by :class:`_VmStage`).
    """

    kind: str
    nic: Optional[Nic] = None
    post_delay_s: float = 0.0
    device: Optional[object] = None
    ingress: Optional[Nic] = None
    learns_src: bool = False


@dataclass
class DagSpec:
    """A compiled, analytically replayable feed-forward measurement DAG."""

    owner: object
    tx_nic: Nic
    tx_post_delay_s: float
    rx_nic: Nic
    stages: List[StageSpec]
    #: How many runs re-engaged this spec instead of a fresh compile.
    #: Deliberately not a telemetry metric: reuse depends on execution
    #: history (which runs shared a world), and per-run telemetry must
    #: stay a pure function of the run for serial-vs-parallel identity.
    reuse_count: int = 0

    @property
    def devices(self) -> List[object]:
        return [s.device for s in self.stages if s.device is not None]


def _nic_quiescent(nic: Nic) -> bool:
    return not nic._tx_queue and not nic._tx_busy


def _ingress_ready(nic: Nic) -> bool:
    return nic._rx_handler is not None and not nic._rx_backlog


def _device_busy(device) -> Optional[str]:
    """Why ``device`` is not idle and empty, or None when it is."""
    if device.backlog_depth:
        return "backlog not empty at compile time"
    if getattr(device, "paused", False):
        return "paused at compile time"
    if getattr(device, "_busy", False):
        return "busy at compile time"
    core_busy = getattr(device, "_core_busy", None)
    if core_busy and any(core_busy):
        return "a core is busy at compile time"
    return None


def _seeded_fault(device) -> Optional[str]:
    """Why the seeded stage cannot replay ``device``, or None."""
    cls = type(device)
    for name in ("service_time", "_overload_factor"):
        if _defining_class(cls, name) is not VirtualizedLinuxRouter:
            return f"{name} is not VirtualizedLinuxRouter's cost model"
    for name in _SEEDED_QUEUE_METHODS:
        if _defining_class(cls, name) is not ForwardingDevice:
            return f"{name} is not ForwardingDevice's queue"
    if not isinstance(device._rng, random.Random):
        return "service RNG is not a random.Random"
    hypervisors = device.hypervisors
    if len(hypervisors) > 1:
        return f"paused by {len(hypervisors)} hypervisors"
    if hypervisors:
        hypervisor = hypervisors[0]
        kind = type(hypervisor)
        for name in ("_preempt", "_release"):
            if _defining_class(kind, name) is not Hypervisor:
                return f"hypervisor {name} is not Hypervisor's"
        if _defining_class(type(hypervisor._timer), "_fire") is not PeriodicTimer:
            return "hypervisor quantum timer is not a PeriodicTimer"
        if not isinstance(hypervisor._rng, random.Random):
            return "hypervisor RNG is not a random.Random"
        if hypervisor.outstanding:
            return "a hypervisor pause release is outstanding at compile time"
    return None


def compile_dag(moongen) -> Optional[DagSpec]:
    """Discover whether ``moongen``'s traffic path is a replayable DAG.

    Returns the spec, or None — event path — when a hop does not
    qualify; :func:`_compile` returns the reason instead.
    """
    spec = _compile(moongen)
    return spec if isinstance(spec, DagSpec) else None


def _compile(moongen):
    """The compiled :class:`DagSpec`, or the reason it does not compile.

    Walks the wiring hop by hop from the TX port: every link must
    declare a constant carry delay, every device a replay capability,
    every queue must be idle and empty (so the recurrences start from
    the same blank state a fresh run does), and the path must terminate
    at the generator's RX port.  The first hop that does not qualify
    ends the walk with a reason naming the port, link or device and
    the rule.
    """
    tx, rx = moongen.tx_nic, moongen.rx_nic
    if tx is rx:
        return f"{tx.name}: generator transmits and receives on one port"
    if getattr(rx, "rx_owner", None) is not moongen:
        return f"{rx.name}: RX port is not owned by the generator"
    if not _ingress_ready(rx):
        return f"{rx.name}: RX port has no handler or a receive backlog"
    dst_key = moongen.frame(0, MIN_FRAME_SIZE).dst
    stages: List[StageSpec] = []
    seen: set = set()
    nic = tx
    tx_post_delay = None
    for __ in range(_MAX_HOPS):
        if not _nic_quiescent(nic):
            return f"{nic.name}: TX ring busy at compile time"
        delay = _link_delay(nic.link)
        if delay is None:
            return (f"{nic.name}: link {type(nic.link).__name__} declares "
                    f"no constant carry delay")
        try:
            peer = nic.link.peer(nic)
        except Exception:  # noqa: BLE001 - exotic link without a peer
            return f"{nic.name}: link {type(nic.link).__name__} has no peer"
        if tx_post_delay is None:
            tx_post_delay = delay
        else:
            stages.append(StageSpec(kind="serialize", nic=nic, post_delay_s=delay))
        if peer is rx:
            return _finish_compile(moongen, tx, tx_post_delay, rx, stages)
        owner = getattr(peer, "rx_owner", None)
        if owner is None:
            return f"{peer.name}: port feeds no device"
        if id(owner) in seen:
            return f"{peer.name}: path re-enters a device (wiring loop)"
        seen.add(id(owner))
        if not _ingress_ready(peer):
            return f"{peer.name}: ingress has no handler or a receive backlog"
        cls = type(owner)
        name = getattr(owner, "name", cls.__name__)
        capability, why = _device_capability(cls)
        if capability is None:
            return f"{name}: {why}"
        if isinstance(owner, AsicSwitch):
            if _defining_class(cls, "_process") is not AsicSwitch:
                return f"{name}: _process is not AsicSwitch's pipeline"
            if peer not in owner.ports:
                return f"{name}: ingress {peer.name} is not a switch port"
            ingress_index = owner.ports.index(peer)
            egress_index = owner._table.get(dst_key)
            if egress_index is None:
                return f"{name}: no match-action rule for {dst_key}"
            if egress_index == ingress_index:
                return f"{name}: rule for {dst_key} points back at the ingress"
            stages.append(StageSpec(kind="asic", device=owner, ingress=peer))
            nic = owner.ports[egress_index]
        elif isinstance(owner, ForwardingDevice):
            busy = _device_busy(owner)
            if busy is not None:
                return f"{name}: {busy}"
            # The replay kernel models exactly two queueing disciplines
            # and two routing functions; anything else — even if
            # capability-declared — is unknown semantics.
            receive_def = _defining_class(cls, "_on_receive")
            output_def = _defining_class(cls, "output_port")
            if output_def not in (ForwardingDevice, LinuxBridge):
                return f"{name}: output_port is neither a router's nor a bridge's"
            if len(owner.ports) != 2 or peer not in owner.ports:
                return f"{name}: has {len(owner.ports)} ports, the replay needs 2"
            egress = owner.ports[1] if peer is owner.ports[0] else owner.ports[0]
            if capability == "seeded_service":
                fault = _seeded_fault(owner)
                if fault is not None:
                    return f"{name}: {fault}"
                stages.append(StageSpec(kind="vm", device=owner, ingress=peer))
            elif owner.hypervisors:
                return f"{name}: paused by a hypervisor but not seeded_service"
            elif receive_def is ForwardingDevice:
                for method in ("_start_service", "_finish_service"):
                    if _defining_class(cls, method) is not ForwardingDevice:
                        return f"{name}: {method} is not ForwardingDevice's queue"
                stages.append(StageSpec(
                    kind="fifo", device=owner, ingress=peer,
                    learns_src=output_def is LinuxBridge,
                ))
            elif receive_def is MultiCoreRouter:
                for method in ("_start_core", "_finish_core", "core_for"):
                    if _defining_class(cls, method) is not MultiCoreRouter:
                        return f"{name}: {method} is not MultiCoreRouter's"
                stages.append(StageSpec(
                    kind="rss", device=owner, ingress=peer,
                    learns_src=output_def is LinuxBridge,
                ))
            else:
                return f"{name}: _on_receive is an unknown queueing discipline"
            nic = egress
        else:
            return f"{name}: {type(owner).__name__} is not a replayable device"
    return f"{tx.name}: path longer than {_MAX_HOPS} hops"


def _finish_compile(moongen, tx, tx_post_delay, rx, stages):
    """The spec, once every seeded guest's hypervisor stays on the path
    and nothing the replay does not model is scheduled."""
    guests = [s.device for s in stages if s.kind == "vm"]
    on_path = set(map(id, guests))
    for guest in guests:
        for hypervisor in guest.hypervisors:
            for other in hypervisor._guests:
                if id(other) not in on_path:
                    return (f"{guest.name}: its hypervisor also pauses "
                            f"{getattr(other, 'name', other)}, off this path")
    foreign = _foreign_event(moongen, guests)
    if foreign is not None:
        return foreign
    return DagSpec(
        owner=moongen,
        tx_nic=tx,
        tx_post_delay_s=tx_post_delay,
        rx_nic=rx,
        stages=stages,
    )


def _foreign_event(moongen, guests) -> Optional[str]:
    """Why a live simulator event breaks the replay, or None.

    The replay computes a whole run up front from the world as it is
    at the start, so it holds only while nothing but the run itself
    acts on that world until the traffic drains.  It models the job's
    own finish event and the quantum timers of the hypervisors that
    pause its seeded guests; any other live event — a gate flip, a
    link or rule change — is not modelled.  The drain horizon is known
    only after the replay, so such an event refuses the replay however
    late it is due.
    """
    timers = {
        id(hypervisor._timer)
        for guest in guests for hypervisor in guest.hypervisors
    }
    for event in moongen.sim._heap:
        if event.cancelled:
            continue
        callback = event.callback
        owner = getattr(callback, "__self__", None)
        function = getattr(callback, "__func__", None)
        if owner is moongen and function is type(moongen)._finish:
            continue
        if id(owner) in timers and function is PeriodicTimer._fire:
            continue
        name = getattr(callback, "__qualname__", type(callback).__name__)
        return f"simulator: {name} is scheduled, the replay does not model it"
    return None


def _same_dag(cached: DagSpec, fresh: DagSpec) -> bool:
    """Whether a freshly compiled spec matches a cached one structurally."""
    if cached.tx_nic is not fresh.tx_nic or cached.rx_nic is not fresh.rx_nic:
        return False
    if cached.tx_post_delay_s != fresh.tx_post_delay_s:
        return False
    if len(cached.stages) != len(fresh.stages):
        return False
    for a, b in zip(cached.stages, fresh.stages):
        if (
            a.kind != b.kind
            or a.nic is not b.nic
            or a.post_delay_s != b.post_delay_s
            or a.device is not b.device
            or a.ingress is not b.ingress
            or a.learns_src != b.learns_src
        ):
            return False
    return True


def acquire_dag(moongen) -> Optional[DagSpec]:
    """Cached spec when the topology is unchanged, else a fresh compile.

    The compile walk re-runs every time (it doubles as the quiescence
    and eligibility re-verification — a re-wired link, a changed
    match-action rule or a busy queue all surface there), but when the
    result matches the cached spec structurally the *cached* spec is
    returned, so every run of a rate x size sweep after the first
    replays through the same stage table.  ``DagSpec.reuse_count``
    counts the engagements.
    """
    fresh = _compile(moongen)
    if not isinstance(fresh, DagSpec):
        moongen._dag_spec = None
        moongen._dag_fallback = fresh
        return None
    spec = getattr(moongen, "_dag_spec", None)
    if spec is not None and spec.owner is moongen and _same_dag(spec, fresh):
        spec.reuse_count += 1
        return spec
    moongen._dag_spec = fresh
    return fresh


def run_batched(moongen, job, spec: DagSpec) -> None:
    """Replay one whole measurement job through ``spec`` stage by stage.

    Mutates ``job`` (counters, intervals, latency samples,
    ``drain_horizon_s``) and every stage's statistics exactly as the
    event path would have after the run fully drained.  Called by
    ``MoonGen.start`` right after the job state was initialized; the
    job's finish event stays scheduled, so overlap detection and
    ``finished`` timing are unchanged.

    Telemetry is strictly O(1) per batch — one counter and one span —
    so the replay passes themselves carry zero instrumentation.
    """
    collector = _telemetry.current()
    if collector is None:
        _replay_dag(moongen, job, spec)
        return
    collector.count("fastpath.batches")
    span = collector.begin(
        "fastpath.batch", rate_pps=job.rate_pps, frame_size=job.frame_size,
        stages=len(spec.stages) + 1,
    )
    try:
        _replay_dag(moongen, job, spec)
    finally:
        collector.finish(span)


#: Sends per block.  A stage pass builds columns of at most one block
#: (an RSS stage adds the completions it holds back), which bounds a
#: run's working memory independently of its packet count.
_BLOCK = 4096

#: A stage whose service time is within this relative band of its
#: nominal input spacing is replayed as critical (max-plus recurrence).
_CRITICAL_BAND = 1e-3


class _Queue:
    """A single-server FIFO with a bounded ring, carried across blocks.

    ``pops_at_start`` selects when a ring slot frees: a NIC TX ring
    frees it when its frame starts serializing, a device backlog when
    service completes.  ``tail`` holds the ring pop times of the last
    (at most ``cap``) admitted frames; any older pop time is no later
    than every arrival still to come, so it can never refuse one.
    ``post`` is the constant delay added to each departure (the wire
    after a NIC).
    """

    __slots__ = ("service", "cap", "post", "pops_at_start", "regimes",
                 "free", "tail")

    def __init__(self, service: float, cap: int, post: float,
                 pops_at_start: bool, spacing: float):
        self.service = service
        self.cap = cap
        self.post = post
        self.pops_at_start = pops_at_start
        self.free = -1.0
        self.tail: List[float] = []
        if cap < 1:
            self.regimes = ()
        elif service < spacing * (1.0 - _CRITICAL_BAND):
            self.regimes = (_underloaded, _critical, _saturated)
        elif service <= spacing * (1.0 + _CRITICAL_BAND):
            self.regimes = (_critical, _saturated)
        else:
            self.regimes = (_saturated,)

    def feed(self, arrivals: List[float]):
        """Serve one block of sorted arrivals.

        Returns ``(departures, admitted)``: ``admitted`` lists the
        positions in ``arrivals`` of the frames that entered the ring,
        or is None when every frame did.
        """
        for regime in self.regimes:
            served = regime(self, arrivals)
            if served is not None:
                return served
        return _queue_loop(self, arrivals)

    def commit(self, pops: List[float], free: float) -> None:
        cap = self.cap
        if len(pops) >= cap:
            self.tail = pops[-cap:]
        else:
            self.tail = (self.tail + pops)[-cap:]
        self.free = free

    def depart(self, finish: List[float]) -> List[float]:
        post = self.post
        if not post:
            return finish
        return [f + post for f in finish]


def _underloaded(q: _Queue, A: List[float]):
    """Every frame finds the server idle: departures are ``a + s``."""
    if A[0] < q.free:
        return None
    s = q.service
    F = [a + s for a in A]
    if not all(map(ge, islice(A, 1, None), F)):
        return None
    # An idle server at every arrival leaves no earlier pop pending.
    q.commit(A if q.pops_at_start else F, F[-1])
    return q.depart(F), None


def _critical(q: _Queue, A: List[float]):
    """No frame is dropped: the max-plus recurrence as one accumulate.

    While every frame arrives no later than its predecessor completes,
    the recurrence is the plain ``+ s`` chain, which runs without a
    Python call per frame; a block the chain does not cover takes the
    recurrence.
    """
    s = q.service
    a0 = A[0]
    free = q.free
    first = a0 if a0 >= free else free
    C = list(accumulate(repeat(s, len(A)), initial=first))
    if all(map(le, islice(A, 1, None), islice(C, 1, None))):
        F = C[1:]
        P = C[:-1] if q.pops_at_start else F
    elif q.pops_at_start:
        S = list(accumulate(
            islice(A, 1, None), lambda st, a: a if a >= (f := st + s) else f,
            initial=first,
        ))
        F = [x + s for x in S]
        P = S
    else:
        F = list(accumulate(
            islice(A, 1, None), lambda f, a: (a if a >= f else f) + s,
            initial=first + s,
        ))
        P = F
    # Frame i is admitted iff the pop cap frames before it happened by
    # its arrival; with every frame admitted that is tail + P, shifted.
    if not all(map(le, chain(q.tail, P), islice(A, q.cap - len(q.tail), None))):
        return None
    q.commit(P, F[-1])
    return q.depart(F), None


class _Admitted:
    """The frames a saturated block admitted, held as a count.

    Built by :func:`_implicit` once the block proved that the k-th
    admission is arrival ``max(k, bisect_left(A, pops[k - k0]))``:
    :meth:`count` answers how many of arrivals ``[0, i)`` entered the
    ring with one bisect, :meth:`sends` lists them (one bisect each).
    """

    __slots__ = ("A", "pops", "k0", "K")

    def __init__(self, A: List[float], pops: List[float], k0: int, K: int):
        self.A = A
        self.pops = pops
        self.k0 = k0
        self.K = K

    def count(self, i: int) -> int:
        if not i:
            return 0
        return min(i, self.K, self.k0 + bisect_right(self.pops, self.A[i - 1]))

    def sends(self, base: int = 0) -> List[int]:
        """The admitted positions, shifted by ``base``."""
        K = self.K
        k0 = min(self.k0, K)
        idx = list(range(k0))
        idx += map(max, range(k0, K),
                   map(bisect_left, repeat(self.A), self.pops[:K - k0]))
        return [base + i for i in idx] if base else idx


def _implicit(q: _Queue, A: List[float], F: List[float], pops: List[float],
              k0: int) -> Optional[_Admitted]:
    """The block's admissions as an :class:`_Admitted`, when provable.

    The k-th admission is the first arrival after admission ``k - 1``
    at or after ``pops[k - k0]`` (``b[k - k0]``, by bisect).  When every
    ring-pop interval ``[pops[j], pops[j + 1])`` holds an arrival, ``b``
    grows strictly and that is ``max(k, b[k - k0])``: no running max,
    and the admissions among arrivals ``[0, i)`` number
    ``min(i, K, k0 + bisect_right(pops, A[i - 1]))``.  Proof:

    * every arrival gap is below ``s - ulp(F[-1])``, and every pop gap
      of a FIFO with service ``s`` is at least ``s - ulp(F[-1]) / 2``
      (a pop follows the previous one by a rounded ``+ s`` no later
      than ``F[-1]``), so an arrival follows the last one before a pop
      by less than the gap to the next pop;
    * no pop of ``pops`` falls before ``A[0]`` except ``P[0]`` when the
      tail is empty (:func:`_saturated` drops the expired ones), so the
      first interval holds ``A[0]``;
    * the busy premise follows from the same bound: a frame admitted
      at ``b[j]`` arrives before ``pops[j + 1]``, which with ``cap >= 2``
      is no later than its predecessor's completion, and a frame
      admitted right after its predecessor arrives less than one chain
      step after it;
    * only the first ``k0`` free-slot admissions are checked one by one.
    """
    br = bisect_right(pops, A[-1])
    K = min(len(A), k0 + br)
    if q.cap < 2 or br == len(pops) or K > len(F):
        return None
    if not all(map(le, islice(A, 1, min(k0, K)), F)):
        return None
    if max(map(sub, A[1:], A), default=0.0) >= q.service - math.ulp(F[-1]):
        return None
    return _Admitted(A, pops, k0, K)


def _saturated(q: _Queue, A: List[float], bounded: bool = True):
    """The server stays busy: completions form one ``+ s`` chain.

    With the chain known, ring admission decouples from service: the
    k-th admitted frame is the first arrival after the ring pop
    ``cap`` admissions earlier, ``(tail + P)[k - k0]`` with
    ``k0 = cap - len(tail)``.  When :func:`_implicit` proves the
    admissions, they stay a count; otherwise their positions are
    ``k + running max(bisect(A, pop) - k)`` and the busy premise is
    checked on the admitted frames.
    """
    s = q.service
    tail = q.tail
    n = len(A)
    # A pop at or before the first arrival has freed its slot already.
    expired = bisect_right(tail, A[0])
    if expired:
        tail = tail[expired:]
    k0 = q.cap - len(tail)
    i0 = bisect_left(A, tail[0]) if k0 == 0 else 0
    if i0 == n:
        # The ring stays full through the whole block.
        return [], []
    a = A[i0]
    free = q.free
    start = a if a >= free else free
    most = n - i0
    if bounded:
        # The k-th admission needs an arrival at or after P[k - cap],
        # which the chain pushes past the block's last arrival.
        most = min(most, q.cap + max(0, int((A[-1] - start) / s)) + 3)
    F = list(accumulate(repeat(s, most - 1), initial=start + s))
    P = [start] + F[:-1] if q.pops_at_start else F
    if most == n and all(map(le, chain(tail, P), islice(A, k0, None))):
        idx = None
        K = n
        busy = all(map(le, islice(A, 1, None), F))
    elif (idx := _implicit(q, A, F, tail + P, k0)) is not None:
        K = idx.K
        busy = True
    else:
        pops = (tail + P)[:max(most - k0, 0)]
        terms = list(map(sub, map(bisect_left, repeat(A), pops),
                         range(k0, most)))
        if all(map(le, terms, islice(terms, 1, None))):
            zero = bisect_left(terms, 0)
            if zero:
                terms[:zero] = repeat(0, zero)
        else:
            terms = list(accumulate(terms, max, initial=0))
            del terms[0]
        idx = list(range(min(k0, most)))
        idx += map(add, terms, range(k0, most))
        K = bisect_left(idx, n)
        if K == most and most < n - i0:
            return _saturated(q, A, bounded=False)
        del idx[K:]
        busy = all(map(le, map(A.__getitem__, islice(idx, 1, None)), F))
    if not busy:
        return None
    del F[K:]
    q.commit(P[:K], F[-1])
    return q.depart(F), idx


def _queue_loop(q: _Queue, A: List[float]):
    """The per-packet recurrence, for blocks no regime verifies."""
    s = q.service
    cap = q.cap
    at_start = q.pops_at_start
    free = q.free
    pops = deque(q.tail)
    F: List[float] = []
    idx: List[int] = []
    for i, a in enumerate(A):
        while pops and pops[0] <= a:
            pops.popleft()
        if len(pops) >= cap:
            continue
        start = a if a >= free else free
        free = start + s
        pops.append(start if at_start else free)
        F.append(free)
        idx.append(i)
    q.free = free
    q.tail = list(pops)
    return q.depart(F), (None if len(idx) == len(A) else idx)


def _sends(G, base: int, n: int):
    """The send index of each of a block's ``n`` arrivals, in order.

    ``G`` is None (sends ``base, base + 1, ...``), a sorted list of send
    indices, or an :class:`_Admitted` over the block's sends, which is
    listed here at the cost of one bisect per frame.
    """
    if G is None:
        return range(base, base + n)
    if type(G) is _Admitted:
        return G.sends(base)
    return G


def _kept(G, base: int, i: int) -> int:
    """How many of the block's sends ``base .. base + i - 1`` are in ``G``."""
    if type(G) is _Admitted:
        return G.count(i)
    return bisect_left(G, base + i)


def _survivors(G, idx, base: int):
    """Send indices of the frames a stage admitted (None: all of G).

    An implicit admission stays implicit while it is the only one; a
    second dropping stage lists both.
    """
    if idx is None:
        return G
    if type(idx) is _Admitted:
        if G is None:
            return idx
        idx = idx.sends()
    if G is None:
        return [base + i for i in idx]
    if type(G) is _Admitted:
        G = G.sends(base)
    return [G[i] for i in idx]


def _ingress(stage: StageSpec, n: int, frame: int) -> None:
    stats = stage.ingress.stats
    stats.rx_packets += n
    stats.rx_bytes += n * frame


class _NicStage:
    """A NIC's TX ring and serializer (the generator's own, or egress)."""

    def __init__(self, nic: Nic, post: float, bits: int, frame: int,
                 spacing: float):
        self.stats = nic.stats
        self.frame = frame
        self.queue = _Queue(bits / nic.line_rate_bps, nic.tx_ring_size,
                            post, True, spacing)
        #: Nominal spacing of the departures, which the next stage sees.
        self.spacing_out = max(spacing, self.queue.service)

    def feed(self, A, G, base):
        out, idx = self.queue.feed(A)
        sent = len(out)
        stats = self.stats
        stats.tx_dropped += len(A) - sent
        stats.tx_packets += sent
        stats.tx_bytes += sent * self.frame
        return out, _survivors(G, idx, base)


class _FifoStage:
    """A single-server :class:`ForwardingDevice` backlog."""

    def __init__(self, stage: StageSpec, probe: Packet, frame: int,
                 spacing: float):
        device = stage.device
        self.device = device
        self.stage = stage
        self.src = probe.src
        self.frame = frame
        self.gate_open = device.gate() if device.gate is not None else True
        self.queue = _Queue(device.service_time(probe), device.backlog_limit,
                            0.0, False, spacing)
        self.spacing_out = max(spacing, self.queue.service)

    def feed(self, A, G, base):
        n = len(A)
        stage = self.stage
        _ingress(stage, n, self.frame)
        stats = self.device.stats
        stats.received += n
        if not self.gate_open:
            stats.backlog_dropped += n
            return [], None
        out, idx = self.queue.feed(A)
        stats.backlog_dropped += n - len(out)
        stats.forwarded += len(out)
        if stage.learns_src and out and self.src:
            # The bridge learns src -> ingress the first time a frame
            # reaches output_port; idempotent for a single-flow batch.
            self.device._fdb[self.src] = stage.ingress
        return out, _survivors(G, idx, base)


class _AsicStage:
    """A match-action pipeline: a constant latency, no queue.

    The compiler only admits a switch whose table steers our flow to a
    fixed egress distinct from the ingress, so every frame matches.
    """

    def __init__(self, stage: StageSpec, frame: int, spacing: float):
        self.stage = stage
        self.frame = frame
        self.spacing_out = spacing

    def feed(self, A, G, base):
        n = len(A)
        _ingress(self.stage, n, self.frame)
        self.stage.device.matched += n
        return [a + PIPELINE_LATENCY_S for a in A], G


class _RssStage:
    """A multi-core RSS device: per-core FIFOs merged back in order.

    Frames are steered to ``flow % cores`` and serviced per-core FIFO
    in a per-packet body; completions are merged back into egress
    arrival order on (completion, service start, arrival index): at
    equal completion times the service that *started* earlier
    scheduled its finish event earlier and therefore wins the event
    heap's sequence tie.  A frame of a later block completes no earlier
    than this block's last arrival plus one service time, so only
    completions before that are released; the rest are held for the
    next block (or :meth:`flush`).
    """

    def __init__(self, stage: StageSpec, probe: Packet, frame: int,
                 spacing: float, seq0: int, flows: int):
        device = stage.device
        self.device = device
        self.stage = stage
        self.src = probe.src
        self.frame = frame
        self.seq0 = seq0
        self.flows = flows
        self.gate_open = device.gate() if device.gate is not None else True
        self.service = device.service_time(probe)
        self.free = [-1.0] * device.cores
        self.pops = [deque() for __ in range(device.cores)]
        self.arrived = 0
        self.held: list = []
        self.spacing_out = max(spacing, self.service / device.cores)

    def feed(self, A, G, base):
        n = len(A)
        stage = self.stage
        device = self.device
        _ingress(stage, n, self.frame)
        stats = device.stats
        stats.received += n
        if not self.gate_open:
            stats.backlog_dropped += n
            return [], None
        cores = device.cores
        service = self.service
        limit = device.backlog_limit
        per_core_forwarded = device.per_core_forwarded
        seq0 = self.seq0
        flows = self.flows
        free = self.free
        pops = self.pops
        out = self.held
        held = len(out)
        key = self.arrived
        for a, g in zip(A, _sends(G, base, n)):
            key += 1
            core = (seq0 + g) % flows % cores
            cpops = pops[core]
            while cpops and cpops[0] <= a:
                cpops.popleft()
            if len(cpops) >= limit:
                stats.backlog_dropped += 1
                continue
            begin = a if a >= free[core] else free[core]
            done = begin + service
            cpops.append(done)
            free[core] = done
            stats.forwarded += 1
            per_core_forwarded[core] += 1
            out.append((done, begin, key, g))
        self.arrived = key
        out.sort()
        if stage.learns_src and len(out) > held and self.src:
            device._fdb[self.src] = stage.ingress
        cut = bisect_left(out, (A[-1] + service,))
        self.held = out[cut:]
        return [x[0] for x in out[:cut]], [x[3] for x in out[:cut]]

    def flush(self):
        out = self.held
        self.held = []
        return [x[0] for x in out], [x[3] for x in out]


def _before(t1: float, s1: float, t2: float, s2: float) -> bool:
    """Whether an event due at ``t1``, scheduled at ``s1``, runs before
    one due at ``t2``, scheduled at ``s2`` (see :class:`_VmStage`)."""
    if t1 != t2:
        return t1 < t2
    if s1 != s2:
        return s1 < s2
    raise SimulationError(
        f"seeded VM replay: two events due at t={t1!r} were both "
        f"scheduled at t={s1!r}; their heap order is not modelled "
        f"(replay this run with POS_NETSIM_BATCH=0)"
    )


class _VmStage:
    """A :class:`VirtualizedLinuxRouter` behind its :class:`Hypervisor`.

    One per-packet loop runs the guest's four event kinds — frame
    arrivals, service completions, quantum fires and pause releases —
    in the event heap's order and makes the event path's RNG draws in
    the event path's order:

    * each service start draws one ``gauss`` from the router's own
      ``_rng`` (consumed in place, so it ends in the event path's
      state), plus the ``_overload_factor`` epoch draws when the
      backlog, counting the frame entering service, reaches
      ``overload_backlog`` and the start time has reached
      ``_epoch_end``;
    * each quantum fire draws one ``expovariate`` pause from a *copy*
      of the hypervisor's ``_rng`` (``copy.copy``: its
      ``getstate``/``setstate``).  Fires accumulate ``t + interval``
      from the timer's pending event, a release is due at ``fire +
      pause``.  Pauses do not depend on the traffic, and the real timer
      keeps firing in ``sim.run``, so the hypervisor's own counters and
      generator advance exactly as on the event path;
    * :class:`ForwardingDevice` semantics: a pause never stretches a
      service that has started, a completion while paused stops the
      server, a release restarts it only on a non-empty backlog, and
      any release ends the pause (overlapping pauses end at the first
      release after the latest fire).

    Equal-time ties follow the heap's ``(time, seq)`` order, and
    sequence numbers grow with the instant an event was *scheduled*: of
    two events due at one instant, the one scheduled earlier runs
    first.  An arrival is scheduled when the ingress NIC finishes
    serializing the frame (``wire`` before it is due), a completion
    when its service started, a fire at the previous fire (the pending
    first fire before the job started, so before every frame event), a
    release at its fire.  Hence:

    * a fire landing on a completion runs first whenever the service
      started after the previous fire (any service shorter than a
      quantum): the completion finds the guest paused and stops;
    * a release landing on an arrival runs first whenever the frame
      finished serializing after the pausing fire: a waiting backlog
      head starts service before the arrival joins the backlog;
    * a release landing on the next fire (a pause exactly one quantum
      long) runs first, because the fire's callback scheduled the
      release before re-arming the timer: the guest resumes, may start
      a service the fire then cannot stretch, and pauses again.

    Two events due at one instant *and* scheduled at one instant would
    need the heap's insertion order within that instant, which the loop
    does not track.  With seeded draws that takes two random durations
    to coincide exactly — a zero-length pause, a service time equal to
    the ingress wire delay, or a service started at a fire lasting
    exactly a pause or a quantum — and :func:`_before` raises
    :class:`SimulationError` rather than guessing.
    """

    def __init__(self, stage: StageSpec, frame: int, spacing: float,
                 wire: float):
        device = stage.device
        self.device = device
        self.stage = stage
        self.frame = frame
        self.wire = wire
        self.gate_open = device.gate() if device.gate is not None else True
        self.mean = device.base_cost_s + device.per_byte_s * frame
        self.backlog: deque = deque()
        self.busy = False
        self.paused = False
        self.done = 0.0
        self.began = 0.0
        #: The last frame event the loop replayed (an arrival's).
        self.horizon = -math.inf
        self.spacing_out = max(spacing, self.mean)
        #: Pending hypervisor events ``(due, scheduled, kind)``; kind 0
        #: is a release, 1 a fire, so a release wins a full tie.
        self.hyp: list = []
        if device.hypervisors:
            hypervisor = device.hypervisors[0]
            timer = hypervisor._timer
            event = timer._event
            if not timer._stopped and event is not None and not event.cancelled:
                self.hyp.append((event.time, -math.inf, 1))
            self.pauses = copy.copy(hypervisor._rng)
            self.pause_rate = 1.0 / hypervisor.pause_mean_s
            self.quantum = timer._interval

    def _start(self, t: float) -> None:
        """Serve the backlog head from ``t``: ``service_time``'s draws."""
        device = self.device
        rng = device._rng
        factor = math.exp(rng.gauss(0.0, device.calm_sigma))
        if len(self.backlog) >= device.overload_backlog:
            if t >= device._epoch_end:
                device._epoch_factor = math.exp(
                    abs(rng.gauss(0.0, device.overload_sigma)))
                device._epoch_end = t + rng.uniform(
                    device.EPOCH_MIN_S, device.EPOCH_MAX_S)
            factor *= device._epoch_factor
        self.busy = True
        self.began = t
        self.done = t + self.mean * factor

    def _step(self, out, sent, a: float = math.inf, f: float = math.inf) -> bool:
        """Run the next completion or hypervisor event if it precedes an
        arrival due at ``a`` (scheduled at ``f``); False when none does."""
        hyp = self.hyp
        if self.busy and (not hyp or _before(self.done, self.began, *hyp[0][:2])):
            t = self.done
            if not _before(t, self.began, a, f):
                return False
            sent.append(self.backlog.popleft())
            out.append(t)
            if self.paused or not self.backlog:
                self.busy = False
            else:
                self._start(t)
            return True
        if not hyp or not _before(hyp[0][0], hyp[0][1], a, f):
            return False
        t, __, fire = heappop(hyp)
        if fire:
            pause = self.pauses.expovariate(self.pause_rate)
            self.paused = True
            heappush(hyp, (t + pause, t, 0))
            heappush(hyp, (t + self.quantum, t, 1))
        elif self.paused:
            self.paused = False
            if not self.busy and self.backlog:
                self._start(t)
        return True

    def feed(self, A, G, base):
        """Serve arrivals whose ingress serialization ended at ``A``.

        Returns the completions that precede the block's last arrival;
        later ones wait for the next block (or :meth:`flush`), because
        a later arrival can still change the backlog they start with.
        """
        n = len(A)
        _ingress(self.stage, n, self.frame)
        stats = self.device.stats
        stats.received += n
        wire = self.wire
        self.horizon = A[-1] + wire
        if not self.gate_open:
            stats.backlog_dropped += n
            return [], None
        out: List[float] = []
        sent: List[int] = []
        backlog = self.backlog
        limit = self.device.backlog_limit
        step = self._step
        for f, g in zip(A, _sends(G, base, n)):
            a = f + wire
            while step(out, sent, a, f):
                pass
            if len(backlog) >= limit:
                stats.backlog_dropped += 1
                continue
            backlog.append(g)
            if not self.busy and not self.paused:
                self._start(a)
        stats.forwarded += len(out)
        return out, sent

    def flush(self):
        """Drain the backlog once the sends ran out."""
        out: List[float] = []
        sent: List[int] = []
        while self.backlog and self._step(out, sent):
            pass
        self.device.stats.forwarded += len(out)
        return out, sent


def _interval_counts(counts: List[int], bounds: List[float],
                     times: List[float], total: int,
                     G=None, base: int = 0) -> None:
    """Add a block's counted events to the per-interval ``counts``.

    ``times`` is sorted; an event at ``t`` belongs to interval
    ``bisect_right(bounds, t)``.  With ``G`` only the sends whose index
    is in ``G`` count (``total`` of them), otherwise every time does.
    """
    lo = bisect_right(bounds, times[0])
    hi = bisect_right(bounds, times[-1])
    done = 0
    for j in range(lo, hi):
        upto = bisect_left(times, bounds[j])
        if G is not None:
            upto = _kept(G, base, upto)
        counts[j] += upto - done
        done = upto
    counts[hi] += total - done


class _Replay:
    """One job's replay: the stage pipeline, its RX sink and counters.

    Interval attribution.  The event path rolls one shared boundary
    cursor in global time order, so attribution is a pure function of
    an event's time: an event at ``t`` belongs to interval
    ``bisect_right(bounds, t)``.  The boundaries accumulate
    ``+= interval_s`` like the cursor does; ``cursor`` appends the
    cursor's state once it passed the deadline.
    """

    def __init__(self, moongen, job, spec: DagSpec):
        self.job = job
        self.deadline = deadline = moongen._deadline
        self.every = moongen.latency_sample_every
        self.seq0 = seq0 = moongen._seq
        #: Send ``g`` of this job is timestamped iff ``g % every ==
        #: first`` (its sequence number is a multiple of ``every``).
        self.first = (-seq0) % self.every
        frame = job.frame_size
        self.frame = frame
        self.gap = gap = 1.0 / job.rate_pps

        bounds: List[float] = []
        boundary = moongen._next_interval_end
        while boundary <= deadline:
            bounds.append(boundary)
            boundary += job.interval_s
        self.bounds = bounds
        self.cursor = bounds + [boundary]
        self.tx_counts = [0] * len(self.cursor)
        self.rx_counts = [0] * len(self.cursor)

        # Nominal spacing entering each stage picks its regime.
        bits = wire_bits(frame)
        probe = moongen.frame(0, frame)
        self.stages = [_NicStage(spec.tx_nic, spec.tx_post_delay_s, bits,
                                 frame, gap)]
        spacing = self.stages[0].spacing_out
        for stage in spec.stages:
            kind = stage.kind
            if kind == "serialize":
                nxt = _NicStage(stage.nic, stage.post_delay_s, bits, frame,
                                spacing)
            elif kind == "fifo":
                nxt = _FifoStage(stage, probe, frame, spacing)
            elif kind == "rss":
                nxt = _RssStage(stage, probe, frame, spacing, seq0, job.flows)
            elif kind == "vm":
                # The guest orders ties by the instant the ingress NIC
                # finished serializing, so it adds the wire itself.
                upstream = self.stages[-1].queue
                nxt = _VmStage(stage, frame, spacing, upstream.post)
                upstream.post = 0.0
            else:
                nxt = _AsicStage(stage, frame, spacing)
            self.stages.append(nxt)
            spacing = nxt.spacing_out
        #: Stages that hold frames back across blocks: a block's
        #: departures can then belong to sends of earlier blocks.
        self.holding = [st for st in self.stages if hasattr(st, "flush")]

        self.rx_stats = spec.rx_nic.stats
        #: Send times of the timestamped frames by sample number; only
        #: kept when a stage releases frames across blocks.
        self.stamps: List[float] = []
        self.T: List[float] = []
        self.base = 0
        self.admitted = 0
        self.received = 0
        self.last_rx: Optional[float] = None
        self.horizon = moongen.sim.now

    def send_block(self, T: List[float], base: int) -> None:
        """Replay sends ``base, base + 1, ...`` at times ``T``."""
        self.T = T
        self.base = base
        if self.holding and self.job.timestamping:
            self.stamps.extend(T[(self.first - base) % self.every::self.every])
        self.horizon = max(self.horizon, T[-1])
        A, G = self.stages[0].feed(T, None, base)
        if A:
            self.admitted += len(A)
            _interval_counts(self.tx_counts, self.bounds, T, len(A), G, base)
            self.push(A, G, 1)

    def push(self, A, G, position: int) -> None:
        """Feed non-empty sorted arrivals ``A`` (sends ``G``) from a stage on."""
        for stage in self.stages[position:]:
            self.horizon = max(self.horizon, A[-1])
            A, G = stage.feed(A, G, self.base)
            if not A:
                return
        self.horizon = max(self.horizon, A[-1])
        self.receive(A, G)

    def receive(self, D: List[float], G: Optional[List[int]]) -> None:
        """The RX sink: count arrivals before the deadline, take samples."""
        frame = self.frame
        self.rx_stats.rx_packets += len(D)
        self.rx_stats.rx_bytes += len(D) * frame
        c = bisect_left(D, self.deadline)
        if not c:
            return
        self.received += c
        self.last_rx = D[c - 1]
        _interval_counts(self.rx_counts, self.bounds, D[:c], c)
        if not self.job.timestamping:
            return
        every = self.every
        first = self.first
        samples = self.job.latency_samples_s
        T = self.T
        base = self.base
        if G is None:
            # Every send of the block came back, in send order.
            k = (first - base) % every
            samples.extend(map(sub, D[k:c:every], T[k:c:every]))
        elif self.holding:
            stamps = self.stamps
            samples.extend([
                d - stamps[(g - first) // every]
                for d, g in zip(D[:c], G) if (g - first) % every == 0
            ])
        else:
            # This block's survivors, in send order: look each
            # timestamped send up instead of scanning every frame.
            for i in range((first - base) % every, len(T), every):
                k = _kept(G, base, i)
                if k < c and _kept(G, base, i + 1) > k:
                    samples.append(D[k] - T[i])

    def flush(self) -> None:
        """Release what stages held back once the sends ran out."""
        for position, stage in enumerate(self.stages):
            if stage in self.holding:
                A, G = stage.flush()
                if A:
                    self.push(A, G, position + 1)

    def finish(self, moongen, sent: int, last_send: float) -> None:
        job = self.job
        frame = self.frame
        moongen._seq = self.seq0 + sent
        job.tx_packets += self.admitted
        job.tx_bytes += self.admitted * frame
        job.rx_packets += self.received
        job.rx_bytes += self.received * frame
        job.drain_horizon_s = max([self.horizon] + [
            st.horizon for st in self.stages if isinstance(st, _VmStage)])
        # Create the intervals the cursor rolled into and leave the
        # shared roll state where the last (latest-time) counted event
        # left it.
        bounds = self.bounds
        last = bisect_right(bounds, last_send)
        if self.last_rx is not None:
            last = max(last, bisect_right(bounds, self.last_rx))
        intervals = job.intervals
        for q in range(last + 1 - len(intervals)):
            intervals.append(IntervalStats(start=self.cursor[q]))
        for k in range(last + 1):
            stats = intervals[k]
            stats.tx_packets += self.tx_counts[k]
            stats.tx_bytes += self.tx_counts[k] * frame
            stats.rx_packets += self.rx_counts[k]
            stats.rx_bytes += self.rx_counts[k] * frame
        moongen._interval = intervals[last]
        moongen._next_interval_end = self.cursor[last]


def _replay_dag(moongen, job, spec: DagSpec) -> None:
    replay = _Replay(moongen, job, spec)
    deadline = replay.deadline
    gap = replay.gap
    rate = job.rate_pps
    poisson = job.pattern == "poisson"
    expovariate = moongen._rng.expovariate
    t = moongen.sim.now
    sent = 0
    last_send = t
    while t < deadline:
        if poisson:
            # One draw per send, after the send, like the event chain.
            T = []
            append = T.append
            for __ in repeat(None, _BLOCK):
                if t >= deadline:
                    break
                append(t)
                t = t + expovariate(rate)
        else:
            size = min(_BLOCK, int((deadline - t) / gap) + 2)
            T = list(accumulate(repeat(gap, size - 1), initial=t))
            cut = bisect_left(T, deadline)
            if cut < size:
                del T[cut:]
                t = deadline
            else:
                t = T[-1] + gap
        replay.send_block(T, sent)
        sent += len(T)
        last_send = T[-1]
    replay.flush()
    replay.finish(moongen, sent, last_send)
