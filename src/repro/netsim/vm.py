"""Virtualization overlay: the vpos performance model.

The paper's vpos runs the experiment hosts as KVM guests pinned to
fixed cores, connected through Linux bridges.  Two mechanisms dominate
guest packet-forwarding performance and we model both:

* **Per-packet virtualization cost.**  Every forwarded packet pays for
  VM exits, vhost notification and the extra copy between guest and
  host.  Calibrated so the drop-free forwarding ceiling lands around
  0.04 Mpps *independent of frame size* — the headline observation of
  Fig. 3b.
* **Hypervisor preemption and overload instability.**  Even pinned
  vCPUs are occasionally preempted by host housekeeping, and once the
  guest is overloaded its service times degrade unpredictably (IRQ
  storms, cache thrash).  Below the ceiling the backlog absorbs the
  pauses, so throughput is stable; above it the combination produces
  the erratic, size-dependent throughput the paper reports ("beyond
  0.04 Mpps, the forwarding performance becomes unstable").
"""

from __future__ import annotations

import math
import random
from typing import List


from repro.netsim.engine import PeriodicTimer, Simulator
from repro.netsim.packet import Packet
from repro.netsim.router import ForwardingDevice, LinuxRouter

__all__ = ["Hypervisor", "VirtualizedLinuxRouter", "VM_PROFILE"]

#: Calibrated against Fig. 3b: ~21 us of virtualization cost per packet
#: (≈48 kpps calm capacity) plus a small copy cost keeps the measured
#: 0.04 Mpps sweep point drop-free for both frame sizes while anything
#: above it overloads the guest — matching "forwards packets without
#: drops at a maximum rate of 0.04 Mpps, regardless of the packet size"
#: and the factor-44 gap to the 1.75 Mpps bare-metal ceiling.
VM_PROFILE = {
    "base_cost_s": 21.0e-6,
    "per_byte_s": 1.0e-9,
    "overload_backlog": 64,
    "overload_sigma": 0.55,
    "calm_sigma": 0.03,
}


class Hypervisor:
    """Periodic vCPU preemption for a set of guest devices.

    Every scheduling ``quantum`` the hypervisor may steal the vCPU for an
    exponentially distributed pause.  With pinned cores (the vpos setup)
    the pauses are short but non-zero.
    """

    def __init__(
        self,
        sim: Simulator,
        quantum_s: float = 4e-3,
        pause_mean_s: float = 120e-6,
        seed: int = 0,
    ):
        self.sim = sim
        self.quantum_s = quantum_s
        self.pause_mean_s = pause_mean_s
        self._rng = random.Random(seed)
        self._guests: List[ForwardingDevice] = []
        self._timer = PeriodicTimer(sim, quantum_s, self._preempt)
        self.preemptions = 0
        self.total_stolen_s = 0.0
        #: Pauses whose release has not fired yet.
        self.outstanding = 0

    def attach(self, guest: ForwardingDevice) -> None:
        """Register a guest device whose vCPU this hypervisor schedules."""
        self._guests.append(guest)
        guest.hypervisors.append(self)

    def stop(self) -> None:
        """Stop scheduling (end of simulation)."""
        self._timer.stop()

    def reseed(self, seed: int) -> None:
        """Restart preemption from a fresh seed and a fresh timer phase.

        Run isolation hook: cancels the current quantum timer (whose
        phase encodes execution history), resumes any paused guest, and
        restarts scheduling aligned to the current simulation time, so
        the preemption pattern of a run depends only on its seed and its
        start epoch.
        """
        self._rng = random.Random(seed)
        self._timer.stop()
        for guest in self._guests:
            guest.resume()
        self._timer = PeriodicTimer(self.sim, self.quantum_s, self._preempt)

    def _preempt(self) -> None:
        if not self._guests:
            return
        pause = self._rng.expovariate(1.0 / self.pause_mean_s)
        self.preemptions += 1
        self.total_stolen_s += pause
        self.outstanding += 1
        for guest in self._guests:
            guest.pause()
        self.sim.schedule(pause, self._release)

    def _release(self) -> None:
        self.outstanding -= 1
        for guest in self._guests:
            guest.resume()


class VirtualizedLinuxRouter(LinuxRouter):
    """Linux router running inside a KVM guest.

    Service times follow a lognormal distribution whose spread depends on
    the backlog: calm while the guest keeps up, erratic once overloaded.
    """

    #: Stochastic service times: no closed-form replay ...
    deterministic_service = False
    #: ... but every draw comes from the seeded ``_rng`` in a fixed
    #: order, once per service start, so the fast path replays the
    #: guest (and its hypervisor's pauses) draw for draw.
    seeded_service = True

    def __init__(
        self,
        sim: Simulator,
        name: str = "vdut",
        base_cost_s: float = VM_PROFILE["base_cost_s"],
        per_byte_s: float = VM_PROFILE["per_byte_s"],
        overload_backlog: int = VM_PROFILE["overload_backlog"],
        overload_sigma: float = VM_PROFILE["overload_sigma"],
        calm_sigma: float = VM_PROFILE["calm_sigma"],
        backlog_limit: int = 256,
        seed: int = 0,
    ):
        super().__init__(
            sim,
            name,
            base_cost_s=base_cost_s,
            per_byte_s=per_byte_s,
            backlog_limit=backlog_limit,
        )
        self.overload_backlog = overload_backlog
        self.overload_sigma = overload_sigma
        self.calm_sigma = calm_sigma
        self._rng = random.Random(seed)
        self._epoch_end = -1.0
        self._epoch_factor = 1.0

    def reseed(self, seed: int) -> None:
        """Restart the service-time RNG and forget the overload epoch.

        Run isolation hook, see :meth:`Hypervisor.reseed`.
        """
        self._rng = random.Random(seed)
        self._epoch_end = -1.0
        self._epoch_factor = 1.0

    #: Degradation episodes last tens of milliseconds (IRQ storms, cache
    #: thrash, vhost wakeup trains), so the slowdown factor is resampled
    #: per *epoch* rather than per packet — per-packet noise would simply
    #: average out over a measurement run and look stable.
    EPOCH_MIN_S = 20e-3
    EPOCH_MAX_S = 80e-3

    def _overload_factor(self) -> float:
        if self.sim.now >= self._epoch_end:
            # Overload only ever *slows* the guest (folded lognormal):
            # the drop-free ceiling stays the physical maximum, and the
            # throughput beyond it fluctuates downward, as in Fig. 3b.
            sigma = self.overload_sigma
            self._epoch_factor = math.exp(abs(self._rng.gauss(0.0, sigma)))
            self._epoch_end = self.sim.now + self._rng.uniform(
                self.EPOCH_MIN_S, self.EPOCH_MAX_S
            )
        return self._epoch_factor

    def service_time(self, packet: Packet) -> float:
        mean = self.base_cost_s + self.per_byte_s * packet.frame_size
        factor = math.exp(self._rng.gauss(0.0, self.calm_sigma))
        if self.backlog_depth >= self.overload_backlog:
            factor *= self._overload_factor()
        return mean * factor

    def describe(self) -> dict:
        info = super().describe()
        info["overload_backlog"] = self.overload_backlog
        info["overload_sigma"] = self.overload_sigma
        info["calm_sigma"] = self.calm_sigma
        return info
