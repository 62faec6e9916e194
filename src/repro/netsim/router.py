"""Forwarding-device models, including the Linux router DuT.

The case study's device under test is "the Linux router": a Debian
machine forwarding packets between its two NIC ports.  Its throughput
ceiling on bare metal is CPU-bound for small frames (~1.75 Mpps on the
paper's Xeon Silver 4214) and line-rate-bound for 1500 B frames
(10 Gbit/s ≈ 0.82 Mpps).  We model the data path as a single-server
queue per device: frames received on a port enter a bounded softirq
backlog and are serviced one at a time with a size-dependent service
time, then transmitted on the opposite port.

A single traffic flow hashes onto a single RX queue and therefore a
single core, which is why the bare-metal ceiling reflects one core's
throughput even on a 12-core machine — the same effect the original
measurements exhibit.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional


from repro.core.errors import SimulationError, TopologyError
from repro.netsim.engine import Simulator
from repro.netsim.nic import Nic
from repro.netsim.packet import Packet

__all__ = ["ForwardingStats", "ForwardingDevice", "LinuxRouter", "BARE_METAL_PROFILE"]


class ForwardingStats:
    """Counters for a forwarding device."""

    def __init__(self) -> None:
        self.received = 0
        self.forwarded = 0
        self.backlog_dropped = 0

    def snapshot(self) -> dict:
        return {
            "received": self.received,
            "forwarded": self.forwarded,
            "backlog_dropped": self.backlog_dropped,
        }


class ForwardingDevice:
    """Single-server store-and-forward element with a bounded backlog.

    Subclasses define the per-packet service time and may override the
    output-port decision.  The device can be *paused* (used by the
    hypervisor model to preempt a VM's vCPU): while paused, arriving
    frames still enter the backlog, but no service completions happen.
    """

    #: Declared replayability capability.  A class sets this to True to
    #: vouch that its per-packet service time is a pure function of the
    #: frame size (no RNG, no time dependence, no hidden state), which
    #: lets the batched fast path (:mod:`repro.netsim.fastpath`) replay
    #: it analytically.  The vouch covers exactly the queueing behaviour
    #: defined at or above the declaring class: a subclass that
    #: overrides any behaviour method without re-declaring the
    #: capability is rejected by the compiler and falls back to the
    #: event path.
    deterministic_service = False
    #: Declared seeded-replay capability: the service time draws from
    #: the device's own seeded ``_rng`` in a fixed order per service
    #: start, and the fast path replays those draws in a per-packet
    #: loop.  Same override rule as ``deterministic_service``.
    seeded_service = False

    def __init__(
        self,
        sim: Simulator,
        name: str,
        backlog_limit: int = 1000,
    ):
        self.sim = sim
        self.name = name
        self.backlog_limit = backlog_limit
        self.stats = ForwardingStats()
        #: Optional admission gate: when set and returning False, received
        #: frames are dropped.  The testbed layer wires this to the host's
        #: ``net.ipv4.ip_forward`` sysctl and interface state so that an
        #: incomplete setup script visibly breaks the experiment.
        self.gate: Optional[Callable[[], bool]] = None
        self.ports: List[Nic] = []
        self._backlog: deque = deque()
        self._busy = False
        self._paused = False
        self._pause_resume_pending = False
        #: Hypervisors that pause this device (see
        #: :meth:`repro.netsim.vm.Hypervisor.attach`).
        self.hypervisors: List[object] = []

    # -- wiring ------------------------------------------------------------

    def add_port(self, nic: Nic) -> Nic:
        """Attach a NIC port; its received frames feed this device."""
        nic.set_rx_handler(lambda packet, port=nic: self._on_receive(port, packet))
        nic.rx_owner = self
        self.ports.append(nic)
        return nic

    def output_port(self, in_port: Nic, packet: Packet) -> Optional[Nic]:
        """Pick the egress port.  Default: the *other* port of a 2-port box."""
        if len(self.ports) != 2:
            raise TopologyError(
                f"{self.name}: default forwarding needs exactly 2 ports, "
                f"has {len(self.ports)}"
            )
        return self.ports[1] if in_port is self.ports[0] else self.ports[0]

    # -- service model -----------------------------------------------------

    def service_time(self, packet: Packet) -> float:
        """Per-packet processing time; subclasses must implement."""
        raise NotImplementedError

    def pause(self) -> None:
        """Preempt the device's CPU (hypervisor descheduled the vCPU)."""
        self._paused = True

    def resume(self) -> None:
        """Give the CPU back; queued work continues."""
        if not self._paused:
            return
        self._paused = False
        if not self._busy and self._backlog:
            self._busy = True
            self._start_service()

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def backlog_depth(self) -> int:
        return len(self._backlog)

    def _on_receive(self, port: Nic, packet: Packet) -> None:
        self.stats.received += 1
        if self.gate is not None and not self.gate():
            self.stats.backlog_dropped += 1
            return
        if len(self._backlog) >= self.backlog_limit:
            self.stats.backlog_dropped += 1
            return
        self._backlog.append((port, packet))
        if not self._busy and not self._paused:
            self._busy = True
            self._start_service()

    def _start_service(self) -> None:
        if self._paused or not self._backlog:
            self._busy = False
            return
        port, packet = self._backlog[0]
        self.sim.schedule(self.service_time(packet), self._finish_service)

    def _finish_service(self) -> None:
        if not self._backlog:
            # Backlog was cleared externally (e.g. host reboot mid-service).
            self._busy = False
            return
        port, packet = self._backlog.popleft()
        packet.hops += 1
        out = self.output_port(port, packet)
        self.stats.forwarded += 1
        if out is not None:
            out.transmit(packet)
        if self._paused:
            self._busy = False
            return
        self._start_service()

    def clear(self) -> None:
        """Drop all queued work (models a reboot of the hosting node)."""
        self._backlog.clear()
        self._busy = False

    def describe(self) -> dict:
        """Device description for the experiment inventory."""
        return {
            "name": self.name,
            "model": type(self).__name__,
            "backlog_limit": self.backlog_limit,
            "ports": [port.describe() for port in self.ports],
        }


#: Calibrated against the paper's DuT (2x Xeon Silver 4214, kernel 4.19):
#: ~571 ns base cost per forwarded packet gives the measured 1.75 Mpps
#: ceiling at 64 B; the small per-byte term keeps 1500 B forwarding
#: comfortably above the 10 G line rate, so larger frames stay
#: bandwidth-limited exactly as in Fig. 3a.
BARE_METAL_PROFILE = {
    "base_cost_s": 1.0 / 1.75e6,
    "per_byte_s": 2.0e-11,
}


class LinuxRouter(ForwardingDevice):
    """Bare-metal Linux router forwarding between its two ports.

    Besides the linear cost model, the router reproduces a *robustness
    cliff* of real NIC drivers: a frame larger than one receive buffer
    (``rx_buffer_bytes``) spans multiple descriptors and pays
    ``extra_descriptor_cost_s`` for each additional one.  Crossing the
    buffer size by a single byte therefore drops throughput in a step —
    the kind of low-robustness behaviour Zilberman's NDP artifact study
    (cited in Sec. 2 of the paper) observed when nudging packet sizes.
    With the default 2 KiB buffers the cliff sits above standard frame
    sizes and the model is purely linear.
    """

    #: The service time is a pure function of the frame size.
    deterministic_service = True

    def __init__(
        self,
        sim: Simulator,
        name: str = "dut",
        base_cost_s: float = BARE_METAL_PROFILE["base_cost_s"],
        per_byte_s: float = BARE_METAL_PROFILE["per_byte_s"],
        backlog_limit: int = 1000,
        rx_buffer_bytes: int = 2048,
        extra_descriptor_cost_s: float = 250e-9,
    ):
        super().__init__(sim, name, backlog_limit=backlog_limit)
        if base_cost_s <= 0:
            raise SimulationError("base_cost_s must be positive")
        if rx_buffer_bytes <= 0:
            raise SimulationError("rx_buffer_bytes must be positive")
        self.base_cost_s = base_cost_s
        self.per_byte_s = per_byte_s
        self.rx_buffer_bytes = rx_buffer_bytes
        self.extra_descriptor_cost_s = extra_descriptor_cost_s
        #: Effective clock multiplier; firmware settings (turbo boost,
        #: C-states) scale the per-packet cost through this knob.
        self.frequency_scale = 1.0

    def descriptors_for(self, frame_size: int) -> int:
        """Receive descriptors a frame of this size occupies."""
        return (frame_size + self.rx_buffer_bytes - 1) // self.rx_buffer_bytes

    def service_time(self, packet: Packet) -> float:
        if self.frequency_scale <= 0:
            raise SimulationError(
                f"frequency_scale must be positive, got {self.frequency_scale}"
            )
        extra = self.descriptors_for(packet.frame_size) - 1
        return (
            self.base_cost_s
            + self.per_byte_s * packet.frame_size
            + extra * self.extra_descriptor_cost_s
        ) / self.frequency_scale

    def describe(self) -> dict:
        info = super().describe()
        info["base_cost_s"] = self.base_cost_s
        info["per_byte_s"] = self.per_byte_s
        info["rx_buffer_bytes"] = self.rx_buffer_bytes
        return info
