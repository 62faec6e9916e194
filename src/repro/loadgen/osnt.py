"""OSNT hardware packet generator model.

Section 4.2 of the paper: "Our flexible testbed architecture also
enables the integration of hardware packet generators, such as OSNT.
OSNT is based on the NetFPGA platform, which can be integrated into
experiment hosts as PCIe cards."

The distinguishing property of a hardware generator is precision: the
FPGA emits frames with essentially no software jitter and timestamps
every frame (not a sampled subset) with nanosecond resolution.  The
model therefore reuses the MoonGen job/report structures but generates
perfectly spaced traffic and samples every packet's latency.
"""

from __future__ import annotations

from repro.core.errors import SimulationError
from repro.loadgen.moongen import MoonGen, MoonGenJob

from repro.netsim.engine import Simulator
from repro.netsim.nic import HardwareNic, Nic

__all__ = ["Osnt"]


class Osnt(MoonGen):
    """NetFPGA-based generator: zero-jitter CBR, per-packet timestamps."""

    latency_sample_every = 1

    def __init__(self, sim: Simulator, tx_nic: Nic, rx_nic: Nic):
        if not isinstance(tx_nic, HardwareNic) or not isinstance(rx_nic, HardwareNic):
            raise SimulationError(
                "OSNT is a PCIe NetFPGA card; it needs hardware NIC ports"
            )
        super().__init__(sim, tx_nic, rx_nic, seed=0)

    def start(
        self,
        rate_pps: float,
        frame_size: int,
        duration_s: float,
        pattern: str = "cbr",
        interval_s: float = 1.0,
    ) -> MoonGenJob:
        if pattern != "cbr":
            raise SimulationError("OSNT generates constant-bit-rate traffic only")
        return super().start(
            rate_pps=rate_pps,
            frame_size=frame_size,
            duration_s=duration_s,
            pattern="cbr",
            interval_s=interval_s,
        )

    def _send_next(self) -> None:
        job = self._job
        if job is None or job.finished or self.sim.now >= self._deadline:
            return
        self._roll_interval()
        packet = self.frame(self._seq, job.frame_size)
        self._seq += 1
        # Hardware timestamping of *every* frame.
        packet.tx_time = self.sim.now
        if self.tx_nic.transmit(packet):
            job.tx_packets += 1
            job.tx_bytes += packet.frame_size
            if self._interval is not None:
                self._interval.tx_packets += 1
                self._interval.tx_bytes += packet.frame_size
        self.sim.schedule(1.0 / job.rate_pps, self._send_next)
