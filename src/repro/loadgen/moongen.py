"""MoonGen-style scriptable packet generator.

The paper's experiments use MoonGen as the load generator: it creates
synthetic traffic at a configured rate, counts what comes back from the
DuT, and timestamps a subset of packets in hardware for latency
distributions.  This module reproduces that behaviour on top of the
discrete-event simulator and emits *MoonGen-compatible text output*, so
the evaluation pipeline (parser → aggregation → plots) runs unchanged
against it.

Latency measurements require hardware timestamping on both ports.  The
virtio NICs of the vpos VMs do not support it, which is why — exactly as
in Appendix A of the paper — vpos runs produce throughput data only.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional

from repro.core.errors import SimulationError
from repro.netsim.engine import Simulator
from repro.netsim.nic import Nic
from repro.netsim.packet import Packet
from repro.telemetry import context as _telemetry

__all__ = ["MoonGenJob", "MoonGen", "format_report", "latency_histogram_csv"]

#: One latency sample is taken every this many generated packets.
LATENCY_SAMPLE_INTERVAL = 100


@dataclass
class IntervalStats:
    """Per-reporting-interval counters (MoonGen prints one line a second)."""

    start: float
    tx_packets: int = 0
    rx_packets: int = 0
    tx_bytes: int = 0
    rx_bytes: int = 0


@dataclass
class MoonGenJob:
    """State and results of one measurement run."""

    rate_pps: float
    frame_size: int
    duration_s: float
    interval_s: float = 1.0
    pattern: str = "cbr"
    #: Number of distinct flows generated round-robin; with RSS on the
    #: DuT each flow hashes onto one receive queue/core.
    flows: int = 1
    tx_packets: int = 0
    rx_packets: int = 0
    tx_bytes: int = 0
    rx_bytes: int = 0
    latency_samples_s: List[float] = field(default_factory=list)
    intervals: List[IntervalStats] = field(default_factory=list)
    timestamping: bool = False
    finished: bool = False
    #: Last instant the batched fast path replayed for this job (its
    #: latest frame event), or None on the event path.  A plain
    #: attribute, not a dataclass field: it stays out of comparisons,
    #: ``repr`` and ``asdict``.
    drain_horizon_s: ClassVar[Optional[float]] = None

    def check_drained(self, until: float) -> None:
        """Fail unless ``sim.run(until=until)`` covers the replayed drain.

        The fast path replays a run to its fully drained state up
        front; that state is the event path's only if the simulator
        then runs at least until the last replayed frame event.
        """
        horizon = self.drain_horizon_s
        if horizon is not None and until < horizon:
            raise SimulationError(
                f"run window ends at t={until:.9f}s but the replayed "
                f"traffic drains only at t={horizon:.9f}s; lengthen the "
                f"drain time after the {self.duration_s}s measurement"
            )

    @property
    def tx_mpps(self) -> float:
        """Achieved transmit rate in Mpps over the whole run."""
        if self.duration_s <= 0:
            return 0.0
        return self.tx_packets / self.duration_s / 1e6

    @property
    def rx_mpps(self) -> float:
        """Received (forwarded-back) rate in Mpps over the whole run."""
        if self.duration_s <= 0:
            return 0.0
        return self.rx_packets / self.duration_s / 1e6

    @property
    def loss_fraction(self) -> float:
        """Fraction of generated packets that never came back."""
        if self.tx_packets == 0:
            return 0.0
        return 1.0 - self.rx_packets / self.tx_packets

    def interval_rx_mpps(self) -> List[float]:
        """Per-interval receive rates, the basis of the instability metric."""
        return [
            stats.rx_packets / self.interval_s / 1e6 for stats in self.intervals
        ]

    def rx_rate_stddev_mpps(self) -> float:
        """Standard deviation of per-interval RX rates (Mpps)."""
        rates = self.interval_rx_mpps()
        if len(rates) < 2:
            return 0.0
        return statistics.pstdev(rates)


class MoonGen:
    """Traffic generator bound to a TX and an RX port of the load generator.

    Usage::

        gen = MoonGen(sim, tx_nic, rx_nic, seed=1)
        job = gen.start(rate_pps=100_000, frame_size=64, duration_s=1.0)
        sim.run()
        print(format_report(job))
    """

    #: Every how many generated packets one is hardware-timestamped.
    #: Subclasses model denser samplers (OSNT stamps every frame).
    latency_sample_every = LATENCY_SAMPLE_INTERVAL

    def __init__(self, sim: Simulator, tx_nic: Nic, rx_nic: Nic, seed: int = 0):
        self.sim = sim
        self.tx_nic = tx_nic
        self.rx_nic = rx_nic
        self.seed = seed
        self._rng = random.Random(seed)
        self._job: Optional[MoonGenJob] = None
        self._seq = 0
        self._interval: Optional[IntervalStats] = None
        rx_nic.set_rx_handler(self._on_receive)
        rx_nic.rx_owner = self

    def reseed(self, seed: int) -> None:
        """Restart the pacing RNG from a fresh seed.

        Run isolation hook: the parallel scheduler reseeds every
        stochastic component from the run index before each run, so a
        run's traffic is a function of the run alone, not of which runs
        the same generator executed earlier.
        """
        self.seed = seed
        self._rng = random.Random(seed)

    @property
    def supports_latency(self) -> bool:
        """Hardware timestamping needs support on both ports."""
        return self.tx_nic.supports_timestamping and self.rx_nic.supports_timestamping

    def start(
        self,
        rate_pps: float,
        frame_size: int,
        duration_s: float,
        pattern: str = "cbr",
        interval_s: float = 1.0,
        flows: int = 1,
    ) -> MoonGenJob:
        """Schedule a measurement run; results are final once the sim ran."""
        if rate_pps <= 0:
            raise SimulationError(f"rate must be positive, got {rate_pps}")
        if duration_s <= 0:
            raise SimulationError(f"duration must be positive, got {duration_s}")
        if pattern not in ("cbr", "poisson"):
            raise SimulationError(f"unknown traffic pattern {pattern!r}")
        if flows < 1:
            raise SimulationError(f"need at least one flow, got {flows}")
        if self._job is not None and not self._job.finished:
            raise SimulationError("a measurement run is already in progress")
        job = MoonGenJob(
            rate_pps=rate_pps,
            frame_size=frame_size,
            duration_s=duration_s,
            interval_s=interval_s,
            pattern=pattern,
            flows=flows,
            timestamping=self.supports_latency,
        )
        self._job = job
        self._seq = 0
        self._interval = IntervalStats(start=self.sim.now)
        job.intervals.append(self._interval)
        self._deadline = self.sim.now + duration_s
        self._next_interval_end = self.sim.now + interval_s
        # The finish event is scheduled first in both paths so it wins
        # the heap tie against any packet event landing exactly on the
        # deadline — frames arriving at or after it never count.
        self.sim.schedule(duration_s, self._finish, job)
        batched = self._start_batched(job)
        if not batched:
            self.sim.schedule(0.0, self._send_next)
        collector = _telemetry.current()
        if collector is not None:
            # Explicit start/end: start() returns before the simulator
            # advances, so the job's extent is known analytically here
            # on both the event path and the batched fast path.
            collector.record_span(
                "loadgen.job",
                start=self.sim.now,
                end=self._deadline,
                rate_pps=rate_pps,
                frame_size=frame_size,
                pattern=pattern,
                path="fast" if batched else "event",
            )
        return job

    def _start_batched(self, job: MoonGenJob) -> bool:
        """Replay the run on the batched fast path when the topology allows.

        Returns False when the traffic path is not an analytically
        replayable feed-forward DAG (or batching is disabled), in which
        case the caller schedules the legacy per-packet event loop.  A
        fallback with batching enabled counts ``fastpath.fallback.<why>``
        in the run's telemetry, ``<why>`` naming the hop and the rule.
        Consecutive runs on an unchanged topology reuse the compiled
        stage table.  The replay records ``job.drain_horizon_s``.
        """
        from repro.netsim import fastpath

        if not fastpath.enabled():
            return False
        spec = fastpath.acquire_dag(self)
        if spec is None:
            collector = _telemetry.current()
            if collector is not None:
                collector.count(f"fastpath.fallback.{self._dag_fallback}")
            return False
        fastpath.run_batched(self, job, spec)
        return True

    # -- transmit ------------------------------------------------------------

    def frame(self, seq: int, frame_size: int, flows: int = 1) -> Packet:
        """The frame sent as number ``seq``, without its timestamp.

        The event path sends it; the fast path replays it (its source
        is what a learning bridge on the way learns).
        """
        return Packet(
            seq=seq,
            frame_size=frame_size,
            flow=seq % flows,
            src=self.tx_nic.name,
            dst=self.rx_nic.name,
        )

    def _send_next(self) -> None:
        job = self._job
        if job is None or job.finished or self.sim.now >= self._deadline:
            return
        self._roll_interval()
        packet = self.frame(self._seq, job.frame_size, job.flows)
        self._seq += 1
        if job.timestamping and packet.seq % self.latency_sample_every == 0:
            packet.tx_time = self.sim.now
        if self.tx_nic.transmit(packet):
            job.tx_packets += 1
            job.tx_bytes += packet.frame_size
            if self._interval is not None:
                self._interval.tx_packets += 1
                self._interval.tx_bytes += packet.frame_size
        if job.pattern == "cbr":
            gap = 1.0 / job.rate_pps
        else:
            gap = self._rng.expovariate(job.rate_pps)
        self.sim.schedule(gap, self._send_next)

    # -- receive ----------------------------------------------------------------

    def _on_receive(self, packet: Packet) -> None:
        job = self._job
        if job is None or job.finished:
            return
        self._roll_interval()
        job.rx_packets += 1
        job.rx_bytes += packet.frame_size
        if self._interval is not None:
            self._interval.rx_packets += 1
            self._interval.rx_bytes += packet.frame_size
        if packet.tx_time is not None:
            packet.rx_time = self.sim.now
            job.latency_samples_s.append(packet.rx_time - packet.tx_time)

    # -- bookkeeping ----------------------------------------------------------------

    def _roll_interval(self) -> None:
        job = self._job
        if job is None or self._interval is None:
            return
        while self.sim.now >= self._next_interval_end and (
            self._next_interval_end <= self._deadline
        ):
            self._interval = IntervalStats(start=self._next_interval_end)
            job.intervals.append(self._interval)
            self._next_interval_end += job.interval_s

    def _finish(self, job: MoonGenJob) -> None:
        job.finished = True
        if self._job is job:
            self._job = None
        collector = _telemetry.current()
        if collector is not None:
            collector.count("loadgen.jobs")
            collector.count(
                "loadgen.latency_samples", len(job.latency_samples_s)
            )
            collector.observe_many("loadgen.latency_s", job.latency_samples_s)


def _mbit(bytes_count: int, duration_s: float, framing_bytes: int = 0, packets: int = 0) -> float:
    bits = (bytes_count + framing_bytes * packets) * 8
    if duration_s <= 0:
        return 0.0
    return bits / duration_s / 1e6


def format_report(job: MoonGenJob) -> str:
    """Render a run in the MoonGen-compatible text format.

    This is the format :mod:`repro.evaluation.moongen_parser` consumes:
    one TX/RX pair per reporting interval, a final summary pair, and an
    optional latency summary when hardware timestamping was available.
    """
    lines: List[str] = []
    for stats in job.intervals:
        span = job.interval_s
        lines.append(
            "[Device: id=0] TX: %.6f Mpps, %.2f Mbit/s (%.2f Mbit/s with framing)"
            % (
                stats.tx_packets / span / 1e6,
                _mbit(stats.tx_bytes, span),
                _mbit(stats.tx_bytes, span, framing_bytes=20, packets=stats.tx_packets),
            )
        )
        lines.append(
            "[Device: id=1] RX: %.6f Mpps, %.2f Mbit/s (%.2f Mbit/s with framing)"
            % (
                stats.rx_packets / span / 1e6,
                _mbit(stats.rx_bytes, span),
                _mbit(stats.rx_bytes, span, framing_bytes=20, packets=stats.rx_packets),
            )
        )
    lines.append(
        "[Device: id=0] TX: %.6f Mpps (total %d packets with %d bytes payload)"
        % (job.tx_mpps, job.tx_packets, job.tx_bytes)
    )
    lines.append(
        "[Device: id=1] RX: %.6f Mpps (total %d packets with %d bytes payload)"
        % (job.rx_mpps, job.rx_packets, job.rx_bytes)
    )
    if job.timestamping and job.latency_samples_s:
        samples_us = sorted(s * 1e6 for s in job.latency_samples_s)
        avg = sum(samples_us) / len(samples_us)
        lines.append(
            "[Latency] min: %.3f us, avg: %.3f us, max: %.3f us, samples: %d"
            % (samples_us[0], avg, samples_us[-1], len(samples_us))
        )
    return "\n".join(lines) + "\n"


def latency_histogram_csv(job: MoonGenJob, bucket_ns: int = 1000) -> str:
    """MoonGen-style latency histogram CSV (``latency_ns,count`` rows)."""
    buckets: dict = {}
    for sample in job.latency_samples_s:
        bucket = int(sample * 1e9) // bucket_ns * bucket_ns
        buckets[bucket] = buckets.get(bucket, 0) + 1
    lines = ["latency_ns,count"]
    for bucket in sorted(buckets):
        lines.append(f"{bucket},{buckets[bucket]}")
    return "\n".join(lines) + "\n"
