"""Batched packet-event fast path: exact equivalence with the event loop.

Every test here runs the same measurement twice — once on the legacy
per-packet event path (``POS_NETSIM_BATCH=0``), once on the batched
replay — and demands *exact* equality of every observable: job
counters, per-interval statistics, latency samples (float-for-float),
NIC statistics and router statistics.  The legacy path remains the
semantic reference; the fast path is only allowed to be faster.
"""

from __future__ import annotations

import os

import pytest

from repro.loadgen.moongen import MoonGen
from repro.loadgen.osnt import Osnt
from repro.netsim import fastpath
from repro.netsim.engine import Simulator
from repro.netsim.link import CutThroughSwitchPort, DirectWire
from repro.netsim.nic import HardwareNic, VirtioNic
from repro.netsim.router import LinuxRouter


def build_chain(sim, nic_class=HardwareNic, seed=3, generator=MoonGen,
                link_class=DirectWire, **link_kwargs):
    tx = nic_class(sim, "lg.tx")
    rx = nic_class(sim, "lg.rx")
    p0 = nic_class(sim, "dut.p0")
    p1 = nic_class(sim, "dut.p1")
    router = LinuxRouter(sim)
    router.add_port(p0)
    router.add_port(p1)
    link_class(sim, tx, p0, **link_kwargs)
    link_class(sim, p1, rx, **link_kwargs)
    if generator is Osnt:
        gen = Osnt(sim, tx, rx)
    else:
        gen = generator(sim, tx, rx, seed=seed)
    return gen, router


def run_once(batched, rate_pps, frame_size, duration_s=0.05, pattern="cbr",
             interval_s=0.01, seed=3, generator=MoonGen, gate=None,
             gate_opens_at=None):
    """One full measurement on a fresh world; returns all observables.

    ``gate_opens_at`` closes the router's admission gate and schedules
    its opening at that instant, inside the run when it is early enough.
    """
    previous = os.environ.get("POS_NETSIM_BATCH")
    os.environ["POS_NETSIM_BATCH"] = "1" if batched else "0"
    fastpath.enabled.refresh()
    try:
        sim = Simulator()
        gen, router = build_chain(sim, seed=seed, generator=generator)
        if gate is not None:
            router.gate = gate
        if gate_opens_at is not None:
            state = {"open": False}
            router.gate = lambda: state["open"]
            sim.schedule(gate_opens_at, state.update, {"open": True})
        job = gen.start(
            rate_pps=rate_pps, frame_size=frame_size,
            duration_s=duration_s, pattern=pattern, interval_s=interval_s,
        )
        sim.run(until=duration_s + 0.05)
        assert job.finished
        return {
            "job": (job.tx_packets, job.rx_packets, job.tx_bytes, job.rx_bytes),
            "intervals": [
                (i.start, i.tx_packets, i.rx_packets, i.tx_bytes, i.rx_bytes)
                for i in job.intervals
            ],
            "latency": list(job.latency_samples_s),
            "router": router.stats.snapshot(),
            "ports": [port.stats.snapshot() for port in router.ports],
            "tx_nic": gen.tx_nic.stats.snapshot(),
            "rx_nic": gen.rx_nic.stats.snapshot(),
            "events": sim.events_processed,
        }
    finally:
        if previous is None:
            os.environ.pop("POS_NETSIM_BATCH", None)
        else:
            os.environ["POS_NETSIM_BATCH"] = previous
        fastpath.enabled.refresh()


def assert_equivalent(**kwargs):
    legacy = run_once(False, **kwargs)
    batched = run_once(True, **kwargs)
    for key in ("job", "intervals", "latency", "router", "ports",
                "tx_nic", "rx_nic"):
        assert batched[key] == legacy[key], f"{key} diverged"
    return legacy, batched


class TestExactEquivalence:
    def test_cbr_underload(self):
        legacy, batched = assert_equivalent(rate_pps=200_000, frame_size=64)
        assert legacy["job"][0] == pytest.approx(10_000, abs=2)  # traffic flowed
        assert batched["job"][1] > 0

    def test_cbr_large_frames(self):
        assert_equivalent(rate_pps=100_000, frame_size=1500)

    def test_cbr_overload_with_drops(self):
        # Far past the router's ~1.75 Mpps service rate: TX-ring and
        # backlog occupancy recurrences must replay the drop pattern
        # exactly, frame for frame.
        legacy, batched = assert_equivalent(rate_pps=4_000_000, frame_size=64)
        assert legacy["router"]["backlog_dropped"] > 0
        assert batched["router"]["backlog_dropped"] > 0

    def test_poisson_pacing_replays_rng(self):
        # The batched loop must draw the pacing RNG once per send, after
        # the send, or every gap after the first diverges.
        assert_equivalent(
            rate_pps=300_000, frame_size=64, pattern="poisson", seed=11
        )

    def test_poisson_overload(self):
        assert_equivalent(
            rate_pps=3_000_000, frame_size=64, pattern="poisson", seed=5
        )

    def test_closed_gate_drops_at_admission(self):
        legacy, batched = assert_equivalent(
            rate_pps=200_000, frame_size=64, gate=lambda: False
        )
        assert legacy["job"][1] == 0
        assert legacy["router"]["backlog_dropped"] == legacy["router"]["received"]

    def test_gate_flip_mid_run_matches_event_path(self):
        # The DuT's gate opens 10 ms into a 50 ms run (an ablated setup
        # barrier).  The replay cannot model the flip, so the batched
        # run must take the event path and lose the first fifth.
        legacy, batched = assert_equivalent(
            rate_pps=100_000, frame_size=64, gate_opens_at=0.01,
        )
        tx, rx = legacy["job"][:2]
        assert 1 - rx / tx == pytest.approx(0.2, abs=0.01)
        assert batched["events"] == legacy["events"]

    def test_osnt_timestamps_every_frame(self):
        legacy, batched = assert_equivalent(
            rate_pps=100_000, frame_size=64, generator=Osnt
        )
        # OSNT samples every frame, not MoonGen's 1-in-100 subset.
        assert len(batched["latency"]) == batched["job"][1]
        assert len(batched["latency"]) > 1_000

    @staticmethod
    def _two_runs(batched):
        previous = os.environ.get("POS_NETSIM_BATCH")
        os.environ["POS_NETSIM_BATCH"] = "1" if batched else "0"
        fastpath.enabled.refresh()
        try:
            sim = Simulator()
            gen, __ = build_chain(sim)
            first = gen.start(rate_pps=200_000, frame_size=64,
                              duration_s=0.05, interval_s=0.01)
            sim.run(until=0.1)
            gen.reseed(3)
            second = gen.start(rate_pps=200_000, frame_size=64,
                               duration_s=0.05, interval_s=0.01)
            sim.run(until=0.2)
            assert first.finished and second.finished
            return (
                (first.tx_packets, first.rx_packets, first.latency_samples_s),
                (second.tx_packets, second.rx_packets, second.latency_samples_s),
            )
        finally:
            if previous is None:
                os.environ.pop("POS_NETSIM_BATCH", None)
            else:
                os.environ["POS_NETSIM_BATCH"] = previous
            fastpath.enabled.refresh()

    def test_back_to_back_runs_on_one_generator(self):
        # Residual chain state from run k must not leak into run k+1,
        # and the second run must match the legacy path too.
        assert self._two_runs(True) == self._two_runs(False)


class TestEventReduction:
    def test_batched_path_cuts_events_by_10x(self):
        legacy = run_once(False, rate_pps=500_000, frame_size=64)
        batched = run_once(True, rate_pps=500_000, frame_size=64)
        assert batched["events"] * 10 <= legacy["events"]


def build_custom_chain(sim, router):
    tx = HardwareNic(sim, "lg.tx")
    rx = HardwareNic(sim, "lg.rx")
    p0 = HardwareNic(sim, "dut.p0")
    p1 = HardwareNic(sim, "dut.p1")
    router.add_port(p0)
    router.add_port(p1)
    DirectWire(sim, tx, p0)
    DirectWire(sim, p1, rx)
    return MoonGen(sim, tx, rx, seed=0)


class TestCompileEligibility:
    def test_simple_chain_compiles(self):
        sim = Simulator()
        gen, router = build_chain(sim)
        spec = fastpath.compile_dag(gen)
        assert spec is not None
        assert spec.devices == [router]
        assert spec.tx_nic is gen.tx_nic
        assert spec.rx_nic is gen.rx_nic
        assert [stage.kind for stage in spec.stages] == ["fifo", "serialize"]

    def test_virtio_chain_compiles(self):
        # NIC class does not matter, only the wiring and router type.
        sim = Simulator()
        gen, __ = build_chain(sim, nic_class=VirtioNic)
        assert fastpath.compile_dag(gen) is not None

    def test_contended_switch_port_rejected(self):
        sim = Simulator()
        gen, __ = build_chain(
            sim, link_class=CutThroughSwitchPort, background_load=0.3
        )
        assert fastpath.compile_dag(gen) is None

    def test_uncontended_switch_port_accepted(self):
        sim = Simulator()
        gen, __ = build_chain(sim, link_class=CutThroughSwitchPort)
        assert fastpath.compile_dag(gen) is not None

    def test_three_port_router_rejected(self):
        sim = Simulator()
        gen, router = build_chain(sim)
        router.add_port(HardwareNic(sim, "dut.p2"))
        assert fastpath.compile_dag(gen) is None

    def test_plain_subclass_inherits_capability(self):
        # A subclass that overrides nothing behavioural inherits the
        # parent's declaration: eligibility is declared, not type-gated.
        class RenamedRouter(LinuxRouter):
            def describe(self):  # non-replay method: irrelevant
                return {"model": "renamed"}

        sim = Simulator()
        gen = build_custom_chain(sim, RenamedRouter(sim))
        assert fastpath.compile_dag(gen) is not None

    def test_undeclared_service_override_rejected(self):
        # Overriding service_time below the declaring class silently
        # voids the capability: the subclass never vouched for it.
        class JitteryRouter(LinuxRouter):
            def service_time(self, packet):
                return super().service_time(packet) * 1.01

        sim = Simulator()
        gen = build_custom_chain(sim, JitteryRouter(sim))
        assert fastpath.compile_dag(gen) is None

    def test_redeclaring_subclass_compiles_bit_identically(self):
        # A deterministic cost model that re-declares the capability for
        # its own override is eligible — and must replay exactly.
        class SlowRouter(LinuxRouter):
            deterministic_service = True

            def service_time(self, packet):
                return super().service_time(packet) * 2.0

        def run(batched):
            previous = os.environ.get("POS_NETSIM_BATCH")
            os.environ["POS_NETSIM_BATCH"] = "1" if batched else "0"
            fastpath.enabled.refresh()
            try:
                sim = Simulator()
                gen = build_custom_chain(sim, SlowRouter(sim))
                job = gen.start(rate_pps=300_000, frame_size=64,
                                duration_s=0.05, interval_s=0.01)
                sim.run(until=0.1)
                return (job.tx_packets, job.rx_packets,
                        tuple(job.latency_samples_s), sim.events_processed)
            finally:
                if previous is None:
                    os.environ.pop("POS_NETSIM_BATCH", None)
                else:
                    os.environ["POS_NETSIM_BATCH"] = previous
                fastpath.enabled.refresh()

        sim = Simulator()
        assert fastpath.compile_dag(build_custom_chain(sim, SlowRouter(sim))) \
            is not None
        legacy = run(False)
        batched = run(True)
        assert batched[:3] == legacy[:3]
        assert batched[3] < legacy[3]

    def test_vm_router_compiles_to_seeded_stage(self):
        # Stochastic but seeded: the guest replays draw for draw in the
        # seeded stage, while the column regimes still reject it.
        from repro.netsim.vm import Hypervisor, VirtualizedLinuxRouter

        sim = Simulator()
        router = VirtualizedLinuxRouter(sim)
        Hypervisor(sim).attach(router)
        spec = fastpath.compile_dag(build_custom_chain(sim, router))
        assert spec is not None
        assert [stage.kind for stage in spec.stages] == ["vm", "serialize"]
        assert not router.deterministic_service

    def test_seeded_service_override_rejected(self):
        # Overriding service_time below the seeded_service declarer
        # voids the capability: the subclass never vouched for its draws.
        from repro.netsim.vm import VirtualizedLinuxRouter

        class CalmerGuest(VirtualizedLinuxRouter):
            def service_time(self, packet):
                return super().service_time(packet) * 0.5

        sim = Simulator()
        gen = build_custom_chain(sim, CalmerGuest(sim))
        assert fastpath.compile_dag(gen) is None
        assert fastpath._compile(gen) == (
            "vdut: CalmerGuest.service_time overrides behaviour below the "
            "seeded_service declaration of VirtualizedLinuxRouter"
        )

    def test_fallback_is_counted_with_its_reason(self):
        from repro.netsim.vm import VirtualizedLinuxRouter
        from repro.telemetry import context
        from repro.telemetry.spans import RunTelemetry

        class CalmerGuest(VirtualizedLinuxRouter):
            def service_time(self, packet):
                return super().service_time(packet) * 0.5

        counters = []
        for router_class in (CalmerGuest, VirtualizedLinuxRouter):
            sim = Simulator()
            gen = build_custom_chain(sim, router_class(sim))
            collector = RunTelemetry()
            with context.run_collector(collector):
                gen.start(rate_pps=10_000, frame_size=64, duration_s=0.001)
            counters.append(collector.metrics.counters)
        assert counters[0]["fastpath.fallback.vdut: CalmerGuest.service_time "
                           "overrides behaviour below the seeded_service "
                           "declaration of VirtualizedLinuxRouter"] == 1
        assert not any(name.startswith("fastpath.fallback")
                       for name in counters[1])
        assert counters[1]["fastpath.batches"] == 1

    def test_paused_vm_router_rejected(self):
        from repro.netsim.vm import VirtualizedLinuxRouter

        sim = Simulator()
        router = VirtualizedLinuxRouter(sim)
        gen = build_custom_chain(sim, router)
        router.pause()
        assert fastpath.compile_dag(gen) is None
        assert fastpath._compile(gen) == "vdut: paused at compile time"

    def test_pending_foreign_event_rejected(self):
        sim = Simulator()
        gen, router = build_chain(sim)

        def close_gate():
            router.gate = lambda: False

        sim.schedule(1.0, close_gate)
        assert fastpath.compile_dag(gen) is None
        assert fastpath._compile(gen) == (
            "simulator: TestCompileEligibility.test_pending_foreign_event_"
            "rejected.<locals>.close_gate is scheduled, the replay does not "
            "model it"
        )
        sim.run()
        assert fastpath.compile_dag(gen) is not None

    def test_busy_stage_rejected(self):
        sim = Simulator()
        gen, router = build_chain(sim)
        router._busy = True
        assert fastpath.compile_dag(gen) is None

    def test_spec_reuse_across_runs(self):
        # Consecutive runs on an unchanged topology reuse the compiled
        # spec object instead of a fresh compile.
        sim = Simulator()
        gen, __ = build_chain(sim)
        first = fastpath.acquire_dag(gen)
        assert first is not None
        again = fastpath.acquire_dag(gen)
        assert again is first

    def test_kill_switch_disables_batching(self, monkeypatch):
        monkeypatch.setenv("POS_NETSIM_BATCH", "0")
        fastpath.enabled.refresh()
        assert not fastpath.enabled()
        monkeypatch.setenv("POS_NETSIM_BATCH", "1")
        fastpath.enabled.refresh()
        assert fastpath.enabled()
        monkeypatch.delenv("POS_NETSIM_BATCH")
        fastpath.enabled.refresh()
        assert fastpath.enabled()
