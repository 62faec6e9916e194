"""Seeded VM stage: the vpos DuT replayed draw for draw.

:class:`~repro.netsim.vm.VirtualizedLinuxRouter` draws its service
times from its own seeded RNG and its :class:`~repro.netsim.vm.Hypervisor`
draws one pause per quantum.  The fast path's seeded stage replays both
in a per-packet loop; these tests demand that every observable — job
counters, intervals, latency samples, router/NIC/bridge statistics, and
the router's and hypervisor's RNG state after the drain — equals the
``POS_NETSIM_BATCH=0`` event path, under randomized fire and at the
three equal-time ties the stage's docstring derives.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.loadgen.moongen import MoonGen
from repro.netsim import fastpath
from repro.netsim.bridge import LinuxBridge
from repro.netsim.engine import Simulator
from repro.netsim.link import DirectWire
from repro.netsim.nic import HardwareNic, Nic, VirtioNic
from repro.netsim.packet import wire_bits
from repro.netsim.vm import Hypervisor, VirtualizedLinuxRouter


class Scripted(random.Random):
    """A generator with fixed draws: ``gauss`` 0.0, ``expovariate`` ``pause``.

    Makes service times exactly the mean and pauses exactly ``pause``,
    so a test can place events on one instant.  ``getstate``/``setstate``
    carry the script, so the stage's copy replays it too.
    """

    def __init__(self, pause=0.0):
        super().__init__(0)
        self.pause = pause

    def gauss(self, mu=0.0, sigma=1.0):
        return 0.0

    def expovariate(self, lambd=1.0):
        return self.pause

    def getstate(self):
        return super().getstate(), self.pause

    def setstate(self, state):
        super().setstate(state[0])
        self.pause = state[1]


class StampEvery(MoonGen):
    """A generator that timestamps every frame: full per-frame trajectories."""

    latency_sample_every = 1


def build_vm_chain(sim, bridges=True, nic_class=VirtioNic, wire_m=0.0,
                   hypervisor=True, quantum_s=4e-3, pause_mean_s=120e-6,
                   seed=0, generator=MoonGen, **router_kwargs):
    """tx -> [bridge] -> VM guest -> [bridge] -> rx, vpos style."""
    tx = nic_class(sim, "lg.tx")
    rx = nic_class(sim, "lg.rx")
    router = VirtualizedLinuxRouter(sim, seed=seed, **router_kwargs)
    p0 = nic_class(sim, "vm.p0")
    p1 = nic_class(sim, "vm.p1")
    router.add_port(p0)
    router.add_port(p1)
    devices = [router]
    if bridges:
        chain = [(tx, p0), (p1, rx)]
        for index, (a, b) in enumerate(chain):
            bridge = LinuxBridge(sim, name=f"br{index}")
            side_a = Nic(sim, f"br{index}.a")
            side_b = Nic(sim, f"br{index}.b")
            bridge.add_port(side_a)
            bridge.add_port(side_b)
            DirectWire(sim, a, side_a, length_m=wire_m)
            DirectWire(sim, side_b, b, length_m=wire_m)
            devices.append(bridge)
    else:
        DirectWire(sim, tx, p0, length_m=wire_m)
        DirectWire(sim, p1, rx, length_m=wire_m)
    hv = None
    if hypervisor:
        hv = Hypervisor(sim, quantum_s=quantum_s, pause_mean_s=pause_mean_s,
                        seed=seed + 1)
        hv.attach(router)
    if generator is MoonGen:
        gen = MoonGen(sim, tx, rx, seed=seed + 2)
    else:
        gen = generator(sim, tx, rx, seed=seed + 2)
    return gen, router, hv, devices


def observe(gen, router, hv, devices, jobs):
    state = {
        "jobs": [
            (job.tx_packets, job.rx_packets, job.tx_bytes, job.rx_bytes,
             [(i.start, i.tx_packets, i.rx_packets, i.tx_bytes, i.rx_bytes)
              for i in job.intervals],
             list(job.latency_samples_s))
            for job in jobs
        ],
        "tx_nic": gen.tx_nic.stats.snapshot(),
        "rx_nic": gen.rx_nic.stats.snapshot(),
        "router_rng": router._rng.getstate(),
        "epoch": (router._epoch_end, router._epoch_factor),
    }
    for position, device in enumerate(devices):
        state[f"dev{position}"] = device.stats.snapshot()
        state[f"dev{position}.ports"] = [p.stats.snapshot() for p in device.ports]
        if isinstance(device, LinuxBridge):
            state[f"dev{position}.fdb"] = dict(device.fdb)
    if hv is not None:
        state["hypervisor"] = (hv.preemptions, hv.total_stolen_s,
                               hv.outstanding, hv._rng.getstate())
    return state


def run_vm(batched, rate_pps, frame_size, runs=1, duration_s=0.01,
           drain_s=0.2, pattern="cbr", build=build_vm_chain, **build_kwargs):
    """Measure ``runs`` times on one world; returns observables + world."""
    previous = os.environ.get("POS_NETSIM_BATCH")
    os.environ["POS_NETSIM_BATCH"] = "1" if batched else "0"
    fastpath.enabled.refresh()
    try:
        sim = Simulator()
        gen, router, hv, devices = build(sim, **build_kwargs)
        jobs = []
        for number in range(runs):
            if number:
                # The run-isolation hook: stop the quantum timer, drain,
                # reseed every stochastic component at a fresh epoch.
                if hv is not None:
                    hv.stop()
                sim.run(until=sim.now + 1.0)
                router.reseed(100 + number)
                if hv is not None:
                    hv.reseed(200 + number)
                gen.reseed(300 + number)
            job = gen.start(rate_pps=rate_pps, frame_size=frame_size,
                            duration_s=duration_s,
                            interval_s=duration_s / 4, pattern=pattern)
            until = sim.now + duration_s + drain_s
            job.check_drained(until)
            sim.run(until=until)
            assert job.finished
            jobs.append(job)
        return observe(gen, router, hv, devices, jobs), sim, gen
    finally:
        if previous is None:
            os.environ.pop("POS_NETSIM_BATCH", None)
        else:
            os.environ["POS_NETSIM_BATCH"] = previous
        fastpath.enabled.refresh()


def assert_equivalent(**kwargs):
    legacy, sim_l, __ = run_vm(False, **kwargs)
    batched, sim_b, gen = run_vm(True, **kwargs)
    assert gen._dag_spec is not None, fastpath._compile(gen)
    assert [s.kind for s in gen._dag_spec.stages].count("vm") == 1
    for key in legacy:
        assert batched[key] == legacy[key], f"{key} diverged"
    assert sim_b.events_processed < sim_l.events_processed
    return legacy


class TestRandomizedVmTopologies:
    @given(
        rate_pps=st.integers(min_value=10_000, max_value=300_000),
        frame_size=st.sampled_from([64, 1500]),
        seed=st.integers(min_value=0, max_value=2**16),
        bridges=st.booleans(),
        wire_m=st.sampled_from([0.0, 2.0]),
        quantum_s=st.sampled_from([50e-6, 400e-6, 4e-3]),
        pause_mean_s=st.sampled_from([5e-6, 120e-6, 600e-6]),
        pattern=st.sampled_from(["cbr", "poisson"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_event_path(
        self, rate_pps, frame_size, seed, bridges, wire_m, quantum_s,
        pause_mean_s, pattern,
    ):
        # Quanta down to 50 us pause the guest mid-service; mean pauses
        # above the quantum overlap their releases.
        legacy = assert_equivalent(
            rate_pps=rate_pps, frame_size=frame_size, seed=seed,
            bridges=bridges, wire_m=wire_m, quantum_s=quantum_s,
            pause_mean_s=pause_mean_s, pattern=pattern,
        )
        assert legacy["jobs"][0][1] > 0  # traffic came back

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_sweep_on_one_world(self, seed):
        # Three reseeded runs on one world: the compiled spec is reused,
        # and each run starts from the previous run's drained state.
        assert_equivalent(rate_pps=120_000, frame_size=64, seed=seed, runs=3)

    def test_overload_epochs_span_blocks(self):
        # 300 kpps for 40 ms is ~12k sends, three 4096-send blocks: the
        # guest stays overloaded across block boundaries, and its
        # 20-80 ms degradation epochs straddle them.
        legacy = assert_equivalent(rate_pps=300_000, frame_size=64,
                                   duration_s=0.04, seed=7)
        assert legacy["epoch"][0] > 0  # an overload epoch was drawn
        assert legacy["dev0"]["backlog_dropped"] > 0

    def test_latency_samples_with_hardware_nics(self):
        assert_equivalent(rate_pps=40_000, frame_size=64, seed=3,
                          nic_class=HardwareNic, bridges=False)

    def test_without_a_hypervisor(self):
        assert_equivalent(rate_pps=80_000, frame_size=1500, seed=5,
                          hypervisor=False)

    def test_closed_gate_drops_everything(self):
        def build(sim, **kwargs):
            gen, router, hv, devices = build_vm_chain(sim, **kwargs)
            router.gate = lambda: False
            return gen, router, hv, devices

        legacy = assert_equivalent(rate_pps=50_000, frame_size=64,
                                   build=build)
        assert legacy["dev0"]["forwarded"] == 0


# -- the pinned equal-time ties ----------------------------------------------

#: 64 B on a 10 G port; the service is exactly the mean under Scripted.
SERIALIZE_S = wire_bits(64) / 10e9
MEAN_S = 21.0e-6 + 1.0e-9 * 64


def build_scripted(sim, quantum_s, pause_s, **router_kwargs):
    """A direct, zero-wire VM chain with scripted draws, built at t=0."""
    gen, router, hv, devices = build_vm_chain(
        sim, bridges=False, nic_class=HardwareNic, quantum_s=quantum_s,
        generator=StampEvery, **router_kwargs,
    )
    router._rng = Scripted()
    hv._rng = Scripted(pause_s)
    return gen, router, hv, devices


def arrival(k, gap):
    """When frame ``k`` reaches the guest: the event path's float ops."""
    send = 0.0
    for __ in range(k):
        send += gap
    return send + SERIALIZE_S + 0.0


class TestPinnedTies:
    def test_pause_landing_on_a_completion_runs_first(self):
        # The first fire is due exactly when frame 0 completes.  It was
        # scheduled at t=0, the completion at frame 0's service start,
        # so the fire runs first: the completion finds the guest paused,
        # and frame 1 (queued behind it) waits for the release.
        gap = 10e-6
        quantum = arrival(0, gap) + MEAN_S
        pause = 50e-6

        def build(sim, **__):
            return build_scripted(sim, quantum, pause)

        legacy = assert_equivalent(rate_pps=1 / gap, frame_size=64,
                                   duration_s=0.001, build=build)
        latencies = legacy["jobs"][0][5]
        # Frame 1 started at the release, not at frame 0's completion.
        assert latencies[1] > quantum + pause + MEAN_S - gap - 1e-9

    def test_arrival_landing_on_a_release_runs_second(self):
        # Frame 2 arrives during the pause; the release is due exactly
        # when frame 3 arrives.  The release was scheduled at its fire,
        # the arrival when frame 3 finished serializing (later), so the
        # release runs first: frame 2 starts with a backlog of one, below
        # overload_backlog=2, and no overload epoch is ever drawn.
        gap = 50e-6
        quantum = arrival(2, gap) - 10e-6
        pause = arrival(3, gap) - quantum
        assert quantum + pause == arrival(3, gap)

        def build(sim, **__):
            return build_scripted(sim, quantum, pause, overload_backlog=2)

        legacy = assert_equivalent(rate_pps=1 / gap, frame_size=64,
                                   duration_s=0.0002, build=build)
        assert legacy["epoch"] == (-1.0, 1.0)

    def test_release_landing_on_the_next_fire_runs_first(self):
        # A pause exactly one quantum long: each release is due with the
        # next fire.  The fire's callback scheduled the release first,
        # so the guest resumes, starts one service, and is paused again
        # at once — one frame per quantum after the first fire.  Had
        # the fire run first, every release would end the pause for a
        # whole quantum, and the guest would forward ~90 frames.
        quantum = 200e-6
        gap = 20e-6

        def build(sim, **__):
            return build_scripted(sim, quantum, quantum)

        legacy = assert_equivalent(rate_pps=1 / gap, frame_size=64,
                                   duration_s=0.002, build=build)
        __, rx, *___ = legacy["jobs"][0]
        assert rx <= quantum / gap + 0.002 / quantum + 1

    def test_an_unmodelled_tie_raises(self):
        # A zero-length pause whose fire is due exactly when frame 1
        # arrives: the release and the arrival are then both due, and
        # both scheduled, at one instant.
        gap = 50e-6
        previous = os.environ.get("POS_NETSIM_BATCH")
        os.environ["POS_NETSIM_BATCH"] = "1"
        fastpath.enabled.refresh()
        try:
            sim = Simulator()
            gen, *__ = build_scripted(sim, arrival(1, gap), 0.0)
            with pytest.raises(SimulationError, match="not modelled"):
                gen.start(rate_pps=1 / gap, frame_size=64, duration_s=0.001)
        finally:
            if previous is None:
                os.environ.pop("POS_NETSIM_BATCH", None)
            else:
                os.environ["POS_NETSIM_BATCH"] = previous
            fastpath.enabled.refresh()


class TestSeededEligibility:
    def test_outstanding_release_is_rejected(self):
        sim = Simulator()
        gen, router, hv, __ = build_vm_chain(sim, quantum_s=1e-3,
                                             pause_mean_s=1e-3)
        sim.run(until=1e-3)  # first fire: the guest is paused
        hv.stop()
        router.resume()  # not paused any more, but a release is pending
        assert hv.outstanding == 1
        assert "release is outstanding" in fastpath._compile(gen)

    def test_hypervisor_pausing_an_off_path_guest_is_rejected(self):
        sim = Simulator()
        gen, __, hv, ___ = build_vm_chain(sim)
        hv.attach(VirtualizedLinuxRouter(sim, name="elsewhere"))
        assert "elsewhere, off this path" in fastpath._compile(gen)

    def test_deterministic_device_under_a_hypervisor_is_rejected(self):
        from repro.netsim.router import LinuxRouter

        sim = Simulator()
        tx, rx = HardwareNic(sim, "tx"), HardwareNic(sim, "rx")
        router = LinuxRouter(sim)
        p0, p1 = HardwareNic(sim, "p0"), HardwareNic(sim, "p1")
        router.add_port(p0)
        router.add_port(p1)
        DirectWire(sim, tx, p0)
        DirectWire(sim, p1, rx)
        Hypervisor(sim).attach(router)
        gen = MoonGen(sim, tx, rx)
        assert "not seeded_service" in fastpath._compile(gen)
