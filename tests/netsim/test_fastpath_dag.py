"""Generalized DAG fast path: property-based equivalence + event gates.

The compiler in :mod:`repro.netsim.fastpath` claims to replay *any*
feed-forward DAG of deterministic FIFO stages bit-identically.  These
tests put that claim under randomized fire: hypothesis assembles
topologies from router chains, multi-core RSS routers, learning
bridges and match-action ASIC stages, sweeps rates, frame sizes,
pacing patterns, flow counts and seeds, and demands exact equality of
every observable against the ``POS_NETSIM_BATCH=0`` event path — plus
the ISSUE's ≥100x event-reduction floor on the sweep topologies.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadgen.moongen import MoonGen
from repro.loadgen.osnt import Osnt
from repro.netsim import fastpath
from repro.netsim.asicswitch import AsicSwitch
from repro.netsim.bridge import LinuxBridge
from repro.netsim.engine import Simulator
from repro.netsim.link import DirectWire
from repro.netsim.multicore import MultiCoreRouter
from repro.netsim.nic import HardwareNic
from repro.netsim.router import LinuxRouter

KINDS = ("router", "multicore", "bridge", "asic")


def build_dag(sim, kinds, seed=3, cores=4, generator=MoonGen, ring=None):
    """Wire tx -> [one device per kind] -> rx as a feed-forward chain.

    ``ring``, when given, is the TX ring size of the first device's ports.
    """
    tx = HardwareNic(sim, "lg.tx")
    rx = HardwareNic(sim, "lg.rx")
    devices = []
    upstream = tx
    for position, kind in enumerate(kinds):
        if kind == "asic":
            switch = AsicSwitch(sim, f"sw{position}", ports=2)
            switch.add_rule("lg.rx", 1)
            DirectWire(sim, upstream, switch.ports[0])
            upstream = switch.ports[1]
            devices.append(switch)
            continue
        p0 = HardwareNic(sim, f"d{position}.p0")
        p1 = HardwareNic(sim, f"d{position}.p1")
        if kind == "router":
            device = LinuxRouter(sim, f"d{position}")
        elif kind == "multicore":
            device = MultiCoreRouter(sim, f"d{position}", cores=cores)
        else:
            device = LinuxBridge(sim, f"d{position}")
        device.add_port(p0)
        device.add_port(p1)
        DirectWire(sim, upstream, p0)
        upstream = p1
        devices.append(device)
    DirectWire(sim, upstream, rx)
    if ring is not None:
        for port in devices[0].ports:
            port.tx_ring_size = ring
    if generator is Osnt:
        return Osnt(sim, tx, rx), devices
    return generator(sim, tx, rx, seed=seed), devices


def observe(gen, devices, job, sim):
    """Every externally visible observable of one finished run."""
    state = {
        "job": (job.tx_packets, job.rx_packets, job.tx_bytes, job.rx_bytes),
        "intervals": [
            (i.start, i.tx_packets, i.rx_packets, i.tx_bytes, i.rx_bytes)
            for i in job.intervals
        ],
        "latency": list(job.latency_samples_s),
        "tx_nic": gen.tx_nic.stats.snapshot(),
        "rx_nic": gen.rx_nic.stats.snapshot(),
        "events": sim.events_processed,
    }
    for position, device in enumerate(devices):
        if isinstance(device, AsicSwitch):
            state[f"dev{position}"] = (device.matched, device.missed)
        else:
            state[f"dev{position}"] = device.stats.snapshot()
        if isinstance(device, MultiCoreRouter):
            state[f"dev{position}.cores"] = list(device.per_core_forwarded)
        if isinstance(device, LinuxBridge):
            state[f"dev{position}.fdb"] = dict(device.fdb)
        state[f"dev{position}.ports"] = [
            port.stats.snapshot() for port in device.ports
        ]
    return state


def run_topology(batched, kinds, rate_pps, frame_size, pattern="cbr",
                 seed=3, flows=1, cores=4, duration_s=0.01,
                 interval_s=0.005, runs=1, generator=MoonGen, ring=None):
    previous = os.environ.get("POS_NETSIM_BATCH")
    os.environ["POS_NETSIM_BATCH"] = "1" if batched else "0"
    fastpath.enabled.refresh()
    try:
        sim = Simulator()
        gen, devices = build_dag(sim, kinds, seed=seed, cores=cores,
                                 generator=generator, ring=ring)
        # OSNT sends one flow and takes no flow count.
        options = {"flows": flows} if flows != 1 else {}
        job = None
        for number in range(runs):
            gen.reseed(seed)
            job = gen.start(
                rate_pps=rate_pps, frame_size=frame_size,
                duration_s=duration_s, interval_s=interval_s,
                pattern=pattern, **options,
            )
            sim.run(until=sim.now + duration_s + 0.05)
            assert job.finished
        return observe(gen, devices, job, sim), gen
    finally:
        if previous is None:
            os.environ.pop("POS_NETSIM_BATCH", None)
        else:
            os.environ["POS_NETSIM_BATCH"] = previous
        fastpath.enabled.refresh()


def assert_equivalent(**kwargs):
    legacy, __ = run_topology(False, **kwargs)
    batched, gen = run_topology(True, **kwargs)
    events_l = legacy.pop("events")
    events_b = batched.pop("events")
    for key in legacy:
        assert batched[key] == legacy[key], f"{key} diverged"
    return legacy, events_l, events_b, gen


class TestRandomizedTopologies:
    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
        # 2 and 4 Mpps overload the DuTs, and 1500 B frames the line;
        # at these rates a run spans several blocks.
        rate_pps=st.sampled_from([150_000, 400_000, 800_000,
                                  2_000_000, 4_000_000]),
        frame_size=st.sampled_from([64, 512, 1500]),
        pattern=st.sampled_from(["cbr", "poisson"]),
        seed=st.integers(min_value=0, max_value=2**16),
        flows=st.sampled_from([1, 3, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_event_path(
        self, kinds, rate_pps, frame_size, pattern, seed, flows,
    ):
        legacy, events_l, events_b, __ = assert_equivalent(
            kinds=kinds, rate_pps=rate_pps, frame_size=frame_size,
            pattern=pattern, seed=seed, flows=flows,
        )
        assert legacy["job"][0] > 0  # traffic actually flowed
        assert events_b < events_l

    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_sweep_reuse_is_bit_identical(self, kinds, seed):
        # Three consecutive runs on one world (the sweep path: the
        # compiled spec is reused) must equal three fresh-state
        # event-path runs, frame for frame.
        legacy, __ = run_topology(
            False, kinds=kinds, rate_pps=400_000, frame_size=64,
            seed=seed, runs=3,
        )
        batched, gen = run_topology(
            True, kinds=kinds, rate_pps=400_000, frame_size=64,
            seed=seed, runs=3,
        )
        for key in legacy:
            if key == "events":
                continue
            assert batched[key] == legacy[key], f"{key} diverged"
        spec = getattr(gen, "_dag_spec", None)
        assert spec is not None
        assert spec.reuse_count >= 2  # runs 2 and 3 re-engaged the spec


class TestOverloadEquivalence:
    def test_router_chain_with_drops(self):
        legacy, *_ = assert_equivalent(
            kinds=["router", "router"], rate_pps=4_000_000, frame_size=64,
        )
        assert legacy["dev0"]["backlog_dropped"] > 0

    def test_multicore_overload_spreads_flows(self):
        legacy, *_ = assert_equivalent(
            kinds=["multicore"], rate_pps=4_000_000, frame_size=64,
            flows=4, cores=4,
        )

    def test_bridge_learns_fdb(self):
        legacy, *_ = assert_equivalent(
            kinds=["bridge"], rate_pps=300_000, frame_size=64,
        )
        assert legacy["dev0.fdb"] == {"lg.tx": "d0.p0"}

    def test_asic_matches_every_frame(self):
        legacy, *_ = assert_equivalent(
            kinds=["asic"], rate_pps=300_000, frame_size=64,
        )
        assert legacy["dev0"][0] > 0 and legacy["dev0"][1] == 0

    def test_mixed_four_stage_chain(self):
        assert_equivalent(
            kinds=["asic", "multicore", "bridge", "router"],
            rate_pps=600_000, frame_size=64, flows=4,
        )

    def test_osnt_behind_a_learning_bridge(self):
        # OSNT builds its frames like MoonGen, so the bridge learns the
        # generator's port on the event path just as the replay does.
        legacy, events_l, events_b, __ = assert_equivalent(
            kinds=["bridge"], rate_pps=200_000, frame_size=64,
            generator=Osnt,
        )
        assert legacy["dev0.fdb"] == {"lg.tx": "d0.p0"}
        assert len(legacy["latency"]) == legacy["job"][1]
        assert events_b < events_l

    def test_osnt_through_a_match_action_switch(self):
        # The switch matches OSNT frames on their destination.
        legacy, *_ = assert_equivalent(
            kinds=["asic"], rate_pps=200_000, frame_size=64, generator=Osnt,
        )
        assert legacy["dev0"][0] > 0 and legacy["dev0"][1] == 0

    @pytest.mark.parametrize("ring", [1, 2])
    def test_rss_into_a_short_egress_ring(self, ring):
        # Cores complete frames at the instant the egress NIC finishes
        # serializing: a completion was scheduled when its core started,
        # before the serialization did, so it finds the ring still full
        # and the frame is dropped.
        legacy, *_ = assert_equivalent(
            kinds=["multicore"] * 3, rate_pps=10_000_000, frame_size=512,
            pattern="poisson", seed=31, flows=2, cores=4, ring=ring,
        )
        assert legacy["dev0.ports"][1]["tx_dropped"] > 0


STAGES = (fastpath._NicStage, fastpath._FifoStage, fastpath._RssStage,
          fastpath._AsicStage, fastpath._VmStage)


def gaps_at_least(A, gap):
    """Whether every real gap between consecutive times of ``A`` is >= gap."""
    # b - a is exact when a >= b / 2 (Sterbenz); Fraction covers the rest.
    return all(
        b - a >= gap if a >= b / 2 else Fraction(b) - Fraction(a) >= gap
        for a, b in zip(A, islice(A, 1, None))
    )


@contextmanager
def checked_gap_bounds(handed):
    """Check the gap bound handed to every stage against its block.

    Counts the bounds per stage class in ``handed``.
    """
    originals = {cls: cls.feed for cls in STAGES}

    def checked(original):
        def feed(self, A, G, base, gap):
            if gap is not None:
                assert gaps_at_least(A, gap), (type(self).__name__, gap)
                handed[type(self).__name__] += 1
            return original(self, A, G, base, gap)
        return feed

    for cls, original in originals.items():
        cls.feed = checked(original)
    try:
        yield
    finally:
        for cls, original in originals.items():
            cls.feed = original


class TestGapBoundSoundness:
    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
        rate_pps=st.sampled_from([150_000, 400_000, 800_000,
                                  2_000_000, 4_000_000]),
        frame_size=st.sampled_from([64, 512, 1500]),
        pattern=st.sampled_from(["cbr", "poisson"]),
        seed=st.integers(min_value=0, max_value=2**16),
        flows=st.sampled_from([1, 3, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_bound_is_below_the_least_gap(
        self, kinds, rate_pps, frame_size, pattern, seed, flows,
    ):
        handed = Counter()
        with checked_gap_bounds(handed):
            run_topology(True, kinds=kinds, rate_pps=rate_pps,
                         frame_size=frame_size, pattern=pattern, seed=seed,
                         flows=flows)
        if pattern == "cbr":
            # The generator's ring always receives the send bound.
            assert handed["_NicStage"] > 0


class TestEventReductionGates:
    """The ISSUE's acceptance floor: ≥100x fewer engine events."""

    def _gate(self, kinds, **kwargs):
        legacy, events_l, events_b, __ = assert_equivalent(
            kinds=kinds, rate_pps=2_000_000, frame_size=64,
            duration_s=0.02, **kwargs,
        )
        assert legacy["job"][0] > 10_000
        assert events_b * 100 <= events_l, (
            f"only {events_l / max(events_b, 1):.0f}x reduction"
        )

    def test_router_chain_sweep_cuts_events_100x(self):
        self._gate(["router", "router", "router"])

    def test_multicore_sweep_cuts_events_100x(self):
        self._gate(["multicore"], flows=8, cores=8)


class TestCompileShapes:
    def test_chain_of_three_routers_compiles(self):
        sim = Simulator()
        gen, devices = build_dag(sim, ["router", "router", "router"])
        spec = fastpath.compile_dag(gen)
        assert spec is not None
        assert [stage.kind for stage in spec.stages] == [
            "fifo", "serialize", "fifo", "serialize", "fifo", "serialize",
        ]
        assert spec.devices == devices

    def test_mixed_stage_kinds(self):
        sim = Simulator()
        gen, __ = build_dag(sim, ["asic", "multicore", "bridge"])
        spec = fastpath.compile_dag(gen)
        assert spec is not None
        assert [stage.kind for stage in spec.stages] == [
            "asic", "serialize", "rss", "serialize", "fifo", "serialize",
        ]
        bridge_stage = spec.stages[-2]
        assert bridge_stage.learns_src

    def test_asic_without_rule_rejected(self):
        sim = Simulator()
        gen, devices = build_dag(sim, ["asic"])
        devices[0].remove_rule("lg.rx")
        assert fastpath.compile_dag(gen) is None

    def test_asic_rule_to_ingress_rejected(self):
        sim = Simulator()
        gen, devices = build_dag(sim, ["asic"])
        devices[0].add_rule("lg.rx", 0)  # hairpin: egress == ingress
        assert fastpath.compile_dag(gen) is None

    def test_flooding_three_port_bridge_rejected(self):
        sim = Simulator()
        gen, devices = build_dag(sim, ["bridge"])
        devices[0].add_port(HardwareNic(sim, "d0.p2"))
        assert fastpath.compile_dag(gen) is None

    def test_rewired_topology_recompiles(self):
        # acquire_dag must notice a structural change between runs and
        # drop the stale spec instead of replaying the old wiring.
        sim = Simulator()
        gen, devices = build_dag(sim, ["asic"])
        first = fastpath.acquire_dag(gen)
        assert first is not None
        devices[0].add_rule("lg.rx", 1)  # same rule: unchanged
        assert fastpath.acquire_dag(gen) is first
        devices[0].remove_rule("lg.rx")
        assert fastpath.acquire_dag(gen) is None
        assert gen._dag_spec is None
