"""Replay-kernel regimes: each one engaged, verified, and exact.

The column-pass kernel in :mod:`repro.netsim.fastpath` replays every
FIFO stage in one of three regimes (under-loaded, critical, saturated)
and falls back to the per-packet recurrence only for a block no regime
verifies.  Equivalence alone cannot tell which branch ran — a kernel
that silently loops is still exact — so these tests pin the regime of
every stage *and* demand bit-identity with the ``POS_NETSIM_BATCH=0``
event path.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudy import POS_RATES
from repro.casestudy.experiment import _loadgen_measurement
from repro.core.errors import ExperimentError, SimulationError
from repro.core.scripts import ScriptContext
from repro.loadgen.moongen import LATENCY_SAMPLE_INTERVAL
from repro.netsim import fastpath
from repro.netsim.engine import Simulator
from repro.testbed.scenarios import build_pos_pair
from tests.conftest import boot_and_configure
from tests.netsim.test_fastpath_dag import build_dag, observe

REGIMES = ("_underloaded", "_critical", "_saturated", "_queue_loop")


@pytest.fixture
def regimes(monkeypatch):
    """Count, per regime function, the blocks it served (True) or refused."""
    calls: Counter = Counter()
    for name in REGIMES:
        original = getattr(fastpath, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            served = _original(*args, **kwargs)
            calls[_name, served is not None] += 1
            return served

        monkeypatch.setattr(fastpath, name, counted)
    return calls


def _served(calls):
    return {name for (name, ok), count in calls.items() if ok and count}


def run_chain(batched, kinds=("router",), rate_pps=200_000, frame_size=64,
              duration_s=0.01, interval_s=0.004, runs=1, seed=3, flows=1,
              backlog=None):
    previous = os.environ.get("POS_NETSIM_BATCH")
    os.environ["POS_NETSIM_BATCH"] = "1" if batched else "0"
    fastpath.enabled.refresh()
    try:
        sim = Simulator()
        gen, devices = build_dag(sim, list(kinds), seed=seed)
        if backlog is not None:
            for device in devices:
                device.backlog_limit = backlog
        observed = []
        for number in range(runs):
            gen.reseed(seed + number)
            job = gen.start(
                rate_pps=rate_pps, frame_size=frame_size,
                duration_s=duration_s, interval_s=interval_s, flows=flows,
            )
            sim.run(until=sim.now + duration_s + 0.05)
            assert job.finished
            state = observe(gen, devices, job, sim)
            state.pop("events")
            state["cursor"] = (gen._next_interval_end, gen._seq)
            observed.append(state)
        return observed
    finally:
        if previous is None:
            os.environ.pop("POS_NETSIM_BATCH", None)
        else:
            os.environ["POS_NETSIM_BATCH"] = previous
        fastpath.enabled.refresh()


def assert_regimes(calls, served):
    assert _served(calls) == set(served), dict(calls)
    assert not calls["_queue_loop", True], "a block fell back to the loop"


def assert_exact(**kwargs):
    legacy = run_chain(False, **kwargs)
    batched = run_chain(True, **kwargs)
    for run, (want, got) in enumerate(zip(legacy, batched)):
        for key in want:
            assert got[key] == want[key], f"run {run}: {key} diverged"
    return legacy


class TestRegimes:
    def test_underloaded(self, regimes):
        (state,) = assert_exact(rate_pps=300_000, frame_size=64)
        assert_regimes(regimes, {"_underloaded"})
        # Neither a refused attempt nor a drop anywhere.
        assert set(regimes) == {("_underloaded", True)}
        assert state["tx_nic"]["tx_dropped"] == 0

    @pytest.mark.parametrize("rate_pps", [900_000, 1_400_000, 2_000_000])
    def test_critical_egress_at_line_rate(self, regimes, rate_pps):
        # Generator and egress NIC serialize 1500 B frames at the same
        # line rate: the DuT hands the egress frames spaced exactly one
        # serialization time apart, with 1-ulp waits in between.
        (state,) = assert_exact(rate_pps=rate_pps, frame_size=1500)
        assert_regimes(regimes, {"_saturated", "_underloaded", "_critical"})
        assert state["dev0.ports"][1]["tx_dropped"] == 0

    def test_saturated_with_tx_ring_drops(self, regimes):
        (state,) = assert_exact(rate_pps=2_000_000, frame_size=1500)
        assert state["tx_nic"]["tx_dropped"] > 0
        assert regimes["_saturated", True]
        assert_regimes(regimes, {"_saturated", "_underloaded", "_critical"})

    def test_saturated_with_backlog_drops(self, regimes):
        (state,) = assert_exact(rate_pps=2_000_000, frame_size=64)
        assert state["dev0"]["backlog_dropped"] > 0
        assert state["tx_nic"]["tx_dropped"] == 0
        assert_regimes(regimes, {"_saturated", "_underloaded"})

    def test_lossless_busy_period_shorter_than_the_ring(self, regimes):
        # 1.8 Mpps of 64 B frames overloads the DuT by 3%: over 3 ms the
        # backlog grows by ~160 frames, far below its 1000 slots.
        (state,) = assert_exact(rate_pps=1_800_000, frame_size=64,
                                duration_s=0.003)
        assert state["dev0"]["backlog_dropped"] == 0
        assert state["tx_nic"]["tx_dropped"] == 0
        assert_regimes(regimes, {"_saturated", "_underloaded"})

    def test_three_runs_on_one_world(self, regimes):
        # Later runs start at a non-zero time, and every run spans
        # several blocks whose first send index is not a multiple of
        # the sampling interval: latency samples must stay aligned to
        # the sequence numbers across blocks and runs.
        assert fastpath._BLOCK % LATENCY_SAMPLE_INTERVAL
        states = assert_exact(rate_pps=1_900_000, frame_size=64,
                              duration_s=0.01, runs=3)
        for state in states:
            assert state["dev0"]["backlog_dropped"] > 0
            assert len(state["latency"]) > 100
        assert_regimes(regimes, {"_saturated", "_underloaded"})

    @pytest.mark.parametrize("backlog", [1000, 1])
    def test_two_dropping_stages(self, backlog):
        # The generator's ring and the bridge behind it both drop: the
        # bridge lists the ring's implicit admissions, whether its own
        # stay implicit (1000 slots) or are listed too (one slot).
        (state,) = assert_exact(kinds=("bridge",), rate_pps=4_000_000,
                                frame_size=1500, backlog=backlog)
        assert state["tx_nic"]["tx_dropped"] > 0
        assert state["dev0"]["backlog_dropped"] > 0

    def test_one_slot_backlog_falls_back_exactly(self, regimes):
        # With one backlog slot an overloaded DuT admits a frame only
        # once it is idle, so the stage is neither busy nor drop-free:
        # no column regime verifies, and the per-packet loop must pick
        # up their carried state and stay exact.
        (state,) = assert_exact(rate_pps=2_000_000, frame_size=64, backlog=1)
        assert state["dev0"]["backlog_dropped"] > 0
        assert regimes["_saturated", False] and regimes["_queue_loop", True]


SERVICE = 1e-6


def _pending(queue, last):
    """Ring pop times still ahead of the last arrival (the rest expired)."""
    return [p for p in queue.tail if p > last]


class TestRegimeAlgebra:
    """Each column regime, wherever it verifies, equals the loop it replaces.

    Blocks of arrivals spaced in multiples of the service time (ties,
    overload, exact line rate, idle gaps) run through two queues from
    the same carried state: one through the regime under test (the loop
    when it refuses), one through the reference recurrence.
    """

    @given(
        regime=st.sampled_from(["_underloaded", "_critical", "_saturated"]),
        cap=st.integers(min_value=1, max_value=5),
        pops_at_start=st.booleans(),
        post=st.sampled_from([0.0, 5e-9]),
        start=st.sampled_from([0.0, 1000.0]),
        blocks=st.lists(
            st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.0, 1.1, 2.5]),
                     min_size=1, max_size=40),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_regime_equals_loop(self, regime, cap, pops_at_start, post,
                                start, blocks):
        _assert_blocks_equal_loop(regime, cap, pops_at_start, post, start,
                                  blocks)

    @given(
        cap=st.integers(min_value=2, max_value=5),
        pops_at_start=st.booleans(),
        start=st.sampled_from([0.0, 1000.0]),
        blocks=st.lists(
            st.lists(st.sampled_from([0.0, 0.5, 0.9, 0.999999, 1.0]),
                     min_size=1, max_size=60),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_overloaded_blocks_equal_loop(self, cap, pops_at_start, start,
                                          blocks):
        # Arrivals mostly faster than service, with gaps a hair below
        # and exactly at the service time: where the implicit
        # admissions are proved, and where the proof just fails.
        _assert_blocks_equal_loop("_saturated", cap, pops_at_start, 0.0,
                                  start, blocks)

    @given(
        cap=st.integers(min_value=1, max_value=3),
        pops_at_start=st.booleans(),
        post=st.sampled_from([0.0, 5e-9]),
        start=st.sampled_from([1000.0, 1500.0]),
        blocks=st.lists(
            st.lists(st.sampled_from([-1, 0, 1, 4, 8]), min_size=1,
                     max_size=30),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_underloaded_proof_at_its_edge(self, cap, pops_at_start, post,
                                           start, blocks):
        # Gaps of s - ulp, s, s + ulp, s + 4 ulp and s + 8 ulp, where
        # ``+ s`` rounds down (t = 1000) or up (t = 1500): the proof must
        # refuse whatever the loop makes wait, and a block 8 ulps clear
        # of s is proved.
        proved = _assert_blocks_equal_loop(
            "_underloaded", cap, pops_at_start, post, start, blocks,
            step=lambda t, ulps: t + SERVICE + ulps * math.ulp(t),
        )
        assert min(proved) >= sum(1 for gaps in blocks if min(gaps) == 8)


def least_gap(A):
    """The largest float at or below every real gap of ``A``."""
    if len(A) < 2:
        return math.inf
    least = min(Fraction(b) - Fraction(a) for a, b in zip(A, A[1:]))
    bound = float(least)
    return bound if bound <= least else math.nextafter(bound, -math.inf)


def _assert_blocks_equal_loop(regime, cap, pops_at_start, post, start, blocks,
                              step=lambda t, gap: t + gap * SERVICE):
    """Run ``blocks`` through ``regime`` and the loop from one state.

    ``_underloaded`` runs twice: measuring each block's least gap, and
    handed that gap as a carried bound.  Returns how many blocks each
    served without the loop.
    """
    loop = fastpath._Queue(SERVICE, cap, post, pops_at_start, 1.0)
    columns = [fastpath._Queue(SERVICE, cap, post, pops_at_start, 1.0)
               for __ in range(2 if regime == "_underloaded" else 1)]
    proved = [0] * len(columns)
    t = start
    for gaps in blocks:
        arrivals = []
        for gap in gaps:
            t = step(t, gap)
            arrivals.append(t)
        n = len(arrivals)
        want = fastpath._queue_loop(loop, list(arrivals))
        expected = list(range(n)) if want[1] is None else want[1]
        for carried, column in enumerate(columns):
            bound = least_gap(arrivals) if carried else None
            served = getattr(fastpath, regime)(column, list(arrivals), bound)
            if served is None:
                served = fastpath._queue_loop(column, list(arrivals))
            else:
                proved[carried] += 1
            assert served[0] == want[0]
            got = served[1]
            if isinstance(got, fastpath._Admitted):
                # The implicit form answers every prefix count exactly
                # and lists exactly the loop's admissions.
                for i in range(n + 1):
                    assert got.count(i) == bisect_left(expected, i), i
                got = got.sends()
            assert (list(range(n)) if got is None else got) == expected
            assert column.free == loop.free
            assert _pending(column, t) == _pending(loop, t)
    return proved


def pos_sweep(duration_s, interval_s):
    """The POS_RATES x {64, 1500} sweep at the controller's run epochs."""
    setup = boot_and_configure(build_pos_pair(seed=0))
    for index, (size, rate) in enumerate(
        (size, rate) for size in (64, 1500) for rate in POS_RATES
    ):
        setup.begin_run(index)
        job = setup.loadgen.start(rate_pps=rate, frame_size=size,
                                  duration_s=duration_s, interval_s=interval_s)
        setup.sim.run(until=setup.sim.now + duration_s + 0.05)
        assert job.finished and job.rx_packets > 0


class TestPosSweepEngagement:
    def test_fig3a_sweep_never_loops(self, regimes, monkeypatch):
        # A kernel that silently loops per packet on part of the sweep
        # still passes every equivalence test; this pins the whole
        # sweep to the column regimes.
        def refuse(*args, **kwargs):
            raise AssertionError("per-packet loop entered")

        monkeypatch.setattr(fastpath, "_queue_loop", refuse)
        pos_sweep(duration_s=0.005, interval_s=0.002)
        assert _served(regimes) == {"_underloaded", "_critical", "_saturated"}
        assert not any(count for (__, ok), count in regimes.items() if not ok)

    def test_fig3a_underloaded_blocks_use_the_carried_bound(self, monkeypatch):
        # A kernel that drops the carried gap bound and measures each
        # block's least gap again is exact, only slower; this pins every
        # under-loaded NIC and FIFO block of the sweep to the proof from
        # the bound its upstream stage handed it.
        proofs: Counter = Counter()
        original = fastpath._underloaded

        def spy(q, A, gap=None):
            served = original(q, A, gap)
            proofs[gap is not None, served is not None] += 1
            return served

        monkeypatch.setattr(fastpath, "_underloaded", spy)
        pos_sweep(duration_s=0.005, interval_s=0.002)
        assert set(proofs) == {(True, True)}
        assert proofs[True, True] > 100

    def test_fig3a_saturated_blocks_stay_implicit(self, monkeypatch):
        # An exact kernel that lists every admitted frame again passes
        # every equivalence test; this pins each saturated block of the
        # sweep that drops frames to the implicit admissions.
        forms: Counter = Counter()
        original = fastpath._saturated

        def spy(*args, **kwargs):
            served = original(*args, **kwargs)
            admitted = None if served is None else served[1]
            forms[type(admitted).__name__, bool(admitted)] += 1
            return served

        monkeypatch.setattr(fastpath, "_saturated", spy)
        pos_sweep(duration_s=0.02, interval_s=0.01)
        # Blocks that admit every frame return None; none lists.
        assert set(forms) == {("_Admitted", True), ("NoneType", False)}
        assert forms["_Admitted", True] > 100


class _Tools:
    """The pos tool calls the case-study measurement makes."""

    def upload(self, *args):
        pass

    def log(self, *args):
        pass

    def barrier(self, *args):
        pass


class TestDrainHorizon:
    def _context(self, setup, drain):
        return ScriptContext(
            node=None, role="loadgen", phase="measurement",
            variables={"pkt_rate": 2_000_000, "pkt_sz": 64,
                       "duration": 0.01, "interval": 0.005, "drain": drain},
            tools=_Tools(), setup=setup, run_index=0,
        )

    def test_horizon_is_the_last_replayed_event(self):
        setup = boot_and_configure(build_pos_pair(seed=0))
        deadline = setup.sim.now + 0.01
        job = setup.loadgen.start(rate_pps=2_000_000, frame_size=64,
                                  duration_s=0.01, interval_s=0.005)
        # A saturated DuT still works through its backlog after the
        # deadline: 1000 frames of ~0.57 us service.
        assert job.drain_horizon_s > deadline + 5e-4
        with pytest.raises(SimulationError, match="drain"):
            job.check_drained(deadline + 5e-4)
        job.check_drained(job.drain_horizon_s)

    def test_short_drain_fails_the_measurement(self):
        setup = boot_and_configure(build_pos_pair(seed=0))
        with pytest.raises(ExperimentError, match="drain"):
            _loadgen_measurement(self._context(setup, drain=1e-4))

    def test_default_drain_passes(self):
        setup = boot_and_configure(build_pos_pair(seed=0))
        outcome = _loadgen_measurement(self._context(setup, drain=0.05))
        assert outcome["rx"] > 0

    def test_event_path_records_no_horizon(self, monkeypatch):
        monkeypatch.setenv("POS_NETSIM_BATCH", "0")
        fastpath.enabled.refresh()
        setup = boot_and_configure(build_pos_pair(seed=0))
        job = setup.loadgen.start(rate_pps=100_000, frame_size=64,
                                  duration_s=0.001)
        assert job.drain_horizon_s is None
        job.check_drained(0.0)

    def test_moongen_command_refuses_a_short_window(self):
        # The command drains for a fixed 50 ms; a DuT slowed to 0.1 ms
        # per frame needs ~100 ms for a full backlog.
        setup = boot_and_configure(build_pos_pair(seed=0))
        setup.router.base_cost_s = 1e-4
        result = setup.nodes["riga"].execute(
            "moongen --rate 100000 --size 64 --duration 0.02"
        )
        assert result.exit_code == 1
        assert "drain" in result.stdout
