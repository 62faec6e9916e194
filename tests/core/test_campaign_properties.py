"""Property-based determinism tests for the campaign scheduler.

The central guarantee under test: for *any* campaign spec, the full
campaign directory — admission log, journal, telemetry, and every
experiment's artifact tree — is byte-identical

* for ``--jobs 1`` and ``--jobs 4`` (admission order is a pure function
  of the spec; outcomes merge through the reorder buffer), and
* after a mid-campaign crash followed by ``--resume``.

Admission-plan invariants are cheap pure functions and get a wide
hypothesis sweep; whole-campaign executions are expensive, so those
properties run fewer seeded examples but compare entire trees.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, ExperimentSpec, plan_admission, run_campaign
from tests.conftest import tree as tree_snapshot

POOL = ["alpha", "beta", "gamma"]
USERS = ["alice", "bob"]


@st.composite
def campaign_specs(draw, max_experiments=4, with_deadlines=True):
    count = draw(st.integers(min_value=1, max_value=max_experiments))
    experiments = []
    for index in range(count):
        duration = float(draw(st.sampled_from([30, 60, 90, 120])))
        deadline = None
        if with_deadlines and draw(st.booleans()):
            # Sometimes generous, sometimes tight enough to reject.
            deadline = duration * draw(st.sampled_from([1, 4]))
        experiments.append(
            ExperimentSpec(
                name=f"exp-{index}",
                user=draw(st.sampled_from(USERS)),
                nodes=draw(st.integers(min_value=1, max_value=len(POOL))),
                duration=duration,
                submit_index=index,
                priority=draw(st.integers(min_value=0, max_value=9)),
                deadline=deadline,
                rates=[100 * (1 + draw(st.integers(min_value=0, max_value=2)))],
            )
        )
    return CampaignSpec(
        name="prop",
        pool=list(POOL),
        experiments=experiments,
        max_active_per_user=draw(st.sampled_from([None, 1, 2])),
    )


# --------------------------------------------------------------------------
# admission plan invariants (pure function — wide sweep)
# --------------------------------------------------------------------------


@given(spec=campaign_specs(max_experiments=8))
@settings(max_examples=200, deadline=None)
def test_admission_plan_invariants(spec):
    plan = plan_admission(spec)
    # Every experiment gets exactly one decision.
    assert len(plan.admitted) + len(plan.rejected) == len(spec.experiments)
    per_node = {}
    for placement in plan.admitted:
        assert placement.end == placement.start + placement.spec.duration
        assert len(placement.nodes) == placement.spec.node_count
        assert set(placement.nodes) <= set(spec.pool)
        if placement.spec.deadline is not None:
            assert placement.end <= placement.spec.deadline
        for node in placement.nodes:
            per_node.setdefault(node, []).append(placement)
    # No two placements ever share a node concurrently (half-open).
    for placements in per_node.values():
        placements.sort(key=lambda p: p.start)
        for earlier, later in zip(placements, placements[1:]):
            assert earlier.end <= later.start
    # The fairness cap bounds *instantaneous* concurrency: check it at
    # every window start (concurrency only rises at a start point).
    if spec.max_active_per_user is not None:
        by_user = {}
        for placement in plan.admitted:
            by_user.setdefault(placement.spec.user, []).append(placement)
        for placements in by_user.values():
            for placement in placements:
                moment = placement.start
                active = sum(
                    1 for other in placements
                    if other.start <= moment < other.end
                )
                assert active <= spec.max_active_per_user


@given(spec=campaign_specs(max_experiments=8))
@settings(max_examples=50, deadline=None)
def test_admission_plan_is_reproducible(spec):
    assert plan_admission(spec).entries() == plan_admission(spec).entries()


# --------------------------------------------------------------------------
# whole-tree byte identity (expensive — few seeded examples)
# --------------------------------------------------------------------------


def assert_identical_trees(left, right):
    a, b = tree_snapshot(left), tree_snapshot(right)
    assert sorted(a) == sorted(b)
    different = [path for path in a if a[path] != b[path]]
    assert different == [], f"trees differ in: {different}"


@given(spec=campaign_specs(max_experiments=3, with_deadlines=False))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_jobs1_and_jobs4_trees_are_byte_identical(spec):
    workdir = tempfile.mkdtemp(prefix="campaign-prop-")
    try:
        serial = os.path.join(workdir, "serial")
        parallel = os.path.join(workdir, "parallel")
        assert run_campaign(spec, serial, jobs=1).ok
        assert run_campaign(spec, parallel, jobs=4).ok
        assert_identical_trees(serial, parallel)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class PlannedCrash(RuntimeError):
    """Simulated campaign-runner death; not a PosError, nothing handles it."""


@given(
    spec=campaign_specs(max_experiments=3, with_deadlines=False),
    crash_after=st.integers(min_value=1, max_value=2),
)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_crash_and_resume_tree_is_byte_identical(spec, crash_after):
    workdir = tempfile.mkdtemp(prefix="campaign-crash-")
    try:
        baseline = os.path.join(workdir, "baseline")
        crashed = os.path.join(workdir, "crashed")
        assert run_campaign(spec, baseline, jobs=1).ok

        seen = {"count": 0}

        def crash(outcome):
            seen["count"] += 1
            if seen["count"] >= crash_after:
                raise PlannedCrash(f"killed after {crash_after}")

        total = len(plan_admission(spec).admitted)
        if total >= crash_after:
            with pytest.raises(PlannedCrash):
                run_campaign(spec, crashed, jobs=4,
                             on_experiment_complete=crash)
        else:
            # Too few deliveries to ever trigger the crash callback.
            assert run_campaign(spec, crashed, jobs=4,
                                on_experiment_complete=crash).ok
        assert run_campaign(spec, crashed, jobs=4, resume=True).ok
        assert_identical_trees(baseline, crashed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
