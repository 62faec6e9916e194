"""Property-based determinism tests for the study plane.

The central guarantee: the expanded study — cells, derived seeds,
campaign specs, and ultimately the whole artifact tree — is a pure
function of ``(study spec, root seed)``.  Expansion invariants are
cheap pure functions and get a wide hypothesis sweep; whole-study
executions are expensive, so the byte-identity property runs fewer
seeded examples but compares entire trees.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.study import (
    RESPONSE_VARIABLE,
    StudySpec,
    derive_seed,
    expand_cells,
    replication_campaign,
    run_study,
)
from tests.conftest import tree as tree_snapshot

FACTOR_NAMES = ["rate", "size", "burst"]
LEVEL_POOL = [1, 2, 64, 128, 1.5, "a", "b"]


@st.composite
def study_specs(draw, max_factors=3, max_levels=3, max_replications=3):
    factor_count = draw(st.integers(min_value=1, max_value=max_factors))
    factors = {}
    for name in FACTOR_NAMES[:factor_count]:
        level_count = draw(st.integers(min_value=1, max_value=max_levels))
        levels = draw(
            st.lists(
                st.sampled_from(LEVEL_POOL),
                min_size=level_count,
                max_size=level_count,
                unique_by=repr,
            )
        )
        factors[name] = levels
    return StudySpec(
        name="prop",
        factors=factors,
        replications=draw(
            st.integers(min_value=1, max_value=max_replications)
        ),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        noise=draw(st.sampled_from([0.0, 0.01, 0.05])),
    )


@given(study_specs())
@settings(max_examples=200, deadline=None)
def test_expansion_is_a_pure_function_of_spec_and_seed(spec):
    spec.validate()
    cells = expand_cells(spec.factors)
    assert len(cells) == spec.cell_count
    # Cells are pairwise distinct assignments covering the grid.
    assert len({tuple(sorted(c.items())) for c in cells}) == len(cells)
    for replication in range(spec.replications):
        first = replication_campaign(spec, replication)
        second = replication_campaign(spec, replication)
        assert first.describe() == second.describe()
        assert len(first.experiments) == spec.cell_count
        for experiment, cell in zip(first.experiments, cells):
            for factor, level in cell.items():
                assert experiment.loop[factor] == [level]
            assert RESPONSE_VARIABLE in experiment.loop


@given(study_specs())
@settings(max_examples=200, deadline=None)
def test_replication_seeds_are_pairwise_distinct(spec):
    seeds = [derive_seed(spec.seed, k) for k in range(spec.replications)]
    assert len(set(seeds)) == len(seeds)
    # ... and differ from every sibling root's seeds: the low bits carry
    # the replication index, the high bits the diffused root.
    for k, seed in enumerate(seeds):
        assert seed & 0xFFFFFFFF == k
        assert derive_seed(spec.seed + 1, k) != seed


@given(study_specs(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=100, deadline=None)
def test_different_root_seeds_change_the_responses(spec, other_seed):
    """Replication campaigns embed the seed-jittered response, so two
    roots only expand identically when noise is zero or seeds collide."""
    one = replication_campaign(spec, 0)
    two = replication_campaign(
        StudySpec(
            name=spec.name,
            factors=spec.factors,
            replications=spec.replications,
            seed=other_seed,
            noise=spec.noise,
        ),
        0,
    )
    if spec.noise == 0.0 or spec.seed == other_seed:
        assert one.describe() == two.describe()
    # (With noise > 0 the responses *may* still round to equal values;
    # no assertion the other way.)


@given(study_specs(max_factors=2, max_levels=2, max_replications=2))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_study_tree_is_byte_identical_for_any_job_count(spec):
    root = tempfile.mkdtemp(prefix="study-prop-")
    try:
        serial = os.path.join(root, "serial")
        parallel = os.path.join(root, "parallel")
        assert run_study(spec, serial, jobs=1).ok
        assert run_study(spec, parallel, jobs=4).ok
        assert tree_snapshot(serial) == tree_snapshot(parallel)
    finally:
        shutil.rmtree(root, ignore_errors=True)
