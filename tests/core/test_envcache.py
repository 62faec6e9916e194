"""The environment switch set: what may change an execution's tree.

Every switch doubles the configurations the byte-identity and overhead
suites must cover, so the set is pinned: the fast path's batching, the
deterministic telemetry (spans, metrics and health), and the evidence
sidecars.
"""

from __future__ import annotations

# The case study and the fast path (imported on a world's first
# batched run) between them register every switch of a world.
import repro.casestudy  # noqa: F401
import repro.netsim.fastpath  # noqa: F401
from repro.core.envcache import EnvSwitch


def test_switch_set_is_fixed():
    assert sorted(switch.var for switch in EnvSwitch._registry) == [
        "POS_DISPATCH_LOG", "POS_NETSIM_BATCH", "POS_TELEMETRY",
    ]
