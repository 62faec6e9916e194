"""Deterministic metrics: counters, gauges, histograms.

No wall-clock, no sampling, no background threads — a metric value is a
pure function of the operations that touched it, so snapshots taken in
run order are byte-identical across job counts and across crash/resume.
Registries are plain-dict-backed and picklable: a parallel worker fills
one per run and ships it back inside ``RunOutcome``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import reduce
from itertools import repeat
from operator import add
from typing import Dict, List, Optional, Sequence

__all__ = ["MetricsRegistry", "LATENCY_BUCKETS_S"]

#: Histogram bucket upper bounds for latency samples, in seconds.
#: Fixed edges keep the bucket layout — and therefore the artifact —
#: identical no matter what values a run produces.
LATENCY_BUCKETS_S: Sequence[float] = (
    10e-6, 20e-6, 50e-6, 100e-6, 200e-6, 500e-6,
    1e-3, 2e-3, 5e-3, 10e-3, 100e-3,
)


class MetricsRegistry:
    """Counters, gauges and histograms with deterministic snapshots.

    Names are flat dotted strings (``faults.injected.power``).  Counters
    add, gauges set, histograms count observations into fixed buckets.
    ``merge`` folds another registry (or its snapshot) in — counters and
    bucket counts sum, gauges take the other side's value — which is how
    per-run registries aggregate into the experiment-wide one.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, object]] = {}

    # -- recording -----------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(
        self, name: str, value: float,
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ) -> None:
        self.observe_many(name, (value,), buckets)

    def observe_many(
        self, name: str, values: Sequence[float],
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ) -> None:
        """Observe each of ``values`` in order, as ``observe`` would."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = {
                "buckets": [float(edge) for edge in buckets],
                "counts": [0] * (len(buckets) + 1),
                "sum": 0.0,
                "total": 0,
            }
            self.histograms[name] = histogram
        counts: List[int] = histogram["counts"]  # type: ignore[assignment]
        edges: List[float] = histogram["buckets"]  # type: ignore[assignment]
        # A value falls in the first bucket whose edge it does not exceed.
        for slot, n in Counter(map(bisect_left, repeat(edges), values)).items():
            counts[slot] += n
        # Summed left to right, one observation at a time.
        histogram["sum"] = reduce(add, values, float(histogram["sum"]))
        histogram["total"] = int(histogram["total"]) + len(values)

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "MetricsRegistry | dict") -> None:
        """Fold ``other`` (a registry or its snapshot dict) into this one."""
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, histogram in snapshot.get("histograms", {}).items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = {
                    "buckets": list(histogram["buckets"]),
                    "counts": list(histogram["counts"]),
                    "sum": histogram["sum"],
                    "total": histogram["total"],
                }
                continue
            if mine["buckets"] != list(histogram["buckets"]):
                raise ValueError(
                    f"histogram {name!r} bucket layouts differ; cannot merge"
                )
            mine["counts"] = [
                a + b for a, b in zip(mine["counts"], histogram["counts"])
            ]
            mine["sum"] = float(mine["sum"]) + float(histogram["sum"])
            mine["total"] = int(mine["total"]) + int(histogram["total"])

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data snapshot with deterministically sorted keys."""
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "histograms": {
                name: {
                    "buckets": list(self.histograms[name]["buckets"]),
                    "counts": list(self.histograms[name]["counts"]),
                    "sum": self.histograms[name]["sum"],
                    "total": self.histograms[name]["total"],
                }
                for name in sorted(self.histograms)
            },
        }

    def counter(self, name: str, default: Optional[int] = 0) -> Optional[int]:
        return self.counters.get(name, default)
