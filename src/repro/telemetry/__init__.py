"""Deterministic telemetry plane: spans, metrics, per-run provenance.

pos's reproducibility story rests on *enforced central collection* of
results **and** metadata (R1-R3): a published artifact must let a
reader retrace not only what was measured but how the toolchain behaved
while measuring it — retries, injected faults, recovery, scheduler
sharding, and which netsim path executed a run.  This package collects
that execution metadata as first-class artifacts:

* :mod:`repro.telemetry.spans` — nested, monotonic-sequence-ordered
  spans with attributes; virtual-time durations only, so artifacts stay
  byte-reproducible (wall-clock profiling is opt-in via
  ``POS_TELEMETRY_WALLCLOCK=1`` and lands in a sidecar, never in the
  deterministic trace);
* :mod:`repro.telemetry.metrics` — counters, gauges and histograms with
  deterministic snapshots;
* :mod:`repro.telemetry.context` — the ambient collector deep layers
  (retry policy, fault injector, event engine, fast path, load
  generator) report into without explicit plumbing;
* :mod:`repro.telemetry.plane` — the experiment-level plane: writes
  ``trace.jsonl`` / ``telemetry.json`` and the byte-compatible legacy
  ``controller.log``, and hands each run's snapshot to its
  ``journal.jsonl`` record;
* :mod:`repro.telemetry.report` — renders the per-run provenance table
  from the published artifacts alone (``pos report``);
* :mod:`repro.telemetry.schema` — dependency-free validation of the
  telemetry artifacts against the checked-in JSON schemas.

The plane is deterministic by construction: artifacts are byte-identical
for any ``--jobs N`` (workers return span/metric buffers inside
``RunOutcome``; the parent assigns global sequence numbers in run order)
and across a crash plus :meth:`Controller.resume` (adopted runs replay
their buffers from their ``journal.jsonl`` records).  ``POS_TELEMETRY=0``
disables collection entirely (the overhead-benchmark baseline).
"""

from __future__ import annotations

from repro.telemetry.context import current, run_collector
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.plane import ExperimentTelemetry, enabled
from repro.telemetry.spans import RunTelemetry, Span

__all__ = [
    "ExperimentTelemetry",
    "MetricsRegistry",
    "RunTelemetry",
    "Span",
    "current",
    "enabled",
    "run_collector",
]
