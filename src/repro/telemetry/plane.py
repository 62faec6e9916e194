"""The experiment-level telemetry plane.

Owns every telemetry artifact of one experiment execution:

``controller.log``
    The legacy sequence-numbered workflow log, byte-compatible with
    pre-telemetry readers.  A resumed execution *appends*, continuing
    the crashed execution's sequence numbers — the evidence is never
    destroyed.
``trace.jsonl``
    One JSON record per completed span, written in completion order
    (children before parents), with globally unique sequence numbers
    assigned at span start — workflow spans live on a logical tick
    clock, run-scoped spans on the netsim virtual clock.  The file is
    *rewritten* by a resumed execution: adopted runs replay their
    buffers from their ``journal.jsonl`` records, so the finished trace
    is a pure function of the run set and stays byte-identical across
    any ``--jobs N`` and across crash + resume.
``journal.jsonl`` (``telemetry`` field of each run record)
    Per-run span/metric snapshot, returned by :meth:`merge_run` when
    the run is persisted (in run order, through the scheduler's reorder
    buffer) and written with the run's fsynced journal record.
``telemetry.json``
    The experiment-wide metric aggregate, written at finalization.
``trace-wall.jsonl``
    Opt-in sidecar (``POS_TELEMETRY_WALLCLOCK=1``) carrying wall-clock
    profile measurements; deliberately separate so the deterministic
    artifacts never embed wall time.
``dispatch.jsonl``
    Evidence sidecar of the distributed execution plane (``--agents``):
    agent spawns, registrations, leases, dispatches, deaths,
    re-dispatches, quarantines, plus the pump's own transport-clock
    instants (``begin``, every ``send``/``recv``, each ``deliver``,
    ``complete``).  Every record carries the transport-clock ``t``;
    ``pos trace`` attributes the pump's lifetime from them.
    Deliberately quarantined from the determinism contract — which
    agent ran which run and how often it crashed depends on the
    placement and the crash schedule, while the merged artifacts must
    not — so determinism comparisons exclude it (``diff -r -x
    dispatch.jsonl``) or disable it (``POS_DISPATCH_LOG=0``).  A resumed
    execution appends: crash evidence is never destroyed.
``cache.jsonl``
    The run cache's hit/miss/store/corrupt evidence, under the same
    quarantine and gate as ``dispatch.jsonl``.

The causal fleet DAG (one dispatch → run → persist chain per run) is
not a file of its own: :func:`repro.telemetry.criticalpath.load_fleet_trace`
derives it from the ``run`` and ``experiment`` spans of ``trace.jsonl``.

Every record is flushed as written; phase boundaries additionally fsync
both the legacy log and the trace, matching the journal's durability —
a crashed controller loses no completed-span evidence the journal
already promised.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.core.envcache import EnvSwitch
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import LogicalClock, Span, strip_wall

__all__ = [
    "ExperimentTelemetry",
    "TRACE_NAME",
    "TELEMETRY_NAME",
    "WALL_SIDECAR_NAME",
    "DISPATCH_NAME",
    "CACHE_NAME",
    "EVIDENCE_SIDECARS",
    "enabled",
    "wallclock_enabled",
    "dispatch_enabled",
]

TRACE_NAME = "trace.jsonl"
TELEMETRY_NAME = "telemetry.json"
WALL_SIDECAR_NAME = "trace-wall.jsonl"
DISPATCH_NAME = "dispatch.jsonl"
CACHE_NAME = "cache.jsonl"

#: Every evidence sidecar quarantined from the byte-identity contract;
#: determinism comparisons between executions exclude exactly these.
EVIDENCE_SIDECARS = (DISPATCH_NAME, CACHE_NAME)

_LEGACY_LINE = re.compile(r"^\[(\d+)\] ")


#: Whether telemetry collection is on (``POS_TELEMETRY`` != 0).
#: Resolved once per world (:mod:`repro.core.envcache`), not per run.
enabled = EnvSwitch("POS_TELEMETRY")

#: Whether wall-clock profiles go to the ``trace-wall.jsonl`` sidecar
#: (``POS_TELEMETRY_WALLCLOCK`` == 1; off by default).
wallclock_enabled = EnvSwitch("POS_TELEMETRY_WALLCLOCK", default="0", mode="one")

#: Whether the ``dispatch.jsonl`` evidence sidecar is written
#: (``POS_DISPATCH_LOG`` != 0; on by default).
dispatch_enabled = EnvSwitch("POS_DISPATCH_LOG")


class _WorkflowLog:
    """The legacy sequence-numbered ``controller.log``, kept byte-compatible.

    A resumed execution appends and *continues* the sequence numbers of
    the crashed execution's log (the old implementation restarted at
    0001, corrupting the artifact's ordering guarantee).  Every event is
    flushed immediately; the crash-evidence bug of the buffered writer —
    trace lines lost while the journal had already fsync'd the run — is
    gone.
    """

    def __init__(self, experiment_path: str, append: bool = False):
        path = os.path.join(experiment_path, "controller.log")
        self._sequence = self._last_sequence(path) if append else 0
        self._handle = open(path, "a" if append else "w", encoding="utf-8")

    @staticmethod
    def _last_sequence(path: str) -> int:
        if not os.path.isfile(path):
            return 0
        last = 0
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                match = _LEGACY_LINE.match(line)
                if match is not None:
                    last = int(match.group(1))
        return last

    def event(self, message: str) -> None:
        self._sequence += 1
        self._handle.write(f"[{self._sequence:04d}] {message}\n")
        self._handle.flush()

    def flush(self, fsync: bool = False) -> None:
        self._handle.flush()
        if fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()


class ExperimentTelemetry:
    """Spans, metrics and the legacy log for one experiment execution."""

    def __init__(self, experiment_path: str, resumed: bool = False):
        # Imported lazily: the testbed package must stay importable
        # without triggering the telemetry package (and vice versa).
        from repro.testbed.health import ExperimentHealth, health_enabled

        self.path = experiment_path
        self.enabled = enabled()
        #: The experiment-level health fold (``health.json``); carried
        #: by the telemetry plane so merge/adopt/finalize stay a single
        #: call site, but gated independently (``POS_HEALTH=0``).
        self.health = (
            ExperimentHealth(experiment_path) if health_enabled() else None
        )
        self._log = _WorkflowLog(experiment_path, append=resumed)
        self._trace = None
        self._wall = None
        self._dispatch = None
        self._dispatch_append = resumed
        self._dispatch_seq = 0
        self._cache_log = None
        self._cache_append = resumed
        self._cache_seq = 0
        self._clock = LogicalClock()
        self._seq = 0
        self._stack: List[Span] = []
        self._spans_written = 0
        self.run_metrics = MetricsRegistry()
        self.experiment_metrics = MetricsRegistry()
        if self.enabled:
            # The trace is rewritten (not appended) on resume: adopted
            # runs replay their buffers, so the finished file is a pure
            # function of the run set — byte-identical to an
            # uninterrupted execution's.
            self._trace = open(
                os.path.join(experiment_path, TRACE_NAME), "w", encoding="utf-8"
            )
            if wallclock_enabled():
                self._wall = open(
                    os.path.join(experiment_path, WALL_SIDECAR_NAME),
                    "a" if resumed else "w",
                    encoding="utf-8",
                )

    # -- legacy log ----------------------------------------------------------

    def event(self, message: str) -> None:
        """Write one legacy ``controller.log`` line (flushed immediately)."""
        self._log.event(message)

    # -- distributed-execution evidence --------------------------------------

    def dispatch_event(self, event: str, **fields: Any) -> None:
        """Append one record to the ``dispatch.jsonl`` evidence sidecar.

        Lazily opened: experiments that never fan out to agents never
        create the file.  The sidecar is outside the determinism
        contract (see the module docstring), so records may carry
        placement- and crash-schedule-dependent detail freely.
        """
        if not dispatch_enabled():
            return
        if self._dispatch is None:
            self._dispatch = open(
                os.path.join(self.path, DISPATCH_NAME),
                "a" if self._dispatch_append else "w",
                encoding="utf-8",
            )
        self._dispatch_seq += 1
        record = {"seq": self._dispatch_seq, "event": event}
        record.update(fields)
        self._dispatch.write(json.dumps(record, sort_keys=True) + "\n")
        self._dispatch.flush()

    # -- run-cache evidence ---------------------------------------------------

    def cache_event(self, event: str, **fields: Any) -> None:
        """Append one record to the ``cache.jsonl`` evidence sidecar.

        Same contract as :meth:`dispatch_event`: lazily opened (runs
        without a cache never create the file) and deliberately outside
        the byte-identity contract — whether a run was served from the
        cache is execution history, not run content, so a warm tree
        must stay ``diff -r -x cache.jsonl``-identical to a cold one.
        ``pos report`` folds these records into cache provenance.
        """
        if not dispatch_enabled():
            return
        if self._cache_log is None:
            self._cache_log = open(
                os.path.join(self.path, CACHE_NAME),
                "a" if self._cache_append else "w",
                encoding="utf-8",
            )
        self._cache_seq += 1
        record = {"seq": self._cache_seq, "event": event}
        record.update(fields)
        self._cache_log.write(json.dumps(record, sort_keys=True) + "\n")
        self._cache_log.flush()

    # -- workflow spans ------------------------------------------------------

    def begin_span(self, name: str, **attrs: Any) -> Span:
        """Open a workflow span on the logical tick clock."""
        parent = self._stack[-1].seq if self._stack else None
        span = Span(name, self._seq, parent, self._clock(), dict(attrs))
        self._seq += 1
        self._stack.append(span)
        return span

    def finish_span(self, span: Span) -> None:
        while self._stack:
            top = self._stack.pop()
            self._write_span(top.record(self._clock()), clock="ticks")
            if top is span:
                return
        raise ValueError(f"span {span.name!r} is not a live workflow span")

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.begin_span(name, **attrs)
        try:
            yield span
        finally:
            self.finish_span(span)

    # -- run buffers ---------------------------------------------------------

    def merge_run(
        self, index: int, payload: Optional[dict],
        health: Optional[dict] = None,
    ) -> Dict[str, dict]:
        """Merge one executed run's buffer, in run order.

        Assigns global sequence numbers to the buffer's local ones,
        parents the run's root spans under the innermost live workflow
        span (the measurement phase), and aggregates the metrics.  The
        run's health payload (if any) is folded the same way.

        Returns the run's evidence for its journal record: ``telemetry``
        (the wall-free span/metric snapshot) and ``health`` (the
        payload), each present only when it was collected.
        """
        evidence: Dict[str, dict] = {}
        if self.health is not None and health is not None:
            self.health.fold(health)
            evidence["health"] = health
        if not self.enabled or payload is None:
            return evidence
        evidence["telemetry"] = {
            "run": index,
            "spans": [strip_wall(span) for span in payload.get("spans", [])],
            "metrics": payload.get("metrics", {}),
        }
        self._merge_buffer(payload)
        return evidence

    def adopt_run(self, entry: dict) -> None:
        """Replay an adopted (journalled, resumed) run from its record.

        ``entry`` is the run's journal record; its ``telemetry`` and
        ``health`` evidence feed the trace and the aggregates exactly
        as if the run had executed here.
        """
        if self.health is not None:
            self.health.fold(entry.get("health"))
        snapshot = entry.get("telemetry")
        if not self.enabled or snapshot is None:
            return
        self._merge_buffer(
            {"spans": snapshot.get("spans", []),
             "metrics": snapshot.get("metrics", {})}
        )

    def _merge_buffer(self, payload: dict) -> None:
        spans = payload.get("spans", [])
        base = self._seq
        parent = self._stack[-1].seq if self._stack else None
        top = 0
        for span in spans:
            top = max(top, int(span["seq"]) + 1)
            entry = strip_wall(span)
            entry = dict(entry)
            entry["seq"] = base + int(span["seq"])
            entry["parent"] = (
                parent if span.get("parent") is None
                else base + int(span["parent"])
            )
            self._write_span(entry, clock="sim", wall=span.get("wall_s"))
        self._seq = base + top
        self.run_metrics.merge(payload.get("metrics", {}))

    # -- finalization --------------------------------------------------------

    def finalize(
        self,
        experiment: str,
        runs: Dict[str, int],
        journal_entries: Optional[int] = None,
        extra_gauges: Optional[Dict[str, float]] = None,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Write the experiment-wide ``telemetry.json`` aggregate
        (and, when the health plane is on, ``health.json``).

        ``provenance`` records the execution's reproducibility
        fingerprint (code epoch, platform, seed, …) so comparative
        tooling (``pos diff``) can attribute result deltas between two
        executions to an identified input change.  It must be a pure
        function of the experiment's inputs — never of the schedule —
        to preserve the byte-identity contract.
        """
        if self.health is not None:
            self.health.finalize(experiment)
        if not self.enabled:
            return
        for name, value in sorted(runs.items()):
            self.experiment_metrics.gauge(f"runs.{name}", value)
        if journal_entries is not None:
            self.experiment_metrics.gauge("journal.appends", journal_entries)
        for name, value in sorted((extra_gauges or {}).items()):
            self.experiment_metrics.gauge(name, value)
        aggregate = MetricsRegistry()
        aggregate.merge(self.run_metrics)
        aggregate.merge(self.experiment_metrics)
        payload = {
            "experiment": experiment,
            "metrics": aggregate.snapshot(),
            "runs": {name: runs[name] for name in sorted(runs)},
            "spans": self._spans_written + len(self._stack),
        }
        if provenance:
            payload["provenance"] = provenance
        with open(
            os.path.join(self.path, TELEMETRY_NAME), "w", encoding="utf-8"
        ) as handle:
            handle.write(json.dumps(payload, sort_keys=True, indent=2))
            handle.write("\n")

    # -- durability ----------------------------------------------------------

    def flush(self, fsync: bool = False) -> None:
        """Flush (and on phase boundaries fsync) log and trace."""
        self._log.flush(fsync=fsync)
        if self._trace is not None:
            self._trace.flush()
            if fsync:
                os.fsync(self._trace.fileno())

    def close(self) -> None:
        """Close all handles; dangling spans are recorded as evidence."""
        while self._stack:
            top = self._stack.pop()
            top.set(unfinished=True)
            self._write_span(top.record(self._clock()), clock="ticks")
        self._log.close()
        if self._trace is not None:
            self._trace.close()
            self._trace = None
        if self._wall is not None:
            self._wall.close()
            self._wall = None
        if self._dispatch is not None:
            self._dispatch.close()
            self._dispatch = None
        if self._cache_log is not None:
            self._cache_log.close()
            self._cache_log = None

    # -- internals -----------------------------------------------------------

    def _write_span(
        self, entry: dict, clock: str, wall: Optional[float] = None,
    ) -> None:
        if self._trace is None:
            return
        wall = entry.pop("wall_s", wall)
        record = dict(entry)
        record["clock"] = clock
        self._trace.write(json.dumps(record, sort_keys=True) + "\n")
        self._trace.flush()
        self._spans_written += 1
        if self._wall is not None and wall is not None:
            self._wall.write(
                json.dumps(
                    {"name": entry["name"], "seq": entry["seq"], "wall_s": wall},
                    sort_keys=True,
                )
                + "\n"
            )
            self._wall.flush()
