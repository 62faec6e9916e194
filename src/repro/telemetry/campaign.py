"""Campaign-level telemetry: spans, metric aggregate, health roll-up.

One layer above the experiment telemetry plane.  Everything here is
written at campaign finalization as a *pure function* of the admission
plan and the ordered outcome set, so the artifacts are byte-identical
for any ``--jobs N`` and across crash+resume — no incremental state, no
wall clock, no resume markers.

``campaign-trace.jsonl``
    Span records on a logical tick clock: a ``campaign`` root span
    wrapping the ``admission`` decisions and one ``experiment`` span
    per admitted experiment, in admission order.  The name deliberately
    differs from the per-experiment ``trace.jsonl`` so experiment-level
    tooling never mistakes the campaign directory for a result folder.
``campaign.json``
    The aggregate: admission counts, per-user statistics, the ordered
    experiment outcomes, merged metrics from every experiment's
    ``telemetry.json``, and a health roll-up from every experiment's
    ``health.json``.  Metrics and health sections appear only for the
    experiments that produced them (the ``POS_TELEMETRY`` kill switch
    holds at campaign scope too).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.telemetry import plane as _plane
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import LogicalClock, RunTelemetry

__all__ = ["CAMPAIGN_TRACE_NAME", "CAMPAIGN_SUMMARY_NAME", "CampaignTelemetry"]

CAMPAIGN_TRACE_NAME = "campaign-trace.jsonl"
CAMPAIGN_SUMMARY_NAME = "campaign.json"


class CampaignTelemetry:
    """Collects and writes one campaign's telemetry artifacts."""

    def __init__(self, campaign_dir: str):
        self.campaign_dir = campaign_dir

    # -- artifact readers ---------------------------------------------------

    def _experiment_file(self, outcome: dict, name: str) -> Optional[dict]:
        relative = outcome.get("dir")
        if not relative:
            return None
        path = os.path.join(self.campaign_dir, relative, name)
        if not os.path.isfile(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except ValueError:
            return None

    # -- writers ------------------------------------------------------------

    def _write_trace(self, spec, plan, outcomes: List[dict]) -> None:
        collector = RunTelemetry(clock=LogicalClock())
        campaign_span = collector.begin(
            "campaign",
            campaign=spec.name,
            pool=sorted(spec.pool),
            experiments=len(spec.experiments),
        )
        with collector.span(
            "admission",
            admitted=len(plan.admitted),
            rejected=len(plan.rejected),
        ):
            for entry in plan.entries():
                # "start"/"end" would clash with the span's own extent;
                # they are the *planned window*, so name them as such.
                attrs = {
                    {"start": "window_start", "end": "window_end"}.get(key, key):
                        value
                    for key, value in entry.items()
                    if key != "event"
                }
                collector.event(f"admission.{entry['event']}", **attrs)
        for outcome in outcomes:
            # No adoption/resume markers here: the trace is a pure
            # function of the outcome set, byte-identical across resume.
            collector.event(
                "experiment",
                index=outcome["index"],
                experiment=outcome["name"],
                user=outcome["user"],
                ok=bool(outcome["ok"]),
                runs_completed=int(outcome.get("runs_completed", 0)),
                runs_failed=int(outcome.get("runs_failed", 0)),
            )
        collector.finish(campaign_span)
        path = os.path.join(self.campaign_dir, CAMPAIGN_TRACE_NAME)
        with open(path, "w", encoding="utf-8") as handle:
            for span in collector.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _health_rollup(self, outcomes: List[dict]) -> Optional[dict]:
        observations: Dict[str, int] = {}
        found = False
        for outcome in outcomes:
            payload = self._experiment_file(outcome, "health.json")
            if payload is None:
                continue
            found = True
            # Each node of an experiment's aggregate counts its runs'
            # observations per kind; the roll-up sums those counts.
            for node in payload.get("nodes", {}).values():
                for kind, count in node.get("observations", {}).items():
                    observations[kind] = observations.get(kind, 0) + int(count)
        if not found:
            return None
        return {"node_observations": observations}

    def finalize(self, spec, plan, outcomes: List[dict]) -> str:
        """Write the campaign artifacts from the final outcome set."""
        if _plane.enabled():
            self._write_trace(spec, plan, outcomes)
        per_user: Dict[str, Dict[str, int]] = {}
        for outcome in outcomes:
            stats = per_user.setdefault(
                outcome["user"],
                {"experiments": 0, "ok": 0, "runs_completed": 0,
                 "runs_failed": 0},
            )
            stats["experiments"] += 1
            if outcome["ok"]:
                stats["ok"] += 1
            stats["runs_completed"] += int(outcome.get("runs_completed", 0))
            stats["runs_failed"] += int(outcome.get("runs_failed", 0))
        summary: Dict[str, object] = {
            "campaign": spec.name,
            "pool": sorted(spec.pool),
            "admitted": len(plan.admitted),
            "rejected": [
                rejection.entry() for rejection in plan.rejected
            ],
            "users": {user: per_user[user] for user in sorted(per_user)},
            "experiments": [
                {
                    "index": outcome["index"],
                    "name": outcome["name"],
                    "user": outcome["user"],
                    "ok": bool(outcome["ok"]),
                    "dir": outcome.get("dir"),
                    "runs_completed": int(outcome.get("runs_completed", 0)),
                    "runs_failed": int(outcome.get("runs_failed", 0)),
                }
                for outcome in outcomes
            ],
            "ok": all(outcome.get("ok") for outcome in outcomes),
        }
        if _plane.enabled():
            metrics = MetricsRegistry()
            merged = False
            for outcome in outcomes:
                payload = self._experiment_file(outcome, "telemetry.json")
                if payload is None:
                    continue
                snapshot = payload.get("metrics")
                if snapshot:
                    metrics.merge(snapshot)
                    merged = True
            if merged:
                summary["metrics"] = metrics.snapshot()
        health = self._health_rollup(outcomes)
        if health is not None:
            summary["health"] = health
        path = os.path.join(self.campaign_dir, CAMPAIGN_SUMMARY_NAME)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, sort_keys=True, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        return path
