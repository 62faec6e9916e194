"""Render per-run provenance from the published artifacts alone.

``pos report <experiment folder>`` needs no controller, no journal
replay machinery and no live testbed: everything it prints is
reconstructed from the files an execution left behind — the run journal
(``journal.jsonl``, whose run records carry each run's telemetry
snapshot), the experiment-wide aggregate
(``telemetry.json``) and, when a run cache was active, the cache
evidence sidecar (``cache.jsonl``).  That is the artifact-first
contract of the telemetry plane: a reader of a published result folder
can retrace how the toolchain behaved (attempts, faults, recovery,
engine events, which netsim path ran, which runs were replayed from
the cache) without ever having run the experiment.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.core.errors import PosError
from repro.telemetry.jsonl import (
    fold_journal, read_json_or_none, read_jsonl_or_none,
)

__all__ = ["cache_summary", "load_report", "render_report"]


class ReportError(PosError):
    """The folder does not carry the artifacts a report needs."""


def _read_journal(experiment_path: str):
    """The journal's other records and one report row per run."""
    if not os.path.isdir(experiment_path):
        raise ReportError(f"no such experiment directory: {experiment_path}")
    path = os.path.join(experiment_path, "journal.jsonl")
    if not os.path.isfile(path):
        raise ReportError(
            f"no journal.jsonl in {experiment_path} "
            f"(not an experiment result folder?)"
        )
    return fold_journal(path, _run_row)


def _read_cache_events(experiment_path: str) -> Optional[List[dict]]:
    """The cache evidence sidecar, or None when no cache was active."""
    return read_jsonl_or_none(os.path.join(experiment_path, "cache.jsonl"))


def cache_summary(events: Optional[List[dict]]) -> Optional[Dict[str, Any]]:
    """Fold ``cache.jsonl`` records: each run's latest probe and store.

    The one reading of the cache evidence shared by ``pos report``,
    ``pos diff``, ``pos trace`` and ``pos doctor``.  ``corrupt`` counts
    the artifacts that failed fingerprint verification (their records
    name a key, not a run).  ``None`` when no cache was active.
    """
    if events is None:
        return None
    runs: Dict[int, Dict[str, Any]] = {}
    corrupt = 0
    for event in events:
        kind = event.get("event")
        run = event.get("run")
        if kind == "cache.corrupt":
            corrupt += 1
            continue
        if run is None or kind not in ("cache.hit", "cache.miss", "cache.store"):
            continue
        entry = runs.setdefault(int(run), {})
        if kind == "cache.store":
            entry["stored"] = True
        else:
            entry["event"] = kind
            entry["key"] = event.get("key")
    return {
        "hits": sum(1 for e in runs.values() if e.get("event") == "cache.hit"),
        "misses": sum(
            1 for e in runs.values() if e.get("event") == "cache.miss"
        ),
        "stores": sum(1 for e in runs.values() if e.get("stored")),
        "corrupt": corrupt,
        "runs": runs,
    }


def _run_row(entry: dict) -> Dict[str, Any]:
    row: Dict[str, Any] = {
        "run": int(entry["index"]),
        "loop": entry.get("loop", {}),
        "ok": bool(entry.get("ok", False)),
        "skipped": bool(entry.get("skipped", False)),
        "retried": bool(entry.get("retried", False)),
        "error": entry.get("error"),
    }
    snapshot = entry.get("telemetry")
    if snapshot is None:
        return row
    counters = snapshot.get("metrics", {}).get("counters", {})
    row["attempts"] = sum(
        1 for span in snapshot.get("spans", [])
        if span.get("name") == "attempt"
    )
    row["faults"] = sum(
        value for name, value in counters.items()
        if name.startswith("faults.injected.")
    )
    row["engine_events"] = counters.get("engine.events", 0)
    row["fastpath_batches"] = counters.get("fastpath.batches", 0)
    row["latency_samples"] = counters.get("loadgen.latency_samples", 0)
    row["recovered"] = counters.get("runs.recovered", 0) > 0
    for span in snapshot.get("spans", []):
        if span.get("name") == "loadgen.job":
            row["path"] = span.get("attrs", {}).get("path")
            break
    for span in snapshot.get("spans", []):
        if span.get("name") == "run":
            row["duration_s"] = span.get("end", 0.0) - span.get("start", 0.0)
            break
    return row


def load_report(experiment_path: str) -> Dict[str, Any]:
    """Assemble the provenance report as plain data.

    Raises :class:`ReportError` with a one-line diagnostic for every
    malformed-folder shape — missing directory, missing or empty
    journal, a journal without the experiment header, or a journal
    that records no measurement runs — so ``pos report`` fails with
    an actionable message instead of a traceback.
    """
    entries, runs = _read_journal(experiment_path)
    if not entries or entries[0].get("event") != "experiment":
        raise ReportError(
            f"journal.jsonl in {experiment_path} has no experiment header "
            f"(truncated or not written by this toolchain)"
        )
    header = entries[0]
    if "name" not in header:
        raise ReportError(
            f"experiment header in {experiment_path}/journal.jsonl "
            f"carries no experiment name"
        )
    if not runs:
        raise ReportError(
            f"no measurement runs journalled in {experiment_path} "
            f"(execution crashed before the first run?)"
        )
    rows = [runs[index] for index in sorted(runs)]
    return {
        "experiment": header.get("name"),
        "total_runs": header.get("total_runs"),
        "complete": any(entry.get("event") == "complete" for entry in entries),
        "runs": rows,
        "telemetry": read_json_or_none(
            os.path.join(experiment_path, "telemetry.json")
        ),
        "cache": cache_summary(_read_cache_events(experiment_path)),
    }


def _loop_text(loop: Dict[str, Any]) -> str:
    return " ".join(f"{key}={loop[key]}" for key in sorted(loop))


def render_report(experiment_path: str) -> str:
    """Render the per-run provenance table as text."""
    report = load_report(experiment_path)
    lines: List[str] = []
    lines.append(f"experiment: {report['experiment']}")
    state = "complete" if report["complete"] else "INCOMPLETE (resumable)"
    lines.append(
        f"runs: {len(report['runs'])}/{report['total_runs']} journalled, "
        f"execution {state}"
    )
    lines.append("")
    header = (
        f"{'run':>4} {'status':<9} {'att':>3} {'faults':>6} "
        f"{'events':>8} {'batches':>7} {'lat.smp':>7} {'path':<6} loop"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["runs"]:
        if row["skipped"]:
            status = "skipped"
        elif not row["ok"]:
            status = "FAILED"
        elif row.get("recovered") or row["retried"]:
            status = "recovered"
        else:
            status = "ok"
        lines.append(
            f"{row['run']:>4} {status:<9} {row.get('attempts', '-'):>3} "
            f"{row.get('faults', '-'):>6} {row.get('engine_events', '-'):>8} "
            f"{row.get('fastpath_batches', '-'):>7} "
            f"{row.get('latency_samples', '-'):>7} "
            f"{row.get('path') or '-':<6} {_loop_text(row['loop'])}"
        )
    cache = report.get("cache")
    if cache is not None:
        lines.append("")
        lines.append(
            f"run cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
            f"{cache['stores']} store(s)"
        )
        for run in sorted(cache["runs"]):
            entry = cache["runs"][run]
            kind = entry.get("event", "-")
            suffix = " stored" if entry.get("stored") else ""
            key = entry.get("key") or ""
            lines.append(f"  run {run}: {kind} key={key[:12]}{suffix}")
    telemetry = report.get("telemetry")
    if telemetry:
        lines.append("")
        lines.append("experiment-wide counters:")
        counters = telemetry.get("metrics", {}).get("counters", {})
        for name in sorted(counters):
            lines.append(f"  {name:<28} {counters[name]}")
        gauges = telemetry.get("metrics", {}).get("gauges", {})
        for name in sorted(gauges):
            lines.append(f"  {name:<28} {gauges[name]:g}")
    return "\n".join(lines) + "\n"
