"""Comparative analysis of two experiment result trees (``pos diff``).

Reproducible experiments exist to be *compared*: the toolchain's whole
determinism contract (byte-identical trees for any ``--jobs``/
``--agents``/crash schedule) is only useful if, when two result trees
*do* differ, the difference can be attributed to an identified input
change.  ``pos diff A B`` makes that attribution a computation:

* the **reproducibility fingerprint** of each side — the same fields
  the run cache hashes (code epoch, platform, seed, testbed digest),
  recorded by the controller in ``telemetry.json`` — is compared first;
  every changed field is a *cause*;
* runs are matched by their variable **assignment** (the loop instance,
  not the index), and every per-run metric — parsed measurement output,
  telemetry counters, sim-clock durations, attempts — is joined pair
  by pair;
* each observed delta is attributed to the identified causes, or
  **flagged unexplained** — identical fingerprints with differing
  results is precisely a reproducibility violation, and the report
  says so instead of averaging it away;
* per-metric effects across all matched pairs are summarized robustly
  (Hodges–Lehmann estimate with a seeded-bootstrap CI, via
  :mod:`repro.evaluation.tendencies`), and health/fault/retry event
  counts and the sim-clock critical-path phase breakdown ride along.

Everything is a pure function of the on-disk artifacts: the report is
byte-identical no matter which schedule produced either tree, because
only deterministic artifacts are consulted (the sim-clock profile, not
the wall evidence).
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import PosError
from repro.evaluation.tendencies import paired_effect
from repro.telemetry.jsonl import (
    fold_journal, read_json_or_none, read_jsonl_or_none,
)
from repro.telemetry.plane import CACHE_NAME, TRACE_NAME
from repro.telemetry.report import cache_summary

__all__ = ["DiffError", "load_side", "diff_experiments", "render_diff",
           "DIFF_NAME"]

#: File name a saved report lands under (``pos diff --save``).
DIFF_NAME = "diff.json"

#: Fingerprint fields in attribution priority order.
FINGERPRINT_FIELDS = ("code_epoch", "platform", "seed", "testbed")

_POS_LOG_LINE = re.compile(
    r"^run \d+: rate=\d+ size=\d+ tx=(\d+) rx=(\d+)\s*$"
)


class DiffError(PosError):
    """A side does not carry the artifacts a comparison needs."""


def _assignment_key(loop: Dict[str, Any]) -> str:
    return json.dumps(loop, sort_keys=True)


def _run_metrics(run_dir: str, snapshot: Optional[dict]) -> Dict[str, float]:
    """Every comparable numeric fact of one run, as a flat mapping:
    its journalled telemetry ``snapshot`` and its captured output."""
    metrics: Dict[str, float] = {}
    if snapshot is not None:
        for name, value in snapshot.get("metrics", {}).get(
            "counters", {}
        ).items():
            metrics[f"counters.{name}"] = float(value)
        attempts = 0
        for span in snapshot.get("spans", []):
            if span.get("name") == "attempt":
                attempts += 1
            elif span.get("name") == "run" and "duration_s" not in metrics:
                metrics["duration_s"] = (
                    float(span.get("end", 0.0)) - float(span.get("start", 0.0))
                )
        metrics["attempts"] = float(attempts)
    pos_log = os.path.join(run_dir, "loadgen", "pos.log")
    if os.path.isfile(pos_log):
        with open(pos_log, "r", encoding="utf-8") as handle:
            for line in handle:
                match = _POS_LOG_LINE.match(line.strip())
                if match is not None:
                    metrics["tx_packets"] = float(match.group(1))
                    metrics["rx_packets"] = float(match.group(2))
    return metrics


def _health_summary(payload: Optional[dict]) -> Dict[str, Any]:
    if not payload:
        return {"nodes": {}, "sel_records": 0, "degraded": 0, "wedged": 0}
    nodes = {}
    sel = degraded = wedged = 0
    for name, node in sorted(payload.get("nodes", {}).items()):
        nodes[name] = node.get("state")
        sel += int(node.get("sel_records", 0))
        observations = node.get("observations", {})
        degraded += int(observations.get("degraded", 0))
        wedged += int(observations.get("wedged", 0))
    return {
        "nodes": nodes, "sel_records": sel,
        "degraded": degraded, "wedged": wedged,
    }


def load_side(path: str) -> Dict[str, Any]:
    """Digest one experiment result tree into comparable plain data."""
    if not os.path.isdir(path):
        raise DiffError(f"no such experiment directory: {path}")
    journal_path = os.path.join(path, "journal.jsonl")
    if not os.path.isfile(journal_path):
        raise DiffError(
            f"no journal.jsonl in {path} (not an experiment result folder?)"
        )
    entries, runs = fold_journal(journal_path)
    if not entries or entries[0].get("event") != "experiment":
        raise DiffError(
            f"journal.jsonl in {path} has no experiment header "
            f"(truncated or not written by this toolchain)"
        )
    header = entries[0]
    retried = failed = skipped = 0
    for entry in runs.values():
        if entry.get("retried"):
            retried += 1
        if entry.get("skipped"):
            skipped += 1
        elif not entry.get("ok", False):
            failed += 1
    telemetry = read_json_or_none(os.path.join(path, "telemetry.json")) or {}
    counters = telemetry.get("metrics", {}).get("counters", {})
    faults = sum(
        value for name, value in counters.items()
        if name.startswith("faults.injected.")
    )
    run_rows: Dict[str, Dict[str, Any]] = {}
    for index in sorted(runs):
        entry = runs[index]
        run_dir = os.path.join(path, entry.get("dir") or f"run-{index:03d}")
        row = {
            "index": index,
            "loop": entry.get("loop", {}),
            "ok": bool(entry.get("ok", False)),
            "skipped": bool(entry.get("skipped", False)),
            "metrics": (
                _run_metrics(run_dir, entry.get("telemetry"))
                if os.path.isdir(run_dir) else {}
            ),
        }
        run_rows[_assignment_key(row["loop"])] = row
    phases = _sim_phases(path)
    return {
        "path": path,
        "experiment": header.get("name"),
        "total_runs": header.get("total_runs"),
        "complete": any(e.get("event") == "complete" for e in entries),
        "provenance": telemetry.get("provenance"),
        "runs": run_rows,
        "events": {
            "faults": int(faults),
            "retried_runs": retried,
            "failed_runs": failed,
            "skipped_runs": skipped,
        },
        "health": _health_summary(read_json_or_none(os.path.join(path, "health.json"))),
        "cache": cache_summary(
            read_jsonl_or_none(os.path.join(path, CACHE_NAME))
        ),
        "phases": phases,
    }


def _sim_phases(path: str) -> Optional[Dict[str, float]]:
    """Deterministic (sim-clock) critical-path breakdown, or ``None``."""
    from repro.telemetry.criticalpath import TraceError, analyze

    if not os.path.isfile(os.path.join(path, TRACE_NAME)):
        return None
    try:
        analysis = analyze(path, clock="sim")
    except TraceError:
        return None
    return {
        "total": analysis["total"],
        **{name: value for name, value in analysis["phases"].items()},
    }


def _relative(a: float, b: float) -> Optional[float]:
    if a == b:
        return 0.0
    if a == 0.0:
        return None  # born from nothing: no finite relative change
    return (b - a) / abs(a)


def diff_experiments(
    path_a: str, path_b: str, tolerance: float = 0.0,
) -> Dict[str, Any]:
    """Structured diff of two experiment trees, every delta attributed.

    ``tolerance`` is the relative change below which a numeric pair is
    considered equal (default 0: reproducible experiments are expected
    to agree exactly).
    """
    a = load_side(path_a)
    b = load_side(path_b)

    causes: List[Dict[str, Any]] = []
    prov_a, prov_b = a["provenance"], b["provenance"]
    if prov_a is None or prov_b is None:
        if (prov_a is None) != (prov_b is None):
            causes.append({
                "field": "provenance",
                "a": "recorded" if prov_a is not None else "absent",
                "b": "recorded" if prov_b is not None else "absent",
            })
    else:
        for field in FINGERPRINT_FIELDS:
            if prov_a.get(field) != prov_b.get(field):
                causes.append({
                    "field": field,
                    "a": prov_a.get(field), "b": prov_b.get(field),
                })
        for field in sorted(set(prov_a) | set(prov_b)):
            if field in FINGERPRINT_FIELDS:
                continue
            if prov_a.get(field) != prov_b.get(field):
                causes.append({
                    "field": field,
                    "a": prov_a.get(field), "b": prov_b.get(field),
                })
    if a["experiment"] != b["experiment"]:
        causes.append({
            "field": "experiment", "a": a["experiment"], "b": b["experiment"],
        })
    if a["total_runs"] != b["total_runs"]:
        causes.append({
            "field": "total_runs", "a": a["total_runs"], "b": b["total_runs"],
        })
    cause_names = [cause["field"] for cause in causes]
    fingerprints_comparable = prov_a is not None and prov_b is not None

    keys_a, keys_b = set(a["runs"]), set(b["runs"])
    matched = sorted(keys_a & keys_b, key=lambda k: a["runs"][k]["index"])
    only_a = sorted(keys_a - keys_b)
    only_b = sorted(keys_b - keys_a)
    if only_a or only_b:
        causes.append({
            "field": "assignments",
            "a": f"{len(only_a)} unmatched", "b": f"{len(only_b)} unmatched",
        })
        cause_names = [cause["field"] for cause in causes]

    deltas: List[Dict[str, Any]] = []
    paired: Dict[str, List[Tuple[float, float]]] = {}
    for key in matched:
        row_a, row_b = a["runs"][key], b["runs"][key]
        metrics = sorted(set(row_a["metrics"]) | set(row_b["metrics"]))
        for metric in metrics:
            value_a = row_a["metrics"].get(metric)
            value_b = row_b["metrics"].get(metric)
            if value_a is not None and value_b is not None:
                paired.setdefault(metric, []).append((value_a, value_b))
            if value_a is None or value_b is None:
                rel = None
                changed = True
            else:
                rel = _relative(value_a, value_b)
                changed = (
                    rel is None or abs(rel) > tolerance
                ) and value_a != value_b
            if not changed:
                continue
            deltas.append({
                "run_a": row_a["index"],
                "run_b": row_b["index"],
                "loop": row_a["loop"],
                "metric": metric,
                "a": value_a,
                "b": value_b,
                "rel": rel,
                "cause": ",".join(cause_names) if cause_names else None,
            })

    effects: Dict[str, Dict[str, float]] = {}
    for metric, pairs in sorted(paired.items()):
        if len(pairs) < 2:
            continue
        if all(pa == pb for pa, pb in pairs):
            continue
        effects[metric] = paired_effect(
            [pa for pa, _ in pairs], [pb for _, pb in pairs],
        )

    events = {
        name: [a["events"][name], b["events"][name]]
        for name in sorted(a["events"])
    }
    health = {
        name: [a["health"][name], b["health"][name]]
        for name in ("sel_records", "degraded", "wedged")
    }
    health["node_states"] = {
        node: [a["health"]["nodes"].get(node), b["health"]["nodes"].get(node)]
        for node in sorted(set(a["health"]["nodes"]) | set(b["health"]["nodes"]))
    }

    phases: Optional[Dict[str, List[Optional[float]]]] = None
    if a["phases"] is not None or b["phases"] is not None:
        names = sorted(set(a["phases"] or {}) | set(b["phases"] or {}))
        phases = {
            name: [
                (a["phases"] or {}).get(name), (b["phases"] or {}).get(name),
            ]
            for name in names
        }

    explained = sum(1 for delta in deltas if delta["cause"] is not None)
    return {
        "a": {"path": a["path"], "experiment": a["experiment"],
              "provenance": prov_a, "complete": a["complete"]},
        "b": {"path": b["path"], "experiment": b["experiment"],
              "provenance": prov_b, "complete": b["complete"]},
        "causes": causes,
        "fingerprints_comparable": fingerprints_comparable,
        "runs": {
            "matched": len(matched),
            "only_a": [a["runs"][k]["loop"] for k in only_a],
            "only_b": [b["runs"][k]["loop"] for k in only_b],
        },
        "deltas": deltas,
        "effects": effects,
        "events": events,
        "health": health,
        "phases": phases,
        "cache": {"a": a["cache"], "b": b["cache"]},
        "attribution": {
            "total": len(deltas),
            "explained": explained,
            "unexplained": len(deltas) - explained,
            "causes": cause_names,
        },
    }


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4f}"


def _format_rel(rel: Optional[float]) -> str:
    if rel is None:
        return "new"
    return f"{rel:+.1%}"


def render_diff(diff: Dict[str, Any], top: int = 10) -> str:
    """Human-readable comparison report for the CLI."""
    lines: List[str] = []
    lines.append(f"pos diff: {diff['a']['path']}")
    lines.append(f"      vs: {diff['b']['path']}")
    lines.append(
        f"experiment: {diff['a']['experiment']} vs {diff['b']['experiment']}"
        f" | {diff['runs']['matched']} run(s) matched by assignment"
        f" | {len(diff['runs']['only_a'])} only in A"
        f" | {len(diff['runs']['only_b'])} only in B"
    )
    lines.append("")
    if diff["causes"]:
        lines.append("fingerprint causes (identified input changes):")
        for cause in diff["causes"]:
            lines.append(
                f"  {cause['field']}: {cause['a']!r} -> {cause['b']!r}"
            )
    elif not diff["fingerprints_comparable"]:
        lines.append(
            "fingerprints unavailable on both sides: deltas cannot be "
            "attributed (pre-provenance artifacts)"
        )
    else:
        lines.append(
            "fingerprints identical: any delta below is UNEXPLAINED "
            "(a reproducibility violation)"
        )
    lines.append("")

    deltas = diff["deltas"]
    if not deltas:
        lines.append("no metric deltas: both trees agree on every compared "
                     "metric")
    else:
        lines.append(
            f"per-run metric deltas ({len(deltas)} across "
            f"{diff['runs']['matched']} matched runs, top {min(top, len(deltas))}):"
        )
        for delta in deltas[:top]:
            loop = " ".join(
                f"{key}={delta['loop'][key]}" for key in sorted(delta["loop"])
            )
            cause = delta["cause"] or "UNEXPLAINED"
            lines.append(
                f"  run {delta['run_a']:>3} [{loop}] {delta['metric']}: "
                f"{_format_value(delta['a'])} -> {_format_value(delta['b'])} "
                f"({_format_rel(delta['rel'])}) [{cause}]"
            )
        if len(deltas) > top:
            lines.append(f"  ... {len(deltas) - top} more")
    if diff["effects"]:
        lines.append("")
        lines.append("metric effects (paired, robust; B - A):")
        for metric in sorted(diff["effects"]):
            effect = diff["effects"][metric]
            lines.append(
                f"  {metric}: HL {effect['hl_estimate']:+.4f} "
                f"[{effect['ci_low']:+.4f}, {effect['ci_high']:+.4f}] "
                f"over {int(effect['n'])} pairs"
            )
    if diff["phases"] is not None:
        lines.append("")
        lines.append("critical-path phases (sim clock, A vs B):")
        for name, (value_a, value_b) in sorted(diff["phases"].items()):
            lines.append(
                f"  {name:<10} {_format_value(value_a):>12} "
                f"{_format_value(value_b):>12}"
            )
    lines.append("")
    lines.append(
        "events: " + " | ".join(
            f"{name} {pair[0]} vs {pair[1]}"
            for name, pair in diff["events"].items()
        )
    )
    health = diff["health"]
    lines.append(
        f"health: sel {health['sel_records'][0]} vs "
        f"{health['sel_records'][1]} | degraded "
        f"{health['degraded'][0]} vs {health['degraded'][1]} | wedged "
        f"{health['wedged'][0]} vs {health['wedged'][1]}"
    )
    for node, (state_a, state_b) in sorted(health["node_states"].items()):
        if state_a != state_b:
            lines.append(f"  node {node}: {state_a} -> {state_b}")
    attribution = diff["attribution"]
    lines.append("")
    if attribution["total"] == 0:
        lines.append("attribution: 0 deltas — the trees replicate")
    elif attribution["unexplained"] == 0:
        lines.append(
            f"attribution: {attribution['total']} delta(s), all explained "
            f"by: {', '.join(attribution['causes'])}"
        )
    else:
        lines.append(
            f"attribution: {attribution['total']} delta(s), "
            f"{attribution['explained']} explained, "
            f"{attribution['unexplained']} UNEXPLAINED — identical inputs "
            f"produced different results; investigate with pos doctor"
        )
    return "\n".join(lines) + "\n"
