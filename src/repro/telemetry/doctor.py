"""Automated diagnosis of one experiment result tree (``pos doctor``).

The artifact tree already carries everything needed to explain a bad
(or suspicious) execution — the journal, the metric aggregates, the
health ledger, and the quarantined evidence sidecars of the distributed
plane.  What it lacks is a reader that folds them *together*: the
journal says run 7 was retried, the dispatch log says agent-01 died
twice, the health ledger says the DuT wedged — but nobody connects
those dots at two in the morning.  ``pos doctor DIR`` is that reader:
it turns the tree into a ranked list of findings, each carrying the
artifact that evidences it.

Determinism contract: the default report is byte-identical no matter
which schedule (``--jobs``/``--agents``/crash + ``--resume``) produced
the tree.  That holds because every finding derives either from the
deterministic artifacts (journal, telemetry, health, trace) or
from evidence events that only occur when something notable happened
(deaths, quarantines, re-dispatches, cache corruption) — a clean run
produces no evidence findings regardless of schedule, and the folded
counts carry no wall-clock values.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from repro.core.errors import PosError
from repro.evaluation.tendencies import median, robust_z
from repro.telemetry.jsonl import (
    fold_journal, read_json_or_none, read_jsonl_or_none,
)
from repro.telemetry.plane import CACHE_NAME, DISPATCH_NAME
from repro.telemetry.report import cache_summary

__all__ = ["DoctorError", "diagnose", "render_diagnosis", "DOCTOR_NAME"]

#: File name a saved report lands under (``pos doctor --save``).
DOCTOR_NAME = "doctor.json"

#: Robust z-score beyond which a run's duration is anomalous.  3.5 is
#: the customary Iglewicz–Hoaglin cutoff for modified z-scores.
ANOMALY_Z = 3.5

#: Retried-run count at which retries stop being routine.
RETRY_STORM = 3

#: Counter prefix ``MoonGen.start`` counts a fast-path fallback under;
#: the rest of the name is the reason.
FALLBACK_PREFIX = "fastpath.fallback."

_SEVERITY_RANK = {"critical": 0, "warning": 1, "info": 2}


class DoctorError(PosError):
    """The folder does not look like an experiment result tree."""


def _finding(
    severity: str, code: str, message: str, evidence: Dict[str, Any],
) -> Dict[str, Any]:
    return {
        "severity": severity, "code": code,
        "message": message, "evidence": evidence,
    }


def diagnose(path: str) -> Dict[str, Any]:
    """Fold every artifact of one tree into ranked findings."""
    if not os.path.isdir(path):
        raise DoctorError(f"no such experiment directory: {path}")
    journal_path = os.path.join(path, "journal.jsonl")
    if not os.path.isfile(journal_path):
        raise DoctorError(
            f"no journal.jsonl in {path} (not an experiment result folder?)"
        )
    entries, runs = fold_journal(journal_path)
    if not entries or entries[0].get("event") != "experiment":
        raise DoctorError(
            f"journal.jsonl in {path} has no experiment header "
            f"(truncated or not written by this toolchain)"
        )
    header = entries[0]
    findings: List[Dict[str, Any]] = []

    # -- journal: completion, failures, skips, retries -------------------
    complete = any(e.get("event") == "complete" for e in entries)
    failed = sorted(
        i for i, e in runs.items()
        if not e.get("ok", False) and not e.get("skipped")
    )
    skipped = sorted(i for i, e in runs.items() if e.get("skipped"))
    retried = sorted(i for i, e in runs.items() if e.get("retried"))
    total = header.get("total_runs")
    if not complete:
        findings.append(_finding(
            "critical", "incomplete",
            f"execution never completed: journal records "
            f"{len(runs)}/{total} runs and no complete event "
            f"(crashed mid-flight? resume with --resume)",
            {"file": "journal.jsonl", "runs_recorded": len(runs)},
        ))
    if failed:
        errors = sorted({
            str(runs[i].get("error") or "unknown") for i in failed
        })
        findings.append(_finding(
            "critical", "run-failures",
            f"{len(failed)} run(s) failed: "
            f"{', '.join(str(i) for i in failed)} "
            f"({'; '.join(errors)})",
            {"file": "journal.jsonl", "runs": failed},
        ))
    if skipped:
        findings.append(_finding(
            "warning", "runs-skipped",
            f"{len(skipped)} run(s) skipped by planner policy: "
            f"{', '.join(str(i) for i in skipped)}",
            {"file": "journal.jsonl", "runs": skipped},
        ))
    if retried:
        severity = "warning" if len(retried) >= RETRY_STORM else "info"
        label = "retry storm" if len(retried) >= RETRY_STORM else "retries"
        findings.append(_finding(
            severity, "retry-storm" if severity == "warning" else "retries",
            f"{label}: {len(retried)} run(s) needed more than one attempt: "
            f"{', '.join(str(i) for i in retried)}",
            {"file": "journal.jsonl", "runs": retried},
        ))

    # -- telemetry: fault injections, anomalous runs ---------------------
    telemetry = read_json_or_none(os.path.join(path, "telemetry.json")) or {}
    counters = telemetry.get("metrics", {}).get("counters", {})
    faults = {
        name.rpartition(".")[2]: value
        for name, value in sorted(counters.items())
        if name.startswith("faults.injected.") and value
    }
    if faults:
        findings.append(_finding(
            "info", "faults-injected",
            "fault injection was active: " + ", ".join(
                f"{count}x {kind}" for kind, count in faults.items()
            ),
            {"file": "telemetry.json", "faults": faults},
        ))
    durations: Dict[int, float] = {}
    fallbacks: Dict[str, List[int]] = {}
    for index, entry in sorted(runs.items()):
        snapshot = entry.get("telemetry")
        if snapshot is None:
            continue
        for name in snapshot.get("metrics", {}).get("counters", {}):
            if name.startswith(FALLBACK_PREFIX):
                fallbacks.setdefault(name[len(FALLBACK_PREFIX):], []).append(index)
        for span in snapshot.get("spans", []):
            if span.get("name") == "run":
                durations[index] = (
                    float(span.get("end", 0.0))
                    - float(span.get("start", 0.0))
                )
                break
    if len(durations) >= 4:
        sample = list(durations.values())
        mid = median(sample)
        for index in sorted(durations):
            score = robust_z(durations[index], sample)
            if abs(score) > ANOMALY_Z:
                direction = "slower" if score > 0 else "faster"
                findings.append(_finding(
                    "warning", "anomalous-run",
                    f"run {index} is anomalous: sim duration "
                    f"{durations[index]:.4f}s vs median {mid:.4f}s "
                    f"(robust z {score:+.1f}, {direction} than the fleet)",
                    {"file": "journal.jsonl", "runs": [index]},
                ))

    for reason, fell_back in sorted(fallbacks.items()):
        findings.append(_finding(
            "warning", "fastpath-fallback",
            f"{len(fell_back)} run(s) fell back to the per-packet event "
            f"path: {reason}",
            {"file": "journal.jsonl", "runs": fell_back},
        ))

    # -- health ledger ---------------------------------------------------
    health = read_json_or_none(os.path.join(path, "health.json"))
    if health:
        for name, node in sorted(health.get("nodes", {}).items()):
            state = node.get("state")
            observations = node.get("observations", {})
            wedged = int(observations.get("wedged", 0))
            degraded = int(observations.get("degraded", 0))
            if state == "wedged" or wedged:
                findings.append(_finding(
                    "critical", "node-wedged",
                    f"node {name} wedged ({wedged} observation(s)); "
                    f"final state {state} — the testbed likely needed a "
                    f"power-cycle",
                    {"file": "health.json", "nodes": [name]},
                ))
            elif state == "degraded" or degraded:
                findings.append(_finding(
                    "warning", "node-degraded",
                    f"node {name} degraded ({degraded} observation(s)); "
                    f"final state {state}",
                    {"file": "health.json", "nodes": [name]},
                ))
            sel = int(node.get("sel_records", 0))
            if sel:
                findings.append(_finding(
                    "warning", "sel-records",
                    f"node {name} logged {sel} system-event-log "
                    f"record(s) during the execution",
                    {"file": "health.json", "nodes": [name]},
                ))

    # -- dispatch evidence: deaths, re-dispatch chains, quarantine -------
    fleet = {
        "deaths": 0, "redispatched_runs": 0, "quarantined": 0,
        "duplicates_dropped": 0,
    }
    dispatch = read_jsonl_or_none(os.path.join(path, DISPATCH_NAME))
    if dispatch:
        deaths: Dict[str, List[str]] = {}
        redispatched: Dict[str, List[int]] = {}
        quarantined: List[str] = []
        for record in dispatch:
            event = record.get("event")
            agent = record.get("agent")
            if event == "agent-dead":
                deaths.setdefault(agent, []).append(
                    str(record.get("reason", "unknown"))
                )
            elif event == "quarantine":
                quarantined.append(agent)
            elif event == "redispatch" or (
                event == "dispatch"
                and record.get("reason") == "redispatch"
            ):
                redispatched.setdefault(agent, []).extend(
                    int(i) for i in record.get("runs", [])
                )
        fleet["deaths"] = sum(len(v) for v in deaths.values())
        fleet["redispatched_runs"] = sum(
            len(v) for v in redispatched.values()
        )
        fleet["quarantined"] = len(quarantined)
        fleet["duplicates_dropped"] = sum(
            1 for r in dispatch if r.get("event") == "duplicate-dropped"
        )
        for agent in sorted(deaths):
            reasons = deaths[agent]
            findings.append(_finding(
                "warning", "agent-death",
                f"agent {agent} died {len(reasons)} time(s) "
                f"({', '.join(reasons)}); its orphaned work was "
                f"re-dispatched",
                {"file": DISPATCH_NAME, "agents": [agent]},
            ))
        for agent in sorted(redispatched):
            work = sorted(set(redispatched[agent]))
            findings.append(_finding(
                "info", "redispatch-chain",
                f"run(s) {', '.join(str(i) for i in work)} were "
                f"re-dispatched to {agent} after a death elsewhere in "
                f"the fleet",
                {"file": DISPATCH_NAME, "agents": [agent], "runs": work},
            ))
        for agent in sorted(set(quarantined)):
            findings.append(_finding(
                "critical", "agent-quarantined",
                f"agent {agent} was quarantined after repeated deaths; "
                f"its share of the fleet ran elsewhere",
                {"file": DISPATCH_NAME, "agents": [agent]},
            ))

    # -- cache evidence: corruption ---------------------------------------
    cache = cache_summary(read_jsonl_or_none(os.path.join(path, CACHE_NAME)))
    corrupt = cache["corrupt"] if cache else 0
    if corrupt:
        findings.append(_finding(
            "warning", "cache-corrupt",
            f"{corrupt} cached artifact(s) failed fingerprint "
            f"verification and were re-executed",
            {"file": CACHE_NAME},
        ))

    # -- critical-path inflation (only for executions already in trouble,
    # so clean runs stay byte-identical across schedules) ----------------
    if fleet["deaths"] or fleet["quarantined"]:
        from repro.telemetry.criticalpath import TraceError, analyze

        try:
            profile = analyze(path)
        except TraceError:
            profile = None
        if profile is not None and profile["total"] > 0:
            overhead = sum(
                value for name, value in profile["phases"].items()
                if name != "run"
            )
            share = overhead / profile["total"]
            if share > 0.5:
                findings.append(_finding(
                    "warning", "critical-path-inflation",
                    f"{share:.0%} of the critical path is not run "
                    f"execution (dispatch/reorder/persist overhead) — "
                    f"consistent with the observed fleet instability",
                    {"file": DISPATCH_NAME},
                ))

    findings.sort(key=lambda f: (
        _SEVERITY_RANK[f["severity"]], f["code"], f["message"],
    ))
    return {
        "path": path,
        "experiment": header.get("name"),
        "provenance": telemetry.get("provenance"),
        "summary": {
            "total_runs": total,
            "recorded_runs": len(runs),
            "failed_runs": len(failed),
            "skipped_runs": len(skipped),
            "retried_runs": len(retried),
            "complete": complete,
            "deaths": fleet["deaths"],
            "redispatched_runs": fleet["redispatched_runs"],
            "quarantined": fleet["quarantined"],
            "duplicates_dropped": fleet["duplicates_dropped"],
        },
        "findings": findings,
        "verdict": _verdict(findings),
    }


def _verdict(findings: List[Dict[str, Any]]) -> str:
    if any(f["severity"] == "critical" for f in findings):
        return "unhealthy"
    if any(f["severity"] == "warning" for f in findings):
        return "degraded"
    return "healthy"


def render_diagnosis(diagnosis: Dict[str, Any]) -> str:
    """Human-readable diagnosis for the CLI."""
    summary = diagnosis["summary"]
    lines: List[str] = []
    lines.append(f"pos doctor: {diagnosis['path']}")
    lines.append(
        f"experiment {diagnosis['experiment']} | "
        f"{summary['recorded_runs']}/{summary['total_runs']} runs | "
        f"{summary['failed_runs']} failed | {summary['retried_runs']} "
        f"retried | {summary['skipped_runs']} skipped | "
        f"{'complete' if summary['complete'] else 'INCOMPLETE'}"
    )
    lines.append(
        f"fleet: {summary['deaths']} death(s) | "
        f"{summary['redispatched_runs']} re-dispatched run(s) | "
        f"{summary['quarantined']} quarantined | "
        f"{summary['duplicates_dropped']} duplicate(s) dropped"
    )
    lines.append("")
    if not diagnosis["findings"]:
        lines.append("no findings: the execution looks healthy")
    else:
        lines.append(f"findings ({len(diagnosis['findings'])}):")
        for finding in diagnosis["findings"]:
            lines.append(
                f"  [{finding['severity']:<8}] {finding['code']}: "
                f"{finding['message']}"
            )
            evidence = finding["evidence"]
            lines.append(f"             evidence: {evidence['file']}")
    lines.append("")
    lines.append(f"verdict: {diagnosis['verdict']}")
    return "\n".join(lines) + "\n"
