"""Study tree validation (``pos study audit``).

The auditor recomputes the *expected* shape of the whole tree from
``study.yml`` alone — replication directories, campaign journals,
per-cell experiment directories, run directories, recorded factor
assignments, and the statistical aggregate — and diffs the actual tree
against it.  Two result classes come out:

* **holes** — structural damage that ``pos study repair`` can fix by
  re-executing exactly the affected work: missing replications,
  missing or incomplete campaign journals, missing experiments or
  runs, assignment mismatches, torn study journals, stale aggregates.
  Machine-readable, deterministically ordered.
* **findings** — advisory diagnostics that need no re-execution:
  per-experiment ``pos doctor`` verdicts, schema violations, and
  reproducibility-fingerprint drift across the study's experiments.

The report is a pure function of the tree, so auditing the same bytes
always yields the same holes in the same order.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from repro.campaign.admission import plan_admission
from repro.campaign.workload import expected_result_dir
from repro.core import yamlite
from repro.core.errors import StudyError
from repro.core.journal import JOURNAL_NAME
from repro.core.variables import expand_loop_variables
from repro.study.design import replication_campaign, replication_dir
from repro.study.evaluate import STUDY_JSON_NAME, evaluate_study
from repro.study.journal import STUDY_JOURNAL_NAME
from repro.study.spec import STUDY_SPEC_NAME, load_study_file
from repro.telemetry.jsonl import read_jsonl

__all__ = ["audit_study", "render_audit"]

#: Hole ordering: structural damage first, derived artifacts last.
_KIND_RANK = {
    "missing-replication": 0,
    "missing-campaign-journal": 1,
    "incomplete-campaign": 2,
    "missing-experiment": 3,
    "missing-experiment-journal": 4,
    "missing-run": 5,
    "assignment-mismatch": 6,
    "missing-study-journal": 7,
    "study-journal-mismatch": 8,
    "unjournaled-replication": 9,
    "incomplete-study": 10,
    "missing-aggregate": 11,
    "stale-aggregate": 12,
}


def _hole(kind: str, **details: Any) -> Dict[str, Any]:
    hole = {"kind": kind}
    hole.update(details)
    return hole


def _finding(severity: str, code: str, message: str, **details: Any) -> dict:
    finding = {"severity": severity, "code": code, "message": message}
    finding.update(details)
    return finding


def _audit_experiment(
    experiment_dir: str,
    replication: int,
    index: int,
    cell: str,
    expected_runs: List[dict],
    holes: List[dict],
    findings: List[dict],
    provenance: Dict[str, List[str]],
) -> None:
    """Check one cell's experiment tree against its expected design."""
    relative = {"replication": replication, "experiment": index, "cell": cell}
    if not os.path.isdir(experiment_dir):
        holes.append(_hole("missing-experiment", **relative))
        return
    if not os.path.isfile(os.path.join(experiment_dir, JOURNAL_NAME)):
        holes.append(_hole("missing-experiment-journal", **relative))
        return
    for run_index, instance in enumerate(expected_runs):
        run_dir = os.path.join(experiment_dir, f"run-{run_index:03d}")
        if not os.path.isdir(run_dir):
            holes.append(_hole("missing-run", run=run_index, **relative))
            continue
        metadata_path = os.path.join(run_dir, "metadata.yml")
        if not os.path.isfile(metadata_path):
            holes.append(_hole("missing-run", run=run_index, **relative))
            continue
        metadata = yamlite.load_file(metadata_path)
        recorded = (
            metadata.get("loop") if isinstance(metadata, dict) else None
        )
        if recorded != instance:
            holes.append(_hole(
                "assignment-mismatch", run=run_index,
                expected=instance, recorded=recorded, **relative,
            ))

    # Advisory layers: doctor verdict, schemas, fingerprint drift.
    from repro.telemetry.doctor import DoctorError, diagnose

    try:
        diagnosis = diagnose(experiment_dir)
    except DoctorError as exc:
        findings.append(_finding(
            "warning", "undiagnosable",
            f"replication {replication} {cell}: {exc}", **relative,
        ))
    else:
        if diagnosis["verdict"] != "healthy":
            codes = sorted({f["code"] for f in diagnosis["findings"]})
            findings.append(_finding(
                "warning" if diagnosis["verdict"] == "degraded"
                else "critical",
                "doctor-" + diagnosis["verdict"],
                f"replication {replication} {cell}: pos doctor reports "
                f"{diagnosis['verdict']} ({', '.join(codes)})",
                **relative,
            ))
        fingerprint = diagnosis.get("provenance")
        if isinstance(fingerprint, dict):
            key = json.dumps(
                {k: v for k, v in sorted(fingerprint.items())
                 if k not in ("seed",)},
                sort_keys=True,
            )
            provenance.setdefault(key, []).append(
                f"rep-{replication:03d}/{cell}"
            )

    from repro.telemetry.schema import SchemaError, validate_experiment

    try:
        validate_experiment(experiment_dir)
    except SchemaError as exc:
        findings.append(_finding(
            "critical", "schema-violation",
            f"replication {replication} {cell}: {exc}", **relative,
        ))


def audit_study(study_dir: str) -> dict:
    """Validate an entire study tree; returns the machine-readable report."""
    study_dir = os.path.abspath(study_dir)
    spec_path = os.path.join(study_dir, STUDY_SPEC_NAME)
    if not os.path.isfile(spec_path):
        raise StudyError(
            f"no {STUDY_SPEC_NAME} in {study_dir} (not a study tree?)"
        )
    spec = load_study_file(spec_path)
    holes: List[dict] = []
    findings: List[dict] = []
    provenance: Dict[str, List[str]] = {}

    for replication in range(spec.replications):
        rep_dir = replication_dir(study_dir, replication)
        if not os.path.isdir(rep_dir):
            holes.append(_hole(
                "missing-replication", replication=replication,
            ))
            continue
        campaign = replication_campaign(spec, replication)
        plan = plan_admission(campaign)
        journal_path = os.path.join(rep_dir, JOURNAL_NAME)
        if not os.path.isfile(journal_path):
            holes.append(_hole(
                "missing-campaign-journal", replication=replication,
            ))
            continue
        entries = read_jsonl(journal_path)
        recorded = {
            int(entry["index"]): entry
            for entry in entries
            if entry.get("event") == "experiment" and entry.get("ok")
        }
        complete = any(
            entry.get("event") == "complete" and entry.get("ok")
            for entry in entries
        )
        if not complete or len(recorded) < len(plan.admitted):
            holes.append(_hole(
                "incomplete-campaign", replication=replication,
                recorded=len(recorded), expected=len(plan.admitted),
            ))
        for placement in plan.admitted:
            _audit_experiment(
                expected_result_dir(
                    rep_dir, campaign.base_epoch, placement
                ),
                replication,
                placement.execution_index,
                placement.spec.name,
                expand_loop_variables(placement.spec.loop or {}),
                holes,
                findings,
                provenance,
            )

    # -- the study journal ------------------------------------------------
    damaged = {
        hole["replication"] for hole in holes if "replication" in hole
    }
    journal_path = os.path.join(study_dir, STUDY_JOURNAL_NAME)
    if not os.path.isfile(journal_path):
        holes.append(_hole("missing-study-journal"))
    else:
        entries = read_jsonl(journal_path)
        header = entries[0] if entries else {}
        if (
            header.get("event") != "study"
            or header.get("name") != spec.name
            or header.get("total_replications") != spec.replications
        ):
            holes.append(_hole(
                "study-journal-mismatch",
                header={k: header.get(k) for k in ("event", "name",
                                                   "total_replications")},
            ))
        else:
            journaled = {
                int(entry["index"])
                for entry in entries
                if entry.get("event") == "replication" and entry.get("ok")
            }
            for replication in range(spec.replications):
                if replication in journaled or replication in damaged:
                    continue
                holes.append(_hole(
                    "unjournaled-replication", replication=replication,
                ))
            if not any(
                entry.get("event") == "complete" and entry.get("ok")
                for entry in entries
            ) and not damaged:
                holes.append(_hole("incomplete-study"))

    # -- the statistical aggregate ----------------------------------------
    # Only checkable on a structurally sound tree: recomputing the
    # expected aggregate needs every measurement present.
    aggregate_path = os.path.join(study_dir, STUDY_JSON_NAME)
    if not holes:
        expected_bytes = (
            json.dumps(
                evaluate_study(study_dir, spec), sort_keys=True, indent=2
            ) + "\n"
        )
        if not os.path.isfile(aggregate_path):
            holes.append(_hole("missing-aggregate"))
        else:
            with open(aggregate_path, "r", encoding="utf-8") as handle:
                actual = handle.read()
            if actual != expected_bytes:
                holes.append(_hole("stale-aggregate"))
            else:
                from repro.telemetry.schema import (
                    SchemaError,
                    validate_study,
                )

                try:
                    validate_study(study_dir)
                except SchemaError as exc:
                    findings.append(_finding(
                        "critical", "schema-violation",
                        f"{STUDY_JSON_NAME}: {exc}",
                    ))

    # -- fingerprint drift across the whole study --------------------------
    if len(provenance) > 1:
        groups = {
            key: sorted(members)[0] for key, members in provenance.items()
        }
        findings.append(_finding(
            "warning", "fingerprint-drift",
            f"{len(provenance)} distinct reproducibility fingerprints "
            f"across the study's experiments (e.g. "
            f"{', '.join(sorted(groups.values()))}) — the replications "
            f"did not all run the same code/platform",
        ))

    holes.sort(key=_hole_key)
    findings.sort(key=lambda f: (f["severity"], f["code"], f["message"]))
    return {
        "path": study_dir,
        "study": spec.name,
        "replications": spec.replications,
        "holes": holes,
        "findings": findings,
        "complete": not holes,
    }


def _hole_key(hole: dict) -> tuple:
    return (
        hole.get("replication", -1) if isinstance(
            hole.get("replication"), int
        ) else -1,
        _KIND_RANK.get(hole["kind"], 99),
        hole.get("experiment", -1),
        hole.get("run", -1),
    )


def render_audit(report: dict) -> str:
    """Human-readable audit report for the CLI."""
    lines = [
        f"pos study audit: {report['path']}",
        f"study {report['study']} | {report['replications']} "
        f"replication(s) | {len(report['holes'])} hole(s) | "
        f"{len(report['findings'])} finding(s)",
        "",
    ]
    if report["holes"]:
        lines.append(f"holes ({len(report['holes'])}):")
        for hole in report["holes"]:
            where: List[str] = []
            if "replication" in hole:
                where.append(f"rep {hole['replication']}")
            if "cell" in hole:
                where.append(str(hole["cell"]))
            if "run" in hole:
                where.append(f"run {hole['run']}")
            location = " ".join(where) or "study"
            lines.append(f"  [{hole['kind']}] {location}")
    else:
        lines.append("no holes: the tree matches its expanded design")
    if report["findings"]:
        lines.append("")
        lines.append(f"findings ({len(report['findings'])}):")
        for finding in report["findings"]:
            lines.append(
                f"  [{finding['severity']:<8}] {finding['code']}: "
                f"{finding['message']}"
            )
    lines.append("")
    lines.append(
        "verdict: " + ("complete" if report["complete"] else "INCOMPLETE")
    )
    return "\n".join(lines) + "\n"
