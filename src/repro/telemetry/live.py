"""Live experiment monitoring from artifacts alone.

``pos status <expdir>`` renders a one-shot progress and node-health
view, and ``pos watch <expdir>`` follows the folder while an experiment
executes.  Both are *read-only tailers*: everything they show is
reconstructed from the files the controller flushes as it goes — the
run journal (``journal.jsonl``, whose run records carry each run's
telemetry and health evidence) and the experiment-level aggregates.
No controller handle, no IPC, no shared state: the monitor can run in
a different process (or on a different machine, over a synced artifact
folder) while a parallel ``--jobs N`` execution is writing, because
every record is written with a single flushed ``write()`` and torn
tails are dropped exactly like the resume path drops them.

The only wall-clock information in the deterministic artifacts is the
filesystem itself, so the ETA is extrapolated from run-directory
mtimes — it is an operator convenience, never an artifact.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.core.errors import PosError
from repro.telemetry.jsonl import fold_journal
from repro.testbed.health import ExperimentHealth

__all__ = [
    "StatusError",
    "load_status",
    "render_status",
    "watch",
    "load_health_timeline",
]


class StatusError(PosError):
    """The folder does not carry the artifacts a status view needs."""


def _read_journal(experiment_path: str, fold):
    """The journal's other records and ``fold`` of each latest run
    record, tolerant of a torn (in-flight) final line."""
    path = os.path.join(experiment_path, "journal.jsonl")
    if not os.path.isfile(path):
        raise StatusError(
            f"no journal.jsonl in {experiment_path} "
            f"(not an experiment result folder?)"
        )
    return fold_journal(path, fold)


def _status_entry(record: dict) -> dict:
    """A run record with its telemetry reduced to the injected faults."""
    snapshot = record.pop("telemetry", None) or {}
    counters = snapshot.get("metrics", {}).get("counters", {})
    record["faults"] = sum(
        value for name, value in counters.items()
        if name.startswith("faults.injected.")
    )
    return record


def _eta_seconds(
    experiment_path: str, runs: Dict[int, dict], remaining: int,
) -> Optional[float]:
    """Extrapolate from run-directory mtimes; None below two samples."""
    if remaining <= 0:
        return None
    times = []
    for index in sorted(runs):
        run_dir = runs[index].get("dir")
        if not run_dir:
            continue
        path = os.path.join(experiment_path, run_dir)
        if os.path.isdir(path):
            times.append(os.path.getmtime(path))
    if len(times) < 2:
        return None
    times.sort()
    per_run = (times[-1] - times[0]) / (len(times) - 1)
    return per_run * remaining


def load_status(
    experiment_path: str, require_runs: bool = True,
) -> Dict[str, Any]:
    """Assemble the progress/health view as plain data.

    ``require_runs=False`` (the ``watch`` mode) tolerates an experiment
    that has not journalled any run yet — it is probably still in the
    setup phase; ``pos status`` on such a folder is an error instead.
    """
    if not os.path.isdir(experiment_path):
        raise StatusError(f"no such experiment directory: {experiment_path}")
    entries, runs = _read_journal(experiment_path, _status_entry)
    if not entries or entries[0].get("event") != "experiment":
        raise StatusError(
            f"journal.jsonl in {experiment_path} has no experiment header "
            f"(crashed before the first fsync?)"
        )
    header = entries[0]
    if require_runs and not runs:
        raise StatusError(
            f"no measurement runs journalled in {experiment_path} yet "
            f"(use 'pos watch' to follow a starting experiment)"
        )
    complete = any(entry.get("event") == "complete" for entry in entries)
    total = header.get("total_runs")
    done = len(runs)
    ok = sum(1 for entry in runs.values() if entry.get("ok"))
    skipped = sum(1 for entry in runs.values() if entry.get("skipped"))
    failed = done - ok - skipped
    retried = sum(1 for entry in runs.values() if entry.get("retried"))

    faults = sum(entry["faults"] for entry in runs.values())
    health = ExperimentHealth()
    for index in sorted(runs):
        health.fold(runs[index].get("health"))

    if complete:
        phase = "complete"
    elif not runs:
        phase = "setup"
    else:
        phase = "measurement"
    remaining = (total - done) if isinstance(total, int) else 0
    return {
        "experiment": header.get("name"),
        "total_runs": total,
        "phase": phase,
        "complete": complete,
        "done": done,
        "ok": ok,
        "failed": failed,
        "skipped": skipped,
        "retried": retried,
        "faults": faults,
        "health": health.snapshot(),
        "eta_s": (
            None if complete
            else _eta_seconds(experiment_path, runs, remaining)
        ),
    }


def render_status(experiment_path: str, require_runs: bool = True) -> str:
    """Render the one-shot ``pos status`` view as text."""
    status = load_status(experiment_path, require_runs=require_runs)
    lines: List[str] = []
    lines.append(f"experiment: {status['experiment']}")
    lines.append(
        f"phase:      {status['phase']} "
        f"({status['done']}/{status['total_runs']} runs journalled)"
    )
    lines.append(
        f"runs:       {status['ok']} ok, {status['failed']} failed, "
        f"{status['skipped']} skipped, {status['retried']} retried"
    )
    lines.append(f"faults:     {status['faults']} injected")
    nodes = status["health"]["nodes"]
    if nodes:
        lines.append("health:")
        for name in sorted(nodes):
            node = nodes[name]
            sensors = node.get("sensors") or {}
            reading = (
                f"{sensors['temperature_c']:5.1f} C "
                f"{sensors['power_w']:6.1f} W "
                f"{sensors['fan_rpm']:>4d} rpm"
                if sensors else "(no sensors)"
            )
            lines.append(
                f"  {name:<10s} {node['state']:<11s} {reading}   "
                f"sel {node['sel_records']}"
            )
    else:
        lines.append("health:     (no health snapshots)")
    if status["eta_s"] is not None:
        lines.append(
            f"eta:        ~{status['eta_s']:.1f} s "
            f"(extrapolated from {status['done']} completed runs)"
        )
    return "\n".join(lines) + "\n"


def watch(
    experiment_path: str,
    stream=None,
    interval_s: float = 2.0,
    max_updates: Optional[int] = None,
    sleep=time.sleep,
) -> int:
    """Follow an experiment folder, re-rendering the status per tick.

    Read-only and safe to run concurrently with the scheduler: every
    tick re-tails the flushed artifacts from scratch.  Stops when the
    journal records completion (or after ``max_updates`` renders).
    """
    stream = stream if stream is not None else sys.stdout
    if not os.path.isdir(experiment_path):
        raise StatusError(f"no such experiment directory: {experiment_path}")
    updates = 0
    while True:
        complete = False
        try:
            text = render_status(experiment_path, require_runs=False)
            complete = "phase:      complete" in text
        except StatusError as exc:
            text = f"waiting: {exc}\n"
        stream.write(text)
        stream.write("\n")
        stream.flush()
        updates += 1
        if complete:
            return 0
        if max_updates is not None and updates >= max_updates:
            return 0
        sleep(interval_s)


def load_health_timeline(experiment_path: str) -> Dict[str, Any]:
    """Per-run health observations and SEL records, for the dashboard.

    Returns the node list, one observation row per journalled run, the
    flattened SEL records, and the final per-node machine state —
    everything the published website needs to draw the health timeline
    without re-running anything.
    """
    __, runs = _read_journal(
        experiment_path, lambda record: record.get("health")
    )
    payloads = {
        index: runs[index] for index in sorted(runs) if runs[index] is not None
    }
    node_names: List[str] = sorted(
        {name for payload in payloads.values() for name in payload["nodes"]}
    )
    timeline: List[Dict[str, Any]] = []
    sel: List[Dict[str, Any]] = []
    health = ExperimentHealth()
    for index in sorted(payloads):
        payload = payloads[index]
        health.fold(payload)
        observations = {
            name: payload["nodes"].get(name, {}).get(
                "observation", "unmonitored"
            )
            for name in node_names
        }
        timeline.append({"run": index, "observations": observations})
        for name in sorted(payload["nodes"]):
            for record in payload["nodes"][name].get("sel", []):
                sel.append(dict(record, run=index, node=name))
    snapshot = health.snapshot()
    return {
        "nodes": node_names,
        "timeline": timeline,
        "sel": sel,
        "final": {
            name: node["state"] for name, node in snapshot["nodes"].items()
        },
    }
