"""Critical-path profiling over the causal fleet DAG.

``pos trace <dir>`` answers the question the flat evidence sidecars
cannot: *where did the wall-clock go across the fleet*.  The input is
the artifact pair an execution leaves behind:

``trace.jsonl``
    The deterministic span trace.  Its ``run`` and ``experiment`` spans
    determine the causal skeleton — one dispatch → run → persist chain
    per delivered run under one ``fleet.experiment`` root — which
    :func:`load_fleet_trace` derives on read; no second trace file is
    written.
``dispatch.jsonl``
    The quarantined evidence of the distributed pump: every record
    carries a transport-clock instant ``t``, covering every send,
    receive, result, delivery, death and completion, plus per-run
    agent wall seconds riding the ``result`` records.

With pump evidence present, the analyzer walks the delivery sequence
and attributes **every instant** of the pump's lifetime
``[begin, complete]`` to exactly one phase — dispatch latency, run
execution, reorder-buffer stall, persist/finalize — so the breakdown
*sums to the total by construction*.  The per-run reasoning mirrors a
longest-path argument over the causal DAG: run ``k`` can only be
delivered once (a) it arrived and (b) run ``k-1`` was delivered;
whichever edge finished later was the critical one, and the time since
the previous delivery is charged to that edge's phase.

Without pump evidence (a serial execution has no pump), the profile
degrades to the virtual clock: run execution is the whole critical
path.

Everything here is read-side only — plain functions over artifact
files, no controller, no live state — like the rest of the telemetry
read plane (:mod:`repro.telemetry.report`, :mod:`repro.telemetry.live`).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional

from repro.core.errors import PosError
from repro.telemetry.jsonl import iter_jsonl, read_jsonl_or_none
from repro.telemetry.plane import CACHE_NAME, DISPATCH_NAME, TRACE_NAME
from repro.telemetry.report import cache_summary

__all__ = [
    "TraceError",
    "fleet_trace_id",
    "find_trace",
    "load_fleet_trace",
    "analyze",
    "analyze_campaign",
    "render_analysis",
    "render_campaign_analysis",
]

#: The phase keys of every breakdown, in presentation order.
PHASES = ("admission", "dispatch", "run", "reorder", "persist")


class TraceError(PosError):
    """The folder does not carry the artifacts a trace profile needs."""


#: The ``run`` span attrs a ``fleet.run`` record carries: the run's
#: outcome only, never execution history (which agent, cache or not).
_RUN_ATTRS = ("ok", "attempts", "recovered", "faults")


def fleet_trace_id(experiment: str, runs: int) -> str:
    """The trace id of an execution: a pure function of its identity,
    so a resumed execution stitches into the same causal DAG."""
    identity = json.dumps({"experiment": experiment, "runs": runs}, sort_keys=True)
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16]


def find_trace(path: str) -> Optional[str]:
    """Locate ``trace.jsonl`` at ``path`` or in any folder below."""
    direct = os.path.join(path, TRACE_NAME)
    if os.path.isfile(direct):
        return direct
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        if TRACE_NAME in filenames:
            return os.path.join(dirpath, TRACE_NAME)
    return None


def load_fleet_trace(trace_path: str) -> Dict[str, Any]:
    """The causal fleet DAG derived from ``trace.jsonl``, as plain data.

    The k-th ``run`` span whose attrs carry an ``index`` (file order is
    merge order, i.e. run order for every executor) yields
    ``r{i}.dispatch`` at causal tick ``2k``, ``r{i}.run`` on the run's
    sim clock with its outcome attrs, and ``r{i}.persist`` at tick
    ``2k+1``.  The ``experiment`` span yields the ``root`` record
    (post-order, end tick ``2·count``), which keeps the span's
    ``unfinished`` mark: an aborted or crashed execution reads as
    unfinished.  Every record carries :func:`fleet_trace_id`.
    """
    identity = None
    run_spans: List[dict] = []
    for span in iter_jsonl(trace_path):
        if span.get("name") == "run" and "index" in span.get("attrs", {}):
            run_spans.append(span)
        elif span.get("name") == "experiment" and identity is None:
            identity = span.get("attrs", {})
    trace = None if identity is None else fleet_trace_id(
        identity.get("experiment"), identity.get("runs"),
    )
    records: List[dict] = []
    runs: Dict[int, Dict[str, dict]] = {}

    def emit(span, parent, name, start, end, clock, run, attrs) -> dict:
        records.append({
            "seq": len(records) + 1, "trace": trace, "span": span,
            "parent": parent, "name": name, "start": start, "end": end,
            "clock": clock, "run": run, "attrs": attrs,
        })
        return records[-1]

    tick = 0.0
    for span in run_spans:
        attrs = span["attrs"]
        index = int(attrs["index"])
        chain = f"r{index}"
        runs[index] = {
            "dispatch": emit(f"{chain}.dispatch", "root", "fleet.dispatch",
                             tick, tick, "causal", index, {}),
            "run": emit(f"{chain}.run", f"{chain}.dispatch", "fleet.run",
                        float(span["start"]), float(span["end"]), "sim",
                        index, {key: attrs[key] for key in _RUN_ATTRS
                                if key in attrs}),
            "persist": emit(f"{chain}.persist", f"{chain}.run",
                            "fleet.persist", tick + 1.0, tick + 1.0,
                            "causal", index, {}),
        }
        tick += 2.0
    root = None
    if identity is not None:
        attrs = {"experiment": identity.get("experiment"),
                 "runs": identity.get("runs")}
        if identity.get("unfinished"):
            attrs["unfinished"] = True
        root = emit("root", None, "fleet.experiment",
                    0.0, tick, "causal", None, attrs)
    if not records:
        raise TraceError(
            f"{trace_path} carries no complete trace record "
            f"(crashed before the first delivery?)"
        )
    return {
        "trace": trace,
        "experiment": (root or {}).get("attrs", {}).get("experiment"),
        "total_runs": (root or {}).get("attrs", {}).get("runs"),
        "root": root,
        "records": records,
        "runs": runs,
    }


def _wall_profile(events: List[dict]) -> Dict[str, Any]:
    """Attribute the pump's whole lifetime to phases, exactly once each.

    ``dispatch.jsonl`` is append-only across resumes, so one file may
    hold several pump lifetimes (a crashed execution's segment followed by
    the resume's).  Each segment has its own transport-clock origin;
    they are profiled independently and folded: phase seconds add,
    agent books merge, and the timeline is rebased onto one synthetic
    concatenated clock so later segments follow earlier ones.
    """
    segments: List[List[dict]] = []
    current: List[dict] = []
    for event in events:
        if event.get("event") == "begin" and current:
            segments.append(current)
            current = []
        current.append(event)
    if current:
        segments.append(current)

    phases = {name: 0.0 for name in PHASES}
    agents: Dict[str, Dict[str, Any]] = {}
    slowest_by_run: Dict[int, dict] = {}
    timeline: List[dict] = []
    seen_runs: set = set()
    wall_of: Dict[int, float] = {}
    deaths = 0
    total = 0.0
    for segment in segments:
        part = _segment_profile(segment)
        offset = total - part["begin"]
        total += part["total"]
        for name in PHASES:
            phases[name] += part["phases"][name]
        deaths += part["deaths"]
        for book in part["agents"]:
            merged = agents.setdefault(
                book["agent"],
                {"agent": book["agent"], "runs": 0, "busy": 0.0,
                 "wall_s": 0.0},
            )
            merged["runs"] += book["runs"]
            merged["busy"] += book["busy"]
            merged["wall_s"] += book["wall_s"]
        for row in part["slowest"]:
            slowest_by_run.setdefault(row["run"], row)
        for entry in part["timeline"]:
            if entry["run"] in seen_runs:
                continue
            seen_runs.add(entry["run"])
            timeline.append({
                "run": entry["run"],
                "agent": entry["agent"],
                "dispatch": entry["dispatch"] + offset,
                "arrival": entry["arrival"] + offset,
                "deliver": (
                    entry["deliver"] + offset
                    if entry["deliver"] is not None else None
                ),
            })
        wall_of.update(part["executed_wall_s"])
    for book in agents.values():
        book["idle"] = max(0.0, total - book["busy"])
        book["utilization"] = (book["busy"] / total) if total > 0 else 0.0
    slowest = sorted(
        slowest_by_run.values(),
        key=lambda row: (-row["duration"], row["run"]),
    )
    return {
        "clock": "transport",
        "total": total,
        "begin": 0.0,
        "phases": phases,
        "agents": [agents[name] for name in sorted(agents)],
        "slowest": slowest,
        "deaths": deaths,
        "timeline": timeline,
        "executed_wall_s": wall_of,
    }


def _segment_profile(events: List[dict]) -> Dict[str, Any]:
    """Profile one pump lifetime (one ``begin``..``complete`` segment).

    Works in the transport-clock domain (virtual rounds on loopback,
    seconds on pipe): the units cancel in the percentages, and the
    agent wall seconds ride along separately for absolute numbers.
    """
    begin_t = next(
        (e["t"] for e in events if e.get("event") == "begin"), None,
    )
    complete_t = next(
        (e["t"] for e in events if e.get("event") == "complete"), None,
    )
    if begin_t is None:
        begin_t = events[0]["t"] if events else 0.0
    if complete_t is None:
        complete_t = events[-1]["t"] if events else begin_t
    dispatch_t: Dict[int, float] = {}
    arrival_t: Dict[int, float] = {}
    deliver_t: Dict[int, float] = {}
    agent_of: Dict[int, str] = {}
    wall_of: Dict[int, float] = {}
    deaths: List[dict] = []
    for event in events:
        kind = event.get("event")
        if kind == "send" and event.get("kind") == "dispatch":
            for index in event.get("runs") or []:
                dispatch_t.setdefault(int(index), event["t"])
        elif kind == "result":
            index = int(event["run"])
            if index not in arrival_t:
                arrival_t[index] = event["t"]
                agent_of[index] = event.get("agent", "?")
                if event.get("wall_s") is not None:
                    wall_of[index] = float(event["wall_s"])
        elif kind == "deliver":
            deliver_t.setdefault(int(event["run"]), event["t"])
        elif kind == "agent-dead":
            deaths.append(event)

    phases = {name: 0.0 for name in PHASES}
    prev = begin_t
    for index in sorted(deliver_t):
        delivered = deliver_t[index]
        arrived = arrival_t.get(index)
        if arrived is None:
            # Adopted or cache-served: no agent produced it here, the
            # delivery instant is pure merge/persist work.
            phases["persist"] += max(0.0, delivered - prev)
        elif arrived >= prev:
            # The run's production was the critical edge: charge the
            # window since the previous delivery to getting the work
            # out (dispatch), doing it (run), and merging it (reorder
            # covers the in-buffer wait between arrival and delivery).
            dispatched = dispatch_t.get(index, prev)
            phases["dispatch"] += max(0.0, dispatched - prev)
            phases["run"] += arrived - max(prev, dispatched)
            phases["reorder"] += max(0.0, delivered - arrived)
        else:
            # Arrived before its turn: the run sat in the reorder
            # buffer while earlier indices were still the bottleneck.
            phases["reorder"] += max(0.0, delivered - prev)
        prev = max(prev, delivered)
    phases["persist"] += max(0.0, complete_t - prev)

    # Per-agent occupancy in the transport-clock domain: the union of
    # each run's [dispatch, arrival] window, folded per agent.
    total = max(0.0, complete_t - begin_t)
    agents: Dict[str, Dict[str, Any]] = {}
    for index in sorted(arrival_t):
        agent = agent_of[index]
        book = agents.setdefault(
            agent, {"agent": agent, "runs": 0, "busy": 0.0, "wall_s": 0.0,
                    "cursor": begin_t},
        )
        book["runs"] += 1
        started = max(dispatch_t.get(index, begin_t), book["cursor"])
        book["busy"] += max(0.0, arrival_t[index] - started)
        book["cursor"] = max(book["cursor"], arrival_t[index])
        book["wall_s"] += wall_of.get(index, 0.0)
    for book in agents.values():
        book.pop("cursor", None)
        book["idle"] = max(0.0, total - book["busy"])
        book["utilization"] = (book["busy"] / total) if total > 0 else 0.0

    slowest = sorted(
        (
            {
                "run": index,
                "agent": agent_of.get(index),
                "duration": (
                    wall_of[index] if index in wall_of
                    else arrival_t[index] - dispatch_t.get(index, begin_t)
                ),
                "unit": "s" if index in wall_of else "t",
            }
            for index in arrival_t
        ),
        key=lambda row: (-row["duration"], row["run"]),
    )
    timeline = [
        {
            "run": index,
            "agent": agent_of[index],
            "dispatch": dispatch_t.get(index, begin_t),
            "arrival": arrival_t[index],
            "deliver": deliver_t.get(index),
        }
        for index in sorted(arrival_t)
    ]
    return {
        "clock": "transport",
        "total": total,
        "begin": begin_t,
        "phases": phases,
        "agents": [agents[name] for name in sorted(agents)],
        "slowest": slowest,
        "deaths": len(deaths),
        "timeline": timeline,
        "executed_wall_s": wall_of,
    }


def _sim_profile(runs: Dict[int, Dict[str, dict]]) -> Dict[str, Any]:
    """Virtual-clock fallback when no pump left wall evidence."""
    durations = {
        index: float(chain["run"]["end"]) - float(chain["run"]["start"])
        for index, chain in sorted(runs.items())
        if "run" in chain
    }
    total = sum(durations.values())
    phases = {name: 0.0 for name in PHASES}
    phases["run"] = total
    slowest = sorted(
        (
            {"run": index, "agent": None, "duration": durations[index],
             "unit": "s"}
            for index in durations
        ),
        key=lambda row: (-row["duration"], row["run"]),
    )
    cursor = 0.0
    timeline = []
    for index in sorted(durations):
        timeline.append({
            "run": index,
            "agent": None,
            "dispatch": cursor,
            "arrival": cursor + durations[index],
            "deliver": cursor + durations[index],
        })
        cursor += durations[index]
    return {
        "clock": "sim",
        "total": total,
        "begin": 0.0,
        "phases": phases,
        "agents": [],
        "slowest": slowest,
        "deaths": 0,
        "timeline": timeline,
        "executed_wall_s": {},
    }


def analyze(experiment_path: str, clock: str = "auto") -> Dict[str, Any]:
    """The full trace profile of one experiment folder, as plain data.

    ``clock`` selects the time base: ``"auto"`` prefers the quarantined
    pump evidence in ``dispatch.jsonl`` when a pump left any; ``"sim"`` forces the virtual-
    clock profile, which is a pure function of the deterministic trace
    and therefore safe for byte-stable comparative reports
    (:mod:`repro.telemetry.diff`).
    """
    if clock not in ("auto", "sim"):
        raise TraceError(f"unknown trace clock {clock!r} (auto or sim)")
    trace_path = find_trace(experiment_path)
    if trace_path is None:
        raise TraceError(
            f"no {TRACE_NAME} under {experiment_path}; was the "
            f"experiment run with telemetry on (POS_TELEMETRY not 0)?"
        )
    dag = load_fleet_trace(trace_path)
    folder = os.path.dirname(trace_path)
    pump = []
    if clock == "auto":
        # Records without a transport instant predate the pump timings.
        events = read_jsonl_or_none(os.path.join(folder, DISPATCH_NAME))
        pump = [event for event in events or () if "t" in event]
    if pump:
        profile = _wall_profile(pump)
    else:
        profile = _sim_profile(dag["runs"])

    cache = cache_summary(
        read_jsonl_or_none(os.path.join(folder, CACHE_NAME))
    )
    if cache is not None:
        executed = profile["executed_wall_s"]
        mean = (
            sum(executed.values()) / len(executed) if executed else None
        )
        if mean is None:
            sim = [
                float(c["run"]["end"]) - float(c["run"]["start"])
                for c in dag["runs"].values() if "run" in c
            ]
            mean = (sum(sim) / len(sim)) if sim else 0.0
        cache["saved_s"] = cache["hits"] * mean
    profile.pop("executed_wall_s", None)
    return {
        "path": trace_path,
        "trace": dag["trace"],
        "experiment": dag["experiment"],
        "total_runs": dag["total_runs"],
        "spans": len(dag["records"]),
        "runs_traced": len(dag["runs"]),
        "cache": cache,
        **profile,
    }


def analyze_campaign(campaign_path: str) -> Dict[str, Any]:
    """Fold per-experiment profiles under one campaign, admission-aware.

    Joins the campaign's ``admission.jsonl`` windows with each admitted
    experiment's fleet trace (where one exists): per-experiment totals
    plus the calendar wait between submission order and the planned
    window start — the campaign-level "admission" phase the
    single-experiment profile cannot see.
    """
    from repro.campaign.admission import ADMISSION_NAME

    entries = read_jsonl_or_none(os.path.join(campaign_path, ADMISSION_NAME))
    if entries is None:
        raise TraceError(
            f"no {ADMISSION_NAME} in {campaign_path} "
            f"(not a campaign folder?)"
        )
    experiments: List[Dict[str, Any]] = []
    aggregate = {name: 0.0 for name in PHASES}
    for entry in entries:
        if entry.get("event") != "admit":
            continue
        row: Dict[str, Any] = {
            "experiment": entry.get("experiment"),
            "user": entry.get("user"),
            "window": [entry.get("start"), entry.get("end")],
            "admission_wait": float(entry.get("start") or 0.0),
            "profile": None,
        }
        base = os.path.join(
            campaign_path, "experiments",
            str(entry.get("user")), str(entry.get("experiment")),
        )
        trace_path = find_trace(base) if os.path.isdir(base) else None
        if trace_path is not None:
            profile = analyze(os.path.dirname(trace_path))
            row["profile"] = profile
            for name in PHASES:
                aggregate[name] += profile["phases"][name]
        aggregate["admission"] += row["admission_wait"]
        experiments.append(row)
    return {
        "campaign": campaign_path,
        "experiments": experiments,
        "phases": aggregate,
        "total": sum(aggregate.values()),
    }


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _phase_lines(phases: Dict[str, float], total: float) -> List[str]:
    lines = []
    for name in PHASES:
        value = phases.get(name, 0.0)
        share = (100.0 * value / total) if total > 0 else 0.0
        bar = "#" * int(round(share / 4))
        lines.append(f"  {name:<10} {value:>10.4f} {share:>5.1f}%  {bar}")
    lines.append(f"  {'total':<10} {total:>10.4f} 100.0%")
    return lines


def render_analysis(analysis: Dict[str, Any], top: int = 5) -> str:
    """Human-readable trace profile for the CLI."""
    lines: List[str] = []
    lines.append(f"fleet trace: {analysis['path']}")
    lines.append(
        f"trace id {analysis['trace']} | experiment "
        f"{analysis['experiment']} | {analysis['runs_traced']}/"
        f"{analysis['total_runs']} runs traced | "
        f"{analysis['spans']} spans"
    )
    clock = analysis["clock"]
    unit = "transport clock units" if clock == "transport" else "sim seconds"
    lines.append("")
    lines.append(f"critical path ({unit}):")
    lines.extend(_phase_lines(analysis["phases"], analysis["total"]))
    if analysis["agents"]:
        lines.append("")
        header = (
            f"  {'agent':<12} {'runs':>4} {'busy':>9} {'idle':>9} "
            f"{'util':>6} {'run wall s':>10}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for book in analysis["agents"]:
            lines.append(
                f"  {book['agent']:<12} {book['runs']:>4} "
                f"{book['busy']:>9.3f} {book['idle']:>9.3f} "
                f"{book['utilization']:>5.1%} {book['wall_s']:>10.4f}"
            )
    if analysis["deaths"]:
        lines.append("")
        lines.append(f"  agent deaths observed: {analysis['deaths']}")
    slowest = analysis["slowest"][:top]
    if slowest:
        lines.append("")
        lines.append(f"slowest runs (top {len(slowest)}):")
        for row in slowest:
            where = f" on {row['agent']}" if row.get("agent") else ""
            lines.append(
                f"  run {row['run']:>3}  {row['duration']:.4f}"
                f"{row.get('unit', 's')}{where}"
            )
    cache = analysis.get("cache")
    if cache is not None:
        lines.append("")
        lines.append(
            f"run cache: {cache['hits']} hit(s), {cache['misses']} "
            f"miss(es), {cache['stores']} store(s), "
            f"{cache['corrupt']} corrupt — "
            f"~{cache['saved_s']:.4f}s execution avoided"
        )
    return "\n".join(lines) + "\n"


def render_campaign_analysis(analysis: Dict[str, Any], top: int = 5) -> str:
    """Campaign-level roll-up: admission windows + per-experiment totals."""
    lines: List[str] = []
    lines.append(f"campaign: {analysis['campaign']}")
    lines.append("")
    header = (
        f"  {'experiment':<16} {'user':<10} {'window':<16} "
        f"{'wait':>8} {'total':>10}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for row in analysis["experiments"]:
        # Admission rows written by older planners may lack window
        # bounds; render the gap instead of crashing on None.
        start, end = row["window"]
        if start is None or end is None:
            window = "(no window)"
        else:
            window = f"[{start:g}, {end:g}]"
        profile = row.get("profile")
        total = f"{profile['total']:.4f}" if profile else "(no trace)"
        lines.append(
            f"  {str(row['experiment']):<16} {str(row['user']):<10} "
            f"{window:<16} {row['admission_wait']:>8g} {total:>10}"
        )
    lines.append("")
    lines.append("aggregate critical path (campaign calendar + traces):")
    lines.extend(_phase_lines(analysis["phases"], analysis["total"]))
    return "\n".join(lines) + "\n"
