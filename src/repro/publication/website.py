"""Artifact-index website generator.

"In addition, it generates a website and inserts all the collected
artifacts documenting the experimental structure in a format that can
be easily read by researchers."  (Sec. 4.4)

The generator walks an experiment result folder and emits both a
``README.md`` (the file GitHub Pages renders in the paper's workflow)
and a standalone ``index.html``: experiment metadata, the variable
scopes, the executed scripts, a per-run artifact table, and inline
links to the generated figures.

When the folder carries the telemetry artifacts (``journal.jsonl``,
per-run ``telemetry.json``/``health.json``), a third page —
``dashboard.html`` — is generated as well: the per-run provenance
table, experiment-wide metric summaries, a run-duration chart, the
fleet timeline with its critical-path bar (the fleet DAG derived from
``trace.jsonl``, pump timings from ``dispatch.jsonl``), and the
per-node health/SEL timeline, all rendered self-contained (inline SVG,
no scripts, no external assets) from the published artifacts alone.
"""

from __future__ import annotations

import html
import os
from typing import Dict, List, Optional

from repro.core import yamlite
from repro.core.errors import PublicationError

__all__ = [
    "generate_readme",
    "generate_html",
    "generate_dashboard",
    "generate_website",
    "generate_campaign_index",
    "generate_study_page",
]

#: Health-state colours for the dashboard timeline.
_STATE_COLORS = {
    "healthy": "#7cb342",
    "degraded": "#fbc02d",
    "wedged": "#e53935",
    "unmonitored": "#bdbdbd",
}

#: Phase colours for the fleet critical-path bar and timeline.
_PHASE_COLORS = {
    "admission": "#8c564b",
    "dispatch": "#ff7f0e",
    "run": "#1f77b4",
    "reorder": "#9467bd",
    "persist": "#2ca02c",
}


def _load_yaml(path: str) -> dict:
    if not os.path.isfile(path):
        return {}
    loaded = yamlite.load_file(path)
    return loaded if isinstance(loaded, dict) else {}


def _human_size(size: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.0f} {unit}" if unit == "B" else f"{size:.1f} {unit}"
        size /= 1024.0
    return f"{size:.1f} GiB"


def _collect(root: str) -> Dict[str, List[str]]:
    """Group artifact files: top-level, setup, figures, and per run.

    The index pages themselves are left out: a page cannot list its own
    final size, and listing the other page would change on re-publish.
    """
    groups: Dict[str, List[str]] = {"experiment": [], "setup": [], "figures": []}
    for directory, __, files in sorted(os.walk(root)):
        relative_dir = os.path.relpath(directory, root)
        for name in sorted(files):
            if relative_dir == "." and name in ("README.md", "index.html"):
                continue
            relative = (
                name if relative_dir == "." else f"{relative_dir}/{name}"
            ).replace(os.sep, "/")
            if relative_dir == ".":
                groups["experiment"].append(relative)
            elif relative.startswith("setup/"):
                groups["setup"].append(relative)
            elif relative.startswith("figures/"):
                groups["figures"].append(relative)
            else:
                top = relative.split("/", 1)[0]
                groups.setdefault(top, []).append(relative)
    return groups


def generate_readme(root: str, repository_url: Optional[str] = None) -> str:
    """Render the artifact index as Markdown."""
    if not os.path.isdir(root):
        raise PublicationError(f"no such result folder: {root}")
    metadata = _load_yaml(os.path.join(root, "experiment.yml"))
    variables = _load_yaml(os.path.join(root, "variables.yml"))
    groups = _collect(root)

    lines: List[str] = []
    name = metadata.get("name", os.path.basename(root))
    lines.append(f"# Experiment artifacts: {name}")
    lines.append("")
    if metadata.get("description"):
        lines.append(str(metadata["description"]))
        lines.append("")
    if repository_url:
        lines.append(f"Released at: <{repository_url}>")
        lines.append("")
    lines.append("## Experiment")
    lines.append("")
    lines.append(f"- user: `{metadata.get('user', 'unknown')}`")
    lines.append(f"- runs completed: {metadata.get('runs_completed', '?')}")
    lines.append(f"- runs failed: {metadata.get('runs_failed', '?')}")
    for role in metadata.get("roles", []) or []:
        lines.append(
            f"- role `{role.get('role')}` on node `{role.get('node')}` "
            f"(image `{'@'.join(str(part) for part in role.get('image', []))}`)"
        )
    lines.append("")
    if variables:
        lines.append("## Variables")
        lines.append("")
        lines.append("```yaml")
        lines.append(yamlite.dumps(variables).rstrip())
        lines.append("```")
        lines.append("")
    if groups.get("figures"):
        lines.append("## Figures")
        lines.append("")
        for path in groups["figures"]:
            if path.endswith(".svg"):
                lines.append(f"![{os.path.basename(path)}]({path})")
        lines.append("")
    lines.append("## Artifact index")
    lines.append("")
    lines.append("| file | size |")
    lines.append("|------|------|")
    for group_name in sorted(groups):
        for path in groups[group_name]:
            full = os.path.join(root, path)
            lines.append(f"| [{path}]({path}) | {_human_size(os.path.getsize(full))} |")
    lines.append("")
    lines.append(
        "_Generated by the pos-reproduction publication tooling; every "
        "script, variable, result and figure of this experiment is listed "
        "above._"
    )
    return "\n".join(lines) + "\n"


def generate_html(root: str, repository_url: Optional[str] = None) -> str:
    """Render the artifact index as a standalone HTML page."""
    metadata = _load_yaml(os.path.join(root, "experiment.yml"))
    groups = _collect(root)
    name = html.escape(str(metadata.get("name", os.path.basename(root))))
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>Experiment artifacts: {name}</title>",
        "<style>body{font-family:sans-serif;max-width:60em;margin:2em auto;}"
        "table{border-collapse:collapse;}td,th{border:1px solid #999;"
        "padding:4px 8px;}img{max-width:100%;}</style></head><body>",
        f"<h1>Experiment artifacts: {name}</h1>",
    ]
    if metadata.get("description"):
        parts.append(f"<p>{html.escape(str(metadata['description']))}</p>")
    if repository_url:
        url = html.escape(repository_url)
        parts.append(f'<p>Released at: <a href="{url}">{url}</a></p>')
    if groups.get("figures"):
        parts.append("<h2>Figures</h2>")
        for path in groups["figures"]:
            if path.endswith(".svg"):
                parts.append(f'<p><img src="{html.escape(path)}" alt="{html.escape(path)}"></p>')
    if os.path.isfile(os.path.join(root, "dashboard.html")):
        parts.append(
            '<p><a href="dashboard.html">Telemetry &amp; health '
            "dashboard</a></p>"
        )
    parts.append("<h2>Artifact index</h2>")
    parts.append("<table><tr><th>file</th><th>size</th></tr>")
    for group_name in sorted(groups):
        for path in groups[group_name]:
            full = os.path.join(root, path)
            escaped = html.escape(path)
            parts.append(
                f'<tr><td><a href="{escaped}">{escaped}</a></td>'
                f"<td>{_human_size(os.path.getsize(full))}</td></tr>"
            )
    parts.append("</table></body></html>")
    return "\n".join(parts) + "\n"


def _duration_chart_svg(rows: List[dict]) -> Optional[str]:
    """Inline SVG bar chart of per-run durations, or None without data."""
    from repro.evaluation.plots import Figure, Series, build_scene, scene_to_svg

    points = [
        (float(row["run"]), float(row["duration_s"]))
        for row in rows
        if isinstance(row.get("duration_s"), (int, float))
    ]
    if not points:
        return None
    figure = Figure(
        title="Per-run duration",
        xlabel="run",
        ylabel="seconds",
        legend=False,
        width=520.0,
        height=240.0,
    )
    figure.add(
        Series("duration", points, kind="bars", bar_width=0.8, color="#1f77b4")
    )
    if len(points) <= 16:
        figure.x_ticks = [(x, f"{int(x)}") for x, __ in points]
    return scene_to_svg(build_scene(figure))


def _health_timeline_svg(timeline: dict) -> Optional[str]:
    """Inline SVG grid: nodes × runs, coloured by health observation."""
    from repro.evaluation.plots import Scene, scene_to_svg
    from repro.evaluation.plots.scene import Rect, Text

    nodes = timeline.get("nodes") or []
    runs = timeline.get("timeline") or []
    if not nodes or not runs:
        return None
    cell_w, cell_h, gap = 20.0, 18.0, 2.0
    left, top, bottom = 96.0, 30.0, 22.0
    width = left + len(runs) * (cell_w + gap) + 16.0
    height = top + len(nodes) * (cell_h + gap) + bottom
    scene = Scene(width=max(width, 320.0), height=height)
    for position, state in enumerate(_STATE_COLORS):
        scene.add(Rect(
            x=left + position * 104.0, y=6.0, w=10.0, h=10.0,
            fill=_STATE_COLORS[state], stroke="#666666", width=0.5,
        ))
        scene.add(Text(
            x=left + position * 104.0 + 14.0, y=15.0, text=state, size=9.0,
        ))
    for row, node in enumerate(nodes):
        y = top + row * (cell_h + gap)
        scene.add(Text(
            x=left - 8.0, y=y + cell_h - 5.0, text=node,
            size=10.0, anchor="end",
        ))
        for column, entry in enumerate(runs):
            observation = entry["observations"].get(node, "unmonitored")
            scene.add(Rect(
                x=left + column * (cell_w + gap), y=y, w=cell_w, h=cell_h,
                fill=_STATE_COLORS.get(observation, "#bdbdbd"),
                stroke="#ffffff", width=0.5,
            ))
    label_every = 1 if len(runs) <= 24 else max(1, len(runs) // 24)
    for column, entry in enumerate(runs):
        if column % label_every:
            continue
        scene.add(Text(
            x=left + column * (cell_w + gap) + cell_w / 2.0,
            y=top + len(nodes) * (cell_h + gap) + 14.0,
            text=str(entry["run"]), size=9.0, anchor="middle",
        ))
    return scene_to_svg(scene)


def _trace_timeline_svg(analysis: dict) -> Optional[str]:
    """Inline SVG fleet timeline: critical-path bar + per-agent spans.

    The top bar partitions the execution's whole lifetime into the
    critical-path phases; below it, one lane per agent shows each run
    as a block from its dispatch instant to its result arrival (serial
    executions fall back to a single lane on the sim clock).
    """
    from repro.evaluation.plots import Scene, scene_to_svg
    from repro.evaluation.plots.scene import Rect, Text
    from repro.telemetry.criticalpath import PHASES

    timeline = analysis.get("timeline") or []
    total = float(analysis.get("total") or 0.0)
    if not timeline or total <= 0.0:
        return None
    begin = float(analysis.get("begin") or 0.0)
    phases = analysis.get("phases") or {}
    lanes = sorted({entry.get("agent") or "runs" for entry in timeline})
    left, top, lane_h, gap, plot_w = 96.0, 58.0, 18.0, 4.0, 480.0
    width = left + plot_w + 16.0
    height = top + len(lanes) * (lane_h + gap) + 22.0
    scene = Scene(width=max(width, 320.0), height=height)

    def scale(value: float) -> float:
        return left + (float(value) - begin) / total * plot_w

    legend_x = left
    for phase in PHASES:
        scene.add(Rect(
            x=legend_x, y=6.0, w=10.0, h=10.0,
            fill=_PHASE_COLORS[phase], stroke="#666666", width=0.5,
        ))
        scene.add(Text(x=legend_x + 13.0, y=15.0, text=phase, size=9.0))
        legend_x += 13.0 + 5.5 * len(phase) + 14.0
    scene.add(Text(
        x=left - 8.0, y=37.0, text="critical path", size=10.0, anchor="end",
    ))
    cursor = left
    for phase in PHASES:
        seconds = float(phases.get(phase) or 0.0)
        if seconds <= 0.0:
            continue
        span_w = seconds / total * plot_w
        scene.add(Rect(
            x=cursor, y=28.0, w=span_w, h=12.0,
            fill=_PHASE_COLORS[phase], stroke="#ffffff", width=0.5,
        ))
        cursor += span_w

    for row, lane in enumerate(lanes):
        y = top + row * (lane_h + gap)
        scene.add(Text(
            x=left - 8.0, y=y + lane_h - 5.0, text=lane,
            size=10.0, anchor="end",
        ))
        scene.add(Rect(
            x=left, y=y, w=plot_w, h=lane_h,
            fill="#f4f4f4", stroke="#dddddd", width=0.5,
        ))
        for entry in timeline:
            if (entry.get("agent") or "runs") != lane:
                continue
            x0 = scale(entry["dispatch"])
            x1 = scale(entry["arrival"])
            scene.add(Rect(
                x=x0, y=y + 2.0, w=max(x1 - x0, 1.5), h=lane_h - 4.0,
                fill=_PHASE_COLORS["run"], stroke="#ffffff", width=0.5,
            ))
            if x1 - x0 >= 14.0:
                scene.add(Text(
                    x=(x0 + x1) / 2.0, y=y + lane_h - 5.0,
                    text=str(entry["run"]), size=9.0,
                    anchor="middle", color="#ffffff",
                ))
    unit = "t" if analysis.get("clock") == "transport" else "s (sim)"
    scene.add(Text(
        x=left, y=height - 8.0, text="0", size=9.0, anchor="middle",
    ))
    scene.add(Text(
        x=left + plot_w, y=height - 8.0, text=f"{total:g}{unit}",
        size=9.0, anchor="middle",
    ))
    return scene_to_svg(scene)


def _metric_table(parts: List[str], title: str, values: dict) -> None:
    if not values:
        return
    parts.append(f"<h3>{html.escape(title)}</h3>")
    parts.append("<table><tr><th>metric</th><th>value</th></tr>")
    for name in sorted(values):
        value = values[name]
        rendered = f"{value:g}" if isinstance(value, float) else str(value)
        parts.append(
            f"<tr><td>{html.escape(name)}</td><td>{rendered}</td></tr>"
        )
    parts.append("</table>")


def _what_changed_panel(parts: List[str], root: str) -> None:
    """Render a saved ``pos diff --save`` report, when one is present.

    The panel answers the first question every reader of a re-run
    asks — *what changed against the baseline, and why* — without
    making them re-derive it from the raw artifacts.
    """
    import json

    diff_path = os.path.join(root, "diff.json")
    if not os.path.isfile(diff_path):
        return
    try:
        with open(diff_path, "r", encoding="utf-8") as handle:
            diff = json.load(handle)
        attribution = diff["attribution"]
        causes = diff["causes"]
        baseline = diff["a"]["path"]
    except (ValueError, KeyError):
        return  # a foreign or truncated diff.json is not ours to render
    parts.append("<h2>What changed</h2>")
    parts.append(
        f"<p>Compared against baseline <code>{html.escape(baseline)}</code> "
        f"(<code>pos diff</code>, saved as <code>diff.json</code>).</p>"
    )
    if causes:
        parts.append(
            "<table><tr><th>fingerprint field</th><th>baseline</th>"
            "<th>this tree</th></tr>"
        )
        for cause in causes:
            parts.append(
                f"<tr><td>{html.escape(str(cause['field']))}</td>"
                f"<td>{html.escape(str(cause['a']))}</td>"
                f"<td>{html.escape(str(cause['b']))}</td></tr>"
            )
        parts.append("</table>")
    else:
        parts.append("<p>The reproducibility fingerprints are identical.</p>")
    if attribution["total"] == 0:
        parts.append("<p>0 metric deltas — the trees replicate.</p>")
    elif attribution["unexplained"] == 0:
        parts.append(
            f"<p>{attribution['total']} metric delta(s), all explained by: "
            f"{html.escape(', '.join(attribution['causes']))}.</p>"
        )
    else:
        parts.append(
            f"<p><strong>{attribution['unexplained']} of "
            f"{attribution['total']} metric delta(s) are unexplained</strong> "
            f"— identical inputs produced different results.</p>"
        )


def generate_dashboard(
    root: str, repository_url: Optional[str] = None
) -> Optional[str]:
    """Render the telemetry/health dashboard page, or None.

    Returns None when the folder carries no telemetry artifacts (for
    example an exported experiment definition that was never executed)
    — the website generator simply omits the page then.
    """
    from repro.telemetry.live import load_health_timeline
    from repro.telemetry.report import ReportError, load_report

    try:
        report = load_report(root)
        timeline = load_health_timeline(root)
    except ReportError:
        return None
    name = html.escape(str(report.get("experiment", os.path.basename(root))))
    state = "complete" if report["complete"] else "INCOMPLETE (resumable)"
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>Dashboard: {name}</title>",
        "<style>body{font-family:sans-serif;max-width:64em;margin:2em auto;}"
        "table{border-collapse:collapse;margin-bottom:1em;}td,th{border:1px "
        "solid #999;padding:3px 8px;font-size:90%;}svg{max-width:100%;}"
        "</style></head><body>",
        f"<h1>Dashboard: {name}</h1>",
        f"<p>Execution {html.escape(state)}; "
        f"{len(report['runs'])}/{report['total_runs']} runs journalled. "
        "Everything on this page is reconstructed from the published "
        "artifacts alone.</p>",
    ]
    if repository_url:
        url = html.escape(repository_url)
        parts.append(f'<p>Released at: <a href="{url}">{url}</a></p>')

    parts.append("<h2>Per-run provenance</h2>")
    parts.append(
        "<table><tr><th>run</th><th>status</th><th>attempts</th>"
        "<th>faults</th><th>duration [s]</th><th>loop</th></tr>"
    )
    for row in report["runs"]:
        if row["skipped"]:
            status = "skipped"
        elif not row["ok"]:
            status = "FAILED"
        elif row.get("recovered") or row["retried"]:
            status = "recovered"
        else:
            status = "ok"
        loop = " ".join(
            f"{key}={row['loop'][key]}" for key in sorted(row["loop"])
        )
        duration = row.get("duration_s")
        duration_text = (
            f"{duration:.3f}"
            if isinstance(duration, (int, float)) else "—"
        )
        parts.append(
            f"<tr><td>{row['run']}</td><td>{status}</td>"
            f"<td>{row.get('attempts', '—')}</td>"
            f"<td>{row.get('faults', '—')}</td>"
            f"<td>{duration_text}</td>"
            f"<td>{html.escape(loop)}</td></tr>"
        )
    parts.append("</table>")

    duration_svg = _duration_chart_svg(report["runs"])
    if duration_svg:
        parts.append(duration_svg)

    trace_analysis = None
    try:
        from repro.telemetry.criticalpath import TraceError, analyze

        trace_analysis = analyze(root)
    except TraceError:
        pass
    if trace_analysis is not None:
        trace_svg = _trace_timeline_svg(trace_analysis)
        if trace_svg:
            parts.append("<h2>Fleet timeline</h2>")
            parts.append(
                "<p>Critical-path attribution and per-agent occupancy: "
                "the fleet DAG derived from <code>trace.jsonl</code>, "
                "pump timings from <code>dispatch.jsonl</code> "
                "(<code>pos trace</code> prints the same breakdown).</p>"
            )
            parts.append(trace_svg)

    parts.append("<h2>Node health</h2>")
    timeline_svg = _health_timeline_svg(timeline)
    if timeline_svg:
        parts.append(timeline_svg)
        final = timeline.get("final", {})
        parts.append("<table><tr><th>node</th><th>final state</th></tr>")
        for node in sorted(final):
            parts.append(
                f"<tr><td>{html.escape(node)}</td>"
                f"<td>{html.escape(final[node])}</td></tr>"
            )
        parts.append("</table>")
    else:
        parts.append("<p>No health snapshots were published.</p>")
    sel = timeline.get("sel", [])
    if sel:
        parts.append("<h3>System Event Log</h3>")
        parts.append(
            "<table><tr><th>run</th><th>node</th><th>sensor</th>"
            "<th>severity</th><th>event</th></tr>"
        )
        for record in sel:
            parts.append(
                f"<tr><td>{record['run']}</td>"
                f"<td>{html.escape(record['node'])}</td>"
                f"<td>{html.escape(record['sensor'])}</td>"
                f"<td>{html.escape(record['severity'])}</td>"
                f"<td>{html.escape(record['event'])}</td></tr>"
            )
        parts.append("</table>")

    telemetry = report.get("telemetry") or {}
    metrics = telemetry.get("metrics", {})
    if metrics.get("counters") or metrics.get("gauges"):
        parts.append("<h2>Experiment-wide metrics</h2>")
        _metric_table(parts, "Counters", metrics.get("counters", {}))
        _metric_table(parts, "Gauges", metrics.get("gauges", {}))

    _what_changed_panel(parts, root)

    parts.append('<p><a href="index.html">Back to the artifact index</a></p>')
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def generate_website(root: str, repository_url: Optional[str] = None) -> List[str]:
    """Write README.md, index.html and (when the folder carries the
    telemetry artifacts) dashboard.html into the result folder."""
    if not os.path.isdir(root):
        raise PublicationError(f"no such result folder: {root}")
    written: List[str] = []
    dashboard = generate_dashboard(root, repository_url)
    if dashboard is not None:
        dashboard_path = os.path.join(root, "dashboard.html")
        with open(dashboard_path, "w", encoding="utf-8") as handle:
            handle.write(dashboard)
    readme_path = os.path.join(root, "README.md")
    html_path = os.path.join(root, "index.html")
    with open(readme_path, "w", encoding="utf-8") as handle:
        handle.write(generate_readme(root, repository_url))
    with open(html_path, "w", encoding="utf-8") as handle:
        handle.write(generate_html(root, repository_url))
    written.extend([readme_path, html_path])
    if dashboard is not None:
        written.append(dashboard_path)
    return written


def generate_campaign_index(campaign_dir: str) -> str:
    """Write the campaign ``index.html``: admission table + experiment links.

    Rendered purely from the campaign artifacts (``admission.jsonl``,
    ``journal.jsonl``, ``campaign.json``), self-contained and
    deterministic: the bytes are a function of those artifacts alone,
    so the page is identical for any ``--jobs N`` and across resume.
    Per-experiment pages are *linked*, not regenerated — publishing an
    individual experiment stays an explicit ``pos publish`` step.
    """
    import json as _json

    if not os.path.isdir(campaign_dir):
        raise PublicationError(f"no such campaign folder: {campaign_dir}")
    admission_path = os.path.join(campaign_dir, "admission.jsonl")
    if not os.path.isfile(admission_path):
        raise PublicationError(f"no admission log at {admission_path}")
    decisions: List[dict] = []
    with open(admission_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                decisions.append(_json.loads(line))
    summary: dict = {}
    summary_path = os.path.join(campaign_dir, "campaign.json")
    if os.path.isfile(summary_path):
        with open(summary_path, "r", encoding="utf-8") as handle:
            summary = _json.load(handle)
    outcomes = {
        int(entry["index"]): entry
        for entry in summary.get("experiments", [])
    }
    name = summary.get("campaign") or os.path.basename(campaign_dir)
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>pos campaign: {html.escape(str(name))}</title>",
        "<style>body{font-family:sans-serif;max-width:60em;margin:2em auto}"
        "table{border-collapse:collapse}td,th{border:1px solid #ccc;"
        "padding:0.3em 0.6em;text-align:left}</style>",
        "</head><body>",
        f"<h1>Campaign: {html.escape(str(name))}</h1>",
    ]
    pool = summary.get("pool")
    if pool:
        parts.append(
            "<p>Shared node pool: "
            + ", ".join(html.escape(str(node)) for node in pool)
            + "</p>"
        )
    parts.append("<h2>Admitted experiments</h2>")
    parts.append(
        "<table><tr><th>#</th><th>user</th><th>experiment</th>"
        "<th>nodes</th><th>window</th><th>outcome</th></tr>"
    )
    for decision in decisions:
        if decision.get("event") != "admit":
            continue
        index = int(decision.get("execution", 0))
        outcome = outcomes.get(index, {})
        target = outcome.get("dir")
        label = html.escape(str(decision.get("experiment", "")))
        cell = (
            f'<a href="{html.escape(str(target))}/index.html">{label}</a>'
            if target else label
        )
        if index in outcomes:
            status = (
                f"ok ({outcome.get('runs_completed', 0)} runs)"
                if outcome.get("ok")
                else "failed"
            )
        else:
            status = "pending"
        parts.append(
            "<tr>"
            f"<td>{index}</td>"
            f"<td>{html.escape(str(decision.get('user', '')))}</td>"
            f"<td>{cell}</td>"
            f"<td>{html.escape(', '.join(decision.get('nodes', [])))}</td>"
            f"<td>[{decision.get('start')}, {decision.get('end')})</td>"
            f"<td>{html.escape(status)}</td>"
            "</tr>"
        )
    parts.append("</table>")
    rejected = [d for d in decisions if d.get("event") == "reject"]
    if rejected:
        parts.append("<h2>Rejected</h2><ul>")
        for decision in rejected:
            parts.append(
                "<li>"
                f"{html.escape(str(decision.get('user', '')))}/"
                f"{html.escape(str(decision.get('experiment', '')))}: "
                f"{html.escape(str(decision.get('reason', '')))}"
                "</li>"
            )
        parts.append("</ul>")
    parts.append("</body></html>")
    page = "\n".join(parts) + "\n"
    path = os.path.join(campaign_dir, "index.html")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(page)
    return path


def generate_study_page(study_dir: str) -> str:
    """Write the study ``index.html``: design, replications, statistics.

    Rendered purely from the study artifacts (``study.yml``,
    ``study.jsonl``, ``study.json``), self-contained and deterministic
    — the bytes are a function of those artifacts alone, so the page
    is identical for any ``--jobs``/``--agents`` count and across
    crash + resume/repair.  Per-replication campaign pages are linked,
    not regenerated.
    """
    import json as _json

    if not os.path.isdir(study_dir):
        raise PublicationError(f"no such study folder: {study_dir}")
    spec = _load_yaml(os.path.join(study_dir, "study.yml"))
    if not spec:
        raise PublicationError(f"no study.yml in {study_dir}")
    aggregate: dict = {}
    aggregate_path = os.path.join(study_dir, "study.json")
    if os.path.isfile(aggregate_path):
        with open(aggregate_path, "r", encoding="utf-8") as handle:
            aggregate = _json.load(handle)
    replications: List[dict] = []
    journal_path = os.path.join(study_dir, "study.jsonl")
    if os.path.isfile(journal_path):
        with open(journal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = _json.loads(line)
                except ValueError:
                    break
                if entry.get("event") == "replication":
                    replications.append(entry)

    name = html.escape(str(spec.get("name", os.path.basename(study_dir))))
    factors = spec.get("factors") or {}
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>pos study: {name}</title>",
        "<style>body{font-family:sans-serif;max-width:60em;margin:2em auto}"
        "table{border-collapse:collapse;margin-bottom:1em}td,th{border:1px "
        "solid #ccc;padding:0.3em 0.6em;text-align:left}</style>",
        "</head><body>",
        f"<h1>Study: {name}</h1>",
        f"<p>Factorial design, {spec.get('replications', '?')} "
        f"replication(s), root seed {spec.get('seed', '?')}.</p>",
        "<h2>Design</h2>",
        "<table><tr><th>factor</th><th>levels</th></tr>",
    ]
    for factor in factors:
        levels = factors[factor]
        rendered = ", ".join(str(level) for level in levels) \
            if isinstance(levels, list) else str(levels)
        parts.append(
            f"<tr><td>{html.escape(str(factor))}</td>"
            f"<td>{html.escape(rendered)}</td></tr>"
        )
    parts.append("</table>")

    parts.append("<h2>Replications</h2>")
    parts.append(
        "<table><tr><th>#</th><th>seed</th><th>experiments</th>"
        "<th>outcome</th></tr>"
    )
    for entry in replications:
        target = entry.get("dir")
        index = entry.get("index")
        label = f"rep-{index:03d}" if isinstance(index, int) else str(index)
        cell = (
            f'<a href="{html.escape(str(target))}/index.html">{label}</a>'
            if target else label
        )
        status = (
            f"ok ({entry.get('experiments_completed', 0)} cells)"
            if entry.get("ok") else "failed"
        )
        parts.append(
            f"<tr><td>{cell}</td><td>{entry.get('seed', '?')}</td>"
            f"<td>{entry.get('experiments_completed', 0)}</td>"
            f"<td>{html.escape(status)}</td></tr>"
        )
    parts.append("</table>")

    if aggregate:
        parts.append("<h2>Cross-replication consistency</h2>")
        parts.append(
            "<table><tr><th>cell</th><th>median [Mpps]</th>"
            "<th>max deviation</th><th>verdict</th></tr>"
        )
        for report in aggregate.get("cells", []):
            assignment = report.get("assignment", {})
            label = " ".join(
                f"{factor}={assignment[factor]}"
                for factor in sorted(assignment)
            )
            consistency = report.get("consistency", {})
            verdict = (
                "consistent" if consistency.get("consistent")
                else "INCONSISTENT"
            )
            parts.append(
                f"<tr><td>{html.escape(label)}</td>"
                f"<td>{consistency.get('reference', 0.0):.4f}</td>"
                f"<td>{consistency.get('max_deviation', 0.0) * 100:.2f}%"
                f"</td><td>{verdict}</td></tr>"
            )
        parts.append("</table>")
        parts.append("<h2>Main effects</h2>")
        parts.append(
            "<p>Hodges&ndash;Lehmann paired estimate against each "
            "factor's first level, with seeded-bootstrap confidence "
            "intervals.</p>"
        )
        parts.append(
            "<table><tr><th>factor</th><th>level change</th>"
            "<th>effect [Mpps]</th><th>95% CI</th><th>pairs</th></tr>"
        )
        effects = aggregate.get("effects", {})
        for factor in sorted(effects):
            summary = effects[factor]
            for level in sorted(summary.get("levels", {})):
                effect = summary["levels"][level]
                parts.append(
                    f"<tr><td>{html.escape(factor)}</td>"
                    f"<td>{html.escape(str(summary.get('baseline')))} "
                    f"&rarr; {html.escape(str(level))}</td>"
                    f"<td>{effect['hl_estimate']:+.4f}</td>"
                    f"<td>[{effect['ci_low']:+.4f}, "
                    f"{effect['ci_high']:+.4f}]</td>"
                    f"<td>{int(effect['n'])}</td></tr>"
                )
        parts.append("</table>")
        parts.append(
            f"<p>Verdict: <strong>"
            f"{html.escape(str(aggregate.get('verdict', 'unknown')))}"
            f"</strong></p>"
        )
    parts.append("</body></html>")
    page = "\n".join(parts) + "\n"
    path = os.path.join(study_dir, "index.html")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(page)
    return path
