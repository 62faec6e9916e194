"""Out-of-the-box experiment plotting.

This is the equivalent of the paper's ``plot_scripts``: point it at a
loaded experiment and it produces throughput figures (and, when the
runs contain hardware-timestamped latency data, latency distributions)
"iterated over the defined loop parameters", exporting each figure to
svg/tex/pdf in a ``figures`` folder.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import yamlite
from repro.core.errors import EvaluationError
from repro.evaluation.aggregate import series_from_runs
from repro.evaluation.loader import ExperimentResults

from repro.evaluation.moongen_parser import parse_histogram_csv
from repro.evaluation.plots import cdf, export, hdr_plot, histogram, line_plot, violin

__all__ = [
    "throughput_figure",
    "loss_figure",
    "latency_samples_us",
    "plot_experiment",
    "current_figures",
    "MEMO_NAME",
]

#: The plot memo :func:`plot_experiment` leaves in its output folder:
#: what the pass read, how it plotted, and what it wrote.  It describes
#: one plot pass, not the experiment, so no artifact listing includes it.
MEMO_NAME = ".plot-memo.json"


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> Optional[str]:
    """SHA-256 over the sources of the evaluation code, or None.

    Covers every module of :mod:`repro.evaluation` and
    :mod:`repro.core.yamlite`.  None when a source cannot be read: a
    memo keyed on None never matches.
    """
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    sources = [yamlite.__file__ or ""]
    for directory, subdirectories, files in os.walk(package):
        subdirectories[:] = sorted(
            name for name in subdirectories if name != "__pycache__"
        )
        sources.extend(
            os.path.join(directory, name) for name in sorted(files)
            if name.endswith(".py")
        )
    try:
        for source in sources:
            with open(source, "rb") as handle:
                data = handle.read()
            digest.update(os.path.relpath(source, package).encode("utf-8"))
            digest.update(hashlib.sha256(data).digest())
    except OSError:
        return None
    return digest.hexdigest()


def _sha256_file(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def _memo_key(inputs, formats, x_var, group_var, role) -> dict:
    """The part of a memo that decides whether its figures are current."""
    return {
        "code": code_fingerprint(),
        "inputs": inputs,
        "formats": list(formats),
        "options": {"x_var": x_var, "group_var": group_var, "role": role},
    }


def current_figures(
    result_path: str,
    inputs: Dict[str, str],
    formats: Sequence[str] = ("svg", "tex", "pdf"),
    x_var: str = "pkt_rate",
    group_var: str = "pkt_sz",
    role: str = "loadgen",
) -> Optional[List[str]]:
    """The figures a plot pass over ``inputs`` would write, if current.

    ``inputs`` maps every evaluation input of the result folder to its
    SHA-256.  Returns the list :func:`plot_experiment` would return
    when ``<result_path>/figures`` holds a memo with these inputs,
    formats, plot options and evaluation code, and every figure the
    memo names still has the digest it was written with.  Otherwise
    None: the figures must be plotted again.
    """
    output_dir = os.path.join(result_path, "figures")
    try:
        with open(os.path.join(output_dir, MEMO_NAME), encoding="utf-8") as handle:
            memo = json.load(handle)
    except (OSError, ValueError):
        return None
    key = _memo_key(inputs, formats, x_var, group_var, role)
    if key["code"] is None or not isinstance(memo, dict):
        return None
    if {name: memo.get(name) for name in key} != key:
        return None
    figures: List[str] = []
    for name, digest in memo.get("figures") or ():
        path = os.path.join(output_dir, name)
        if digest is None or _sha256_file(path) != digest:
            return None
        figures.append(path)
    return figures


def loss_figure(
    results: ExperimentResults,
    x_var: str = "pkt_rate",
    group_var: str = "pkt_sz",
    role: str = "loadgen",
    title: Optional[str] = None,
):
    """Packet-loss line figure: offered rate against loss percentage.

    The companion view of the throughput figure — the knee where loss
    departs from zero is the drop-free ceiling the case study reports.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for group_value in results.loop_values(group_var):
        runs = results.filter(**{group_var: group_value})
        points = series_from_runs(
            runs,
            x=lambda run: float(run.loop[x_var]) / 1e6,
            y=lambda run: run.moongen(role).loss_fraction * 100.0,
        )
        if points:
            series[f"{group_var}={group_value}"] = points
    if not series:
        raise EvaluationError(
            f"no plottable runs: no MoonGen logs found for role {role!r}"
        )
    return line_plot(
        series,
        title=title or f"{results.name}: packet loss",
        xlabel="offered rate [Mpps]",
        ylabel="loss [%]",
    )


def throughput_figure(
    results: ExperimentResults,
    x_var: str = "pkt_rate",
    group_var: str = "pkt_sz",
    role: str = "loadgen",
    direction: str = "rx",
    title: Optional[str] = None,
):
    """Throughput line figure: x = loop rate, one line per packet size.

    This is exactly the Fig. 3 layout of the paper: offered packet rate
    against achieved receive rate, grouped by frame size.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for group_value in results.loop_values(group_var):
        runs = results.filter(**{group_var: group_value})
        points = series_from_runs(
            runs,
            x=lambda run: float(run.loop[x_var]) / 1e6,
            y=lambda run: (
                run.moongen(role).rx_mpps
                if direction == "rx"
                else run.moongen(role).tx_mpps
            ),
        )
        if points:
            series[f"{group_var}={group_value}"] = points
    if not series:
        raise EvaluationError(
            f"no plottable runs: no MoonGen logs found for role {role!r}"
        )
    return line_plot(
        series,
        title=title or f"{results.name}: forwarding throughput",
        xlabel="offered rate [Mpps]",
        ylabel=f"{direction} rate [Mpps]",
    )


def latency_samples_us(
    results: ExperimentResults,
    role: str = "loadgen",
    histogram_name: str = "histogram.csv",
    **loop_filter,
) -> List[float]:
    """Latency samples (µs) reconstructed from the runs' histogram CSVs.

    Each histogram bucket contributes its midpoint, weighted by count —
    the same reconstruction the original plotting scripts perform on
    MoonGen's ``hist.csv``.
    """
    samples: List[float] = []
    runs = results.filter(**loop_filter) if loop_filter else results.runs
    for run in runs:
        files = run.outputs.get(role, {})
        if histogram_name not in files:
            continue
        for bucket_ns, count in parse_histogram_csv(files[histogram_name]).items():
            midpoint_us = (bucket_ns + 500) / 1000.0
            samples.extend([midpoint_us] * count)
    return samples


def plot_experiment(
    results: ExperimentResults,
    output_dir: Optional[str] = None,
    formats: Sequence[str] = ("svg", "tex", "pdf"),
    x_var: str = "pkt_rate",
    group_var: str = "pkt_sz",
    role: str = "loadgen",
) -> List[str]:
    """Generate every out-of-the-box figure for an experiment.

    Writes into ``<experiment>/figures`` by default and returns the
    list of files created.  Latency figures are only produced when the
    experiment actually collected latency histograms — on vpos, where
    virtio NICs lack hardware timestamping, only throughput figures
    appear, mirroring Appendix A.

    Last, the pass leaves its memo (:data:`MEMO_NAME`) in the output
    folder, for :func:`current_figures`.
    """
    output_dir = output_dir or os.path.join(results.path, "figures")
    written: List[str] = []

    figure = throughput_figure(results, x_var=x_var, group_var=group_var, role=role)
    written.extend(export(figure, os.path.join(output_dir, "throughput"), formats))
    written.extend(
        export(
            loss_figure(results, x_var=x_var, group_var=group_var, role=role),
            os.path.join(output_dir, "loss"),
            formats,
        )
    )

    groups: Dict[str, List[float]] = {}
    for group_value in results.loop_values(group_var):
        samples = latency_samples_us(
            results, role=role, **{group_var: group_value}
        )
        if samples:
            groups[f"{group_var}={group_value}"] = samples
    if groups:
        written.extend(
            export(
                cdf(groups, title=f"{results.name}: latency CDF",
                    xlabel="latency [us]"),
                os.path.join(output_dir, "latency_cdf"),
                formats,
            )
        )
        written.extend(
            export(
                hdr_plot(groups, title=f"{results.name}: latency percentiles",
                         ylabel="latency [us]"),
                os.path.join(output_dir, "latency_hdr"),
                formats,
            )
        )
        written.extend(
            export(
                violin(groups, title=f"{results.name}: latency distribution",
                       ylabel="latency [us]"),
                os.path.join(output_dir, "latency_violin"),
                formats,
            )
        )
        merged = [sample for samples in groups.values() for sample in samples]
        written.extend(
            export(
                histogram(merged, title=f"{results.name}: latency histogram",
                          xlabel="latency [us]"),
                os.path.join(output_dir, "latency_hist"),
                formats,
            )
        )
    _write_memo(results, output_dir, written, formats, x_var, group_var, role)
    return written


def _write_memo(results, output_dir, written, formats, x_var, group_var, role):
    memo = _memo_key(results.digests, formats, x_var, group_var, role)
    memo["figures"] = [
        [os.path.relpath(path, output_dir), _sha256_file(path)]
        for path in written
    ]
    with open(os.path.join(output_dir, MEMO_NAME), "w", encoding="utf-8") as handle:
        json.dump(memo, handle, sort_keys=True)
