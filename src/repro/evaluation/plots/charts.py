"""Figure builders for the five out-of-the-box representations.

"Our plotting scripts can create throughput figures and latency
distributions out-of-the-box using a set of different representations
(line plot, histogram, CDF, HDR, and violin plot)."  (Sec. 4.4)
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import PlotError
from repro.evaluation.aggregate import HdrHistogram
from repro.evaluation.plots.figure import Figure, Series

__all__ = ["line_plot", "histogram", "cdf", "hdr_plot", "violin"]


def line_plot(
    series: Dict[str, Sequence[Tuple[float, float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    **figure_kwargs,
) -> Figure:
    """Classic x/y line chart, one line per labelled series."""
    figure = Figure(title=title, xlabel=xlabel, ylabel=ylabel, **figure_kwargs)
    dashes = [None, (5, 3), (2, 2), (7, 2, 2, 2)]
    for index, (label, points) in enumerate(series.items()):
        figure.add(
            Series(
                label=label,
                points=[(float(x), float(y)) for x, y in points],
                kind="line",
                dash=dashes[index % len(dashes)],
            )
        )
    return figure


def histogram(
    samples: Sequence[float],
    bins: int = 30,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "count",
    density: bool = False,
    **figure_kwargs,
) -> Figure:
    """Equal-width histogram of one sample set."""
    if not samples:
        raise PlotError("histogram of an empty sample set")
    if bins < 1:
        raise PlotError(f"histogram needs at least one bin, got {bins}")
    low, high = min(samples), max(samples)
    if math.isclose(low, high):
        high = low + (abs(low) if low else 1.0)
    width = (high - low) / bins
    counts = [0] * bins
    for value in samples:
        index = min(int((value - low) / width), bins - 1)
        counts[index] += 1
    scale = 1.0 / (len(samples) * width) if density else 1.0
    points = [
        (low + (index + 0.5) * width, count * scale)
        for index, count in enumerate(counts)
    ]
    figure = Figure(
        title=title,
        xlabel=xlabel,
        ylabel="density" if density else ylabel,
        legend=False,
        **figure_kwargs,
    )
    figure.add(Series(label="", points=points, kind="bars", bar_width=width))
    return figure


def cdf(
    groups: Dict[str, Sequence[float]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "CDF",
    **figure_kwargs,
) -> Figure:
    """Empirical cumulative distribution, one step curve per group."""
    figure = Figure(
        title=title, xlabel=xlabel, ylabel=ylabel,
        ylim=(0.0, 1.02), **figure_kwargs,
    )
    for label, samples in groups.items():
        if not samples:
            raise PlotError(f"CDF group {label!r} is empty")
        ordered = sorted(samples)
        count = len(ordered)
        points = [(ordered[0], 0.0)]
        points.extend(
            (value, (index + 1) / count) for index, value in enumerate(ordered)
        )
        figure.add(Series(label=label, points=points, kind="step"))
    return figure


def hdr_plot(
    groups: Dict[str, Sequence[float]],
    title: str = "",
    ylabel: str = "latency",
    precision: int = 64,
    quantiles: Optional[Sequence[float]] = None,
    **figure_kwargs,
) -> Figure:
    """HDR-style percentile plot: x is log10(1/(1-q)) ("number of nines").

    The characteristic HDR x axis compresses the distribution head and
    stretches the tail, making the p99/p999 behaviour visible.
    """
    if quantiles is None:
        quantiles = [0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999]
    ticks = [
        (math.log10(1.0 / (1.0 - q)), f"{q * 100:g}%")
        for q in quantiles
        if q < 1.0
    ]
    figure = Figure(
        title=title,
        xlabel="percentile",
        ylabel=ylabel,
        x_ticks=ticks,
        grid=True,
        **figure_kwargs,
    )
    for label, samples in groups.items():
        if not samples:
            raise PlotError(f"HDR group {label!r} is empty")
        hist = HdrHistogram(precision=precision, min_value=max(min(samples), 1e-12))
        hist.record_many(samples)
        points = [
            (math.log10(1.0 / (1.0 - q)), hist.value_at_quantile(q))
            for q in quantiles
            if q < 1.0
        ]
        figure.add(Series(label=label, points=points, kind="line"))
    return figure


def _gaussian_kde(samples: Sequence[float], positions: Sequence[float]) -> List[float]:
    """Gaussian kernel density estimate with Silverman's bandwidth.

    Each distinct sample value contributes one kernel weighted by its
    multiplicity: latency samples expanded from a histogram repeat few
    values many times, so the cost follows the distinct values, not
    the sample count.
    """
    count = len(samples)
    mean = sum(samples) / count
    stddev = math.sqrt(sum((value - mean) ** 2 for value in samples) / count)
    bandwidth = 1.06 * stddev * count ** (-1 / 5) if stddev > 0 else 1.0
    bandwidth = max(bandwidth, 1e-12)
    norm = 1.0 / (count * bandwidth * math.sqrt(2 * math.pi))
    weighted = sorted(Counter(samples).items())
    densities = []
    for position in positions:
        total = 0.0
        for value, weight in weighted:
            z = (position - value) / bandwidth
            total += weight * math.exp(-0.5 * z * z)
        densities.append(total * norm)
    return densities


def violin(
    groups: Dict[str, Sequence[float]],
    title: str = "",
    ylabel: str = "",
    resolution: int = 40,
    **figure_kwargs,
) -> Figure:
    """Violin plot: a mirrored kernel-density silhouette per group."""
    if not groups:
        raise PlotError("violin plot needs at least one group")
    labels = list(groups)
    ticks = [(float(index), label) for index, label in enumerate(labels)]
    figure = Figure(
        title=title,
        xlabel="",
        ylabel=ylabel,
        x_ticks=ticks,
        xlim=(-0.7, len(labels) - 0.3),
        legend=False,
        **figure_kwargs,
    )
    half_width = 0.38
    for index, label in enumerate(labels):
        samples = list(groups[label])
        if not samples:
            raise PlotError(f"violin group {label!r} is empty")
        low, high = min(samples), max(samples)
        if math.isclose(low, high):
            high = low + (abs(low) if low else 1.0)
        positions = [
            low + (high - low) * step / (resolution - 1) for step in range(resolution)
        ]
        densities = _gaussian_kde(samples, positions)
        peak = max(densities) or 1.0
        center = float(index)
        right = [
            (center + half_width * density / peak, position)
            for position, density in zip(positions, densities)
        ]
        left = [
            (center - half_width * density / peak, position)
            for position, density in reversed(list(zip(positions, densities)))
        ]
        figure.add(Series(label=label, points=right + left, kind="shape"))
        # Median marker.
        ordered = sorted(samples)
        median = ordered[len(ordered) // 2]
        figure.add(
            Series(
                label="",
                points=[(center - 0.12, median), (center + 0.12, median)],
                kind="line",
                color="#000000",
                markers=False,
            )
        )
    return figure
