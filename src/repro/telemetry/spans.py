"""Nested, monotonic-sequence-ordered spans.

A span is one step of the execution process — an experiment, a phase, a
run, an attempt, a script, a recovery, a load-generator job — with a
name, a parent, attributes, and virtual start/end times.  Sequence
numbers are assigned at span *start* and are the authoritative order;
records are emitted at span *end* (a span's children therefore precede
it in the artifact, exactly like a post-order trace).

Times come from an injectable virtual clock — the netsim simulator for
run-scoped spans, a logical tick clock for controller workflow spans —
never from the wall clock, so the trace artifact is byte-reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["LogicalClock", "Span", "RunTelemetry"]


class LogicalClock:
    """Virtual time as a monotone event counter.

    Every call returns the next integer tick.  Controller workflow spans
    use this instead of the controller's retry clock: retry backoff
    sleeps accumulate on the *sequential* controller's clock but on the
    workers' private clocks under ``--jobs N``, so wall- or sleep-based
    phase times would be job-count-dependent.  Tick times are a pure
    function of the recorded span structure.
    """

    def __init__(self) -> None:
        self._ticks = 0

    def __call__(self) -> float:
        self._ticks += 1
        return float(self._ticks)


class Span:
    """One live span; becomes a plain record dict when it ends."""

    __slots__ = ("name", "seq", "parent", "start", "end", "attrs")

    def __init__(
        self,
        name: str,
        seq: int,
        parent: Optional[int],
        start: float,
        attrs: Dict[str, Any],
    ):
        self.name = name
        self.seq = seq
        self.parent = parent
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes while the span is live."""
        self.attrs.update(attrs)

    def record(self, end: float) -> dict:
        self.end = end
        return {
            "seq": self.seq,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": end,
            "attrs": dict(self.attrs),
        }


class RunTelemetry:
    """Span + metric buffer for one scope (a run, or the workflow).

    Picklable plain-data payloads: a parallel worker fills one per run
    and ships it back inside ``RunOutcome``; the parent re-assigns
    global sequence numbers in run order, so local sequence numbers
    always start at 0 and the buffer is position-independent.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._seq = 0
        self._stack: List[Span] = []
        self.spans: List[dict] = []
        self.metrics = MetricsRegistry()

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span nested under the innermost live span."""
        parent = self._stack[-1].seq if self._stack else None
        span = Span(name, self._seq, parent, self._clock(), dict(attrs))
        self._seq += 1
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> dict:
        """Close ``span`` (and any dangling children) and record it."""
        while self._stack:
            top = self._stack.pop()
            entry = top.record(self._clock())
            self.spans.append(entry)
            if top is span:
                return entry
        raise ValueError(f"span {span.name!r} is not live in this collector")

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    def record_span(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> dict:
        """Record a completed span with explicit virtual times.

        Used when the span's extent is known analytically (the batched
        fast path computes a whole measurement job without advancing the
        simulator through it).
        """
        parent = self._stack[-1].seq if self._stack else None
        span = Span(name, self._seq, parent, start, dict(attrs))
        self._seq += 1
        entry = span.record(end)
        self.spans.append(entry)
        return entry

    def event(self, name: str, **attrs: Any) -> dict:
        """A zero-duration span: something happened at one instant."""
        now = self._clock()
        return self.record_span(name, now, now, **attrs)

    # -- metrics -------------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        self.metrics.count(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def observe_many(self, name: str, values) -> None:
        self.metrics.observe_many(name, values)

    # -- export --------------------------------------------------------------

    def payload(self) -> dict:
        """Picklable buffer: local-sequence spans plus metric snapshot."""
        return {"spans": list(self.spans), "metrics": self.metrics.snapshot()}
