"""End-to-end benchmark of the pos workflow: ``pos run -> evaluate -> publish``.

One invocation runs one named workload in this process (the only worker
processes are the pool of ``fig3a-jobs2``)::

    python3 benchmarks/layers/bench.py --workload fig3a --seed 0 \
        --seconds 15 --trace 0

It calls the public API the ``pos`` CLI calls — ``run_case_study`` with
a progress hook and a pinned result clock, ``load_experiment`` +
``plot_experiment`` (``pos evaluate``, formats svg,tex,pdf), then
``publish`` — repeating that pipeline until ``--seconds`` are used up
and reporting each end-to-end timing of the fastest pipeline (``setup_s``:
the median of many zero-run executions).  ``--trace 1``
alternates untraced pipelines with traced ones and reports per-layer
metrics instead: the traced pipelines run with public functions of the
program wrapped from outside (see :class:`Tracer`), and the spans are
written to ``.bench_work/traces/`` when the benchmark ends.

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when an output check fails or
when the program under ``src/`` cannot be imported.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def _reexec_with_clean_env() -> None:
    """Restart under ``PYTHONHASHSEED=0`` with no inherited ``POS_*``.

    An inherited ``POS_RUN_CACHE_DIR`` would silently serve ``fig3a``
    from a warm cache, ``POS_JOBS`` would parallelize a serial workload,
    and kill switches would turn layers off; the hash seed pins every
    set-iteration order the program might depend on.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("POS_")}
    env["PYTHONHASHSEED"] = "0"
    if env != dict(os.environ):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__),
                                   *sys.argv[1:]], env)


if __name__ == "__main__":
    _reexec_with_clean_env()

sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

import repro  # noqa: E402
from repro.casestudy import POS_RATES, VPOS_RATES, run_case_study  # noqa: E402
from repro.core.errors import PosError  # noqa: E402
from repro.evaluation import load_experiment, plot_experiment  # noqa: E402
from repro.evaluation.aggregate import percentile  # noqa: E402
from repro.evaluation.moongen_parser import parse_histogram_csv  # noqa: E402
from repro.publication import publish  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work")

#: Result-store clock: a fixed epoch puts every result tree under the
#: same timestamp folder, so artifacts do not depend on the wall clock.
EPOCH = 1638835200.0

FORMATS = ("svg", "tex", "pdf")

#: Zero-run executions before every pipeline; ``setup_s`` is their
#: median.  Spread over the whole run, they ride out short stalls of a
#: shared host that would otherwise hit all of them at once.
SETUP_REPEATS = 5

#: ``evaluate_s`` is the median of this many evaluations of one tree.
EVALUATE_REPEATS = 3

#: Pipelines per invocation at the least, however short ``--seconds``.
MIN_ITERATIONS = 3

#: Fig. 3a: where the offered-vs-received curve of each size peaks, Mpps.
FIG3A_PEAKS = {64: 1.75, 1500: 0.822}
FIG3A_TOLERANCE = 0.05


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a case-study sweep and how it executes."""

    name: str
    platform: str
    rates: Tuple[int, ...]
    sizes: Tuple[int, ...]
    duration_s: float
    interval_s: float = 0.01
    jobs: int = 1
    #: Serve every run from a run cache filled by an untimed cold sweep.
    warm_cache: bool = False
    #: Assert the Fig. 3a peaks (needs the POS_RATES x {64, 1500} sweep).
    fig3a_shape: bool = False

    @property
    def runs(self) -> int:
        return len(self.rates) * len(self.sizes)


# The simulated sweeps run from the top rate down, so the first result
# waits on a full-size run.  At the bottom rate the first run is a few
# hundred microseconds of simulation, and first_result_s would mostly
# time the journal fsyncs before it, whose latency swings by half on a
# shared disk.
_DESCENDING_POS = tuple(sorted(POS_RATES, reverse=True))
_DESCENDING_VPOS = tuple(sorted(VPOS_RATES, reverse=True))

# Why each workload exists is in README.md next to this file.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("fig3a", "pos", _DESCENDING_POS, (64, 1500), 0.02,
                 fig3a_shape=True),
        Workload("vpos", "vpos", _DESCENDING_VPOS, (64, 1500), 0.01),
        Workload("fig3a-jobs2", "pos", _DESCENDING_POS, (64, 1500), 0.02,
                 jobs=2, fig3a_shape=True),
        Workload("replay-warm", "pos",
                 tuple(40_000 * step for step in range(1, 51)),
                 (64, 128, 256, 512, 1024, 1500), 0.002, interval_s=0.002,
                 warm_cache=True),
    )
}

#: Digest of the parsed results at ``--seed 0``; any change to the
#: simulated outcome of a workload shows up here.
SEED0_DIGESTS = {
    "fig3a": "9b336c677a36226e",
    "vpos": "3008850d5bdc52bc",
    "fig3a-jobs2": "9b336c677a36226e",
    "replay-warm": "2eca6b1fe347682a",
}

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "first_result_s": "s",
    "sweep_s": "s",
    "evaluate_s": "s",
    "publish_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------

#: A replayed run counts as saturated when it loses more than this share
#: of what it sent.  Frames still in flight at the deadline are lost too,
#: but they stay below 0.1% of an under-loaded run; saturated ones lose 3%
#: and more.
SATURATED_LOSS = 0.01


def _packets(args):
    job = args[1]
    return lambda result: (
        job.tx_packets,
        job.rx_packets < (1 - SATURATED_LOSS) * job.tx_packets,
    )


def _events(args):
    sim = args[0]
    before = sim.events_processed
    return lambda result: sim.events_processed - before


def _returned_none(args):
    return lambda result: result is None


#: (module, attribute, probe): the public functions and methods a traced
#: pipeline wraps.  A layer's name is the module without ``repro.`` plus
#: the attribute.  A probe sees the call's arguments before the call and
#: returns what to record about its result.
LAYERS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("repro.casestudy", "build_environment", None),
    ("repro.core.controller", "Controller.run", None),
    ("repro.core.scheduler", "boot_nodes", None),
    ("repro.core.scheduler", "deploy_tools", None),
    ("repro.core.scheduler", "run_setup_phase", None),
    ("repro.core.scheduler", "execute_run", None),
    ("repro.core.scheduler", "persist_outcome", None),
    ("repro.core.scheduler", "ParallelScheduler.execute", None),
    ("repro.core.scheduler", "ReorderBuffer.drain", None),
    ("repro.core.journal", "RunJournal.record_run", None),
    ("repro.loadgen.moongen", "MoonGen.start", None),
    ("repro.loadgen.moongen", "format_report", None),
    ("repro.loadgen.moongen", "latency_histogram_csv", None),
    ("repro.netsim.fastpath", "acquire_dag", _returned_none),
    ("repro.netsim.fastpath", "run_batched", _packets),
    ("repro.netsim.engine", "Simulator.run", _events),
    ("repro.telemetry.plane", "ExperimentTelemetry.merge_run", None),
    ("repro.telemetry.plane", "ExperimentTelemetry.finalize", None),
    ("repro.cache", "RunCache.key", None),
    ("repro.cache", "RunCache.lookup", _returned_none),
    ("repro.cache", "RunCache.store", None),
    ("repro.evaluation.loader", "load_experiment", None),
    ("repro.evaluation.plotter", "plot_experiment", None),
    ("repro.publication.publish", "publish", None),
    ("repro.publication.bundle", "build_manifest", None),
    ("repro.publication.bundle", "bundle_artifacts", None),
    ("repro.publication.website", "generate_website", None),
)


def layer_name(module: str, attribute: str) -> str:
    return f"{module[len('repro.'):]}.{attribute}"


LAYER_NAMES = tuple(layer_name(module, attr) for module, attr, _ in LAYERS)

#: The parent-side self time of the pool executor is time spent waiting
#: for workers: its traced children are the deliveries it runs.
_SELF_METRIC = {"core.scheduler.ParallelScheduler.execute": "wait_s"}

PER_LAYER: Dict[str, str] = {}
for _layer in LAYER_NAMES:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.busy_s"] = "s"
    PER_LAYER[f"{_layer}.{_SELF_METRIC.get(_layer, 'self_s')}"] = "s"
PER_LAYER.update({
    "netsim.fastpath.run_batched.pkts": "count",
    "netsim.fastpath.run_batched.ns_per_pkt": "ns",
    "netsim.fastpath.run_batched.ns_per_pkt_saturated": "ns",
    "netsim.fastpath.run_batched.ns_per_pkt_underloaded": "ns",
    "netsim.fastpath.acquire_dag.fallbacks": "count",
    "netsim.fastpath.fallback_share": "ratio",
    "netsim.engine.Simulator.run.events": "count",
    "netsim.engine.Simulator.run.ns_per_event": "ns",
    "core.scheduler.execute_run.p50_ms": "ms",
    "core.scheduler.execute_run.p75_ms": "ms",
    "cache.hit_ratio": "ratio",
    "traced_pipeline_s": "s",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
})

#: The benchmark's own spans around its calls into the program; their
#: self time is the part of the pipeline no layer accounts for.
PHASES = ("phase.sweep", "phase.evaluate", "phase.publish")


def _resolve(module: str, attribute: str):
    """``(owner, name)`` of a module function or a class attribute."""
    owner = importlib.import_module(module)
    name = attribute
    if "." in attribute:
        class_name, name = attribute.split(".")
        owner = getattr(owner, class_name)
    return owner, name


def layer_bindings() -> Dict[str, list]:
    """Every ``(owner, attribute, object)`` currently bound per layer.

    A module-level function is bound in every module that imported it
    by name (``load_experiment`` lives in the loader, the evaluation
    package and the publication step); a method only on its class.
    """
    bindings: Dict[str, list] = {}
    for (module, attribute, _), name in zip(LAYERS, LAYER_NAMES):
        owner, attr = _resolve(module, attribute)
        target = owner.__dict__[attr]
        found = [(owner, attr, target)]
        if not isinstance(owner, type):
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", {})
                if other is not owner and namespace.get(attr) is target:
                    found.append((other, attr, target))
        bindings[name] = found
    return bindings


class Tracer:
    """Spans around public functions of the program, wrapped from outside.

    :meth:`install` replaces every binding of every layer with a wrapper
    that records ``[name, start, end, parent, probe]`` in memory;
    :meth:`uninstall` puts the original objects back, including in
    modules imported while the wrappers were installed.  Calls from
    other threads or forked worker processes pass straight through.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._installed: List[Tuple[list, Callable]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, probe=None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = probe
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, original, probe: Optional[Callable]):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid or threading.get_ident() != self._thread:
                return original(*args, **kwargs)
            finish = probe(args) if probe is not None else None
            index = self._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._close(index, finish(result) if finish else None)
        return traced

    def install(self) -> None:
        probes = {layer_name(m, a): p for m, a, p in LAYERS}
        for name, bindings in layer_bindings().items():
            original = bindings[0][2]
            wrapper = self._wrap(name, original, probes[name])
            for owner, attr, _ in bindings:
                setattr(owner, attr, wrapper)
            self._installed.append((bindings, wrapper))

    def uninstall(self) -> None:
        functions = {}
        for bindings, wrapper in self._installed:
            for owner, attr, original in bindings:
                setattr(owner, attr, original)
            owner, attr, original = bindings[0]
            if not isinstance(owner, type):
                functions[attr] = (wrapper, original)
        # Modules imported while the wrappers were installed bound them.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", {})
            for attr, (wrapper, original) in functions.items():
                if namespace.get(attr) is wrapper:
                    setattr(module, attr, original)
        self._installed.clear()


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer counts, busy and self time of one traced pipeline."""
    children_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children_s[parent] += end - start

    def nested_in_same(index: int) -> bool:
        name, parent = spans[index][0], spans[index][3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    metrics = {name: 0.0 for name in PER_LAYER}
    by_layer: Dict[str, List[int]] = {name: [] for name in LAYER_NAMES}
    total = unattributed = 0.0
    for index, (name, start, end, parent, _) in enumerate(spans):
        self_s = end - start - children_s[index]
        if parent is None:
            total += end - start
        if name in PHASES:
            unattributed += self_s
            continue
        by_layer[name].append(index)
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.{_SELF_METRIC.get(name, 'self_s')}"] += self_s
        if not nested_in_same(index):
            metrics[f"{name}.busy_s"] += end - start
    metrics["traced_pipeline_s"] = total
    metrics["unattributed_s"] = unattributed

    def duration(index: int) -> float:
        return spans[index][2] - spans[index][1]

    def ns_per(indices: List[int], count: float) -> float:
        return sum(map(duration, indices)) * 1e9 / count if count else 0.0

    batches = by_layer["netsim.fastpath.run_batched"]
    saturated = [i for i in batches if spans[i][4][1]]
    underloaded = [i for i in batches if not spans[i][4][1]]
    pkts = {i: spans[i][4][0] for i in batches}
    metrics["netsim.fastpath.run_batched.pkts"] = sum(pkts.values())
    metrics["netsim.fastpath.run_batched.ns_per_pkt"] = ns_per(
        batches, sum(pkts.values()))
    metrics["netsim.fastpath.run_batched.ns_per_pkt_saturated"] = ns_per(
        saturated, sum(pkts[i] for i in saturated))
    metrics["netsim.fastpath.run_batched.ns_per_pkt_underloaded"] = ns_per(
        underloaded, sum(pkts[i] for i in underloaded))

    acquires = by_layer["netsim.fastpath.acquire_dag"]
    fallbacks = sum(1 for i in acquires if spans[i][4])
    metrics["netsim.fastpath.acquire_dag.fallbacks"] = fallbacks
    metrics["netsim.fastpath.fallback_share"] = (
        fallbacks / len(acquires) if acquires else 0.0)

    sim_runs = by_layer["netsim.engine.Simulator.run"]
    events = sum(spans[i][4] for i in sim_runs)
    metrics["netsim.engine.Simulator.run.events"] = events
    metrics["netsim.engine.Simulator.run.ns_per_event"] = ns_per(
        sim_runs, events)

    run_ms = [duration(i) * 1e3 for i in by_layer["core.scheduler.execute_run"]]
    if run_ms:
        metrics["core.scheduler.execute_run.p50_ms"] = percentile(run_ms, 0.50)
        metrics["core.scheduler.execute_run.p75_ms"] = percentile(run_ms, 0.75)

    lookups = by_layer["cache.RunCache.lookup"]
    hits = sum(1 for i in lookups if not spans[i][4])
    metrics["cache.hit_ratio"] = hits / len(lookups) if lookups else 0.0
    return metrics


# --------------------------------------------------------------------------
# one pipeline
# --------------------------------------------------------------------------

def check(problems: List[str], condition: bool, message: str) -> None:
    """Record ``message`` as a failed output check unless ``condition``."""
    if not condition:
        problems.append(message)


def results_digest(results) -> str:
    """One digest over the parsed results of every run of a tree.

    Covers the loop assignment, TX/RX packet totals, per-interval RX
    rates and latency percentiles — what an evaluation reads.
    """
    digest = hashlib.sha256()
    for run in results.runs:
        output = run.moongen()
        latency = None
        histogram = run.outputs.get("loadgen", {}).get("histogram.csv")
        if histogram is not None:
            samples = [
                (bucket + 500) / 1000.0
                for bucket, count in parse_histogram_csv(histogram).items()
                for _ in range(count)
            ]
            latency = [percentile(samples, q) for q in (0.5, 0.9, 0.99)]
        record = {
            "run": run.index,
            "loop": run.loop,
            "tx": output.tx_summary.packets,
            "rx": output.rx_summary.packets,
            "rx_intervals_mpps": output.rx_interval_mpps,
            "latency_us": latency,
        }
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def check_fig3a_shape(problems: List[str], results) -> None:
    for size, expected in FIG3A_PEAKS.items():
        peak = max(run.moongen().rx_mpps for run in results.filter(pkt_sz=size))
        check(problems, abs(peak - expected) <= FIG3A_TOLERANCE * expected,
              f"Fig. 3a: {size} B peaks at {peak} Mpps, expected "
              f"{expected} +-{FIG3A_TOLERANCE:.0%}")


def sweep(workload: Workload, seed: int, root: str, cache_dir=None,
          jobs: Optional[int] = None, max_runs=None, progress=None):
    """``pos run`` of the workload into the result store at ``root``."""
    return run_case_study(
        workload.platform, root,
        rates=list(workload.rates), sizes=workload.sizes,
        duration_s=workload.duration_s, interval_s=workload.interval_s,
        seed=seed, max_runs=max_runs, clock=lambda: EPOCH,
        progress=progress, jobs=workload.jobs if jobs is None else jobs,
        cache_dir=cache_dir,
    )


@dataclass
class Iteration:
    """Timings and outputs of one ``run -> evaluate -> publish`` pipeline."""

    sweep_s: float
    first_result_s: float
    evaluate_s: float
    publish_s: float
    runs: int
    failed: int
    digest: str
    spans: Optional[List[list]] = None

    @property
    def pipeline_s(self) -> float:
        return self.sweep_s + self.evaluate_s + self.publish_s


def run_pipeline(workload: Workload, seed: int, root: str,
                 problems: List[str], cache_dir: Optional[str] = None,
                 tracer: Optional[Tracer] = None) -> Iteration:
    """Time one pipeline into a fresh result store, then check its outputs."""
    def phase(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    first_result: List[float] = []

    def progress(done: int, total: int) -> None:
        if not first_result:
            first_result.append(time.perf_counter())

    if tracer:
        tracer.install()
    try:
        with phase("phase.sweep"):
            sweep_start = time.perf_counter()
            handle = sweep(workload, seed, root, cache_dir, progress=progress)
            sweep_s = time.perf_counter() - sweep_start
        evaluations = []
        for _ in range(EVALUATE_REPEATS):
            with phase("phase.evaluate"):
                start = time.perf_counter()
                results = load_experiment(handle.result_path)
                figures = plot_experiment(results, formats=FORMATS)
                evaluations.append(time.perf_counter() - start)
        with phase("phase.publish"):
            start = time.perf_counter()
            report = publish(handle.result_path)
            publish_s = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()

    check(problems, len(handle.runs) == workload.runs,
          f"{len(handle.runs)} of {workload.runs} runs executed")
    check(problems, bool(figures) and report.figures == figures,
          "evaluation and publication wrote different figures")
    check(problems, os.path.isfile(report.archive_path),
          "publish wrote no archive")
    if workload.fig3a_shape:
        check_fig3a_shape(problems, results)
    if cache_dir is not None:
        with open(os.path.join(handle.result_path, "cache.jsonl"),
                  encoding="utf-8") as evidence:
            hits = sum(json.loads(line)["event"] == "cache.hit"
                       for line in evidence)
        check(problems, hits == workload.runs,
              f"{hits} of {workload.runs} runs served from the cache")
    return Iteration(
        sweep_s=sweep_s,
        first_result_s=first_result[0] - sweep_start,
        evaluate_s=statistics.median(evaluations),
        publish_s=publish_s,
        runs=len(handle.runs),
        failed=handle.failed_runs + handle.skipped_runs,
        digest=results_digest(results),
        spans=tracer.spans if tracer else None,
    )


# --------------------------------------------------------------------------
# one invocation
# --------------------------------------------------------------------------

@dataclass
class Report:
    """What one invocation measured and found."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    attempted: int
    failed: int
    digest: str
    problems: List[str]
    traces: List[List[list]]


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def quiesce() -> None:
    """Settle what earlier work left behind before a timed section.

    Garbage is collected now rather than at a random point of the next
    timed section, and dirty pages are written back now rather than by
    the kernel in the middle of it, where they would stall the fsyncs
    of the program's journals.
    """
    gc.collect()
    os.sync()


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: str) -> Report:
    """Set up, then repeat the pipeline until ``seconds`` are used up.

    Untraced pipelines give the end-to-end metrics.  With ``trace``,
    every other pipeline is traced and gives the per-layer medians.
    """
    problems: List[str] = []
    cache_dir = os.path.join(work, "cache") if workload.warm_cache else None

    def set_up(label: str) -> float:
        """Time one zero-run execution: the workload's setup alone."""
        root = os.path.join(work, label)
        quiesce()
        start = time.perf_counter()
        sweep(workload, seed, root, cache_dir, max_runs=0)
        elapsed = time.perf_counter() - start
        shutil.rmtree(root)
        return elapsed

    def pipeline(label: str, tracer: Optional[Tracer] = None) -> Iteration:
        root = os.path.join(work, label)
        quiesce()
        iteration = run_pipeline(workload, seed, root, problems, cache_dir,
                                 tracer)
        shutil.rmtree(root)
        return iteration

    # Untimed: the cold sweep that fills the cache, or the serial sweep
    # a parallel one must reproduce.
    reference = None
    if workload.warm_cache or workload.jobs > 1:
        root = os.path.join(work, "reference")
        handle = sweep(workload, seed, root, cache_dir, jobs=1)
        reference = results_digest(load_experiment(handle.result_path))
        shutil.rmtree(root)

    # Checked but not timed: lazy imports and cold caches are paid once
    # per process, and would otherwise land on one pipeline in a few.
    warm_up = pipeline("warm-up")

    setup: List[float] = []
    untraced: List[Iteration] = []
    traced: List[Iteration] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            setup.append(set_up(f"setup-{len(setup)}"))
        tracer = Tracer() if trace and len(untraced) > len(traced) else None
        (traced if tracer else untraced).append(
            pipeline(f"pipeline-{len(untraced) + len(traced)}", tracer))
        now = time.perf_counter()
        if (len(untraced) + len(traced) >= MIN_ITERATIONS
                and now - start + (now - began) > seconds):
            break

    iterations = [warm_up] + untraced + traced
    digests = {iteration.digest for iteration in iterations}
    check(problems, len(digests) == 1,
          f"pipelines of one invocation disagree: {sorted(digests)}")
    if reference is not None:
        check(problems, digests == {reference},
              f"results {sorted(digests)} differ from the "
              f"{'cold' if workload.warm_cache else 'serial'} "
              f"reference {reference}")
    expected = SEED0_DIGESTS.get(workload.name) if seed == 0 else None
    if expected:
        check(problems, digests == {expected},
              f"seed-0 results {sorted(digests)} differ from the pinned "
              f"digest {expected}")

    def fastest(attribute: str, pipelines: List[Iteration]) -> float:
        return min(getattr(pipeline, attribute) for pipeline in pipelines)

    # A shared host only ever adds time (CPU contention, fsync stalls),
    # in bursts that can cover most of one invocation, so the fastest
    # pipeline is the steadiest estimate of the program's own cost: its
    # run-to-run spread is a third to a half of the median's.
    end_to_end = {
        "setup_s": statistics.median(setup),
        "first_result_s": fastest("first_result_s", untraced),
        "sweep_s": fastest("sweep_s", untraced),
        "evaluate_s": fastest("evaluate_s", untraced),
        "publish_s": fastest("publish_s", untraced),
        "pipeline_s": fastest("pipeline_s", untraced),
        "peak_rss_mb": peak_rss_mb(),
    }
    per_layer: Dict[str, float] = {}
    if traced:
        layers = [layer_metrics(i.spans) for i in traced]
        per_layer = {name: statistics.median(m[name] for m in layers)
                     for name in PER_LAYER}
        per_layer["trace_overhead"] = (
            fastest("sweep_s", traced) / end_to_end["sweep_s"])
    return Report(
        end_to_end=end_to_end,
        per_layer=per_layer,
        attempted=sum(i.runs for i in iterations),
        failed=sum(i.failed for i in iterations),
        digest=iterations[0].digest,
        problems=problems,
        traces=[i.spans for i in traced],
    )


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, str]:
    """The host and code a result was measured on, as strings."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


def write_trace(path: str, traces: List[List[list]]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for iteration, spans in enumerate(traces):
            for name, start, end, parent, probe in spans:
                out.write(json.dumps({
                    "iteration": iteration, "name": name, "start": start,
                    "end": end, "parent": parent, "probe": probe,
                }) + "\n")


def emit(report: Report, trace: bool, env: Dict[str, str]) -> None:
    """Print ``name value unit`` lines, then the one-line JSON result."""
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {report.digest}")
    for name, unit in END_TO_END.items():
        print(f"{name} {report.end_to_end[name]!r} {unit}")
    fail_ratio = report.failed / report.attempted if report.attempted else 0.0
    print(f"fail_ratio {fail_ratio!r} ratio")
    chosen, values = END_TO_END, report.end_to_end
    if trace:
        chosen, values = PER_LAYER, report.per_layer
        for name, unit in PER_LAYER.items():
            print(f"{name} {report.per_layer[name]!r} {unit}")
    for problem in report.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in chosen.items()},
    }))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long to repeat the pipeline")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from traced pipelines")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.realpath(SRC) + os.sep
    if not os.path.realpath(repro.__file__).startswith(src):
        print(f"repro was imported from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        report = measure(workload, args.seed, args.seconds, bool(args.trace),
                         work)
    except PosError as exc:
        print(f"{workload.name}: the pipeline failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        write_trace(os.path.join(WORK, "traces",
                                 f"{workload.name}-seed{args.seed}.jsonl"),
                    report.traces)
    emit(report, bool(args.trace), environment())
    return 1 if report.problems else 0


if __name__ == "__main__":
    sys.exit(main())
