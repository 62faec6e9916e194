"""Pump-evidence overhead on a distributed sweep — the < 5% budget.

The fleet DAG costs nothing at run time (``pos trace`` derives it from
``trace.jsonl``); what the tracing plane still writes is the pump's
evidence: one ``dispatch.jsonl`` record, stamped with the transport
clock, per dispatch, transport message, delivery and death.  The bench
times a thinned distributed sweep with that evidence enabled (default)
and disabled (``POS_DISPATCH_LOG=0``), takes the best of three
repetitions per configuration, and gates the ratio at 1.05.

Correctness rides along twice: the parsed throughput rows must be
identical with the evidence on and off (observation does not perturb
the measurement), and the switch must actually switch — a disabled
run leaves no ``dispatch.jsonl`` behind.
"""

from __future__ import annotations

import json
import os
import time

from repro.casestudy import POS_RATES, run_case_study
from repro.evaluation.loader import load_experiment

from conftest import sweep, throughput_rows

BENCH_JSON = os.path.join(os.path.dirname(__file__), "BENCH_trace.json")

#: The ISSUE's tracing budget: enabled may cost at most 5% wall time.
OVERHEAD_GATE = 1.05

REPS = 3

AGENTS = 2

SWEEP = dict(
    rates=sweep(POS_RATES, keep_every=3),
    sizes=(64, 1500),
    duration_s=0.05,
    interval_s=0.01,
)


def _update_bench_json(section, payload):
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as handle:
            data = json.load(handle)
    data[section] = payload
    with open(BENCH_JSON, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _timed_sweep(root, tracing):
    os.environ["POS_NETSIM_BATCH"] = "1"
    os.environ["POS_DISPATCH_LOG"] = "1" if tracing else "0"
    try:
        start = time.perf_counter()
        handle = run_case_study("pos", str(root), agents=AGENTS, **SWEEP)
        elapsed = time.perf_counter() - start
    finally:
        os.environ.pop("POS_NETSIM_BATCH", None)
        os.environ.pop("POS_DISPATCH_LOG", None)
    assert handle.failed_runs == 0
    return elapsed, handle


def _best_of(tmp_path_factory, label, tracing):
    best, last_handle = None, None
    for rep in range(REPS):
        root = tmp_path_factory.mktemp(f"{label}{rep}")
        elapsed, last_handle = _timed_sweep(root, tracing)
        best = elapsed if best is None else min(best, elapsed)
    return best, last_handle


def test_bench_trace_overhead(tmp_path_factory):
    off_s, off_handle = _best_of(tmp_path_factory, "off", tracing=False)
    on_s, on_handle = _best_of(tmp_path_factory, "on", tracing=True)

    # Observation must not perturb the measurement.
    rows = throughput_rows(load_experiment(off_handle.result_path))
    assert throughput_rows(load_experiment(on_handle.result_path)) == rows

    # The switch actually switches: no pump evidence when off.
    assert os.path.isfile(os.path.join(on_handle.result_path, "dispatch.jsonl"))
    assert not os.path.isfile(
        os.path.join(off_handle.result_path, "dispatch.jsonl")
    )

    overhead = on_s / off_s
    runs = len(SWEEP["rates"]) * len(SWEEP["sizes"])
    print(f"\n=== pump-evidence overhead: {AGENTS} agents ({runs} runs) ===")
    print(f"evidence off: {off_s:6.3f} s   on: {on_s:6.3f} s   "
          f"ratio: {overhead:.3f}x   (best of {REPS})")
    _update_bench_json("overhead", {
        "sweep_runs": runs,
        "agents": AGENTS,
        "reps": REPS,
        "trace_off_s": round(off_s, 3),
        "trace_on_s": round(on_s, 3),
        "overhead": round(overhead, 4),
        "gate": OVERHEAD_GATE,
    })
    assert overhead <= OVERHEAD_GATE, (
        f"pump evidence costs {(overhead - 1) * 100:.1f}% wall time on a "
        f"distributed sweep; budget is {(OVERHEAD_GATE - 1) * 100:.0f}%"
    )
