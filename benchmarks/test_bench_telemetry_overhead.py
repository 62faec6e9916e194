"""Observation overhead on the batched fast path — the < 5% budget.

The telemetry plane — spans, metrics and the health plane's per-run
BMC poll (sensor read, SEL slice, classification) — is always on, so
its cost is measured against the workload least able to hide it: the
batched fast path, where a whole measurement run is a handful of spans
and counter bumps rather than thousands of per-event hooks.  The bench
times a thinned Fig. 3a sweep with the plane enabled (default) and
disabled (``POS_TELEMETRY=0``, which turns health off with it) in
alternating on/off pairs, and gates the median of the pairs' on/off
ratios at 1.05.  A sweep takes a fraction of a second, so a best-of-3
per configuration could not tell a 3-5% cost from scheduler noise;
pairing each "on" sweep with an adjacent "off" one (the order flips
from pair to pair) and taking the median of fifteen ratios can.

Correctness rides along: the parsed throughput rows must be identical
with observation on and off, proving it does not perturb the
measurement, and the observation artifacts must exist exactly when the
plane is on.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

from repro.casestudy import POS_RATES, run_case_study
from repro.evaluation.loader import load_experiment

from conftest import sweep, throughput_rows

BENCH_JSON = os.path.join(os.path.dirname(__file__), "BENCH_telemetry.json")

#: The observation budget: telemetry and health together may cost at
#: most 5% wall time.
OVERHEAD_GATE = 1.05

#: Alternating on/off pairs; the gate reads the median of their ratios.
PAIRS = 15

SWEEP = dict(
    rates=sweep(POS_RATES, keep_every=3),
    sizes=(64, 1500),
    duration_s=0.05,
    interval_s=0.01,
)


def _write_bench_json(payload):
    with open(BENCH_JSON, "w") as handle:
        json.dump({"overhead": payload}, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _timed_sweep(root, telemetry):
    os.environ["POS_NETSIM_BATCH"] = "1"
    os.environ["POS_TELEMETRY"] = "1" if telemetry else "0"
    try:
        # Neither the previous sweep's garbage nor its dirty pages are
        # this sweep's cost (as in benchmarks/layers/bench.py).
        gc.collect()
        os.sync()
        start = time.perf_counter()
        handle = run_case_study("pos", str(root), jobs=1, **SWEEP)
        elapsed = time.perf_counter() - start
    finally:
        os.environ.pop("POS_NETSIM_BATCH", None)
        os.environ.pop("POS_TELEMETRY", None)
    assert handle.failed_runs == 0
    return elapsed, handle


def _paired(tmp_path_factory):
    """Time ``PAIRS`` on/off pairs, flipping their order each pair.

    Returns the on and off times, in pair order, and one handle each.
    """
    times = {True: [], False: []}
    handles = {}
    for pair in range(PAIRS):
        for telemetry in (pair % 2 == 0, pair % 2 == 1):
            label = "on" if telemetry else "off"
            root = tmp_path_factory.mktemp(f"{label}{pair}")
            elapsed, handles[telemetry] = _timed_sweep(root, telemetry)
            times[telemetry].append(elapsed)
    return times[True], times[False], handles[True], handles[False]


def test_bench_telemetry_overhead(tmp_path_factory):
    on_times, off_times, on_handle, off_handle = _paired(tmp_path_factory)

    # Observation must not perturb the measurement.
    rows = throughput_rows(load_experiment(off_handle.result_path))
    assert throughput_rows(load_experiment(on_handle.result_path)) == rows

    # Telemetry and health artifacts exist exactly when the plane is on.
    for name in ("trace.jsonl", "telemetry.json", "health.json"):
        assert os.path.isfile(os.path.join(on_handle.result_path, name))
        assert not os.path.isfile(os.path.join(off_handle.result_path, name))
    with open(os.path.join(on_handle.result_path, "journal.jsonl")) as journal:
        records = [json.loads(line) for line in journal]
    journalled = [record for record in records if record["event"] == "run"]
    assert journalled and all(
        "telemetry" in run and "health" in run for run in journalled
    )

    overhead = statistics.median(
        on / off for on, off in zip(on_times, off_times))
    on_s = statistics.median(on_times)
    off_s = statistics.median(off_times)
    runs = len(SWEEP["rates"]) * len(SWEEP["sizes"])
    print(f"\n=== telemetry + health overhead: batched fast path "
          f"({runs} runs) ===")
    print(f"telemetry off: {off_s:6.3f} s   on: {on_s:6.3f} s   "
          f"median ratio: {overhead:.3f}x   ({PAIRS} alternating pairs)")
    _write_bench_json({
        "sweep_runs": runs,
        "pairs": PAIRS,
        "telemetry_off_s": round(off_s, 3),
        "telemetry_on_s": round(on_s, 3),
        "overhead": round(overhead, 4),
        "gate": OVERHEAD_GATE,
        "event_path": "batched (POS_NETSIM_BATCH=1)",
    })
    assert overhead <= OVERHEAD_GATE, (
        f"telemetry and health cost {(overhead - 1) * 100:.1f}% wall time "
        f"on the batched fast path; budget is "
        f"{(OVERHEAD_GATE - 1) * 100:.0f}%"
    )
