"""Health-plane overhead on the batched fast path — the < 5% budget.

The health plane polls every node's BMC once per run (sensor read, SEL
slice, classification) and folds the result in the parent, so its cost
must be invisible next to the measurement itself.  The bench times a
thinned Fig. 3a sweep with the plane enabled (default) and disabled
(``POS_HEALTH=0``), takes the best of three repetitions per
configuration to shed scheduler noise, and gates the ratio at 1.05.

Correctness rides along: the parsed throughput rows must be identical
with health monitoring on and off — out-of-band observation must not
perturb the in-band measurement — and the health artifacts must exist
exactly when the plane is on.
"""

from __future__ import annotations

import json
import os
import time

from repro.casestudy import POS_RATES, run_case_study
from repro.evaluation.loader import load_experiment

from conftest import sweep, throughput_rows

BENCH_JSON = os.path.join(os.path.dirname(__file__), "BENCH_health.json")

#: The ISSUE's health budget: enabled may cost at most 5% wall time.
OVERHEAD_GATE = 1.05

REPS = 3

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


def _timed_sweep(root, health):
    os.environ["POS_NETSIM_BATCH"] = "1"
    os.environ["POS_HEALTH"] = "1" if health else "0"
    try:
        start = time.perf_counter()
        handle = run_case_study("pos", str(root), jobs=1, **SWEEP)
        elapsed = time.perf_counter() - start
    finally:
        os.environ.pop("POS_NETSIM_BATCH", None)
        os.environ.pop("POS_HEALTH", None)
    assert handle.failed_runs == 0
    return elapsed, handle


def _best_of(tmp_path_factory, label, health):
    best, last_handle = None, None
    for rep in range(REPS):
        root = tmp_path_factory.mktemp(f"{label}{rep}")
        elapsed, last_handle = _timed_sweep(root, health)
        best = elapsed if best is None else min(best, elapsed)
    return best, last_handle


def test_bench_health_overhead(tmp_path_factory):
    off_s, off_handle = _best_of(tmp_path_factory, "hoff", health=False)
    on_s, on_handle = _best_of(tmp_path_factory, "hon", health=True)

    # Out-of-band observation must not perturb the in-band measurement.
    rows = throughput_rows(load_experiment(off_handle.result_path))
    assert throughput_rows(load_experiment(on_handle.result_path)) == rows

    # Health artifacts exist exactly when the plane is on.
    assert os.path.isfile(os.path.join(on_handle.result_path, "health.json"))
    with open(os.path.join(on_handle.result_path, "journal.jsonl")) as journal:
        records = [json.loads(line) for line in journal]
    runs = [record for record in records if record["event"] == "run"]
    assert runs and all("health" in run for run in runs)
    assert not os.path.isfile(
        os.path.join(off_handle.result_path, "health.json")
    )

    overhead = on_s / off_s
    runs = len(SWEEP["rates"]) * len(SWEEP["sizes"])
    print(f"\n=== health-plane overhead: batched fast path ({runs} runs) ===")
    print(f"health off: {off_s:6.3f} s   on: {on_s:6.3f} s   "
          f"ratio: {overhead:.3f}x   (best of {REPS})")
    _update_bench_json("overhead", {
        "sweep_runs": runs,
        "reps": REPS,
        "health_off_s": round(off_s, 3),
        "health_on_s": round(on_s, 3),
        "overhead": round(overhead, 4),
        "gate": OVERHEAD_GATE,
        "event_path": "batched (POS_NETSIM_BATCH=1)",
    })
    assert overhead <= OVERHEAD_GATE, (
        f"health plane costs {(overhead - 1) * 100:.1f}% wall time on the "
        f"batched fast path; budget is {(OVERHEAD_GATE - 1) * 100:.0f}%"
    )
