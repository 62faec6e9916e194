"""Run-to-run spread of the end-to-end metrics, for setting their bounds.

Runs ``bench.py`` once per seed for each workload, one invocation at a
time, and prints for every end-to-end metric the median of the runs and
the distance between their first and third quartile as a share of that
median — the numbers ``BENCHMARK.json`` bounds must stay above::

    python3 benchmarks/layers/spread.py --runs 10 --seed-base 100 \
        --out benchmarks/layers/BENCH_layers.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCH = os.path.join(HERE, "bench.py")


def invoke(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark invocation's JSON result; raises when it fails."""
    completed = subprocess.run(
        [sys.executable, BENCH, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: "
            f"{completed.stderr.strip()}"
        )
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0].split(" ", 1)[1])
    return result


def summarize(results: list) -> dict:
    """Median and quartile spread (share of the median) of each metric."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": median,
            "spread": (q3 - q1) / median,
            "unit": results[0]["metrics"][name]["unit"],
        }
    return summary


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=declared["run_seconds"])
    parser.add_argument("--out", default=None,
                        help="write medians and spreads as a BENCH json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    snapshot = {"workloads": {}}
    for workload in args.workloads:
        results = [invoke(workload, args.seed_base + run, args.seconds)
                   for run in range(args.runs)]
        snapshot["env"] = results[0]["env"]
        summary = summarize(results)
        snapshot["workloads"][workload] = {
            "median": {name: s["median"] for name, s in summary.items()},
            "spread": {f"{name}_iqr": s["spread"]
                       for name, s in summary.items()},
        }
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  WIDE"
            print(f"{workload:12} {name:15} median {s['median']:.6g} "
                  f"{s['unit']:3} spread {s['spread']:.4f} bound {bound}{flag}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(snapshot, out, indent=2, sort_keys=True)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
