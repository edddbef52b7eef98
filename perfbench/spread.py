"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads ground-scaling shot-pipeline \\
        --seeds 1 2 3 4 5 --seconds 25 [--trace 0] [--out summary.json]

Run from the repository root.  For each workload and end-to-end metric it
prints the median over seeds and the spread, the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound in BENCHMARK.json.  ``--out`` also writes
the machine facts, each run's check counts and round times, and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    machine = [json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("machine: ")]
    rounds = [x for x in lines if x.startswith("rounds: ")]
    result = json.loads(lines[-1])
    result["rounds"] = rounds[0] if rounds else None
    return result, machine[0] if machine else None


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, report["machine"] = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(workload, seed, result["correct"], result["attempted"],
                  result["failed"], flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, iqr = spread(values)
            summary[name] = {"median": median, "iqr_over_median": iqr,
                             "unit": runs[0]["metrics"][name]["unit"]}
            if args.trace == 0:
                summary[name]["values"] = values
                print(f"  {name:14s} median {median:.6g}  spread {iqr:.4f}"
                      f"  bound {bounds.get(name)}", flush=True)
        checks = {k: [r[k] for r in runs] for k in ("correct", "attempted", "failed", "rounds")}
        report["workloads"][workload] = {"seeds": args.seeds, **checks,
                                         "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
