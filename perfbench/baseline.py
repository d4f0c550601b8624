#!/usr/bin/env python3
"""Measures the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py [--runs 10] [--workloads a,b] [--out FILE]

For each workload: --runs untraced runs, each with its own seed, then one
traced run. Prints, per end-to-end metric, the median, the quartiles and
the spread (interquartile range over median, as the bound in
BENCHMARK.json is read), and writes everything with the host fingerprint
to FILE (default perfbench/baseline.json). Exits non-zero if any run
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines or "metrics" not in lines[-1]:
        sys.exit("%s seed %d trace %d failed" % (workload, seed, trace))
    fingerprint = next((l["fingerprint"] for l in lines if "fingerprint" in l),
                       None)
    return lines[-1], fingerprint


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out",
                        default=os.path.join(ROOT, "perfbench", "baseline.json"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"run_seconds": spec["run_seconds"], "runs": args.runs,
           "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            result, fingerprint = run(workload, args.first_seed + i,
                                      spec["run_seconds"], 0)
            out["fingerprint"] = fingerprint
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced, _ = run(workload, args.first_seed, spec["run_seconds"], 1)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[name],
                             "values": vals}
            print("%-12s %-18s median %12.4f  spread %.3f  (bound %.2f)"
                  % (workload, name, median, spread, bounds[name]),
                  flush=True)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
