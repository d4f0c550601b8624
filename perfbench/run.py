#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds the library and the perfbench binary from source on first use
(into .bench_build/ at the repository root), then runs one workload:

  ivf-pq4      closed-loop IvfIndex::Search, ddc-pq 4-bit fast-scan
  hnsw-ddcres  closed-loop HnswIndex::Search, ddc-res
  serve-open   open-loop traffic into serve::IvfServer over an mmap'd index

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build
fails, a correctness check fails, or the metrics printed disagree with
BENCHMARK.json. --workload all runs every workload untraced and traced,
checks that both runs of a workload returned the same answers, and prints
a combined result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("ivf-pq4", "hnsw-ddcres", "serve-open")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
               "perfbench", "perfbench_selftest"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_child(command):
    """Runs one measuring process, echoing its stdout; returns
    (exit code, its JSON lines)."""
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % command[1])
        return 1, []
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    for line in lines:
        print(line, flush=True)
    parsed = []
    for line in lines:
        try:
            parsed.append(json.loads(line))
        except ValueError:
            pass
    return proc.returncode, parsed


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (ok, result dict, fingerprint dict)."""
    flags = ["--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)]
    work = None
    if workload == "serve-open":
        work = os.path.join(WORK_DIR, "serve-open-%d-%d" % (seed, os.getpid()))
        os.makedirs(work, exist_ok=True)
        flags += ["--dir", work]
    try:
        if work is not None:
            prepare = subprocess.run(
                [binary, "prepare-serve-open"] + flags, stdout=sys.stderr,
                timeout=RUN_TIMEOUT_S)
            if prepare.returncode != 0:
                log("perfbench: serve-open prepare step failed")
                return False, None, None
        code, parsed = run_child([binary, workload] + flags)
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
    results = [p for p in parsed if "metrics" in p]
    prints = [p["fingerprint"] for p in parsed if "fingerprint" in p]
    if code != 0 or not results:
        log("perfbench: %s exited with %d" % (workload, code))
        return False, results[-1] if results else None, None
    result = results[-1]
    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        log("perfbench: %s printed metrics %s, BENCHMARK.json lists %s"
            % (workload, sorted(got.items()), sorted(expected.items())))
        return False, result, None
    return result["correct"], result, prints[-1] if prints else None


def run_all(binary, seed, seconds):
    """Every workload, untraced then traced, with the checksum cross-check."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        checksums = []
        for trace in (0, 1):
            ok, result, fingerprint = run_workload(binary, workload, seed,
                                                   seconds, trace)
            if result is None:
                combined["correct"] = False
                combined["failed"] += 1
                combined["attempted"] += 1
                continue
            combined["correct"] = combined["correct"] and ok
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"]["%s/%s" % (workload, name)] = metric
            if fingerprint is not None:
                checksums.append(fingerprint["answer_checksum"])
        if len(set(checksums)) != 1 or len(checksums) != 2:
            log("perfbench: %s answers differ between the untraced and the "
                "traced run: %s" % (workload, checksums))
            combined["correct"] = False
            combined["failed"] += 1
        combined["attempted"] += 1
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 2
    selftest = subprocess.run([binary + "_selftest"], stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        log("perfbench: tracer self-test failed")
        return 1
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    ok, _, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
