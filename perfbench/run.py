#!/usr/bin/env python3
"""End-to-end benchmark of parfw (see BENCHMARK.json at the repository root).

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ from source into .bench_build/ (the repository's own CMake
project is added as a subdirectory), runs one workload and prints its result
as the last line of standard output:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of one traced operation, and the Chrome trace the run
writes to .bench_build/run/ must load in trace_analyze (--mode serve for
serve-mixed), or the run is reported as incorrect. The line before the
result records the environment: nproc, the resolved srgemm kernel and
micro-shape, compiler, flags and seed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("solve-1node", "solve-2x2-paths", "serve-mixed")
# A run must end within 180 s; perfbench gets most of it, trace_analyze
# the rest.
RUN_TIMEOUT_S = 150
ANALYZE_TIMEOUT_S = 20


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring the binaries up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no parfw source tree next to perfbench/; nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "trace_analyze_cli", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def trace_file(workload):
    """Where perfbench writes the traced run's Chrome trace."""
    return os.path.join(OUT, "trace-%s.json" % workload)


def trace_loads(workload):
    """The traced run's Chrome trace must load in trace_analyze."""
    path = trace_file(workload)
    cmd = [os.path.join(BUILD, "parfw", "tools", "trace_analyze"),
           "--trace", path]
    if workload == "serve-mixed":
        cmd += ["--mode", "serve"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=ANALYZE_TIMEOUT_S)
    if done.returncode != 0:
        log("trace_analyze rejected %s:\n%s" % (path, done.stderr))
        return False
    lines = done.stdout.strip().splitlines()
    print("trace_analyze: " + (lines[-1] if lines else "ok"))
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    # A trace left by an earlier run must not pass for this run's.
    if args.trace and os.path.exists(trace_file(args.workload)):
        os.remove(trace_file(args.workload))
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench exited with code %d" % done.returncode)
        return 1
    result = json.loads(lines[-1])

    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        log("metric names differ from BENCHMARK.json: got %s, want %s"
            % (sorted(result["metrics"]), sorted(want)))
        result["correct"] = False
    if args.trace and not trace_loads(args.workload):
        result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
