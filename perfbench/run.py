#!/usr/bin/env python3
"""End-to-end benchmark of the pgsim T-PS engine.

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/ (and through it the pgsim
library sources of the checkout) into .bench_build/perfbench, runs one
workload, prints the full report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
untraced; with --trace 1 they are its per_layer list, from the traced
layer-by-layer replay (spans are written to .bench_build/traces/). See
perfbench/METRICS.md for what each metric means and which layer moves it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pgsim_perfbench")
WORKLOADS = ("paper-batch", "label-rich", "serve-churn")
RUN_TIMEOUT_S = 170

# Per-layer metrics of layers a workload does not run at all: reported as 0
# (a metric missing for any other reason is a benchmark bug and fails the
# run).
NOT_EXERCISED = {
    "paper-batch": ("answer_cache.", "serve.", "storage."),
    "label-rich": ("sched.", "answer_cache.", "serve.", "storage."),
    "serve-churn": ("sched.", "batch_cache."),
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "pgsim_perfbench"],
    )
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def width_above_cpus(name, cpus):
    # Thread-scaling points (..._wN) above the host's CPU count are omitted,
    # never projected.
    head, sep, width = name.rpartition("_w")
    return bool(sep) and width.isdigit() and int(width) > cpus


def select(declared, measured, workload, cpus):
    out = {}
    for m in declared:
        name = m["name"]
        got = measured.get(name)
        if got is None:
            if width_above_cpus(name, cpus):
                continue
            if name.startswith(NOT_EXERCISED[workload]):
                out[name] = {"value": 0, "unit": m["unit"]}
                continue
            fail("metric %s missing from the %s run" % (name, workload))
        if got["value"] is None:
            fail("metric %s is not a finite number" % name)
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, declared %s" % (name, got["unit"], m["unit"]))
        out[name] = {"value": got["value"], "unit": got["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    build()

    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(BUILD_DIR))
    cmd = [
        BINARY,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--work-dir=" + work_dir,
        "--trace-out=" + os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed)),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        fail("no result line from the benchmark binary (exit %d)" % proc.returncode)
    print("\n".join(lines[:-1]))
    if not result["correct"] or proc.returncode != 0:
        print("perfbench: correctness gate failed: " + result.get("error", ""),
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        sys.exit(1)

    cpus = len(os.sched_getaffinity(0))
    metrics = select(declared, result["metrics"], args.workload, cpus)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
