#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; prints its JSON result last.

    python3 perfbench/run.py --workload kv-small|kv-large|email \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, against ../src) into .bench_build/;
later runs only re-check the build. Traces of --trace 1 runs go to
.bench_out/. The metric names printed are checked against BENCHMARK.json:
with --trace 0 they are its end_to_end metrics, with --trace 1 its
per_layer metrics, where a layer the workload does not use reads 0.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc = subprocess.call(["cmake", *gen, "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                             stdout=sys.stderr)
        if rc != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--t0-ns", str(t0)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no result (exit code %d)" % proc.returncode)
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(json.dumps(result))
        sys.exit(proc.returncode or 1)

    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    unknown = set(metrics) - names
    if unknown:
        fail("metrics not in BENCHMARK.json: " + ", ".join(sorted(unknown)))
    for m in wanted:
        if m["name"] not in metrics:
            if not args.trace:
                fail("missing end-to-end metric " + m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif metrics[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s differs from BENCHMARK.json" % m["name"])
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
