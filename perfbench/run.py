#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark program under .bench_build/ (later calls rebuild only what
changed); the program then runs the workload and prints one JSON object as
the last line of standard output. Build output goes to standard error.
The traced run (--trace 1) also writes its spans to
.bench_build/traces/<workload>-seed<n>.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    """Metric name -> unit the contract in BENCHMARK.json asks for."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ)
    # The library's own tracing and pool statistics stay off: the traced
    # run arms what it needs itself, and only in its traced section.
    for var in ("VBATCH_TRACE", "VBATCH_POOL_STATS", "VBATCH_PERF",
                "VBATCH_BENCH_JSON"):
        env.pop(var, None)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metric set differs from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
             f" or units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}")
    print(f"wall {time.monotonic() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
