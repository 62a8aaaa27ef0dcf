#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload night_survey --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --test        # build and run the harness tests

Run from the repository root. The library and the benchmark are built
from source into .bench_build/perfbench. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1 (a layer the workload does not exercise reads 0).
Metrics beyond those lists, the machine record and the run's notes are
printed on the lines before it.
"""

import argparse
import fcntl
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j4", "--target"] + targets)
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))


def run(argv, timeout):
    proc = subprocess.Popen(argv, cwd=BUILD, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s did not finish within %d s" % (argv[0], timeout))
    return proc.returncode, out


def shape_result(line, wanted):
    """Keeps exactly the `wanted` metrics (name -> unit), a missing one as
    0; returns the result, the names that were missing and the metrics
    left over."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result))
    measured = result["metrics"]
    for name in measured:
        if not NAME.match(name):
            fail("metric name %r is outside [A-Za-z0-9_.-]+" % name)
    missing = [name for name in wanted if name not in measured]
    result["metrics"] = {
        name: measured.pop(name, {"value": 0, "unit": unit})
        for name, unit in wanted.items()
    }
    return result, missing, measured


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the harness tests instead")
    args = parser.parse_args()

    if args.test:
        build(["perfbench_test"])
        code, out = run([os.path.join(BUILD, "perfbench_test")], RUN_TIMEOUT_S)
        sys.stdout.write(out)
        sys.exit(code)

    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    key = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[key]}

    build(["sne_perfbench"])
    code, out = run([os.path.join(BUILD, "sne_perfbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", repr(args.seconds), "--trace",
                     str(args.trace)], RUN_TIMEOUT_S)
    lines = out.splitlines()
    if code != 0 or not lines:
        fail("sne_perfbench exited with code %d" % code)
    for line in lines[:-1]:
        print(line)
    result, missing, extra = shape_result(lines[-1], wanted)
    if missing and not args.trace:
        fail("end-to-end metrics not measured: %s" % ", ".join(missing))
    if extra:
        print("# extra " + json.dumps(extra, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
