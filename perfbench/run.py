#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the pimds library from ../src and the benchmark program, pimbench,
into .bench_build/ at the repository root, runs one workload, and passes
pimbench's output through. The last line of standard output is the JSON
result. Exits non-zero when the sources are missing, the build fails, an
output check fails, or the result does not carry exactly the metric names
BENCHMARK.json lists.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def fixed_layout():
    """Runs in the child before exec: turn address-space randomisation off,
    so run-to-run spread is not set by where the heap and stacks land."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(ADDR_NO_RANDOMIZE)


def expected_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        build(["pimbench_tests"])
        sys.exit(subprocess.run([str(BUILD / "pimbench_tests")]).returncode)
    if not args.workload:
        fail("--workload is required")

    build(["pimbench"])
    cmd = [str(BUILD / "pimbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"pimbench exited with code {proc.returncode}", 1)
    differ = expected_names(args.trace) ^ set(json.loads(lines[-1])["metrics"])
    if differ:
        fail("metric names differ from BENCHMARK.json: "
             + ", ".join(sorted(differ)), 1)


if __name__ == "__main__":
    main()
