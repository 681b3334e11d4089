#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout. The first run configures and builds
perfbench/ (and the library sources it compiles) in Release mode under
.bench_build/ at the checkout root, or under $CARGO_TARGET_DIR when that is
set; later runs only re-check the build. The benchmark binary prints
diagnostic lines and, last, one JSON result line, which this script passes
through. For traced runs it also recomputes every layer's self time from the
written trace file and marks the result incorrect if they disagree.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run_group(["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"],
                            BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            return False
    code, _ = run_group(["cmake", "--build", build_dir, "-j", jobs],
                        BUILD_TIMEOUT_S, sys.stderr)
    return code == 0


def recomputed_self_seconds(trace_path):
    """Per-layer self time: span duration minus its children's durations."""
    with open(trace_path) as f:
        spans = json.load(f)["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_s"] - s["start_s"]
    self_s = {}
    for s in spans:
        self_s[s["layer"]] = (self_s.get(s["layer"], 0.0) + s["end_s"] -
                              s["start_s"] - child[s["id"]])
    return self_s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(ROOT, target)
    build_dir = os.path.join(base, "perfbench")
    try:
        if not build(build_dir):
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1

    out_dir = os.path.join(base, "runs", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", out_dir]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        print(f"perfbench: run failed with exit code {code}", file=sys.stderr)
        return code or 1
    for line in lines[:-1]:
        print(line)
    result_line = lines[-1]
    if args.trace == "1":
        result = json.loads(result_line)
        recomputed = recomputed_self_seconds(
            os.path.join(out_dir, "trace.json"))
        for name, metric in result["metrics"].items():
            if not name.endswith(".self_s"):
                continue
            value = recomputed.get(name[:-len(".self_s")], 0.0)
            if abs(value - metric["value"]) > 1e-9 * max(1.0, abs(value)):
                print(f"perfbench: FAILED: {name} = {metric['value']} but "
                      f"the trace gives {value}")
                result["correct"] = False
        if result["correct"]:
            print("perfbench: every layer's self_s matches the trace file")
        result_line = json.dumps(result)
    print(result_line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
