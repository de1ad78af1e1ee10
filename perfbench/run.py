#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload paper_suite|serve_hot|serve_live \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the library sources plus urm_perfbench) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed.

--trace 0 prints urm_perfbench's output: a `meta {...}` line (hardware
threads, build type, git SHA, |D|, h, seeds, request counts, request
sequence digests) and the result line with the end-to-end metrics.

--trace 1 runs the workload twice with the same seed: untraced, for the
throughput baseline, then traced into a span file under the build
directory. trace_reader.py turns the spans into the per-layer metrics,
including trace.overhead_pct, and the result line carries those.

Exits non-zero, without a result line, when the build fails; exits
non-zero after the result line when any output check failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import trace_reader  # noqa: E402

WORKLOADS = ("paper_suite", "serve_hot", "serve_live")
# A whole run, build excepted, must end well inside three minutes.
RUN_BUDGET_S = 170.0


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds urm_perfbench; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "urm_perfbench")


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(binary, args, deadline):
    """Runs urm_perfbench; returns (exit code, stdout lines, result)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit("perfbench: out of time")
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: urm_perfbench exceeded the run budget")
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: urm_perfbench printed no result (exit %d)"
                 % proc.returncode)
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--git-sha", git_sha()]

    if not args.trace:
        code, lines, _ = run_binary(binary, common, deadline)
        print("\n".join(lines))
        return code

    # The baseline is the normal run, so both throughputs come from the
    # same work.
    code, _, untraced = run_binary(binary, common, deadline)
    trace_path = os.path.join(build_dir(), "traces",
                              "%s-seed%d.jsonl" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    traced_code, traced_lines, traced = run_binary(
        binary, common + ["--trace-out", trace_path], deadline)
    for line in traced_lines[:-1]:
        print(line)
    print("trace " + trace_path)
    metrics = trace_reader.per_layer_metrics(
        trace_path, untraced["metrics"]["throughput_rps"]["value"])
    print(json.dumps({
        "correct": bool(untraced["correct"] and traced["correct"]),
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return code or traced_code


if __name__ == "__main__":
    sys.exit(main())
