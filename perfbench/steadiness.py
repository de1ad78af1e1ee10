#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports how steady each metric is.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] \
        [--first-seed 1] [--out FILE] [--compare EARLIER.json]

Each round runs every workload once (rotating which goes first), each
run with its own seed, through `run.py --trace 0` with BENCHMARK.json's
run_seconds. For every end-to-end metric of every workload it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, and flags a spread above the metric's
bound in BENCHMARK.json (and, as "tight", one above a third of it).
The `raw` column is the spread of the same metric before the host-speed
correction (the meta line's raw_metrics), for comparison only.
With --compare it also flags a median worse than the earlier set's by
more than the bound.
--out saves every run's result plus the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")), {})
    result = json.loads(lines[-1]) if lines else {}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": time.monotonic() - started, "meta": meta,
            "result": result}


def summarize(bench, runs, earlier=None):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    summary, flags = {}, []
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        failed = sum(r["result"].get("failed", 1) for r in mine)
        bad = [r["seed"] for r in mine
               if r["exit"] != 0 or not r["result"].get("correct")]
        if bad:
            flags.append("%s: runs with seeds %s failed" % (workload, bad))
        summary[workload] = {"runs": len(mine), "failed_ops": failed}
        for name, spec in metrics.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine
                      if name in r["result"].get("metrics", {})]
            if len(values) < 2:
                flags.append("%s/%s: fewer than two values" % (workload, name))
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                     "bound": spec["bound"], "values": values}
            raw = [r["meta"].get("raw_metrics", {}).get(name) for r in mine]
            if None not in raw:
                r1, r2, r3 = statistics.quantiles(raw, n=4)
                entry["raw_spread"] = (r3 - r1) / r2
            if spread > spec["bound"]:
                flags.append("%s/%s: spread %.3f > bound %.3f"
                             % (workload, name, spread, spec["bound"]))
            elif spread > spec["bound"] / 3:
                flags.append("%s/%s: tight: spread %.3f > bound/3 %.3f"
                             % (workload, name, spread, spec["bound"] / 3))
            if earlier is not None:
                old = earlier.get(workload, {}).get(name)
                if old is not None:
                    change = (median - old["median"]) / old["median"]
                    worse = change if spec["better"] == "lower" else -change
                    entry["change_vs_earlier"] = change
                    if worse > spec["bound"]:
                        flags.append("%s/%s: median %.4g vs earlier %.4g is "
                                     "worse by %.3f > bound %.3f"
                                     % (workload, name, median, old["median"],
                                        worse, spec["bound"]))
            summary[workload][name] = entry
    return summary, flags


def print_summary(bench, summary, flags):
    for workload, entry in summary.items():
        print("%s (%d runs, %d failed operations)"
              % (workload, entry["runs"], entry["failed_ops"]))
        print("  %-20s %12s %12s %12s %8s %6s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "raw"))
        for spec in bench["end_to_end"]:
            m = entry.get(spec["name"])
            if m is None:
                continue
            raw = ("%6.3f" % m["raw_spread"]) if "raw_spread" in m else "     -"
            print("  %-20s %12.5g %12.5g %12.5g %8.4f %6.2f %s  %s"
                  % (spec["name"], m["median"], m["q1"], m["q3"], m["spread"],
                     m["bound"], raw, spec["unit"]))
    print("flags:" if flags else "flags: none")
    for flag in flags:
        print("  " + flag)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", default=None,
                        help="an earlier --out file to compare medians with")
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    runs = []
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for workload in order:
            run = run_once(bench, workload, args.first_seed + i)
            runs.append(run)
            values = run["result"].get("metrics", {})
            sys.stderr.write("round %d %s seed %d exit %d %.1fs %s\n" % (
                i + 1, workload, run["seed"], run["exit"], run["wall_s"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in sorted(values.items()))))
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["summary"]
    summary, flags = summarize(bench, runs, earlier)
    print_summary(bench, summary, flags)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": summary, "flags": flags}, f,
                      indent=1)
    return 1 if any(not f.split(": ", 1)[1].startswith("tight")
                    for f in flags) else 0


if __name__ == "__main__":
    sys.exit(main())
