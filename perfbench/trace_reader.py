#!/usr/bin/env python3
"""Turns a traced run's span file into the benchmark's per-layer metrics.

    python3 perfbench/trace_reader.py TRACE.jsonl

The span file (written by urm_perfbench --trace-out) holds one JSON
object per line: a `meta` header (run metadata and the traced run's own
end-to-end metrics), one `span` per traced interval (name, request id,
parent, start and end in ns, optional per-request counts) and a
`counters` footer (serving-tier counter deltas over the timed phase).

Prints the per-layer metrics as JSON and, on stderr, a self-time table:
for every span name, its count, total time and self time (duration
minus the part of it that child spans cover).

A layer the workload does not exercise reports 0: that is the measured
work of the layer there (see README.md for which layers each workload
drives). trace.overhead_pct needs the untraced run's throughput, which
run.py --trace 1 passes in; run on its own, this script reports it as 0.
"""

import argparse
import json
import math
import sys
from collections import defaultdict

METHODS = ("basic", "e_basic", "e_mqo", "q_sharing", "o_sharing")
KINDS = METHODS + ("topk", "threshold")
# o-sharing's u-trace runs o_sharing, top-k and threshold requests.
UTRACE_KINDS = ("o_sharing", "topk", "threshold")

# (name, unit) in BENCHMARK.json order.
PER_LAYER = (
    [("datagen.generate_s", "s"), ("matching.match_s", "s"),
     ("mapping.generate_s", "s"), ("setup.warmup_s", "s"),
     ("core.dispatch_s", "s")]
    + [(m + ".s", "s") for m in KINDS]
    + [(m + ".rewrite_s", "s") for m in METHODS]
    + [(m + ".aggregate_s", "s") for m in METHODS]
    + [("e_mqo.plan_s", "s")]
    + [(m + ".eval_s", "s") for m in METHODS]
    + [(m + ".tuples", "count") for m in KINDS]
    + [("algebra.operators", "count"), ("algebra.scans", "count")]
    + [(m + ".source_queries", "count") for m in METHODS]
    + [(m + ".partitions", "count") for m in METHODS]
    + [("osharing.memo_hits", "count"), ("osharing.memo_misses", "count"),
       ("columnar.scans", "count"), ("relational.row_scans", "count"),
       ("columnar.bytes_scanned", "bytes"),
       ("columnar.logical_bytes_scanned", "bytes"),
       ("topk.leaves_visited", "count"), ("threshold.leaves_visited", "count"),
       ("net.route_us", "us"), ("net.parse_us", "us"),
       ("net.serialize_us", "us"), ("net.serialize_us_p99", "us"),
       ("net.response_bytes", "bytes"), ("service.submit_us", "us"),
       ("net.transport_us", "us"), ("service.hit_rate", "ratio"),
       ("service.lookups", "count"), ("service.misses", "count"),
       ("service.cache_evictions", "count"), ("service.cache_bytes", "bytes"),
       ("service.fenced_answers", "count"), ("service.pool_tasks", "count"),
       ("osharing.store_hits", "count"), ("osharing.store_misses", "count"),
       ("osharing.store_evictions", "count"),
       ("osharing.store_bytes", "bytes"),
       ("osharing.fenced_operators", "count"), ("core.eval_ms", "ms"),
       ("core.eval_ms_p50", "ms"), ("live.route_us", "us"),
       ("columnar.encode_ms", "ms"), ("live.batches", "count"),
       ("live.rows_inserted", "count"), ("live.rows_deleted", "count"),
       ("trace.overhead_pct", "%")])

# Storage counters: from EvalStats span counts on paper_suite, from the
# service's scan accounting (footer counters) on the serving workloads.
STORAGE = {"columnar.scans": "columnar_scans",
           "relational.row_scans": "row_scans",
           "columnar.bytes_scanned": "bytes_scanned",
           "columnar.logical_bytes_scanned": "logical_bytes_scanned"}


def load(path):
    meta, spans, counters = {}, [], {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record["type"] == "meta":
                meta = record["meta"]
            elif record["type"] == "span":
                spans.append(record)
            elif record["type"] == "counters":
                counters = record["counters"]
    return meta, spans, counters


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        covered, end = 0, s["t0"]
        for t0, t1 in sorted(children.get(s["id"], ())):
            t0, t1 = max(t0, end), min(t1, s["t1"])
            if t1 > t0:
                covered += t1 - t0
                end = t1
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def percentile(values, p):
    """Nearest-rank percentile, as urm_perfbench computes its own."""
    if not values:
        return 0.0
    values = sorted(values)
    rank = max(1, math.ceil(p * len(values)))
    return values[min(rank, len(values)) - 1]


def per_layer_metrics(path, untraced_rps=None):
    meta, spans, counters = load(path)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    own = self_times(spans)

    def dur(name):
        return [(s["t1"] - s["t0"]) for s in by_name.get(name, ())]

    def total_s(name):
        return sum(dur(name)) * 1e-9

    def p(name, q, scale):
        return percentile(dur(name), q) * scale

    def count(kinds, key):
        return sum(s.get("counts", {}).get(key, 0)
                   for k in kinds for s in by_name.get(k, ()))

    v = {
        "datagen.generate_s": total_s("datagen.generate"),
        "matching.match_s": total_s("matching.match"),
        "mapping.generate_s": total_s("mapping.generate"),
        "setup.warmup_s": total_s("setup.warmup"),
        "core.dispatch_s": sum(own[s["id"]] for k in KINDS
                               for s in by_name.get(k, ())) * 1e-9,
        "e_mqo.plan_s": total_s("e_mqo.plan"),
        "algebra.operators": count(KINDS, "operators"),
        "algebra.scans": count(KINDS, "scans"),
        "osharing.memo_hits": count(UTRACE_KINDS, "memo_hits"),
        "osharing.memo_misses": count(UTRACE_KINDS, "memo_misses"),
        "topk.leaves_visited": count(("topk",), "leaves_visited"),
        "threshold.leaves_visited": count(("threshold",), "leaves_visited"),
        "net.route_us": p("net.route", 0.5, 1e-3),
        "net.parse_us": p("net.parse", 0.5, 1e-3),
        "net.serialize_us": p("net.serialize", 0.5, 1e-3),
        "net.serialize_us_p99": p("net.serialize", 0.99, 1e-3),
        "service.submit_us": p("service.submit", 0.5, 1e-3),
        "core.eval_ms": total_s("core.eval") * 1e3,
        "core.eval_ms_p50": p("core.eval", 0.5, 1e-6),
        "live.route_us": p("live.route", 0.5, 1e-3),
        "columnar.encode_ms": p("columnar.encode", 0.5, 1e-6),
    }
    for m in KINDS:
        v[m + ".s"] = total_s(m)
        v[m + ".tuples"] = count((m,), "tuples")
    for m in METHODS:
        v[m + ".rewrite_s"] = total_s(m + ".rewrite")
        v[m + ".aggregate_s"] = total_s(m + ".aggregate")
        v[m + ".eval_s"] = total_s(m + ".eval")
        v[m + ".source_queries"] = count((m,), "source_queries")
        v[m + ".partitions"] = count((m,), "partitions")
    for name, key in STORAGE.items():
        v[name] = counters.get(name, count(KINDS, key))
    replays = by_name.get("replay", ())
    if replays:
        v["net.response_bytes"] = (sum(s["counts"]["bytes"] for s in replays)
                                   / len(replays))
        v["net.transport_us"] = (p("http.query", 0.5, 1e-3) - v["net.parse_us"]
                                 - v["service.submit_us"]
                                 - v["net.serialize_us"])
    for name, _ in PER_LAYER:
        if name not in v:
            v[name] = counters.get(name, 0.0)
    traced_rps = meta.get("metrics", {}).get("throughput_rps")
    if untraced_rps and traced_rps:
        v["trace.overhead_pct"] = (untraced_rps - traced_rps) / untraced_rps * 100
    return {name: (float(v[name]), unit) for name, unit in PER_LAYER}


def self_time_table(path):
    """(name, count, total ms, self ms) per span name, by self time."""
    _, spans, _ = load(path)
    own = self_times(spans)
    rows = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        row = rows[s["name"]]
        row[0] += 1
        row[1] += s["t1"] - s["t0"]
        row[2] += own[s["id"]]
    return sorted(((n, c, t * 1e-6, o * 1e-6) for n, (c, t, o) in rows.items()),
                  key=lambda r: -r[3])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace")
    args = parser.parse_args()
    sys.stderr.write("%-28s %8s %14s %14s\n" % ("span", "count", "total_ms",
                                                  "self_ms"))
    for name, n, total, own in self_time_table(args.trace):
        sys.stderr.write("%-28s %8d %14.3f %14.3f\n" % (name, n, total, own))
    metrics = per_layer_metrics(args.trace)
    print(json.dumps({name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}, indent=1))


if __name__ == "__main__":
    main()
