/// urm_perfbench: runs one benchmark workload and prints its result.
///
///   urm_perfbench --workload paper_suite|serve_hot|serve_live
///                 --seed N --seconds S [--trace-out FILE]
///                 [--git-sha SHA] [--plan-only]
///
/// Prints `meta {...}` (run metadata and request-sequence digests), then
/// as the last line one JSON object with `correct`, `attempted`,
/// `failed` and the end-to-end `metrics`. With --trace-out the run also
/// records spans and writes them to FILE (perfbench/trace_reader.py
/// turns them into per-layer metrics). Exits non-zero when any output
/// check fails.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "stack.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;

int Usage() {
  std::fprintf(stderr,
               "usage: urm_perfbench --workload paper_suite|serve_hot|"
               "serve_live --seed N --seconds S [--trace-out FILE] "
               "[--git-sha SHA] [--plan-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::NowNs();  // clock origin: process start
  RunOptions options;
  std::string trace_out;
  std::string git_sha = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else if (arg == "--plan-only") {
      options.plan_only = true;
    } else {
      return Usage();
    }
  }
  if (!have_seed || options.seconds < 1) {
    return Usage();
  }

  void (*run)(const RunOptions&, perfbench::Tracer*, perfbench::RunResult*) =
      nullptr;
  if (options.workload == "paper_suite") {
    run = perfbench::RunPaperSuite;
  } else if (options.workload == "serve_hot") {
    run = perfbench::RunServeHot;
  } else if (options.workload == "serve_live") {
    run = perfbench::RunServeLive;
  } else {
    return Usage();
  }

  perfbench::Tracer tracer(!trace_out.empty());
  perfbench::RunResult result;
  using urm::json::Value;
  result.meta.Set("workload", Value::Str(options.workload));
  result.meta.Set("seed", Value::Int(static_cast<int64_t>(options.seed)));
  result.meta.Set("seconds", Value::Int(options.seconds));
  result.meta.Set("hw_threads", Value::Int(static_cast<int64_t>(
                                    std::thread::hardware_concurrency())));
  result.meta.Set("build_type", Value::Str(PERFBENCH_BUILD_TYPE));
  result.meta.Set("git_sha", Value::Str(git_sha));
  result.meta.Set("data_mb", Value::Number(perfbench::kDataMb));
  result.meta.Set("h", Value::Int(perfbench::kMappings));
  result.meta.Set("data_seed",
                  Value::Int(static_cast<int64_t>(perfbench::kDataSeed)));
  result.meta.Set("rounds", Value::Int(perfbench::kRounds));
  result.meta.Set("traced", Value::Bool(tracer.enabled()));

  run(options, &tracer, &result);
  if (!result.raw_metrics.empty()) {
    Value raw = Value::Object();
    for (const auto& [name, value] : result.raw_metrics) {
      raw.Set(name, Value::Number(value));
    }
    result.meta.Set("raw_metrics", std::move(raw));
  }
  result.meta.Set("wall_s", Value::Number(perfbench::NowNs() * 1e-9));
  std::printf("meta %s\n", result.meta.Serialize().c_str());
  if (options.plan_only) return 0;

  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  if (tracer.enabled()) {
    Value meta = result.meta;
    Value metrics = Value::Object();
    for (const auto& [name, value] : result.metrics) {
      metrics.Set(name, Value::Number(value.first));
    }
    meta.Set("metrics", std::move(metrics));
    urm::Status written = tracer.Write(trace_out, meta);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }

  Value metrics = Value::Object();
  for (const auto& [name, value] : result.metrics) {
    Value metric = Value::Object();
    metric.Set("value", Value::Number(value.first));
    metric.Set("unit", Value::Str(value.second));
    metrics.Set(name, std::move(metric));
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  Value line = Value::Object();
  line.Set("correct", Value::Bool(correct));
  line.Set("attempted", Value::Int(result.attempted));
  line.Set("failed", Value::Int(result.failed));
  line.Set("metrics", std::move(metrics));
  std::printf("%s\n", line.Serialize().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
