/// \file bench_sharded_mappings.cc
/// Sharded mapping sets: the h ≫ 10³ scaling experiment the paper's
/// setup stops short of (its |M| sweeps end at h ≈ 10³ because every
/// method walks the whole mapping set in one pass). A synthetic
/// mapping set scales h to 10⁴ (10⁵ with URM_BENCH_SHARD_MAX_H=100000)
/// over the matcher's real correspondence graph, and each h point is
/// evaluated with the mapping set split into S ∈ {1, 2, 4, 8}
/// contiguous probability-renormalized shards running concurrently on
/// a thread pool (Engine::EvalOptions::mapping_shards).
///
/// Shard speedups need real cores; the JSONL records `hw_threads` so a
/// 1-core CI container's flat numbers are not mistaken for a
/// regression. Every S > 1 point is checked against the unsharded
/// answers (ApproxEquals 1e-9) before it is reported.
///
/// Knobs: URM_BENCH_MB, URM_BENCH_RUNS (bench_util.h),
/// URM_BENCH_THREADS (pool size, default 4), URM_BENCH_SHARD_MAX_H
/// (sweep ceiling, default 10000).

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/workload.h"

namespace {

using namespace urm;  // NOLINT

/// Synthesizes `h` one-to-one partial mappings over the matcher's
/// correspondence graph: each mapping picks, per target attribute, one
/// of the candidate source attributes (or skips it), with a random
/// score/weight. Deterministic in (correspondences, h, seed). Murty
/// enumeration reaches h = 10⁴ on each schema (0.5–1.2 s on a 4-thread
/// x86 host), but its queue of open cells grows with h; the synthetic
/// set preserves the structure that matters here — overlapping partial
/// mappings over real attributes — while making h a free variable up
/// to 10⁵.
std::vector<mapping::Mapping> SynthesizeMappings(
    const std::vector<matching::Correspondence>& correspondences, size_t h,
    uint64_t seed) {
  // Candidate source attrs per target attr, in correspondence order.
  std::map<std::string, std::vector<const matching::Correspondence*>>
      by_target;
  for (const auto& c : correspondences) {
    by_target[c.target_attr].push_back(&c);
  }

  std::vector<mapping::Mapping> out;
  out.reserve(h);
  Rng rng(seed);
  for (size_t i = 0; i < h; ++i) {
    mapping::Mapping m;
    for (const auto& [target, candidates] : by_target) {
      if (rng.NextDouble() < 0.15) continue;  // leave the attr unmapped
      const auto* pick = candidates[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(candidates.size()) - 1))];
      // Add enforces one-to-one; a source-side conflict just skips.
      (void)m.Add(pick->target_attr, pick->source_attr);
    }
    if (m.empty()) {
      const auto& first = *by_target.begin()->second.front();
      (void)m.Add(first.target_attr, first.source_attr);
    }
    double weight = 0.5 + rng.NextDouble();
    m.set_score(weight);
    m.set_probability(weight);
    out.push_back(std::move(m));
  }
  // TakeTopMappings assumes score order; probabilities renormalize per
  // UseTopMappings(h) sweep point.
  std::sort(out.begin(), out.end(),
            [](const mapping::Mapping& a, const mapping::Mapping& b) {
              return a.score() > b.score();
            });
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader("sharded mapping sets: h sweep x shard count",
                     "extension of Fig. 10(c)/11(c) beyond h=10^3 "
                     "(ROADMAP: sharded mapping sets)");

  const double mb = bench::BenchMb();
  const int runs = bench::BenchRuns();
  const int threads = bench::EnvInt("URM_BENCH_THREADS", 4);
  const int max_h = bench::EnvInt("URM_BENCH_SHARD_MAX_H", 10000);
  const size_t hw_threads = std::thread::hardware_concurrency();

  // Real catalog + correspondence graph from the standard Excel setup;
  // the mapping set itself is synthesized to scale h freely.
  core::Engine::Options base_options;
  base_options.target_mb = mb;
  base_options.num_mappings = 8;  // base engine's own set is unused
  base_options.target_schema = datagen::TargetSchemaId::kExcel;
  auto base = core::Engine::Create(base_options);
  URM_CHECK(base.ok()) << base.status().ToString();
  const core::Engine& base_engine = *base.ValueOrDie();

  auto synthetic = SynthesizeMappings(base_engine.correspondences(),
                                      static_cast<size_t>(max_h),
                                      /*seed=*/20260730);
  auto engine = core::Engine::FromParts(
      base_engine.catalog(), base_engine.source_schema(),
      base_engine.target_schema(), std::move(synthetic), base_options);

  ThreadPool pool(threads);
  auto q = core::QueryById("Q4");

  std::printf("\n%-10s %-8s %-7s %10s %10s %9s\n", "method", "h", "shards",
              "mean ms", "speedup", "answers");
  for (core::Method method : {core::Method::kQSharing,
                              core::Method::kOSharing}) {
    for (int h : {100, 1000, 10000, 100000}) {
      if (h > max_h) break;
      engine->UseTopMappings(static_cast<size_t>(h));
      auto request = core::Request::MethodEval(q.query, method);
      const reformulation::AnswerSet* reference = nullptr;
      std::shared_ptr<core::Response> reference_response;
      double base_seconds = 0.0;
      for (int shards : {1, 2, 4, 8}) {
        core::Engine::EvalOptions eval;
        eval.pool = &pool;
        eval.mapping_shards = shards;
        double total = 0.0;
        Result<core::Response> last = Status::Internal("unrun");
        for (int r = 0; r < runs; ++r) {
          Timer timer;
          last = engine->Run(request, eval);
          total += timer.Seconds();
          URM_CHECK(last.ok()) << last.status().ToString();
        }
        double mean = total / runs;
        if (shards == 1) {
          base_seconds = mean;
          reference_response = std::make_shared<core::Response>(
              std::move(last).ValueOrDie());
          reference = &reference_response->evaluate.answers;
        }
        const reformulation::AnswerSet& answers =
            shards == 1 ? *reference : last.ValueOrDie().evaluate.answers;
        if (shards != 1) {
          // The merged sharded answers must match the single-pass ones.
          URM_CHECK(answers.ApproxEquals(*reference, 1e-9))
              << "sharded answers diverged at h=" << h
              << " shards=" << shards;
        }
        double speedup = mean > 0.0 ? base_seconds / mean : 0.0;
        std::printf("%-10s %-8d %-7d %10.2f %10.2f %9zu\n",
                    core::MethodName(method), h, shards, mean * 1e3,
                    speedup, answers.size());
        bench::JsonLine("sharded_mappings")
            .Field("config", "h_sweep")
            .Field("method", core::MethodName(method))
            .Field("h", h)
            .Field("shards", shards)
            .Field("seconds", mean)
            .Field("speedup_vs_unsharded", speedup)
            .Field("answers", answers.size())
            // Work accounting: sharding duplicates the partition
            // collapse per shard (Σ per-shard representatives >= the
            // whole-set count), so the wall-clock win needs real cores
            // and an h that keeps shards below signature saturation.
            .Field("partitions", shards == 1
                                     ? reference_response->evaluate.partitions
                                     : last.ValueOrDie().evaluate.partitions)
            .Field("source_queries",
                   shards == 1
                       ? reference_response->evaluate.source_queries
                       : last.ValueOrDie().evaluate.source_queries)
            .Field("pool_threads", threads)
            .Field("hw_threads", hw_threads)
            .Emit();
      }
    }
  }
  return 0;
}
