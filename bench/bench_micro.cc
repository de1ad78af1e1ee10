/// \file bench_micro.cc
/// google-benchmark microbenchmarks for the substrate hot paths:
/// partition-tree construction (the cost q-sharing adds over e-basic's
/// rewrite), mapping signatures, string similarity, the Hungarian
/// solver, and Murty enumeration. Not a paper figure — used to validate
/// that the shared data structures are not the bottleneck.

#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "core/workload.h"
#include "mapping/hungarian.h"
#include "mapping/murty.h"
#include "matching/similarity.h"
#include "qsharing/partition_tree.h"

namespace {

using namespace urm;  // NOLINT

core::Engine* SharedEngine() {
  static std::unique_ptr<core::Engine> engine = [] {
    core::Engine::Options options;
    options.target_mb = 0.2;
    options.num_mappings = 200;
    auto e = core::Engine::Create(options);
    URM_CHECK(e.ok());
    return std::move(e).ValueOrDie();
  }();
  return engine.get();
}

void BM_PartitionTreeBuild(benchmark::State& state) {
  core::Engine* engine = SharedEngine();
  engine->UseTopMappings(static_cast<size_t>(state.range(0)));
  auto info = engine->Analyze(core::DefaultQuery().query).ValueOrDie();
  for (auto _ : state) {
    auto tree = qsharing::PartitionTree::Build(info, engine->mappings());
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_PartitionTreeBuild)->Arg(50)->Arg(100)->Arg(200);

void BM_MappingSignature(benchmark::State& state) {
  core::Engine* engine = SharedEngine();
  auto info = engine->Analyze(core::DefaultQuery().query).ValueOrDie();
  const auto& m = engine->mappings().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reformulation::MappingSignature(info, m));
  }
}
BENCHMARK(BM_MappingSignature);

void BM_StringSimilarity(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::CompositeStringSimilarity(
        "deliverToStreet", "l_shipaddress"));
  }
}
BENCHMARK(BM_StringSimilarity);

void BM_Hungarian(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(5);
  mapping::CostMatrix cost(n, n, 0.0);
  for (auto& c : cost.cells) c = rng.NextDouble();
  mapping::AssignmentWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapping::SolveAssignment(cost, &workspace));
  }
}
BENCHMARK(BM_Hungarian)->Arg(16)->Arg(64);

void BM_MurtyKBest(benchmark::State& state) {
  Rng rng(7);
  std::vector<mapping::WeightedEdge> edges;
  for (int r = 0; r < 12; ++r) {
    for (int c = 0; c < 12; ++c) {
      if (rng.Bernoulli(0.4)) {
        edges.push_back(
            mapping::WeightedEdge{r, c, 0.1 + rng.NextDouble()});
      }
    }
  }
  for (auto _ : state) {
    auto sols = mapping::KBestMatchings(
        12, 12, edges, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(sols);
  }
}
BENCHMARK(BM_MurtyKBest)->Arg(10)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
