#pragma once

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/engine.h"
#include "osharing/engine.h"
#include "qsharing/qsharing.h"
#include "relational/catalog.h"

/// \file stopping_oracle.h
/// What the top-k and threshold stopping-rule oracles share: seeded
/// mapping sets with tied probabilities, over the paper's schemas and
/// over small random instances, and the u-trace RunTopK / RunThreshold
/// scan (o-sharing, partitions visited by probability), driven with a
/// test-local visitor in their sink's place.

namespace urm {
namespace testing {

/// The engine (|D| = 0.05 MB, h = 40) whose catalog and mappings the
/// oracles use for `schema`'s queries, built once per test binary.
inline const core::Engine& OracleEngine(datagen::TargetSchemaId schema) {
  static std::map<datagen::TargetSchemaId, std::unique_ptr<core::Engine>>
      engines;
  std::unique_ptr<core::Engine>& engine = engines[schema];
  if (engine == nullptr) {
    core::Engine::Options options;
    options.target_mb = 0.05;
    options.num_mappings = 40;
    options.target_schema = schema;
    auto created = core::Engine::Create(options);
    URM_CHECK(created.ok()) << created.status().ToString();
    engine = std::move(created).ValueOrDie();
  }
  return *engine;
}

/// A random subset of `mappings` (never empty) with probabilities drawn
/// from three levels and normalized, so that mappings and partitions tie.
inline std::vector<mapping::Mapping> TiedMappings(
    const std::vector<mapping::Mapping>& mappings, Rng* rng) {
  std::vector<mapping::Mapping> out;
  std::vector<double> weights;
  double total = 0.0;
  for (const mapping::Mapping& m : mappings) {
    if (rng->Bernoulli(0.3)) continue;
    out.push_back(m);
    weights.push_back(static_cast<double>(1 << rng->Uniform(0, 2)));
    total += weights.back();
  }
  if (out.empty()) {
    out.push_back(mappings.front());
    weights.push_back(1.0);
    total = 1.0;
  }
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].set_probability(weights[i] / total);
  }
  return out;
}

/// A random instance: one source table `s` of 10-60 rows over columns
/// x0-x5 holding integers 0-9 (some as doubles, so `2` and `2.0` meet),
/// a target table T(a, b), and 4-30 mappings with tied probabilities,
/// each sending a and (mostly) b to distinct x columns. The query
/// projects a, or a and b, optionally under `b < c`: each mapping
/// partition reads other columns, so tuples gather uneven masses over
/// up to 30 leaves.
struct RandomExample {
  relational::Catalog catalog;
  matching::SchemaDef target_schema;
  std::vector<mapping::Mapping> mappings;
  algebra::PlanPtr query;
};

inline RandomExample MakeRandomExample(Rng* rng) {
  RandomExample ex;
  relational::RelationSchema schema;
  for (int c = 0; c < 6; ++c) {
    URM_CHECK_OK(schema.AddColumn(relational::ColumnDef{
        "s.x" + std::to_string(c), relational::ValueType::kInt64}));
  }
  relational::Relation s(schema);
  for (int64_t r = rng->Uniform(10, 60); r > 0; --r) {
    relational::Row row;
    for (int c = 0; c < 6; ++c) {
      const int64_t v = rng->Uniform(0, 9);
      if (rng->Bernoulli(0.1)) {
        row.emplace_back(static_cast<double>(v));
      } else {
        row.emplace_back(v);
      }
    }
    URM_CHECK_OK(s.AddRow(std::move(row)));
  }
  URM_CHECK_OK(ex.catalog.Register(
      "s", std::make_shared<const relational::Relation>(std::move(s))));
  ex.target_schema = matching::SchemaDef("Target", {{"T", {"a", "b"}}});
  std::vector<double> weights;
  double total = 0.0;
  for (int64_t m = rng->Uniform(4, 30); m > 0; --m) {
    mapping::Mapping mapping;
    const int64_t a = rng->Uniform(0, 5);
    const int64_t b = (a + rng->Uniform(1, 5)) % 6;
    URM_CHECK_OK(mapping.Add("T.a", "s.x" + std::to_string(a)));
    if (!rng->Bernoulli(0.1)) {
      URM_CHECK_OK(mapping.Add("T.b", "s.x" + std::to_string(b)));
    }
    ex.mappings.push_back(std::move(mapping));
    weights.push_back(static_cast<double>(1 << rng->Uniform(0, 2)));
    total += weights.back();
  }
  for (size_t i = 0; i < ex.mappings.size(); ++i) {
    ex.mappings[i].set_probability(weights[i] / total);
  }
  ex.query = algebra::MakeScan("T", "t");
  if (rng->Bernoulli(0.5)) {
    ex.query = algebra::MakeSelect(
        ex.query, algebra::Predicate::AttrCmpValue(
                      "t.b", algebra::CmpOp::kLt,
                      relational::Value(rng->Uniform(2, 8))));
  }
  ex.query = rng->Bernoulli(0.5)
                 ? algebra::MakeProject(ex.query, {"t.a"})
                 : algebra::MakeProject(ex.query, {"t.a", "t.b"});
  return ex;
}

/// The partition representatives top-k and threshold scan, the mass no
/// partition answers, and the total mass, summed as they sum it.
struct UTrace {
  std::vector<baselines::WeightedMapping> reps;
  double unanswerable = 0.0;
  double total = 0.0;
};

inline UTrace BuildUTrace(const reformulation::TargetQueryInfo& info,
                          const std::vector<mapping::Mapping>& mappings) {
  auto tree = qsharing::PartitionTree::Build(info, mappings);
  URM_CHECK(tree.ok()) << tree.status().ToString();
  UTrace trace;
  trace.reps = qsharing::Represent(tree.ValueOrDie(), &trace.unanswerable);
  trace.total = trace.unanswerable;
  for (const auto& r : trace.reps) trace.total += r.probability;
  return trace;
}

/// Feeds `visitor` the leaves of `trace` as top-k and threshold visit
/// them, until it returns false; the leaves visited.
inline size_t Traverse(const reformulation::TargetQueryInfo& info,
                       const relational::Catalog& catalog,
                       const UTrace& trace, osharing::LeafVisitor* visitor) {
  osharing::OSharingOptions options;
  options.visit_partitions_by_probability = true;
  osharing::OSharingEngine engine(info, catalog, options);
  URM_CHECK_OK(engine.Init());
  URM_CHECK_OK(engine.Run(trace.reps, visitor));
  return engine.leaves_visited();
}

/// Whether `a` and `b` hold the same values: types, texts and, for
/// doubles, signs (so -0.0 differs from 0.0).
inline bool SameRow(const relational::Row& a, const relational::Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || a[i].ToString() != b[i].ToString()) {
      return false;
    }
    if (a[i].type() == relational::ValueType::kDouble &&
        std::signbit(a[i].AsDouble()) != std::signbit(b[i].AsDouble())) {
      return false;
    }
  }
  return true;
}

/// Whether two doubles have the same bits.
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace testing
}  // namespace urm
