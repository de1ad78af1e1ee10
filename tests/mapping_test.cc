#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>

#include "core/engine.h"
#include "datagen/target_schemas.h"
#include "datagen/tpch.h"
#include "mapping/generator.h"
#include "mapping/hungarian.h"
#include "mapping/mapping.h"
#include "mapping/murty.h"
#include "matching/matcher.h"

namespace urm {
namespace mapping {
namespace {

TEST(MappingTest, AddAndLookup) {
  Mapping m;
  ASSERT_TRUE(m.Add("T.a", "s.x").ok());
  ASSERT_TRUE(m.Add("T.b", "s.y").ok());
  EXPECT_EQ(m.SourceFor("T.a"), std::optional<std::string>("s.x"));
  EXPECT_EQ(m.SourceFor("T.z"), std::nullopt);
  EXPECT_EQ(m.size(), 2u);
}

TEST(MappingTest, OneToOneEnforced) {
  Mapping m;
  ASSERT_TRUE(m.Add("T.a", "s.x").ok());
  EXPECT_EQ(m.Add("T.a", "s.y").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(m.Add("T.b", "s.x").code(), StatusCode::kAlreadyExists);
}

TEST(MappingTest, IntersectionAndOverlap) {
  Mapping a, b;
  ASSERT_TRUE(a.Add("T.a", "s.x").ok());
  ASSERT_TRUE(a.Add("T.b", "s.y").ok());
  ASSERT_TRUE(b.Add("T.a", "s.x").ok());
  ASSERT_TRUE(b.Add("T.b", "s.z").ok());
  EXPECT_EQ(a.IntersectionSize(b), 1u);
  // |∩| = 1, |∪| = 3.
  EXPECT_NEAR(OverlapRatio(a, b), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(OverlapRatio(a, a), 1.0);
}

TEST(MappingTest, EmptyMappingsOverlapFully) {
  Mapping a, b;
  EXPECT_DOUBLE_EQ(OverlapRatio(a, b), 1.0);
}

TEST(MappingTest, SetOverlapAveragesPairs) {
  Mapping a, b, c;
  ASSERT_TRUE(a.Add("T.a", "s.x").ok());
  ASSERT_TRUE(b.Add("T.a", "s.x").ok());
  ASSERT_TRUE(c.Add("T.a", "s.y").ok());
  // pairs: (a,b)=1, (a,c)=0, (b,c)=0 -> 1/3.
  EXPECT_NEAR(MappingSetOverlapRatio({a, b, c}), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(MappingSetOverlapRatio({a}), 1.0);
}

TEST(HungarianTest, SolvesSmallKnownProblem) {
  // Classic 3x3; optimal assignment cost = 5 (1+3+1? verify: rows pick
  // (0,1)=1, (1,0)=2, (2,2)=2 -> 5).
  CostMatrix cost(3, 3, 0.0);
  cost.cells = {4, 1, 3, 2, 0, 5, 3, 2, 2};
  AssignmentWorkspace workspace;
  auto result = SolveAssignment(cost, &workspace);
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.cost, 5.0);
  // Assignment is a permutation.
  std::set<int> cols(result.row_to_col.begin(), result.row_to_col.end());
  EXPECT_EQ(cols.size(), 3u);
}

TEST(HungarianTest, EmptyMatrix) {
  AssignmentWorkspace workspace;
  auto result = SolveAssignment(CostMatrix(), &workspace);
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.cost, 0.0);
}

TEST(HungarianTest, ForbiddenEdgesMakeInfeasible) {
  CostMatrix cost(2, 2, kForbiddenCost);
  cost.at(0, 0) = 1.0;
  AssignmentWorkspace workspace;
  EXPECT_FALSE(SolveAssignment(cost, &workspace).feasible);
}

TEST(HungarianTest, FewerRowsThanColumns) {
  // Both rows are cheapest in column 1. The optimum, 3, gives it to
  // row 1 and column 2 to row 0; the other way round costs 1 + 5 = 6.
  CostMatrix cost(2, 4, 0.0);
  cost.cells = {6, 1, 3, 9,
                8, 0, 7, 5};
  AssignmentWorkspace workspace;
  auto result = SolveAssignment(cost, &workspace);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.row_to_col, (std::vector<int>{2, 1}));
  EXPECT_DOUBLE_EQ(result.cost, 3.0);
  // The workspace serves a second solve of another shape.
  CostMatrix other(1, 3, 2.0);
  auto again = SolveAssignment(other, &workspace);
  ASSERT_TRUE(again.feasible);
  // Equal costs: the first column in index order wins.
  EXPECT_EQ(again.row_to_col, (std::vector<int>{0}));
  EXPECT_DOUBLE_EQ(again.cost, 2.0);
}

TEST(HungarianTest, RowWithNoFiniteColumnIsInfeasible) {
  CostMatrix cost(2, 3, 1.0);
  for (int j = 0; j < 3; ++j) cost.at(1, j) = kForbiddenCost;
  AssignmentWorkspace workspace;
  EXPECT_FALSE(SolveAssignment(cost, &workspace).feasible);
  // Both rows reach only column 0: the second cannot get one of its own.
  CostMatrix shared(2, 3, kForbiddenCost);
  shared.at(0, 0) = 1.0;
  shared.at(1, 0) = 2.0;
  EXPECT_FALSE(SolveAssignment(shared, &workspace).feasible);
}

TEST(HungarianTest, LargeFiniteCostsStayUsable) {
  CostMatrix cost(2, 3, kForbiddenCost);
  cost.at(0, 0) = 1e12;
  cost.at(0, 2) = 3e12;
  cost.at(1, 0) = 1e15;
  cost.at(1, 1) = 4e15;
  AssignmentWorkspace workspace;
  auto result = SolveAssignment(cost, &workspace);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.row_to_col, (std::vector<int>{2, 0}));
  EXPECT_DOUBLE_EQ(result.cost, 1.003e15);
}

TEST(MurtyTest, EnumeratesInWeightOrder) {
  // rows {0,1}, cols {0,1}: weights favor (0,0)+(1,1).
  std::vector<WeightedEdge> edges = {
      {0, 0, 5.0}, {0, 1, 3.0}, {1, 0, 2.0}, {1, 1, 4.0}};
  auto result = KBestMatchings(2, 2, edges, 10);
  ASSERT_TRUE(result.ok());
  const auto& sols = result.ValueOrDie();
  ASSERT_GE(sols.size(), 3u);
  EXPECT_DOUBLE_EQ(sols[0].weight, 9.0);  // (0,0)+(1,1)
  for (size_t i = 1; i < sols.size(); ++i) {
    EXPECT_LE(sols[i].weight, sols[i - 1].weight + 1e-12);
  }
}

TEST(MurtyTest, NoDuplicateSolutions) {
  std::vector<WeightedEdge> edges = {
      {0, 0, 5.0}, {0, 1, 3.0}, {1, 0, 2.0}, {1, 1, 4.0}, {2, 1, 1.0}};
  auto result = KBestMatchings(3, 2, edges, 50);
  ASSERT_TRUE(result.ok());
  std::set<std::vector<std::pair<int, int>>> seen;
  for (const auto& sol : result.ValueOrDie()) {
    EXPECT_TRUE(seen.insert(sol.edges).second)
        << "duplicate matching enumerated";
  }
}

TEST(MurtyTest, PartialMatchingsIncluded) {
  // A single conflicting column: second-best leaves one row unmatched.
  std::vector<WeightedEdge> edges = {{0, 0, 5.0}, {1, 0, 4.0}};
  auto result = KBestMatchings(2, 1, edges, 10);
  ASSERT_TRUE(result.ok());
  const auto& sols = result.ValueOrDie();
  // {(0,0)}, {(1,0)}, {} — all valid partial matchings.
  ASSERT_EQ(sols.size(), 3u);
  EXPECT_DOUBLE_EQ(sols[0].weight, 5.0);
  EXPECT_DOUBLE_EQ(sols[1].weight, 4.0);
  EXPECT_DOUBLE_EQ(sols[2].weight, 0.0);
}

TEST(MurtyTest, RejectsBadInput) {
  EXPECT_FALSE(KBestMatchings(1, 1, {{0, 0, -1.0}}, 5).ok());
  EXPECT_FALSE(KBestMatchings(1, 1, {{0, 5, 1.0}}, 5).ok());
  EXPECT_FALSE(KBestMatchings(1, 1, {{0, 0, 1.0}}, 0).ok());
}

TEST(MurtyTest, RejectsNonFiniteWeights) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (double w : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    auto result = KBestMatchings(2, 2, {{0, 0, 1.0}, {1, 1, w}}, 5);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << w;
  }
  // Finite, but a cell's cost (four entries near 1e308) would not be.
  auto huge = KBestMatchings(2, 2, {{0, 0, 1e308}}, 5);
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
}

TEST(MurtyTest, LargeWeightsEnumerateEveryMatching) {
  // Skip cells cost W = max weight + 1; no weight size may make them
  // read as forbidden.
  for (double top : {1e9, 1e12}) {
    auto result = KBestMatchings(
        2, 2, {{0, 0, top}, {1, 1, top / 2}, {0, 1, top / 4}}, 10);
    ASSERT_TRUE(result.ok());
    const auto& sols = result.ValueOrDie();
    // {(0,0),(1,1)}, {(0,0)}, {(1,1)}, {(0,1)}, {}.
    ASSERT_EQ(sols.size(), 5u) << top;
    const double expected[] = {1.5 * top, top, top / 2, top / 4, 0.0};
    for (size_t i = 0; i < sols.size(); ++i) {
      EXPECT_DOUBLE_EQ(sols[i].weight, expected[i]) << top << " rank " << i;
    }
  }
}

std::vector<matching::Correspondence> SampleCorrespondences() {
  return {
      {"customer.c_phone", "PO.telephone", 0.85},
      {"supplier.s_phone", "PO.telephone", 0.80},
      {"orders.o_orderkey", "PO.orderNum", 0.85},
      {"lineitem.l_orderkey", "PO.orderNum", 0.78},
      {"customer.c_name", "PO.invoiceTo", 0.66},
      {"orders.o_clerk", "PO.invoiceTo", 0.60},
  };
}

TEST(GeneratorTest, ProbabilitiesNormalized) {
  MappingGenOptions options;
  options.h = 8;
  auto mappings = GenerateMappings(SampleCorrespondences(), options);
  ASSERT_TRUE(mappings.ok());
  const auto& ms = mappings.ValueOrDie();
  ASSERT_GE(ms.size(), 4u);
  EXPECT_NEAR(TotalProbability(ms), 1.0, 1e-9);
  // Sorted by score descending; best maps all three target attrs.
  EXPECT_EQ(ms[0].size(), 3u);
  for (size_t i = 1; i < ms.size(); ++i) {
    EXPECT_LE(ms[i].score(), ms[i - 1].score() + 1e-12);
  }
}

TEST(GeneratorTest, MappingsAreDistinct) {
  MappingGenOptions options;
  options.h = 20;
  auto mappings = GenerateMappings(SampleCorrespondences(), options);
  ASSERT_TRUE(mappings.ok());
  const auto& ms = mappings.ValueOrDie();
  for (size_t i = 0; i < ms.size(); ++i) {
    for (size_t j = i + 1; j < ms.size(); ++j) {
      EXPECT_FALSE(ms[i].SamePairs(ms[j]));
    }
  }
}

TEST(GeneratorTest, BestMappingUsesHighestScores) {
  MappingGenOptions options;
  options.h = 1;
  auto mappings = GenerateMappings(SampleCorrespondences(), options);
  ASSERT_TRUE(mappings.ok());
  const Mapping& best = mappings.ValueOrDie()[0];
  EXPECT_EQ(best.SourceFor("PO.telephone"),
            std::optional<std::string>("customer.c_phone"));
  EXPECT_EQ(best.SourceFor("PO.orderNum"),
            std::optional<std::string>("orders.o_orderkey"));
}

TEST(GeneratorTest, TakeTopMappingsRenormalizes) {
  MappingGenOptions options;
  options.h = 8;
  auto mappings = GenerateMappings(SampleCorrespondences(), options);
  ASSERT_TRUE(mappings.ok());
  auto top = TakeTopMappings(mappings.ValueOrDie(), 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_NEAR(TotalProbability(top), 1.0, 1e-9);
}

TEST(GeneratorTest, HighOverlapForSimilarScores) {
  // The paper observes 68-79% overlap between possible mappings. With
  // near-tied candidate scores, consecutive k-best matchings flip one
  // correspondence at a time, so overlap must be high.
  MappingGenOptions options;
  options.h = 10;
  auto mappings = GenerateMappings(SampleCorrespondences(), options);
  ASSERT_TRUE(mappings.ok());
  EXPECT_GT(MappingSetOverlapRatio(mappings.ValueOrDie()), 0.25);
}

/// FNV-1a over a mapping set: each mapping's correspondences in order,
/// then its score bits and probability bits.
uint64_t MappingDigest(const std::vector<Mapping>& mappings) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto byte = [&h](unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  auto number = [&byte](uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  auto text = [&](const std::string& s) {
    number(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  };
  auto bits = [&number](double d) {
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    number(b);
  };
  number(mappings.size());
  for (const Mapping& m : mappings) {
    number(m.size());
    for (const auto& [target, source] : m.pairs()) {
      text(target);
      text(source);
    }
    bits(m.score());
    bits(m.probability());
  }
  return h;
}

/// The correspondences Engine::Create derives for one paper schema.
std::vector<matching::Correspondence> PaperCorrespondences(
    datagen::TargetSchemaId schema) {
  datagen::TargetSchemaBundle bundle = datagen::GetTargetSchema(schema);
  matching::MatcherOptions options;
  options.threshold = core::Engine::Options().matcher_threshold;
  matching::NameMatcher matcher(matching::SynonymDictionary::Default(),
                                options);
  return matcher.Match(datagen::TpchSchema(), bundle.schema, bundle.seeds);
}

/// The Excel, Noris and Paragon mapping sets at the h the engine uses
/// (100) and the Fig. 10(c) / 11(c) benches reach (300), pinned when
/// the order among equal-weight matchings was last known good. A change
/// to the matcher or to the k-best enumeration that means to keep the
/// mappings must leave every digest as it is.
TEST(GeneratorTest, PaperSchemaMappingsArePinned) {
  struct Pinned {
    datagen::TargetSchemaId schema;
    int h;
    size_t count;
    uint64_t digest;
  };
  const Pinned kPinned[] = {
      {datagen::TargetSchemaId::kExcel, 100, 100, 0x4e8819a8e286057bULL},
      {datagen::TargetSchemaId::kExcel, 300, 300, 0xf575a7ad635da26bULL},
      {datagen::TargetSchemaId::kNoris, 100, 100, 0x57696d80c562e7f8ULL},
      {datagen::TargetSchemaId::kNoris, 300, 300, 0xdc354f4fae6b0160ULL},
      {datagen::TargetSchemaId::kParagon, 100, 100, 0xa3e5a03f6556c4f2ULL},
      {datagen::TargetSchemaId::kParagon, 300, 300, 0x7380d10544f17c54ULL},
  };
  for (const Pinned& pinned : kPinned) {
    MappingGenOptions options;
    options.h = pinned.h;
    auto mappings =
        GenerateMappings(PaperCorrespondences(pinned.schema), options);
    ASSERT_TRUE(mappings.ok()) << mappings.status().ToString();
    const auto& ms = mappings.ValueOrDie();
    char line[128];
    std::snprintf(line, sizeof(line), "{%s, %d, %zu, 0x%016" PRIx64 "ULL}",
                  datagen::TargetSchemaName(pinned.schema), pinned.h,
                  ms.size(), MappingDigest(ms));
    EXPECT_EQ(ms.size(), pinned.count) << line;
    EXPECT_EQ(MappingDigest(ms), pinned.digest) << line;
  }
}

TEST(MappingSetHashTest, SensitiveToPairsAndProbabilities) {
  auto make_set = [](double p1, const std::string& src) {
    Mapping a;
    EXPECT_TRUE(a.Add("Person.name", "customer.c_name").ok());
    EXPECT_TRUE(a.Add("Person.phone", src).ok());
    a.set_probability(p1);
    Mapping b;
    EXPECT_TRUE(b.Add("Person.name", "customer.c_name").ok());
    b.set_probability(1.0 - p1);
    return std::vector<Mapping>{a, b};
  };
  auto base = make_set(0.6, "customer.c_phone");
  EXPECT_EQ(MappingSetHash(base),
            MappingSetHash(make_set(0.6, "customer.c_phone")));
  // Different correspondence, different probability split, and a
  // truncated set all change the hash.
  EXPECT_NE(MappingSetHash(base),
            MappingSetHash(make_set(0.6, "customer.c_acctbal")));
  EXPECT_NE(MappingSetHash(base),
            MappingSetHash(make_set(0.5, "customer.c_phone")));
  EXPECT_NE(MappingSetHash(base),
            MappingSetHash({base.front()}));
}

}  // namespace
}  // namespace mapping
}  // namespace urm
