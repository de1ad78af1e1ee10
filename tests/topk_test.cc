#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "algebra/plan.h"
#include "baselines/baselines.h"
#include "core/workload.h"
#include "reformulation/reformulator.h"
#include "tests/paper_fixture.h"
#include "tests/stopping_oracle.h"
#include "topk/topk.h"

namespace urm {
namespace topk {
namespace {

using algebra::CmpOp;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;

class TopKTest : public ::testing::Test {
 protected:
  TopKTest() : ex_(urm::testing::MakePaperExample()) {}

  reformulation::TargetQueryInfo Analyze(const PlanPtr& q) {
    auto info = reformulation::AnalyzeTargetQuery(q, ex_.target_schema);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ValueOrDie();
  }

  /// π_phone σ_addr='aaa' Person -> (123,.5), (456,.8), (789,.2).
  PlanPtr Qa() {
    PlanPtr p = MakeScan("Person", "person");
    p = MakeSelect(p, Predicate::AttrCmpValue("person.addr", CmpOp::kEq,
                                              "aaa"));
    return MakeProject(p, {"person.phone"});
  }

  /// π_addr σ_phone='123' Person -> (aaa,.5), (hk,.5).
  PlanPtr Q0() {
    PlanPtr p = MakeScan("Person", "person");
    p = MakeSelect(p, Predicate::AttrCmpValue("person.phone", CmpOp::kEq,
                                              "123"));
    return MakeProject(p, {"person.addr"});
  }

  urm::testing::PaperExample ex_;
};

TEST_F(TopKTest, Top1FindsHighestProbabilityTuple) {
  auto info = Analyze(Qa());
  auto result = RunTopK(info, ex_.mappings, ex_.catalog, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.ValueOrDie().tuples.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().tuples[0].values[0].ToString(), "456");
  // Bounds must bracket the exact probability 0.8.
  EXPECT_LE(result.ValueOrDie().tuples[0].lower_bound, 0.8 + 1e-12);
  EXPECT_GE(result.ValueOrDie().tuples[0].upper_bound, 0.8 - 1e-12);
}

TEST_F(TopKTest, TopKMatchesExhaustiveRanking) {
  auto info = Analyze(Qa());
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(
      info, baselines::AsWeighted(ex_.mappings), ex_.catalog, reformulator);
  ASSERT_TRUE(basic.ok());
  auto expected = basic.ValueOrDie().answers.TopK(2);

  auto result = RunTopK(info, ex_.mappings, ex_.catalog, 2);
  ASSERT_TRUE(result.ok());
  const auto& got = result.ValueOrDie().tuples;
  ASSERT_EQ(got.size(), 2u);
  // The returned *set* must be the true top-2. Intra-set order is by
  // lower bound, which early termination may leave tied, so compare
  // set-wise and check the bounds bracket the exact probability.
  for (const auto& exp : expected) {
    bool found = false;
    for (const auto& t : got) {
      if (relational::RowsEqual(t.values, exp.values)) {
        found = true;
        EXPECT_LE(t.lower_bound, exp.probability + 1e-12);
        EXPECT_GE(t.upper_bound, exp.probability - 1e-12);
      }
    }
    EXPECT_TRUE(found) << "missing top-k tuple with p=" << exp.probability;
  }
}

TEST_F(TopKTest, KLargerThanAnswersReturnsAll) {
  auto info = Analyze(Qa());
  auto result = RunTopK(info, ex_.mappings, ex_.catalog, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().tuples.size(), 3u);
  // With the u-trace fully explored, bounds are exact.
  for (const auto& t : result.ValueOrDie().tuples) {
    EXPECT_NEAR(t.lower_bound, t.upper_bound, 1e-9);
  }
}

TEST_F(TopKTest, BoundsAreConsistent) {
  auto info = Analyze(Qa());
  for (size_t k = 1; k <= 4; ++k) {
    auto result = RunTopK(info, ex_.mappings, ex_.catalog, k);
    ASSERT_TRUE(result.ok());
    for (const auto& t : result.ValueOrDie().tuples) {
      EXPECT_GE(t.upper_bound + 1e-12, t.lower_bound);
      EXPECT_GE(t.lower_bound, 0.0);
      EXPECT_LE(t.upper_bound, 1.0 + 1e-9);
    }
  }
}

TEST_F(TopKTest, RejectsZeroK) {
  auto info = Analyze(Qa());
  EXPECT_FALSE(RunTopK(info, ex_.mappings, ex_.catalog, 0).ok());
}

TEST_F(TopKTest, SmallKVisitsNoMoreLeavesThanLargeK) {
  auto info = Analyze(Qa());
  auto small = RunTopK(info, ex_.mappings, ex_.catalog, 1);
  auto large = RunTopK(info, ex_.mappings, ex_.catalog, 10);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_LE(small.ValueOrDie().leaves_visited,
            large.ValueOrDie().leaves_visited);
}

TEST_F(TopKTest, UnanswerableMassDiscountedUpfront) {
  // Only m2 maps gender; the other 0.8 mass must not inflate bounds.
  PlanPtr p = MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.gender", CmpOp::kEq,
                                         "t1")),
      {"person.gender"});
  auto info = Analyze(p);
  auto result = RunTopK(info, ex_.mappings, ex_.catalog, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.ValueOrDie().tuples.size(), 1u);
  EXPECT_NEAR(result.ValueOrDie().tuples[0].lower_bound, 0.2, 1e-12);
  EXPECT_NEAR(result.ValueOrDie().tuples[0].upper_bound, 0.2, 1e-9);
}

/// Pins the traversal and the returned bounds, bit for bit: the leaves
/// visited, where the scan stops and every (row, lower, upper) depend
/// on the accumulation order of the lower bounds, which must not move.
TEST_F(TopKTest, PinnedTraversalAndBounds) {
  struct Expected {
    std::string value;
    double lower, upper;
  };
  struct Case {
    bool q0;  // else Qa
    size_t k;
    size_t leaves;
    std::vector<Expected> tuples;
  };
  const std::vector<Case> cases = {
      {false, 1, 2, {{"456", 0x1.999999999999ap-1, 0x1p+0}}},
      {false, 2, 1, {{"123", 0x1p-1, 0x1p+0}, {"456", 0x1p-1, 0x1p+0}}},
      {false,
       3,
       3,
       {{"456", 0x1.999999999999ap-1, 0x1.999999999999ap-1},
        {"123", 0x1p-1, 0x1p-1},
        {"789", 0x1.999999999999ap-3, 0x1.999999999999ap-3}}},
      {true, 1, 1, {{"aaa", 0x1p-1, 0x1p+0}}},
      {true,
       2,
       2,
       {{"aaa", 0x1p-1, 0x1.6666666666666p-1},
        {"hk", 0x1.3333333333334p-2, 0x1p-1}}},
  };
  for (const Case& c : cases) {
    auto info = Analyze(c.q0 ? Q0() : Qa());
    auto result = RunTopK(info, ex_.mappings, ex_.catalog, c.k);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const TopKResult& r = result.ValueOrDie();
    SCOPED_TRACE((c.q0 ? "q0 k=" : "qa k=") + std::to_string(c.k));
    EXPECT_EQ(r.leaves_visited, c.leaves);
    EXPECT_TRUE(r.early_terminated);
    ASSERT_EQ(r.tuples.size(), c.tuples.size());
    for (size_t i = 0; i < c.tuples.size(); ++i) {
      EXPECT_EQ(r.tuples[i].values[0].ToString(), c.tuples[i].value);
      EXPECT_EQ(r.tuples[i].lower_bound, c.tuples[i].lower);
      EXPECT_EQ(r.tuples[i].upper_bound, c.tuples[i].upper);
    }
  }
}

/// A reference top-k sink, over an AnswerSet that builds every row:
/// after each leaf every lower bound is copied and the k-th and
/// (k + 1)-th largest are selected with nth_element; the answer is the
/// first k of a std::partial_sort of the copied tuples by (lower bound
/// descending, RowLess).
class CopyAndSelectTopK : public osharing::LeafVisitor {
 public:
  CopyAndSelectTopK(size_t k, const urm::testing::UTrace& trace)
      : k_(k), remaining_(trace.total) {
    remaining_ -= trace.unanswerable;
    if (remaining_ < 0.0) remaining_ = 0.0;
  }

  bool OnLeaf(const algebra::DistinctCover& cover,
              double probability) override {
    seen_.AddCover(cover, probability);
    remaining_ -= probability;
    if (remaining_ < 0.0) remaining_ = 0.0;
    if (CanStop()) {
      stopped_early_ = true;
      return false;
    }
    return true;
  }

  bool stopped_early() const { return stopped_early_; }

  std::vector<TopKEntry> Extract() const {
    std::vector<reformulation::AnswerTuple> tuples = seen_.tuples();
    const auto take =
        static_cast<std::ptrdiff_t>(std::min(k_, tuples.size()));
    std::partial_sort(tuples.begin(), tuples.begin() + take, tuples.end(),
                      [](const reformulation::AnswerTuple& a,
                         const reformulation::AnswerTuple& b) {
                        if (a.probability != b.probability) {
                          return a.probability > b.probability;
                        }
                        return relational::RowLess(a.values, b.values);
                      });
    std::vector<TopKEntry> out;
    for (std::ptrdiff_t i = 0; i < take; ++i) {
      const reformulation::AnswerTuple& t = tuples[static_cast<size_t>(i)];
      out.push_back(
          TopKEntry{t.values, t.probability, t.probability + remaining_});
    }
    return out;
  }

 private:
  static constexpr double kEps = 1e-12;

  bool CanStop() const {
    const std::vector<reformulation::AnswerTuple>& entries = seen_.tuples();
    if (entries.size() < k_) return remaining_ <= kEps;
    std::vector<double> lbs;
    for (const auto& e : entries) lbs.push_back(e.probability);
    std::nth_element(lbs.begin(), lbs.begin() + static_cast<long>(k_ - 1),
                     lbs.end(), std::greater<double>());
    const double kth = lbs[k_ - 1];
    if (remaining_ > kth + kEps) return false;
    if (entries.size() > k_) {
      const double next = *std::max_element(
          lbs.begin() + static_cast<long>(k_), lbs.end());
      if (next + remaining_ > kth + kEps) return false;
    }
    return true;
  }

  size_t k_;
  double remaining_;
  bool stopped_early_ = false;
  reformulation::AnswerSet seen_;
};

/// RunTopK against CopyAndSelectTopK on `mappings`' u-trace for k = 1, 2,
/// 5 and 50: the same leaf to stop at, the same early_terminated, rows
/// and bound bits. Counts the runs and those that stopped before the
/// last leaf.
void ExpectSameAsCopyAndSelect(const reformulation::TargetQueryInfo& info,
                               const std::vector<mapping::Mapping>& mappings,
                               const relational::Catalog& catalog,
                               size_t* runs, size_t* cut_short) {
  const urm::testing::UTrace trace = urm::testing::BuildUTrace(info, mappings);
  CopyAndSelectTopK all(SIZE_MAX, trace);
  const size_t total_leaves =
      urm::testing::Traverse(info, catalog, trace, &all);
  for (size_t k : {1, 2, 5, 50}) {
    SCOPED_TRACE("k " + std::to_string(k));
    CopyAndSelectTopK oracle(k, trace);
    const size_t leaves = urm::testing::Traverse(info, catalog, trace, &oracle);
    const std::vector<TopKEntry> expected = oracle.Extract();
    auto result = RunTopK(info, mappings, catalog, k);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const TopKResult& r = result.ValueOrDie();
    EXPECT_EQ(r.leaves_visited, leaves);
    EXPECT_EQ(r.early_terminated, oracle.stopped_early());
    ASSERT_EQ(r.tuples.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(
          urm::testing::SameRow(r.tuples[i].values, expected[i].values))
          << "position " << i;
      EXPECT_TRUE(urm::testing::SameBits(r.tuples[i].lower_bound,
                                         expected[i].lower_bound));
      EXPECT_TRUE(urm::testing::SameBits(r.tuples[i].upper_bound,
                                         expected[i].upper_bound));
    }
    ++*runs;
    *cut_short += leaves < total_leaves;
  }
}

/// RunTopK stops where the copy-and-select reference stops, over seeded
/// mapping sets with tied probabilities: the Table III queries on
/// subsets of the paper schemas' mappings, and random instances.
TEST(TopKOracleTest, StopsWhereCopyAndSelectStops) {
  size_t runs = 0, cut_short = 0;
  for (const core::WorkloadQuery& wq : core::PaperWorkload()) {
    const core::Engine& engine = urm::testing::OracleEngine(wq.schema);
    auto info =
        reformulation::AnalyzeTargetQuery(wq.query, engine.target_schema());
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE(wq.id + " seed " + std::to_string(seed));
      Rng rng(seed);
      ExpectSameAsCopyAndSelect(
          info.ValueOrDie(),
          urm::testing::TiedMappings(engine.mappings(), &rng),
          engine.catalog(), &runs, &cut_short);
    }
  }
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("random seed " + std::to_string(seed));
    Rng rng(seed);
    const urm::testing::RandomExample ex =
        urm::testing::MakeRandomExample(&rng);
    auto info = reformulation::AnalyzeTargetQuery(ex.query, ex.target_schema);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ExpectSameAsCopyAndSelect(info.ValueOrDie(), ex.mappings, ex.catalog,
                              &runs, &cut_short);
  }
  // The scans must not all run to the end, or stopping is not tested.
  EXPECT_GT(cut_short, runs / 10) << "of " << runs;
}

}  // namespace
}  // namespace topk
}  // namespace urm
