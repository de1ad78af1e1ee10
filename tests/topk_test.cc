#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "baselines/baselines.h"
#include "reformulation/reformulator.h"
#include "tests/paper_fixture.h"
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

}  // namespace
}  // namespace topk
}  // namespace urm
