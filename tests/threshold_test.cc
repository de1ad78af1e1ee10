/// \file threshold_test.cc
/// Probability-threshold queries (extension; see threshold.h). Oracle:
/// exhaustive evaluation via basic, filtered by exact probability.

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "reformulation/reformulator.h"
#include "tests/paper_fixture.h"
#include "topk/threshold.h"

namespace urm {
namespace topk {
namespace {

using algebra::CmpOp;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;

class ThresholdTest : public ::testing::Test {
 protected:
  ThresholdTest() : ex_(testing::MakePaperExample()) {}

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

  testing::PaperExample ex_;
};

TEST_F(ThresholdTest, ReturnsExactlyTuplesAboveThreshold) {
  auto info = Analyze(Qa());
  struct Case {
    double threshold;
    size_t expected;
  };
  for (const Case c : {Case{0.9, 0}, Case{0.7, 1}, Case{0.5, 2},
                       Case{0.15, 3}, Case{0.01, 3}}) {
    auto result = RunThreshold(info, ex_.mappings, ex_.catalog,
                               c.threshold);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie().tuples.size(), c.expected)
        << "threshold " << c.threshold;
  }
}

TEST_F(ThresholdTest, BoundsBracketExactProbabilities) {
  auto info = Analyze(Qa());
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                   ex_.catalog, reformulator);
  ASSERT_TRUE(basic.ok());
  auto result = RunThreshold(info, ex_.mappings, ex_.catalog, 0.4);
  ASSERT_TRUE(result.ok());
  for (const auto& t : result.ValueOrDie().tuples) {
    double exact = -1.0;
    for (const auto& e : basic.ValueOrDie().answers.Sorted()) {
      if (relational::RowsEqual(e.values, t.values)) exact = e.probability;
    }
    ASSERT_GE(exact, 0.0);
    EXPECT_GE(exact, 0.4 - 1e-9);
    EXPECT_LE(t.lower_bound, exact + 1e-9);
    EXPECT_GE(t.upper_bound, exact - 1e-9);
  }
}

TEST_F(ThresholdTest, HighThresholdPrunesEarly) {
  auto info = Analyze(Qa());
  auto strict = RunThreshold(info, ex_.mappings, ex_.catalog, 0.95);
  auto loose = RunThreshold(info, ex_.mappings, ex_.catalog, 0.05);
  ASSERT_TRUE(strict.ok() && loose.ok());
  EXPECT_LE(strict.ValueOrDie().leaves_visited,
            loose.ValueOrDie().leaves_visited);
}

TEST_F(ThresholdTest, RejectsInvalidThreshold) {
  auto info = Analyze(Qa());
  EXPECT_FALSE(RunThreshold(info, ex_.mappings, ex_.catalog, 0.0).ok());
  EXPECT_FALSE(RunThreshold(info, ex_.mappings, ex_.catalog, 1.5).ok());
  EXPECT_TRUE(RunThreshold(info, ex_.mappings, ex_.catalog, 1.0).ok());
}

TEST_F(ThresholdTest, ThetaOnlyQueryReturnsNothing) {
  PlanPtr q = MakeSelect(
      MakeScan("Person", "person"),
      Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "no-such"));
  auto info = Analyze(q);
  auto result = RunThreshold(info, ex_.mappings, ex_.catalog, 0.3);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().tuples.empty());
}

/// Pins the traversal and the returned bounds, bit for bit: the leaves
/// visited, where the scan stops and every (row, lower, upper) depend
/// on the accumulation order of the lower bounds, which must not move.
TEST_F(ThresholdTest, PinnedTraversalAndBounds) {
  struct Expected {
    std::string value;
    double lower, upper;
  };
  struct Case {
    bool q0;  // else Qa
    double threshold;
    size_t leaves;
    std::vector<Expected> tuples;
  };
  const std::vector<Case> cases = {
      {false, 0.9, 3, {}},
      {false, 0.7, 3, {{"456", 0x1.999999999999ap-1, 0x1.999999999999ap-1}}},
      {false,
       0.5,
       2,
       {{"456", 0x1.999999999999ap-1, 0x1p+0},
        {"123", 0x1p-1, 0x1.6666666666666p-1}}},
      {false,
       0.15,
       3,
       {{"456", 0x1.999999999999ap-1, 0x1.999999999999ap-1},
        {"123", 0x1p-1, 0x1p-1},
        {"789", 0x1.999999999999ap-3, 0x1.999999999999ap-3}}},
      {true, 0.9, 2, {}},
      {true, 0.7, 3, {}},
      {true, 0.5, 3, {{"aaa", 0x1p-1, 0x1p-1}, {"hk", 0x1p-1, 0x1p-1}}},
  };
  for (const Case& c : cases) {
    auto info = Analyze(c.q0 ? Q0() : Qa());
    auto result = RunThreshold(info, ex_.mappings, ex_.catalog, c.threshold);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const ThresholdResult& r = result.ValueOrDie();
    SCOPED_TRACE((c.q0 ? "q0 p=" : "qa p=") + std::to_string(c.threshold));
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
