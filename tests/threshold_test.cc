/// \file threshold_test.cc
/// Probability-threshold queries (extension; see threshold.h). Oracle:
/// exhaustive evaluation via basic, filtered by exact probability.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "baselines/baselines.h"
#include "core/workload.h"
#include "reformulation/reformulator.h"
#include "tests/paper_fixture.h"
#include "tests/stopping_oracle.h"
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
  // NaN fails every comparison, so it must not slip past the range check.
  EXPECT_FALSE(RunThreshold(info, ex_.mappings, ex_.catalog,
                            std::numeric_limits<double>::quiet_NaN())
                   .ok());
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

/// A reference threshold sink, over an AnswerSet that builds every
/// row: after each leaf every seen tuple is checked for confirmed or
/// pruned; the answer is a std::sort of the qualifying tuples' copies
/// by (lower bound descending, RowLess). With `threshold` 0 it never
/// stops and records the bounds it passes.
class FullScanThreshold : public osharing::LeafVisitor {
 public:
  FullScanThreshold(double threshold, const testing::UTrace& trace)
      : threshold_(threshold), remaining_(trace.total) {
    remaining_ -= trace.unanswerable;
    if (remaining_ < 0.0) remaining_ = 0.0;
  }

  bool OnLeaf(const algebra::DistinctCover& cover,
              double probability) override {
    seen_.AddCover(cover, probability);
    remaining_ -= probability;
    if (remaining_ < 0.0) remaining_ = 0.0;
    if (threshold_ == 0.0) {
      // A tuple's lower and upper bound, and the unexplored mass.
      const auto& tuples = seen_.tuples();
      if (!tuples.empty()) {
        const double lower = tuples[tuples.size() / 2].probability;
        bounds_.push_back(lower);
        bounds_.push_back(lower + remaining_);
      }
      bounds_.push_back(remaining_);
      return true;
    }
    if (CanStop()) {
      stopped_early_ = true;
      return false;
    }
    return true;
  }

  bool stopped_early() const { return stopped_early_; }
  const std::vector<double>& bounds() const { return bounds_; }

  std::vector<ThresholdEntry> Extract() const {
    std::vector<reformulation::AnswerTuple> tuples;
    for (const auto& t : seen_.tuples()) {
      if (t.probability + kEps >= threshold_) tuples.push_back(t);
    }
    std::sort(tuples.begin(), tuples.end(),
              [](const reformulation::AnswerTuple& a,
                 const reformulation::AnswerTuple& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                return relational::RowLess(a.values, b.values);
              });
    std::vector<ThresholdEntry> out;
    for (const auto& t : tuples) {
      out.push_back(ThresholdEntry{t.values, t.probability,
                                   t.probability + remaining_});
    }
    return out;
  }

 private:
  static constexpr double kEps = 1e-12;

  bool CanStop() const {
    if (remaining_ + kEps >= threshold_) return false;
    for (const auto& e : seen_.tuples()) {
      const bool confirmed = e.probability + kEps >= threshold_;
      const bool pruned = e.probability + remaining_ + kEps < threshold_;
      if (!confirmed && !pruned) return false;
    }
    return true;
  }

  double threshold_;
  double remaining_;
  bool stopped_early_ = false;
  reformulation::AnswerSet seen_;
  std::vector<double> bounds_;
};

/// RunThreshold against FullScanThreshold on `mappings`' u-trace, at
/// fixed thresholds and at four bounds the scan reaches (a lower bound,
/// an upper bound, the unexplored mass): the same leaf to stop at, the
/// same early_terminated, rows and bound bits. Counts the runs and those
/// that stopped before the last leaf.
void ExpectSameAsFullScan(const reformulation::TargetQueryInfo& info,
                          const std::vector<mapping::Mapping>& mappings,
                          const relational::Catalog& catalog, Rng* rng,
                          size_t* runs, size_t* cut_short) {
  const testing::UTrace trace = testing::BuildUTrace(info, mappings);
  FullScanThreshold probe(0.0, trace);
  const size_t total_leaves = testing::Traverse(info, catalog, trace, &probe);
  std::vector<double> thresholds = {0.01, 0.1, 0.3, 0.5, 0.9, 1.0};
  for (int i = 0; i < 4 && !probe.bounds().empty(); ++i) {
    const double bound = rng->Choice(probe.bounds());
    if (bound > 0.0 && bound <= 1.0) thresholds.push_back(bound);
  }
  for (double threshold : thresholds) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    FullScanThreshold oracle(threshold, trace);
    const size_t leaves = testing::Traverse(info, catalog, trace, &oracle);
    const std::vector<ThresholdEntry> expected = oracle.Extract();
    auto result = RunThreshold(info, mappings, catalog, threshold);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const ThresholdResult& r = result.ValueOrDie();
    EXPECT_EQ(r.leaves_visited, leaves);
    EXPECT_EQ(r.early_terminated, oracle.stopped_early());
    ASSERT_EQ(r.tuples.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(testing::SameRow(r.tuples[i].values, expected[i].values))
          << "position " << i;
      EXPECT_TRUE(testing::SameBits(r.tuples[i].lower_bound,
                                    expected[i].lower_bound));
      EXPECT_TRUE(testing::SameBits(r.tuples[i].upper_bound,
                                    expected[i].upper_bound));
    }
    ++*runs;
    *cut_short += leaves < total_leaves;
  }
}

/// RunThreshold stops where the full-scan reference stops, over seeded
/// mapping sets with tied probabilities: the Table III queries on
/// subsets of the paper schemas' mappings, and random instances.
TEST(ThresholdOracleTest, StopsWhereFullScanStops) {
  size_t runs = 0, cut_short = 0;
  for (const core::WorkloadQuery& wq : core::PaperWorkload()) {
    const core::Engine& engine = testing::OracleEngine(wq.schema);
    auto info =
        reformulation::AnalyzeTargetQuery(wq.query, engine.target_schema());
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE(wq.id + " seed " + std::to_string(seed));
      Rng rng(seed);
      ExpectSameAsFullScan(info.ValueOrDie(),
                           testing::TiedMappings(engine.mappings(), &rng),
                           engine.catalog(), &rng, &runs, &cut_short);
    }
  }
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("random seed " + std::to_string(seed));
    Rng rng(seed);
    const testing::RandomExample ex = testing::MakeRandomExample(&rng);
    auto info = reformulation::AnalyzeTargetQuery(ex.query, ex.target_schema);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ExpectSameAsFullScan(info.ValueOrDie(), ex.mappings, ex.catalog, &rng,
                         &runs, &cut_short);
  }
  // The scans must not all run to the end, or stopping is not tested.
  EXPECT_GT(cut_short, runs / 10) << "of " << runs;
}

}  // namespace
}  // namespace topk
}  // namespace urm
