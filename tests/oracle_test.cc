/// \file oracle_test.cc
/// Brute-force oracles: exhaustive enumeration checks for the k-best
/// matching machinery, and strict-weak-ordering verification for the
/// Value total order (sorting and grouping correctness hang off it).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>

#include "common/random.h"
#include "mapping/murty.h"
#include "relational/value.h"

namespace urm {
namespace {

using mapping::KBestMatchings;
using mapping::MatchingSolution;
using mapping::WeightedEdge;
using relational::Value;

/// Enumerates *all* partial one-to-one matchings of a tiny bipartite
/// graph by brute force.
std::vector<MatchingSolution> AllMatchings(
    int num_rows, const std::vector<WeightedEdge>& edges) {
  std::vector<MatchingSolution> out;
  std::vector<std::pair<int, int>> current;
  std::set<int> used_cols;
  double weight = 0.0;

  std::function<void(int)> recurse = [&](int row) {
    if (row == num_rows) {
      MatchingSolution sol;
      sol.edges = current;
      sol.weight = weight;
      out.push_back(std::move(sol));
      return;
    }
    recurse(row + 1);  // leave this row unmatched
    for (const auto& e : edges) {
      if (e.row != row || used_cols.count(e.col) > 0) continue;
      current.emplace_back(e.row, e.col);
      used_cols.insert(e.col);
      weight += e.weight;
      recurse(row + 1);
      weight -= e.weight;
      used_cols.erase(e.col);
      current.pop_back();
    }
  };
  recurse(0);
  return out;
}

class MurtyOracle : public ::testing::TestWithParam<int> {};

TEST_P(MurtyOracle, MatchesBruteForceEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 271 + 9);
  int rows = static_cast<int>(rng.Uniform(1, 4));
  int cols = static_cast<int>(rng.Uniform(1, 4));
  std::vector<WeightedEdge> edges;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (rng.Bernoulli(0.7)) {
        // Distinct weights so the expected order is unambiguous.
        edges.push_back(WeightedEdge{
            r, c, 1.0 + static_cast<double>(edges.size()) * 0.37 +
                      rng.NextDouble() * 0.1});
      }
    }
  }

  std::vector<MatchingSolution> expected = AllMatchings(rows, edges);
  std::sort(expected.begin(), expected.end(),
            [](const MatchingSolution& a, const MatchingSolution& b) {
              return a.weight > b.weight;
            });

  auto got = KBestMatchings(rows, cols, edges,
                            static_cast<int>(expected.size()) + 5);
  ASSERT_TRUE(got.ok());
  const auto& sols = got.ValueOrDie();
  ASSERT_EQ(sols.size(), expected.size())
      << "Murty must enumerate every distinct partial matching";
  for (size_t i = 0; i < sols.size(); ++i) {
    EXPECT_NEAR(sols[i].weight, expected[i].weight, 1e-9) << "rank " << i;
  }
  // As sets of matchings they must coincide exactly.
  std::set<std::vector<std::pair<int, int>>> exp_set, got_set;
  for (const auto& s : expected) exp_set.insert(s.edges);
  for (const auto& s : sols) got_set.insert(s.edges);
  EXPECT_EQ(exp_set, got_set);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MurtyOracle, ::testing::Range(0, 25));

/// Tie-heavy graphs: weights come from 2–4 levels, so many matchings
/// share a weight. Which of two equal-weight matchings Murty returns
/// first is its own choice and is not asserted; the weight sequence,
/// distinctness, validity and the cut at k are.
class MurtyTieOracle : public ::testing::TestWithParam<int> {};

TEST_P(MurtyTieOracle, WeightSequenceMatchesBruteForceUnderTies) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 577 + 41);
  int rows = static_cast<int>(rng.Uniform(1, 5));
  int cols = static_cast<int>(rng.Uniform(1, 5));
  int levels = static_cast<int>(rng.Uniform(2, 4));
  std::vector<WeightedEdge> edges;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (rng.Bernoulli(0.7)) {
        // Multiples of 0.5: every sum is exact.
        edges.push_back(WeightedEdge{
            r, c, 0.5 * static_cast<double>(rng.Uniform(1, levels))});
      }
    }
  }

  std::vector<MatchingSolution> all = AllMatchings(rows, edges);
  std::vector<double> expected;
  for (const auto& s : all) expected.push_back(s.weight);
  std::sort(expected.begin(), expected.end(), std::greater<double>());
  const int k = static_cast<int>(
      rng.Uniform(1, static_cast<int64_t>(all.size()) + 2));

  auto got = KBestMatchings(rows, cols, edges, k);
  ASSERT_TRUE(got.ok());
  const auto& sols = got.ValueOrDie();
  ASSERT_EQ(sols.size(), std::min(all.size(), static_cast<size_t>(k)));
  std::set<std::vector<std::pair<int, int>>> returned;
  for (size_t i = 0; i < sols.size(); ++i) {
    EXPECT_DOUBLE_EQ(sols[i].weight, expected[i]) << "rank " << i;
    EXPECT_TRUE(returned.insert(sols[i].edges).second) << "rank " << i;
    std::set<int> used_rows, used_cols;
    double weight = 0.0;
    for (const auto& [r, c] : sols[i].edges) {
      EXPECT_TRUE(used_rows.insert(r).second);
      EXPECT_TRUE(used_cols.insert(c).second);
      auto e = std::find_if(edges.begin(), edges.end(),
                            [&](const WeightedEdge& e) {
                              return e.row == r && e.col == c;
                            });
      ASSERT_NE(e, edges.end()) << "(" << r << ", " << c << ")";
      weight += e->weight;
    }
    EXPECT_DOUBLE_EQ(weight, sols[i].weight) << "rank " << i;
  }
  // No matching left out outweighs the last one returned.
  for (const auto& s : all) {
    if (returned.count(s.edges) == 0) {
      EXPECT_LE(s.weight, sols.back().weight);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MurtyTieOracle, ::testing::Range(0, 100));

/// Values whose order, equality and hash AnswerSet's dense codes rely
/// on: "equivalent under < means ==, and == implies equal Hash". Beside
/// the plain cases it holds those where numeric equality is least
/// obvious: -0.0 against 0, the infinities, the smallest denormal, 2^53
/// as a double against 2^53 and 2^53 + 1 as int64 (the latter rounds to
/// 2^53, so all three are one class), and the int64 extremes.
std::vector<Value> ValuePool() {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  return {Value::Null(),
          Value(0),
          Value(1),
          Value(-3),
          Value(2.5),
          Value(2.0),
          Value(2),
          Value(1e9),
          Value(""),
          Value("a"),
          Value("b"),
          Value("aa"),
          Value("123"),
          Value(-0.5),
          Value(42),
          Value(-0.0),
          Value(std::numeric_limits<double>::infinity()),
          Value(-std::numeric_limits<double>::infinity()),
          Value(std::numeric_limits<double>::denorm_min()),
          Value(static_cast<double>(kTwo53)),
          Value(kTwo53),
          Value(kTwo53 + 1),
          Value(std::numeric_limits<int64_t>::min()),
          Value(std::numeric_limits<int64_t>::max())};
}

TEST(ValueOrderOracle, StrictWeakOrdering) {
  auto pool = ValuePool();
  // Irreflexivity over the equivalence classes.
  for (const auto& a : pool) {
    EXPECT_FALSE(a < a) << a.ToString();
  }
  // Asymmetry and transitivity, brute force over all triples.
  for (const auto& a : pool) {
    for (const auto& b : pool) {
      if (a < b) EXPECT_FALSE(b < a) << a.ToString() << " " << b.ToString();
      for (const auto& c : pool) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c) << a.ToString() << " " << b.ToString() << " "
                             << c.ToString();
        }
      }
    }
  }
}

TEST(ValueOrderOracle, EquivalenceMatchesEquality) {
  auto pool = ValuePool();
  for (const auto& a : pool) {
    for (const auto& b : pool) {
      bool equivalent = !(a < b) && !(b < a);
      EXPECT_EQ(equivalent, a == b)
          << a.ToString() << " vs " << b.ToString();
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash())
            << "hash inconsistent with equality: " << a.ToString();
      }
    }
  }
}

/// NaN is the one value outside the rule: it equals nothing, itself
/// included, is unordered against every number, and is ordered by type
/// against NULL (above) and strings (below).
TEST(ValueOrderOracle, NaNEqualsNothingAndIsOrderedOnlyByType) {
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(nan == nan);
  EXPECT_FALSE(nan < nan);
  for (const auto& v : ValuePool()) {
    EXPECT_FALSE(nan == v) << v.ToString();
    EXPECT_FALSE(v == nan) << v.ToString();
    if (v.is_numeric()) {
      EXPECT_FALSE(nan < v) << v.ToString();
      EXPECT_FALSE(v < nan) << v.ToString();
    } else if (v.is_null()) {
      EXPECT_TRUE(v < nan);
      EXPECT_FALSE(nan < v);
    } else {
      EXPECT_TRUE(nan < v) << v.ToString();
      EXPECT_FALSE(v < nan) << v.ToString();
    }
  }
}

TEST(ValueOrderOracle, SortIsDeterministic) {
  auto pool = ValuePool();
  auto a = pool, b = pool;
  std::sort(a.begin(), a.end(),
            [](const Value& x, const Value& y) { return x < y; });
  std::reverse(b.begin(), b.end());
  std::sort(b.begin(), b.end(),
            [](const Value& x, const Value& y) { return x < y; });
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i] || (!(a[i] < b[i]) && !(b[i] < a[i])));
  }
}

}  // namespace
}  // namespace urm
