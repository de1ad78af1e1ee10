#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "baselines/baselines.h"
#include "common/thread_pool.h"
#include "osharing/osharing.h"
#include "osharing/query_shape.h"
#include "reformulation/reformulator.h"
#include "tests/paper_fixture.h"
#include "topk/threshold.h"
#include "topk/topk.h"

namespace urm {
namespace osharing {
namespace {

using algebra::AggKind;
using algebra::CmpOp;
using algebra::MakeAggregate;
using algebra::MakeProduct;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;

class OSharingTest : public ::testing::Test {
 protected:
  OSharingTest() : ex_(urm::testing::MakePaperExample()) {}

  reformulation::TargetQueryInfo Analyze(const PlanPtr& q) {
    auto info = reformulation::AnalyzeTargetQuery(q, ex_.target_schema);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ValueOrDie();
  }

  baselines::MethodResult Basic(const reformulation::TargetQueryInfo& info) {
    reformulation::Reformulator reformulator(ex_.source_schema);
    auto r = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                 ex_.catalog, reformulator);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  /// q2 = (σ_addr='hk' σ_phone='123' Person) × Order (paper §V, Fig. 5).
  PlanPtr Q2Paper() {
    PlanPtr person = MakeScan("Person", "person");
    person = MakeSelect(
        person, Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
    person = MakeSelect(
        person, Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "hk"));
    return MakeProduct(person, MakeScan("Order", "order"));
  }

  urm::testing::PaperExample ex_;
};

TEST_F(OSharingTest, DecomposeQueryShape) {
  auto info = Analyze(Q2Paper());
  auto shape = DecomposeQuery(info);
  ASSERT_TRUE(shape.ok()) << shape.status().ToString();
  EXPECT_EQ(shape.ValueOrDie().selections.size(), 2u);
  EXPECT_EQ(shape.ValueOrDie().products.size(), 1u);
  EXPECT_TRUE(shape.ValueOrDie().tops.empty());
  EXPECT_EQ(shape.ValueOrDie().NumOperators(),
            algebra::CountOperators(info.query));
}

TEST_F(OSharingTest, DecomposeTopsInnermostFirst) {
  PlanPtr p = MakeScan("Person", "person");
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  p = MakeProject(p, {"person.addr"});
  p = MakeAggregate(p, AggKind::kCount);
  auto info = Analyze(p);
  auto shape = DecomposeQuery(info);
  ASSERT_TRUE(shape.ok());
  ASSERT_EQ(shape.ValueOrDie().tops.size(), 2u);
  EXPECT_FALSE(shape.ValueOrDie().tops[0].is_aggregate);  // π first
  EXPECT_TRUE(shape.ValueOrDie().tops[1].is_aggregate);
}

TEST_F(OSharingTest, MatchesBasicOnPaperFigure5Query) {
  auto info = Analyze(Q2Paper());
  auto basic = Basic(info);
  auto result = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers))
      << "basic:\n" << basic.answers.ToString() << "o-sharing:\n"
      << result.ValueOrDie().answers.ToString();
}

TEST_F(OSharingTest, AllStrategiesAgree) {
  auto info = Analyze(Q2Paper());
  auto basic = Basic(info);
  for (StrategyKind strategy :
       {StrategyKind::kRandom, StrategyKind::kSNF, StrategyKind::kSEF}) {
    OSharingOptions options;
    options.strategy = strategy;
    auto result = RunOSharing(info, ex_.mappings, ex_.catalog, options);
    ASSERT_TRUE(result.ok()) << StrategyName(strategy) << ": "
                             << result.status().ToString();
    EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers))
        << StrategyName(strategy);
  }
}

TEST_F(OSharingTest, ProjectionQueryMatchesBasic) {
  PlanPtr p = MakeScan("Person", "person");
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "aaa"));
  p = MakeProject(p, {"person.phone"});
  auto info = Analyze(p);
  auto basic = Basic(info);
  auto result = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers));
  // Paper §III-B: (123,.5), (456,.8), (789,.2).
  EXPECT_EQ(result.ValueOrDie().answers.size(), 3u);
}

TEST_F(OSharingTest, AggregateQueryMatchesBasic) {
  PlanPtr p = MakeScan("Person", "person");
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "aaa"));
  p = MakeAggregate(p, AggKind::kCount);
  auto info = Analyze(p);
  auto basic = Basic(info);
  auto result = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers));
}

TEST_F(OSharingTest, CountOverBareProductMatchesBasic) {
  // COUNT(σ_phone (Person × Order)) — Order is bare; its cover differs
  // across mappings (c_order vs nation for m5), the Fig. 6 situation.
  PlanPtr p = MakeProduct(MakeScan("Person", "person"),
                          MakeScan("Order", "order"));
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  p = MakeAggregate(p, AggKind::kCount);
  auto info = Analyze(p);
  auto basic = Basic(info);
  auto result = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers))
      << "basic:\n" << basic.answers.ToString() << "o-sharing:\n"
      << result.ValueOrDie().answers.ToString();
}

TEST_F(OSharingTest, JoinPredicateQueryMatchesBasic) {
  // σ Person.pname op Order.sname (Person × Order): a cross-instance
  // predicate exercising factor fusion (customer and c_order under m1
  // and m2), by hash join (=) or product + filter (<). Under COUNT
  // nothing above the fusion reads a column. σ Person.nation =
  // Order.item spans the two instances too, but no mapping answers it
  // (m1-m4 map nation and not item, m5 item and not nation), so its
  // whole probability goes to the null answer θ.
  const Predicate joins[] = {
      Predicate::AttrCmpAttr("person.pname", CmpOp::kEq, "order.sname"),
      Predicate::AttrCmpAttr("person.pname", CmpOp::kLt, "order.sname"),
      Predicate::AttrCmpAttr("person.nation", CmpOp::kEq, "order.item")};
  for (const Predicate& join : joins) {
    for (bool count : {false, true}) {
      SCOPED_TRACE(join.ToString() + (count ? " under COUNT" : ""));
      PlanPtr p = MakeSelect(MakeProduct(MakeScan("Person", "person"),
                                         MakeScan("Order", "order")),
                             join);
      if (count) p = MakeAggregate(p, AggKind::kCount);
      auto info = Analyze(p);
      auto basic = Basic(info);
      if (join.lhs == "person.nation") {  // unanswerable: all mass on θ
        EXPECT_NEAR(basic.answers.null_probability(), 1.0, 1e-12);
      }
      auto result = RunOSharing(info, ex_.mappings, ex_.catalog);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers))
          << "basic:\n" << basic.answers.ToString() << "o-sharing:\n"
          << result.ValueOrDie().answers.ToString();
    }
  }
}

TEST_F(OSharingTest, SharesOperatorsAcrossMappings) {
  auto info = Analyze(Q2Paper());
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(
      info, baselines::AsWeighted(ex_.mappings), ex_.catalog, reformulator);
  auto shared = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(basic.ok() && shared.ok());
  EXPECT_LT(shared.ValueOrDie().stats.operators_executed,
            basic.ValueOrDie().stats.operators_executed);
}

TEST_F(OSharingTest, OperatorCacheDoesNotChangeAnswers) {
  // The cross-branch operator cache (our §IX extension) must be a pure
  // optimization: identical answers with and without it.
  PlanPtr p = MakeProduct(MakeScan("Person", "person"),
                          MakeScan("Order", "order"));
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "hk"));
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  auto info = Analyze(p);
  OSharingOptions with_cache, without_cache;
  with_cache.enable_operator_cache = true;
  without_cache.enable_operator_cache = false;
  auto a = RunOSharing(info, ex_.mappings, ex_.catalog, with_cache);
  auto b = RunOSharing(info, ex_.mappings, ex_.catalog, without_cache);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a.ValueOrDie().answers.ApproxEquals(
      b.ValueOrDie().answers));
  EXPECT_EQ(b.ValueOrDie().stats.cache_hits, 0u);
}

TEST_F(OSharingTest, FusedJoinKeepsTheColumnsOfEveryMappingBelowIt) {
  // The mappings of BaselinesTest.EMqoSharedJoinServesPlansReading-
  // DifferentColumns agree on the join columns, so one u-trace node
  // fuses customer and c_order for both. Above the join they read
  // different customer columns (oaddr, haddr): the fused factor has to
  // keep both, not just the representative mapping's.
  auto mapping = [](const std::string& addr, double probability) {
    mapping::Mapping m;
    EXPECT_TRUE(m.Add("Person.pname", "customer.cid").ok());
    EXPECT_TRUE(m.Add("Person.addr", addr).ok());
    EXPECT_TRUE(m.Add("Order.sname", "c_order.ocid").ok());
    m.set_probability(probability);
    return m;
  };
  const std::vector<mapping::Mapping> mappings = {
      mapping("customer.oaddr", 0.6), mapping("customer.haddr", 0.4)};
  PlanPtr q = MakeSelect(
      MakeProduct(MakeScan("Person", "person"), MakeScan("Order", "order")),
      Predicate::AttrCmpAttr("person.pname", CmpOp::kEq, "order.sname"));
  auto info = Analyze(MakeProject(q, {"person.addr"}));
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(mappings),
                                   ex_.catalog, reformulator);
  ASSERT_TRUE(basic.ok()) << basic.status().ToString();
  // Customers t1 and t3 have orders: oaddr {aaa}, haddr {hk, aaa}.
  const auto& expected = basic.ValueOrDie().answers;
  ASSERT_EQ(expected.size(), 2u);

  ThreadPool pool(2);
  for (StrategyKind strategy :
       {StrategyKind::kRandom, StrategyKind::kSNF, StrategyKind::kSEF}) {
    for (bool parallel : {false, true}) {
      SCOPED_TRACE(std::string(StrategyName(strategy)) +
                   (parallel ? " RunParallel" : " Run"));
      OSharingOptions options;
      options.strategy = strategy;
      if (parallel) {
        options.parallelism = 2;
        options.pool = &pool;
        options.parallel_grain = 1;  // fan the addr split out
      }
      auto result = RunOSharing(info, mappings, ex_.catalog, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(expected.ApproxEquals(result.ValueOrDie().answers))
          << result.ValueOrDie().answers.ToString();
    }
    topk::TopKOptions topk_options;
    topk_options.osharing.strategy = strategy;
    auto top = topk::RunTopK(info, mappings, ex_.catalog, 2, topk_options);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    ASSERT_EQ(top.ValueOrDie().tuples.size(), 2u);
    EXPECT_EQ(top.ValueOrDie().tuples[0].values[0].ToString(), "aaa");
    EXPECT_NEAR(top.ValueOrDie().tuples[0].lower_bound, 1.0, 1e-12);
    EXPECT_EQ(top.ValueOrDie().tuples[1].values[0].ToString(), "hk");
    EXPECT_NEAR(top.ValueOrDie().tuples[1].lower_bound, 0.4, 1e-12);

    OSharingOptions threshold_options;
    threshold_options.strategy = strategy;
    auto above = topk::RunThreshold(info, mappings, ex_.catalog, 0.3,
                                    threshold_options);
    ASSERT_TRUE(above.ok()) << above.status().ToString();
    ASSERT_EQ(above.ValueOrDie().tuples.size(), 2u);
    EXPECT_EQ(above.ValueOrDie().tuples[1].values[0].ToString(), "hk");
    EXPECT_NEAR(above.ValueOrDie().tuples[1].lower_bound, 0.4, 1e-12);
  }
}

TEST_F(OSharingTest, StrategyNamesExposed) {
  EXPECT_STREQ(StrategyName(StrategyKind::kRandom), "Random");
  EXPECT_STREQ(StrategyName(StrategyKind::kSNF), "SNF");
  EXPECT_STREQ(StrategyName(StrategyKind::kSEF), "SEF");
}

}  // namespace
}  // namespace osharing
}  // namespace urm
