#include "baselines/baselines.h"

#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "baselines/mqo.h"
#include "core/workload.h"
#include "reformulation/reformulator.h"
#include "tests/paper_fixture.h"

namespace urm {
namespace {

using algebra::CmpOp;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;
using baselines::AsWeighted;
using baselines::MethodResult;
using baselines::RunBasic;
using baselines::RunEBasic;
using baselines::RunEMqo;
using reformulation::AnswerTuple;

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : ex_(testing::MakePaperExample()) {}

  reformulation::TargetQueryInfo Analyze(const PlanPtr& q) {
    auto info = reformulation::AnalyzeTargetQuery(q, ex_.target_schema);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ValueOrDie();
  }

  /// q0 = π_addr σ_phone='123' Person (paper §I).
  PlanPtr Q0() {
    PlanPtr p = MakeScan("Person", "person");
    p = MakeSelect(p, Predicate::AttrCmpValue("person.phone", CmpOp::kEq,
                                              "123"));
    return MakeProject(p, {"person.addr"});
  }

  /// qa = π_phone σ_addr='aaa' Person (paper §III-B).
  PlanPtr Qa() {
    PlanPtr p = MakeScan("Person", "person");
    p = MakeSelect(p, Predicate::AttrCmpValue("person.addr", CmpOp::kEq,
                                              "aaa"));
    return MakeProject(p, {"person.phone"});
  }

  testing::PaperExample ex_;
};

double ProbOf(const reformulation::AnswerSet& answers,
              const std::string& value) {
  for (const AnswerTuple& t : answers.Sorted()) {
    if (t.values.size() == 1 && t.values[0].ToString() == value) {
      return t.probability;
    }
  }
  return -1.0;
}

TEST_F(BaselinesTest, BasicReproducesPaperQ0) {
  auto info = Analyze(Q0());
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto result = RunBasic(info, AsWeighted(ex_.mappings), ex_.catalog,
                         reformulator);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& answers = result.ValueOrDie().answers;
  EXPECT_EQ(answers.size(), 2u);
  EXPECT_NEAR(ProbOf(answers, "aaa"), 0.5, 1e-12);
  EXPECT_NEAR(ProbOf(answers, "hk"), 0.5, 1e-12);
}

TEST_F(BaselinesTest, BasicReproducesPaperSectionThreeExample) {
  auto info = Analyze(Qa());
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto result = RunBasic(info, AsWeighted(ex_.mappings), ex_.catalog,
                         reformulator);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& answers = result.ValueOrDie().answers;
  // Paper: (123, 0.5), (456, 0.8), (789, 0.2).
  EXPECT_EQ(answers.size(), 3u);
  EXPECT_NEAR(ProbOf(answers, "123"), 0.5, 1e-12);
  EXPECT_NEAR(ProbOf(answers, "456"), 0.8, 1e-12);
  EXPECT_NEAR(ProbOf(answers, "789"), 0.2, 1e-12);
}

TEST_F(BaselinesTest, BasicExecutesOneQueryPerMapping) {
  auto info = Analyze(Qa());
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto result = RunBasic(info, AsWeighted(ex_.mappings), ex_.catalog,
                         reformulator);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().source_queries, ex_.mappings.size());
}

TEST_F(BaselinesTest, EBasicDeduplicatesIdenticalSourceQueries) {
  auto info = Analyze(Qa());
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto result = RunEBasic(info, AsWeighted(ex_.mappings), ex_.catalog,
                          reformulator);
  ASSERT_TRUE(result.ok());
  // m1/m2 produce the identical source query; m3/m5 share addr=haddr,
  // phone=ophone too. Distinct queries: {m1,m2}, {m3,m5}, {m4} = 3.
  EXPECT_EQ(result.ValueOrDie().source_queries, 3u);
  EXPECT_NEAR(ProbOf(result.ValueOrDie().answers, "456"), 0.8, 1e-12);
}

TEST_F(BaselinesTest, EBasicMatchesBasicAnswers) {
  for (const auto& q : {Q0(), Qa()}) {
    auto info = Analyze(q);
    reformulation::Reformulator reformulator(ex_.source_schema);
    auto basic = RunBasic(info, AsWeighted(ex_.mappings), ex_.catalog,
                          reformulator);
    auto ebasic = RunEBasic(info, AsWeighted(ex_.mappings), ex_.catalog,
                            reformulator);
    ASSERT_TRUE(basic.ok() && ebasic.ok());
    EXPECT_TRUE(basic.ValueOrDie().answers.ApproxEquals(
        ebasic.ValueOrDie().answers));
  }
}

TEST_F(BaselinesTest, EMqoMatchesBasicAnswers) {
  auto info = Analyze(Qa());
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = RunBasic(info, AsWeighted(ex_.mappings), ex_.catalog,
                        reformulator);
  auto emqo = RunEMqo(info, AsWeighted(ex_.mappings), ex_.catalog,
                      reformulator);
  ASSERT_TRUE(basic.ok() && emqo.ok()) << emqo.status().ToString();
  EXPECT_TRUE(
      basic.ValueOrDie().answers.ApproxEquals(emqo.ValueOrDie().answers));
}

TEST_F(BaselinesTest, EMqoExecutesNoMoreOperatorsThanEBasic) {
  auto info = Analyze(Qa());
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto ebasic = RunEBasic(info, AsWeighted(ex_.mappings), ex_.catalog,
                          reformulator);
  auto emqo = RunEMqo(info, AsWeighted(ex_.mappings), ex_.catalog,
                      reformulator);
  ASSERT_TRUE(ebasic.ok() && emqo.ok());
  EXPECT_LE(emqo.ValueOrDie().stats.operators_executed,
            ebasic.ValueOrDie().stats.operators_executed);
}

TEST_F(BaselinesTest, UnanswerableMappingContributesNullProbability) {
  // Project Person.gender: only m2 maps it; the rest are unanswerable.
  PlanPtr p = MakeScan("Person", "person");
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.gender", CmpOp::kEq, "t1"));
  p = MakeProject(p, {"person.gender"});
  auto info = Analyze(p);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto result = RunBasic(info, AsWeighted(ex_.mappings), ex_.catalog,
                         reformulator);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // m1/m3/m4/m5 (p=0.8) cannot answer; m2 (p=0.2) returns one row.
  EXPECT_NEAR(result.ValueOrDie().answers.null_probability(), 0.8, 1e-12);
  EXPECT_EQ(result.ValueOrDie().answers.size(), 1u);
}

TEST_F(BaselinesTest, EMqoSharedJoinServesPlansReadingDifferentColumns) {
  // Two mappings agree on the join columns but match Person.addr to
  // different customer columns: their source plans share the join
  // σ(customer × c_order), which e-MQO memoizes, and read different
  // columns above it.
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
      algebra::MakeProduct(MakeScan("Person", "person"),
                           MakeScan("Order", "order")),
      Predicate::AttrCmpAttr("person.pname", CmpOp::kEq, "order.sname"));
  auto info = Analyze(MakeProject(q, {"person.addr"}));
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic =
      RunBasic(info, AsWeighted(mappings), ex_.catalog, reformulator);
  auto emqo = RunEMqo(info, AsWeighted(mappings), ex_.catalog, reformulator);
  ASSERT_TRUE(basic.ok()) << basic.status().ToString();
  ASSERT_TRUE(emqo.ok()) << emqo.status().ToString();
  EXPECT_EQ(emqo.ValueOrDie().partitions, 2u);
  EXPECT_GE(emqo.ValueOrDie().stats.cache_hits, 1u);  // the shared join
  // Customers t1 and t3 have orders: oaddr {aaa}, haddr {hk, aaa}.
  const auto& answers = emqo.ValueOrDie().answers;
  EXPECT_EQ(answers.size(), 2u);
  EXPECT_NEAR(ProbOf(answers, "aaa"), 1.0, 1e-12);
  EXPECT_NEAR(ProbOf(answers, "hk"), 0.4, 1e-12);
  EXPECT_TRUE(basic.ValueOrDie().answers.ApproxEquals(answers));
}

TEST(MqoTest, SharedSubexpressionsDetected) {
  auto ex = testing::MakePaperExample();
  PlanPtr scan = MakeScan("customer", "c");
  PlanPtr shared = MakeSelect(
      scan, Predicate::AttrCmpValue("c.ophone", CmpOp::kEq, "123"));
  PlanPtr q1 = MakeProject(shared, {"c.oaddr"});
  PlanPtr q2 = MakeProject(shared, {"c.haddr"});
  auto plan = baselines::GenerateGlobalPlan({q1, q2}, ex.catalog);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE(plan.ValueOrDie().candidates_considered, 1u);
  EXPECT_TRUE(plan.ValueOrDie().materialized.count(
                  algebra::Canonical(shared)) > 0);
}

TEST(MqoTest, CostEstimateDropsWithMaterialization) {
  auto ex = testing::MakePaperExample();
  PlanPtr scan = MakeScan("customer", "c");
  PlanPtr shared = MakeSelect(
      scan, Predicate::AttrCmpValue("c.ophone", CmpOp::kEq, "123"));
  double without =
      baselines::EstimatePlanCost(shared, ex.catalog, {});
  double with = baselines::EstimatePlanCost(
      shared, ex.catalog, {algebra::Canonical(shared)});
  EXPECT_LT(with, without);
}

}  // namespace
}  // namespace urm
