#include <gtest/gtest.h>

#include <map>

#include "core/engine.h"
#include "core/workload.h"

namespace urm {
namespace core {
namespace {

/// Engines are expensive (instance generation + Murty enumeration);
/// build one per target schema and share across tests.
Engine* SharedEngine(datagen::TargetSchemaId schema) {
  static std::map<datagen::TargetSchemaId, std::unique_ptr<Engine>> cache;
  auto it = cache.find(schema);
  if (it == cache.end()) {
    Engine::Options options;
    options.target_mb = 0.3;
    options.num_mappings = 24;
    options.target_schema = schema;
    auto engine = Engine::Create(options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    it = cache.emplace(schema, std::move(engine).ValueOrDie()).first;
  }
  return it->second.get();
}

TEST(EngineTest, CreatePreparesMappings) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  EXPECT_FALSE(engine->correspondences().empty());
  ASSERT_FALSE(engine->mappings().empty());
  EXPECT_NEAR(mapping::TotalProbability(engine->mappings()), 1.0, 1e-9);
  // Mappings overlap heavily (paper Fig. 9 reports 68-79%).
  EXPECT_GT(engine->MappingOverlapRatio(), 0.5);
}

TEST(EngineTest, CorrespondenceCountsInPaperBallpark) {
  // COMA++ returned 34/18/31 correspondences; our matcher should land
  // in the same order of magnitude for each schema.
  for (auto id : datagen::AllTargetSchemas()) {
    Engine* engine = SharedEngine(id);
    EXPECT_GE(engine->correspondences().size(), 15u)
        << datagen::TargetSchemaName(id);
    EXPECT_LE(engine->correspondences().size(), 80u)
        << datagen::TargetSchemaName(id);
  }
}

TEST(EngineTest, UseTopMappingsRenormalizes) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  engine->UseTopMappings(5);
  EXPECT_EQ(engine->mappings().size(), 5u);
  EXPECT_NEAR(mapping::TotalProbability(engine->mappings()), 1.0, 1e-9);
  engine->UseTopMappings(1000);  // restore all
}

class WorkloadConsistency
    : public ::testing::TestWithParam<WorkloadQuery> {};

TEST_P(WorkloadConsistency, AllMethodsReturnIdenticalAnswers) {
  const WorkloadQuery& wq = GetParam();
  Engine* engine = SharedEngine(wq.schema);
  auto reference = engine->Evaluate(wq.query, Method::kBasic);
  ASSERT_TRUE(reference.ok()) << wq.id << ": "
                              << reference.status().ToString();
  const auto& expected = reference.ValueOrDie().answers;
  // Every mapping contributes at least one tuple or the θ outcome, so
  // the per-tuple marginals plus P(θ) total at least 1 (more when a
  // mapping yields several tuples).
  EXPECT_GE(expected.TotalProbability(), 1.0 - 1e-6) << wq.id;

  for (Method method : {Method::kEBasic, Method::kEMqo, Method::kQSharing,
                        Method::kOSharing}) {
    auto result = engine->Evaluate(wq.query, method);
    ASSERT_TRUE(result.ok())
        << wq.id << " " << MethodName(method) << ": "
        << result.status().ToString();
    EXPECT_TRUE(expected.ApproxEquals(result.ValueOrDie().answers, 1e-6))
        << wq.id << " " << MethodName(method) << "\nbasic:\n"
        << expected.ToString() << "\nother:\n"
        << result.ValueOrDie().answers.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperQueries, WorkloadConsistency,
    ::testing::ValuesIn(PaperWorkload()),
    [](const ::testing::TestParamInfo<WorkloadQuery>& info) {
      return info.param.id;
    });

TEST(WorkloadTest, ParametricQueriesConsistent) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  struct Case {
    std::string label;
    algebra::PlanPtr query;
    Method reference;
  };
  std::vector<Case> cases;
  for (int n = 1; n <= 5; ++n) {
    cases.push_back({"selection chain n=" + std::to_string(n),
                     SelectionChainQuery(n), Method::kBasic});
  }
  for (int n = 1; n <= 3; ++n) {
    // basic runs one source query per mapping, 4.3 s on the n = 3 self
    // joins here; q-sharing runs the same queries once per partition.
    Method reference = n < 3 ? Method::kBasic : Method::kQSharing;
    cases.push_back({"self join n=" + std::to_string(n), SelfJoinQuery(n),
                     reference});
    // COUNT reads no column, so the last fused join may keep none.
    cases.push_back(
        {"COUNT self join n=" + std::to_string(n),
         algebra::MakeAggregate(SelfJoinQuery(n), algebra::AggKind::kCount),
         reference});
  }
  for (const Case& c : cases) {
    auto want = engine->Run(Request::MethodEval(c.query, c.reference));
    ASSERT_TRUE(want.ok()) << c.label << ": " << want.status().ToString();
    const auto& expected = want.ValueOrDie().evaluate.answers;
    for (osharing::StrategyKind strategy :
         {osharing::StrategyKind::kRandom, osharing::StrategyKind::kSNF,
          osharing::StrategyKind::kSEF}) {
      auto osharing = engine->Run(Request::MethodEval(c.query,
                                                      Method::kOSharing)
                                      .WithStrategy(strategy));
      ASSERT_TRUE(osharing.ok()) << c.label << " "
                                 << osharing::StrategyName(strategy) << ": "
                                 << osharing.status().ToString();
      EXPECT_TRUE(expected.ApproxEquals(
          osharing.ValueOrDie().evaluate.answers, 1e-6))
          << c.label << " " << osharing::StrategyName(strategy);
    }
  }
}

TEST(WorkloadTest, TopKAgreesWithExhaustiveOnQ4) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  auto q = QueryById("Q4");
  auto full = engine->Evaluate(q.query, Method::kOSharing);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto expected = full.ValueOrDie().answers.TopK(5);
  auto topk = engine->EvaluateTopK(q.query, 5);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  const auto& got = topk.ValueOrDie().tuples;
  ASSERT_LE(got.size(), 5u);
  ASSERT_EQ(got.size(), std::min<size_t>(5, expected.size()));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(got[i].lower_bound, expected[i].probability + 1e-9) << i;
    EXPECT_GE(got[i].upper_bound, expected[i].probability - 1e-9) << i;
  }
}

/// `got` holds exactly `want`'s tuples, each with equal values of equal
/// type (so SUMs agree bit for bit) and a probability within 1e-12.
void ExpectSameAnswers(const reformulation::AnswerSet& want,
                       const reformulation::AnswerSet& got,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label << "\nwant:\n"
                                     << want.ToString() << "\ngot:\n"
                                     << got.ToString();
  EXPECT_NEAR(got.null_probability(), want.null_probability(), 1e-12)
      << label;
  for (const auto& w : want.tuples()) {
    const reformulation::AnswerTuple* match = nullptr;
    for (const auto& g : got.tuples()) {
      if (relational::RowsEqual(g.values, w.values)) match = &g;
    }
    ASSERT_NE(match, nullptr) << label << ": missing "
                              << w.values[0].ToString() << "\ngot:\n"
                              << got.ToString();
    EXPECT_NEAR(match->probability, w.probability, 1e-12) << label;
    for (size_t i = 0; i < w.values.size(); ++i) {
      EXPECT_EQ(match->values[i].type(), w.values[i].type()) << label;
    }
  }
}

/// Each bounded tuple is one of `exact`'s and its bounds bracket the
/// exact probability.
template <typename Entry>
void ExpectBracketed(const reformulation::AnswerSet& exact,
                     const std::vector<Entry>& entries,
                     const std::string& label) {
  for (const Entry& e : entries) {
    const reformulation::AnswerTuple* match = nullptr;
    for (const auto& t : exact.tuples()) {
      if (relational::RowsEqual(t.values, e.values)) match = &t;
    }
    ASSERT_NE(match, nullptr) << label << ": "
                              << e.values[0].ToString()
                              << " is no exact answer";
    EXPECT_LE(e.lower_bound, match->probability + 1e-12) << label;
    EXPECT_GE(e.upper_bound, match->probability - 1e-12) << label;
  }
}

/// SUM(sum_attr) over σ po.telephone (PO × Item), optionally with a
/// selection on Item and a projection above the product.
algebra::PlanPtr SumOverCover(const std::string& sum_attr, bool select_item,
                              bool project) {
  using algebra::CmpOp;
  using algebra::Predicate;
  algebra::PlanPtr p = algebra::MakeProduct(algebra::MakeScan("PO", "po"),
                                            algebra::MakeScan("Item", "item"));
  p = algebra::MakeSelect(
      p, Predicate::AttrCmpValue("po.telephone", CmpOp::kEq, "335-1736"));
  if (select_item) {
    p = algebra::MakeSelect(
        p, Predicate::AttrCmpValue("item.itemNum", CmpOp::kEq, "00001"));
  }
  if (project) p = algebra::MakeProject(p, {sum_attr});
  return algebra::MakeAggregate(p, algebra::AggKind::kSum, sum_attr);
}

// A SUM over a Cartesian cover is (the summed factor's SUM) × (the
// other factors' cardinalities), computed alike by every method: the
// summed instance may be one no selection touches (o-sharing then adds
// its scan only at the aggregate), and a projection may sit between
// the aggregate and the product.
TEST(WorkloadTest, SumOverCoverAgreesAcrossMethods) {
  struct Case {
    datagen::TargetSchemaId schema;
    std::string sum_attr;
  };
  for (const Case& c :
       {Case{datagen::TargetSchemaId::kParagon, "item.quantity"},
        Case{datagen::TargetSchemaId::kExcel, "item.extendedPrice"}}) {
    Engine* engine = SharedEngine(c.schema);
    for (bool select_item : {false, true}) {
      for (bool project : {false, true}) {
        algebra::PlanPtr q = SumOverCover(c.sum_attr, select_item, project);
        std::string label = c.sum_attr +
                            (select_item ? " σ both sides" : " σ PO") +
                            (project ? " π" : "");
        auto basic = engine->Run(Request::MethodEval(q, Method::kBasic));
        ASSERT_TRUE(basic.ok()) << label << ": "
                                << basic.status().ToString();
        const auto& expected = basic.ValueOrDie().evaluate.answers;
        ASSERT_FALSE(expected.empty()) << label;
        for (Method method :
             {Method::kEBasic, Method::kEMqo, Method::kQSharing}) {
          auto got = engine->Run(Request::MethodEval(q, method));
          ASSERT_TRUE(got.ok()) << label << " " << MethodName(method)
                                << ": " << got.status().ToString();
          ExpectSameAnswers(expected, got.ValueOrDie().evaluate.answers,
                            label + " " + MethodName(method));
        }
        for (auto strategy :
             {osharing::StrategyKind::kSEF, osharing::StrategyKind::kSNF,
              osharing::StrategyKind::kRandom}) {
          std::string where = label + " " + osharing::StrategyName(strategy);
          auto got = engine->Run(Request::MethodEval(q, Method::kOSharing)
                                     .WithStrategy(strategy));
          ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
          ExpectSameAnswers(expected, got.ValueOrDie().evaluate.answers,
                            where + " o-sharing");
          auto top = engine->Run(Request::TopK(q, 3).WithStrategy(strategy));
          ASSERT_TRUE(top.ok()) << where << ": " << top.status().ToString();
          ExpectBracketed(expected, top.ValueOrDie().top_k.tuples,
                          where + " top-k");
          auto above =
              engine->Run(Request::Threshold(q, 0.05).WithStrategy(strategy));
          ASSERT_TRUE(above.ok())
              << where << ": " << above.status().ToString();
          ExpectBracketed(expected, above.ValueOrDie().threshold.tuples,
                          where + " threshold");
        }
      }
    }
  }
}

TEST(WorkloadTest, QueryLookupAndDefault) {
  EXPECT_EQ(DefaultQuery().id, "Q4");
  EXPECT_EQ(PaperWorkload().size(), 10u);
  EXPECT_EQ(QueryById("Q7").schema, datagen::TargetSchemaId::kNoris);
}

}  // namespace
}  // namespace core
}  // namespace urm
