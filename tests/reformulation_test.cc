#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "algebra/evaluate.h"
#include "common/random.h"
#include "algebra/plan.h"
#include "reformulation/answer.h"
#include "reformulation/reformulator.h"
#include "reformulation/target_query.h"
#include "tests/paper_fixture.h"

namespace urm {
namespace reformulation {
namespace {

using algebra::CmpOp;
using algebra::MakeAggregate;
using algebra::MakeProduct;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;

class ReformulationTest : public ::testing::Test {
 protected:
  ReformulationTest() : ex_(urm::testing::MakePaperExample()) {}

  TargetQueryInfo Analyze(const PlanPtr& q) {
    auto info = AnalyzeTargetQuery(q, ex_.target_schema);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ValueOrDie();
  }

  urm::testing::PaperExample ex_;
};

PlanPtr PhoneAddrQuery() {
  PlanPtr p = MakeScan("Person", "person");
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  return MakeProject(p, {"person.addr"});
}

TEST_F(ReformulationTest, AnalyzeExtractsInstancesAndRefs) {
  auto info = Analyze(PhoneAddrQuery());
  ASSERT_EQ(info.instances.size(), 1u);
  EXPECT_EQ(info.instances[0].alias, "person");
  EXPECT_EQ(info.instances[0].table, "Person");
  EXPECT_FALSE(info.instances[0].bare);
  ASSERT_EQ(info.instances[0].referenced.size(), 2u);
  EXPECT_EQ(info.output_refs,
            (std::vector<std::string>{"person.addr"}));
  EXPECT_FALSE(info.is_aggregate);
}

TEST_F(ReformulationTest, AnalyzeBareInstanceNeedsWholeTable) {
  PlanPtr p = MakeProduct(MakeScan("Person", "person"),
                          MakeScan("Order", "order"));
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  auto info = Analyze(p);
  ASSERT_EQ(info.instances.size(), 2u);
  EXPECT_TRUE(info.instances[1].bare);
  EXPECT_EQ(info.instances[1].needed.size(), 5u);  // all Order attrs
}

TEST_F(ReformulationTest, AnalyzeRejectsBadQueries) {
  // Unknown table.
  EXPECT_FALSE(AnalyzeTargetQuery(MakeScan("Nope", "n"), ex_.target_schema)
                   .ok());
  // Missing alias.
  EXPECT_FALSE(
      AnalyzeTargetQuery(MakeScan("Person", ""), ex_.target_schema).ok());
  // Duplicate alias.
  EXPECT_FALSE(AnalyzeTargetQuery(
                   MakeProduct(MakeScan("Person", "p"),
                               MakeScan("Person", "p")),
                   ex_.target_schema)
                   .ok());
  // Unknown attribute.
  PlanPtr bad = MakeSelect(
      MakeScan("Person", "p"),
      Predicate::AttrCmpValue("p.nosuch", CmpOp::kEq, "x"));
  EXPECT_FALSE(AnalyzeTargetQuery(bad, ex_.target_schema).ok());
  // Unqualified reference.
  PlanPtr unqual = MakeSelect(
      MakeScan("Person", "p"),
      Predicate::AttrCmpValue("phone", CmpOp::kEq, "x"));
  EXPECT_FALSE(AnalyzeTargetQuery(unqual, ex_.target_schema).ok());
}

TEST_F(ReformulationTest, SignatureGroupsEquivalentMappings) {
  auto info = Analyze(PhoneAddrQuery());
  // m1 and m2 agree on phone and addr -> same signature; m3 differs.
  EXPECT_EQ(MappingSignature(info, ex_.mappings[0]),
            MappingSignature(info, ex_.mappings[1]));
  EXPECT_NE(MappingSignature(info, ex_.mappings[0]),
            MappingSignature(info, ex_.mappings[2]));
}

TEST_F(ReformulationTest, SignatureUnanswerableWhenRequiredUnmapped) {
  PlanPtr p = MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.gender", CmpOp::kEq, "x")),
      {"person.gender"});
  auto info = Analyze(p);
  // Only m2 maps gender.
  EXPECT_EQ(MappingSignature(info, ex_.mappings[0]),
            kUnanswerableSignature);
  EXPECT_NE(MappingSignature(info, ex_.mappings[1]),
            kUnanswerableSignature);
}

TEST_F(ReformulationTest, ReformulateRewritesAttributesAndTable) {
  auto info = Analyze(PhoneAddrQuery());
  Reformulator reformulator(ex_.source_schema);
  auto sq = reformulator.Reformulate(info, ex_.mappings[0]);
  ASSERT_TRUE(sq.ok()) << sq.status().ToString();
  ASSERT_TRUE(sq.ValueOrDie().answerable);
  std::string canonical = algebra::Canonical(sq.ValueOrDie().plan);
  EXPECT_NE(canonical.find("customer"), std::string::npos);
  EXPECT_NE(canonical.find("ophone"), std::string::npos);
  EXPECT_NE(canonical.find("oaddr"), std::string::npos);
  EXPECT_EQ(canonical.find("Person"), std::string::npos);
}

TEST_F(ReformulationTest, ReformulateIsUnanswerableOnMissingAttr) {
  PlanPtr p = MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.gender", CmpOp::kEq, "x")),
      {"person.gender"});
  auto info = Analyze(p);
  Reformulator reformulator(ex_.source_schema);
  auto sq = reformulator.Reformulate(info, ex_.mappings[0]);
  ASSERT_TRUE(sq.ok());
  EXPECT_FALSE(sq.ValueOrDie().answerable);
}

TEST_F(ReformulationTest, IdenticalSignaturesGiveIdenticalPlans) {
  auto info = Analyze(PhoneAddrQuery());
  Reformulator reformulator(ex_.source_schema);
  auto a = reformulator.Reformulate(info, ex_.mappings[0]);
  auto b = reformulator.Reformulate(info, ex_.mappings[1]);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(algebra::Canonical(a.ValueOrDie().plan),
            algebra::Canonical(b.ValueOrDie().plan));
}

TEST_F(ReformulationTest, EvaluatingReformulatedQueryGivesPaperRows) {
  auto info = Analyze(PhoneAddrQuery());
  Reformulator reformulator(ex_.source_schema);
  auto sq = reformulator.Reformulate(info, ex_.mappings[0]);
  ASSERT_TRUE(sq.ok());
  auto rel = algebra::Evaluate(sq.ValueOrDie().plan, ex_.catalog);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  // σ ophone='123' -> t1; π oaddr -> "aaa".
  ASSERT_EQ(rel.ValueOrDie()->num_rows(), 1u);
  EXPECT_EQ(rel.ValueOrDie()->rows()[0][0].ToString(), "aaa");
}

TEST_F(ReformulationTest, AggregateQueryLayout) {
  PlanPtr p = MakeAggregate(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123")),
      algebra::AggKind::kCount);
  auto info = Analyze(p);
  EXPECT_TRUE(info.is_aggregate);
  Reformulator reformulator(ex_.source_schema);
  auto sq = reformulator.Reformulate(info, ex_.mappings[0]);
  ASSERT_TRUE(sq.ok());
  ASSERT_EQ(sq.ValueOrDie().layout.size(), 1u);
  EXPECT_EQ(*sq.ValueOrDie().layout[0], "count");
  auto rel = algebra::Evaluate(sq.ValueOrDie().plan, ex_.catalog);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.ValueOrDie()->rows()[0][0], relational::Value(1));
}

TEST_F(ReformulationTest, SelectOnlyQueryOutputsReferencedAttrs) {
  PlanPtr p = MakeSelect(
      MakeScan("Person", "person"),
      Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  auto info = Analyze(p);
  EXPECT_EQ(info.output_refs,
            (std::vector<std::string>{"person.phone"}));
  Reformulator reformulator(ex_.source_schema);
  auto sq = reformulator.Reformulate(info, ex_.mappings[0]);
  ASSERT_TRUE(sq.ok());
  auto rel = algebra::Evaluate(sq.ValueOrDie().plan, ex_.catalog);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel.ValueOrDie()->num_rows(), 1u);
  EXPECT_EQ(rel.ValueOrDie()->rows()[0][0].ToString(), "123");
}

TEST(AnswerSetTest, AddAccumulatesByValue) {
  AnswerSet answers({"x"});
  answers.Add({relational::Value("a")}, 0.3);
  answers.Add({relational::Value("a")}, 0.2);
  answers.Add({relational::Value("b")}, 0.1);
  EXPECT_EQ(answers.size(), 2u);
  auto sorted = answers.Sorted();
  EXPECT_EQ(sorted[0].values[0].ToString(), "a");
  EXPECT_NEAR(sorted[0].probability, 0.5, 1e-12);
}

TEST(AnswerSetTest, NullProbabilityTracked) {
  AnswerSet answers({"x"});
  answers.AddNull(0.4);
  answers.Add({relational::Value("a")}, 0.6);
  EXPECT_NEAR(answers.null_probability(), 0.4, 1e-12);
  EXPECT_NEAR(answers.TotalProbability(), 1.0, 1e-12);
}

TEST(AnswerSetTest, TopKAndApproxEquals) {
  AnswerSet a({"x"}), b({"x"});
  a.Add({relational::Value("p")}, 0.5);
  a.Add({relational::Value("q")}, 0.3);
  b.Add({relational::Value("q")}, 0.3);
  b.Add({relational::Value("p")}, 0.5);
  EXPECT_TRUE(a.ApproxEquals(b));
  auto top = a.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].values[0].ToString(), "p");
  b.Add({relational::Value("r")}, 0.1);
  EXPECT_FALSE(a.ApproxEquals(b));
}

/// A relation with `arity` columns r.c0, r.c1, ... holding `rows`.
relational::Relation MakeRelation(const std::vector<relational::Row>& rows,
                                  size_t arity) {
  relational::RelationSchema schema;
  for (size_t c = 0; c < arity; ++c) {
    EXPECT_TRUE(schema
                    .AddColumn({"r.c" + std::to_string(c),
                                relational::ValueType::kString})
                    .ok());
  }
  relational::Relation rel(schema);
  for (const auto& row : rows) EXPECT_TRUE(rel.AddRow(row).ok());
  return rel;
}

/// The one-factor cover of `rows` (MakeRelation) over all its columns,
/// or over the first `width` of them.
algebra::DistinctCover OneFactorCover(const std::vector<relational::Row>& rows,
                                      size_t arity, size_t width) {
  std::vector<std::string> columns;
  for (size_t c = 0; c < width; ++c) {
    columns.push_back("r.c" + std::to_string(c));
  }
  auto cover = algebra::DistinctCover::Make(
      {std::make_shared<const relational::Relation>(MakeRelation(rows, arity))},
      columns);
  EXPECT_TRUE(cover.ok()) << cover.status().ToString();
  return std::move(cover).ValueOrDie();
}

algebra::DistinctCover OneFactorCover(const std::vector<relational::Row>& rows,
                                      size_t arity) {
  return OneFactorCover(rows, arity, arity);
}

bool IsNaNValue(const relational::Value& v) {
  return v.type() == relational::ValueType::kDouble && std::isnan(v.AsDouble());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(AnswerSetTest, CoverLayoutInsertsNullsAndDeduplicates) {
  relational::RelationSchema schema;
  ASSERT_TRUE(schema.AddColumn({"c.x", relational::ValueType::kString}).ok());
  relational::Relation rel(schema);
  ASSERT_TRUE(rel.AddRow({"v"}).ok());
  ASSERT_TRUE(rel.AddRow({"v"}).ok());  // duplicate collapses
  auto cover = algebra::DistinctCover::Make(
      {std::make_shared<const relational::Relation>(rel)}, {"c.x"});
  ASSERT_TRUE(cover.ok());
  std::vector<std::optional<std::string>> layout = {std::nullopt, "c.x"};
  auto columns = LayoutColumns(cover.ValueOrDie().schema(), layout);
  ASSERT_TRUE(columns.ok());
  EXPECT_EQ(columns.ValueOrDie(), (std::vector<int>{-1, 0}));
  EXPECT_FALSE(
      LayoutColumns(cover.ValueOrDie().schema(), {std::string("c.y")}).ok());
  AnswerSet answers({"a", "b"});
  answers.AddCover(cover.ValueOrDie(), columns.ValueOrDie(), 0.5);
  ASSERT_EQ(answers.size(), 1u);
  auto t = answers.Sorted()[0];
  EXPECT_TRUE(t.values[0].is_null());
  EXPECT_EQ(t.values[1].ToString(), "v");
  EXPECT_NEAR(t.probability, 0.5, 1e-12);
}

TEST(AnswerSetTest, EmptyCoverIsTheta) {
  AnswerSet answers({"a"});
  answers.AddCover(OneFactorCover({}, 1), {0}, 0.25);
  answers.AddCover(algebra::DistinctCover(), 0.125);
  EXPECT_EQ(answers.size(), 0u);
  EXPECT_EQ(answers.null_probability(), 0.375);
}

TEST(AnswerSetTest, CoverCountsARepeatedRowOnce) {
  using relational::Value;
  AnswerSet answers({"x"});
  // Column 1 differs, so the cover keeps all four rows; the layout
  // reads column 0 only, repeating "a".
  answers.AddCover(
      OneFactorCover({{"a", "1"}, {"b", "2"}, {"a", "3"}, {"a", "4"}}, 2),
      {0}, 0.25);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers.tuples()[0].probability, 0.25);
  EXPECT_EQ(answers.tuples()[1].probability, 0.25);
  // Across partitions the same row accumulates once per partition.
  answers.AddCover(OneFactorCover({{"c"}, {"a"}, {"a"}}, 1), {0}, 0.5);
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers.tuples()[0].values[0].ToString(), "a");
  EXPECT_EQ(answers.tuples()[0].probability, 0.75);
  EXPECT_EQ(answers.tuples()[2].values[0].ToString(), "c");
  EXPECT_EQ(answers.tuples()[2].probability, 0.5);
  // A plain Add is not a partition: it always accumulates.
  answers.Add({Value("a")}, 0.125);
  answers.Add({Value("a")}, 0.125);
  EXPECT_EQ(answers.tuples()[0].probability, 1.0);
}

TEST(AnswerSetTest, CoverProjectsThroughColumns) {
  using relational::Value;
  // Column 1 is dropped; a negative entry yields NULL.
  AnswerSet answers({"n", "y", "x"});
  answers.AddCover(
      OneFactorCover({{"a", "p", "u"}, {"a", "q", "u"}, {"b", "p", "u"}}, 3),
      {-1, 2, 0}, 0.5);
  ASSERT_EQ(answers.size(), 2u);
  const auto& first = answers.tuples()[0].values;
  ASSERT_EQ(first.size(), 3u);
  EXPECT_TRUE(first[0].is_null());
  EXPECT_EQ(first[1].ToString(), "u");
  EXPECT_EQ(first[2].ToString(), "a");
  // The same row added directly, NULL included, merges.
  answers.Add({Value::Null(), Value("u"), Value("a")}, 0.25);
  EXPECT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers.tuples()[0].probability, 0.75);
  answers.Add({Value("x"), Value("u"), Value("a")}, 0.25);
  EXPECT_EQ(answers.size(), 3u);
}

TEST(AnswerSetTest, IntAndDoubleMergeNaNNever) {
  using relational::Value;
  AnswerSet answers({"x"});
  answers.Add({Value(2)}, 0.25);
  answers.Add({Value(2.0)}, 0.25);
  // One column "2" plus a distinguishing one: the cover keeps both rows.
  answers.AddCover(
      OneFactorCover({{Value(int64_t{2}), "a"}, {Value(2.0), "b"}}, 2), {0},
      0.125);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers.tuples()[0].probability, 0.625);

  const Value nan(std::numeric_limits<double>::quiet_NaN());
  AnswerSet with_nan({"x"});
  with_nan.Add({nan}, 0.25);
  with_nan.Add({nan}, 0.25);
  with_nan.AddCover(OneFactorCover({{nan}, {nan}}, 1), {0}, 0.25);
  EXPECT_EQ(with_nan.size(), 4u);
  // ApproxEquals: a NaN row has no partner, not even in a copy.
  AnswerSet copy = with_nan;
  EXPECT_FALSE(with_nan.ApproxEquals(copy));
}

/// With deferred rows (the top-k and threshold sinks' set), a tuple's
/// row is built from the cover row that first produced it: INT64 `2`
/// then DOUBLE `2.0`, and DOUBLE `-0.0` then INT64 `0` and DOUBLE
/// `0.0`, keep the first, NaN rows never merge, and every row, bound
/// and touched position is what a set building its rows as it goes
/// gives.
TEST(AnswerSetTest, DeferredRowsKeepTheFirstMember) {
  using relational::Value;
  using relational::ValueType;
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  const std::vector<std::vector<relational::Row>> leaves = {
      {{Value(int64_t{2}), Value(-0.0)}, {nan, Value("a")}},
      {{Value(2.0), Value(int64_t{0})}, {nan, Value("a")}, {"b", Value(0.0)}},
      {{Value(2.0), Value(0.0)}, {"b", Value(-0.0)}},
  };
  AnswerSet deferred({"x", "y"}), eager({"x", "y"});
  deferred.DeferRows();
  std::vector<std::vector<uint32_t>> touched;
  double p = 0.125;
  for (const auto& rows : leaves) {
    touched.emplace_back();
    deferred.AddCover(OneFactorCover(rows, 2), p, &touched.back());
    eager.AddCover(OneFactorCover(rows, 2), p);
    p *= 2.0;
  }
  ASSERT_EQ(deferred.size(), 4u);  // (2, -0.0), two (NaN, a), (b, 0.0)
  ASSERT_EQ(eager.size(), 4u);
  EXPECT_EQ(touched, (std::vector<std::vector<uint32_t>>{
                         {0, 1}, {0, 2, 3}, {0, 3}}));
  for (size_t pos = 0; pos < eager.size(); ++pos) {
    const relational::Row row = deferred.BuildRow(pos);
    const relational::Row& expected = eager.tuples()[pos].values;
    ASSERT_EQ(row.size(), expected.size());
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(row[c].type(), expected[c].type()) << pos << " " << c;
      EXPECT_EQ(row[c].ToString(), expected[c].ToString()) << pos;
    }
    EXPECT_TRUE(SameBits(deferred.probability(pos),
                         eager.tuples()[pos].probability));
  }
  const relational::Row first = deferred.BuildRow(0);
  EXPECT_EQ(first[0].type(), ValueType::kInt64);
  EXPECT_EQ(first[1].type(), ValueType::kDouble);
  EXPECT_TRUE(std::signbit(first[1].AsDouble()));
  EXPECT_TRUE(std::isnan(deferred.BuildRow(1)[0].AsDouble()));
  EXPECT_TRUE(std::isnan(deferred.BuildRow(2)[0].AsDouble()));
  EXPECT_FALSE(std::signbit(deferred.BuildRow(3)[1].AsDouble()));
  EXPECT_EQ(deferred.probability(0), 0.875);
}

/// Only BuildRow reads a deferred set's rows; every other row reader,
/// Add, BuildRow on a set that builds its rows, and deferring a set
/// that holds tuples, fail loudly.
TEST(AnswerSetDeathTest, DeferredRowsFailEveryOtherReader) {
  using relational::Value;
  AnswerSet deferred({"x"});
  deferred.DeferRows();
  deferred.AddCover(OneFactorCover({{"a"}, {"b"}}, 1), 0.5);
  EXPECT_EQ(deferred.BuildRow(1)[0].ToString(), "b");
  EXPECT_DEATH(deferred.tuples(), "deferred");
  EXPECT_DEATH(deferred.Sorted(), "deferred");
  EXPECT_DEATH(deferred.TopK(1), "deferred");
  EXPECT_DEATH(deferred.ToString(), "deferred");
  EXPECT_DEATH(deferred.ApproxBytes(), "deferred");
  EXPECT_DEATH(deferred.ApproxEquals(deferred), "deferred");
  EXPECT_DEATH(AnswerSet(deferred).TakeTuples(), "deferred");
  EXPECT_DEATH(deferred.Add({Value("c")}, 0.25), "deferred");
  AnswerSet filled({"x"});
  filled.Add({Value("a")}, 0.5);
  EXPECT_DEATH(filled.BuildRow(0), "deferred");
  EXPECT_DEATH(filled.DeferRows(), "empty");
}

TEST(AnswerSetTest, ApproxEqualsIgnoresOrderButNotMass) {
  using relational::Value;
  AnswerSet a({"x", "y"}), b({"x", "y"});
  for (int i = 0; i < 100; ++i) a.Add({Value(i), Value("v")}, 0.01 * i);
  for (int i = 99; i >= 0; --i) b.Add({Value(i * 1.0), Value("v")}, 0.01 * i);
  EXPECT_TRUE(a.ApproxEquals(b));
  EXPECT_TRUE(b.ApproxEquals(a));
  AnswerSet c = b;
  c.Add({Value(7), Value("v")}, 1e-6);
  EXPECT_FALSE(a.ApproxEquals(c));
  EXPECT_TRUE(a.ApproxEquals(c, 1e-5));
  AnswerSet d = b;
  d.AddNull(0.5);
  EXPECT_FALSE(a.ApproxEquals(d));
  AnswerSet e = a;
  e.Add({Value(100), Value("v")}, 0.0);
  EXPECT_FALSE(a.ApproxEquals(e));
  EXPECT_FALSE(e.ApproxEquals(a));
}

TEST(AnswerSetTest, GrowsPastOneHundredThousandTuples) {
  using relational::Row;
  using relational::Value;
  constexpr int kTuples = 150000;
  AnswerSet answers({"x", "y"});
  std::vector<Row> rows;
  for (int i = 0; i < kTuples; ++i) {
    rows.push_back({Value(i), Value("s" + std::to_string(i % 97))});
  }
  answers.AddCover(OneFactorCover(rows, 2), {0, 1}, 0.5);
  ASSERT_EQ(answers.size(), static_cast<size_t>(kTuples));
  rows.clear();
  for (int i = kTuples - 1; i >= 0; i -= 3) {
    rows.push_back({Value(i * 1.0), Value("s" + std::to_string(i % 97))});
  }
  answers.AddCover(OneFactorCover(rows, 2), {0, 1}, 0.25);
  ASSERT_EQ(answers.size(), static_cast<size_t>(kTuples));
  for (int i = 0; i < kTuples; ++i) {
    const auto& t = answers.tuples()[static_cast<size_t>(i)];
    ASSERT_EQ(t.values[0].AsInt64(), i);
    ASSERT_EQ(t.probability, (kTuples - 1 - i) % 3 == 0 ? 0.75 : 0.5) << i;
  }
}

TEST(AnswerSetTest, CopiesAndMovesKeepAWorkingIndex) {
  using relational::Row;
  using relational::Value;
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back({Value(i)});
  AnswerSet original({"x"});
  original.AddCover(OneFactorCover(rows, 1), {0}, 0.5);

  AnswerSet copy = original;
  copy.AddCover(OneFactorCover({{Value(10)}, {Value(5000)}}, 1), {0}, 0.25);
  EXPECT_EQ(copy.size(), 1001u);
  EXPECT_EQ(copy.tuples()[10].probability, 0.75);
  EXPECT_EQ(original.size(), 1000u);
  EXPECT_EQ(original.tuples()[10].probability, 0.5);

  AnswerSet assigned({"x"});
  assigned.Add({Value("other")}, 1.0);
  assigned = original;
  assigned.AddCover(OneFactorCover({{Value(999)}}, 1), {0}, 0.25);
  EXPECT_EQ(assigned.size(), 1000u);
  EXPECT_EQ(assigned.tuples()[999].probability, 0.75);
  EXPECT_EQ(original.tuples()[999].probability, 0.5);

  AnswerSet moved = std::move(copy);
  moved.AddCover(OneFactorCover({{Value(5000)}, {Value(20)}}, 1), {0}, 0.25);
  EXPECT_EQ(moved.size(), 1001u);
  EXPECT_EQ(moved.tuples()[1000].probability, 0.5);
  EXPECT_EQ(moved.tuples()[20].probability, 0.75);
  EXPECT_EQ(original.tuples()[20].probability, 0.5);
  // The moved-from set is empty and takes rows again.
  copy.Add({Value(7)}, 0.5);
  copy.AddCover(OneFactorCover({{Value(7)}}, 1), {0}, 0.25);
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy.tuples()[0].probability, 0.75);
}

/// Seeded differential test against the definition: a linear-scan
/// reference accumulator over RowsEqual, with per-partition dedup by
/// first occurrence. Tuple order and probability bits must match.
TEST(AnswerSetTest, MatchesLinearScanReference) {
  using relational::Row;
  using relational::Value;
  struct Ref {
    Row values;
    double probability;
  };
  auto ref_add = [](std::vector<Ref>* ref, const Row& row, double p) {
    for (auto& t : *ref) {
      if (relational::RowsEqual(t.values, row)) {
        t.probability += p;
        return;
      }
    }
    ref->push_back(Ref{row, p});
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    auto value = [&]() -> Value {
      switch (rng.Uniform(0, 6)) {
        case 0:
          return Value::Null();
        case 1:
          return Value(rng.Uniform(0, 5));
        case 2:
          return Value(static_cast<double>(rng.Uniform(0, 5)));
        case 3:
          return Value(rng.Uniform(0, 5) + 0.5);
        case 4:
          return Value(rng.Bernoulli(0.05) ? nan : -0.0);
        default:
          return Value(std::string(1, "abcd"[rng.Uniform(0, 3)]));
      }
    };
    const size_t arity = static_cast<size_t>(rng.Uniform(1, 3));
    AnswerSet got({"x"});
    std::vector<Ref> ref;
    const int partitions = static_cast<int>(rng.Uniform(1, 40));
    for (int part = 0; part < partitions; ++part) {
      const double p = rng.NextDouble() * 0.1;
      if (rng.Bernoulli(0.2)) {
        // A plain Add between partitions (the o-sharing / merge path).
        Row row;
        for (size_t c = 0; c < arity; ++c) row.push_back(value());
        got.Add(row, p);
        ref_add(&ref, row, p);
        continue;
      }
      // Cover rows are one column wider than the answer; the layout
      // picks a random subset (with repeats and NULLs), so projection
      // itself creates duplicates.
      std::vector<int> columns;
      for (size_t c = 0; c < arity; ++c) {
        columns.push_back(static_cast<int>(rng.Uniform(-1, arity)));
      }
      std::vector<Row> rows;
      const int n = static_cast<int>(rng.Uniform(0, 60));
      for (int i = 0; i < n; ++i) {
        if (!rows.empty() && rng.Bernoulli(0.3)) {
          rows.push_back(rows[static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(rows.size()) - 1))]);
          continue;
        }
        Row row;
        for (size_t c = 0; c <= arity; ++c) row.push_back(value());
        rows.push_back(std::move(row));
      }
      got.AddCover(OneFactorCover(rows, arity + 1), columns, p);
      std::vector<Row> distinct;
      for (const Row& row : rows) {
        Row projected;
        for (int c : columns) {
          projected.push_back(c < 0 ? Value::Null()
                                    : row[static_cast<size_t>(c)]);
        }
        bool seen = false;
        for (const Row& d : distinct) {
          if (relational::RowsEqual(d, projected)) seen = true;
        }
        if (!seen) distinct.push_back(std::move(projected));
      }
      for (const Row& d : distinct) ref_add(&ref, d, p);
    }
    ASSERT_EQ(got.size(), ref.size()) << "seed " << seed;
    for (size_t i = 0; i < ref.size(); ++i) {
      const auto& t = got.tuples()[i];
      ASSERT_EQ(t.values.size(), ref[i].values.size());
      for (size_t c = 0; c < t.values.size(); ++c) {
        // Same cell, same type: the first inserted row is kept.
        EXPECT_EQ(t.values[c].ToString(), ref[i].values[c].ToString())
            << "seed " << seed << " tuple " << i;
        EXPECT_EQ(t.values[c].type(), ref[i].values[c].type());
      }
      EXPECT_TRUE(SameBits(t.probability, ref[i].probability))
          << "seed " << seed << " tuple " << i << ": " << t.probability
          << " vs " << ref[i].probability;
    }
  }
}

TEST(AnswerSetTest, CoverLayoutRowsKeepFirstOccurrenceOrder) {
  using relational::Row;
  using relational::Value;
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  auto cover = OneFactorCover(
      {{"b", "1"}, {"a", "2"}, {"b", "3"}, {nan, "4"}, {"a", "5"}, {nan, "6"}},
      2, 1);
  std::vector<Row> rows;
  cover.AppendRows(&rows);
  AnswerSet answers({"x"});
  answers.AddCover(cover, {0}, 0.5);
  ASSERT_EQ(rows.size(), 4u);  // NaN rows never collapse
  ASSERT_EQ(answers.size(), 4u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].ToString(), answers.tuples()[i].values[0].ToString());
  }
  EXPECT_EQ(rows[0][0].ToString(), "b");
  EXPECT_EQ(rows[1][0].ToString(), "a");
  EXPECT_TRUE(std::isnan(rows[2][0].AsDouble()));
  EXPECT_TRUE(std::isnan(rows[3][0].AsDouble()));
}

/// Seeded differential test over random covers: AddCover against a
/// reference that materializes the product, projects it, dedups each
/// partition through its layout and accumulates by linear scan. Tuple
/// order, value types and probability bits must match, and AppendRows
/// must equal Project + Distinct of the materialized product.
TEST(AnswerSetTest, CoverMatchesMaterializedReference) {
  using relational::Relation;
  using relational::RelationPtr;
  using relational::Row;
  using relational::Value;
  struct Ref {
    Row values;
    double probability;
  };
  auto same_row = [](const Row& a, const Row& b) {
    if (a.size() != b.size()) return false;
    for (size_t c = 0; c < a.size(); ++c) {
      if (a[c].ToString() != b[c].ToString() || a[c].type() != b[c].type()) {
        return false;
      }
    }
    return true;
  };
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // NaN equals nothing, itself included, so Distinct over a
    // materialized product keeps every pairing of a NaN row with the
    // other factors' rows, repeats included, where the cover pairs
    // distinct picks. NaN is drawn for one-factor covers only, where
    // the two agree.
    bool allow_nan = false;
    auto value = [&]() -> Value {
      switch (rng.Uniform(0, 5)) {
        case 0:
          return Value(rng.Uniform(0, 3));
        case 1:
          return Value(static_cast<double>(rng.Uniform(0, 3)));
        case 2:
          return Value(rng.Uniform(0, 3) + 0.5);
        case 3:
          return allow_nan && rng.Bernoulli(0.2) ? nan : Value(2);
        default:
          return Value(std::string(1, "abc"[rng.Uniform(0, 2)]));
      }
    };
    AnswerSet got({"x"});
    std::vector<Ref> ref;
    double ref_null = 0.0;
    const int partitions = static_cast<int>(rng.Uniform(1, 12));
    for (int part = 0; part < partitions; ++part) {
      // 1-3 factors f<i> with 1-3 columns each and repeated rows.
      const size_t num_factors = static_cast<size_t>(rng.Uniform(1, 3));
      allow_nan = num_factors == 1;
      std::vector<RelationPtr> factors;
      std::vector<std::string> all_columns;
      // One factor (when there are several) may hold no projected
      // column; it is sometimes empty.
      const size_t bystander =
          num_factors > 1 && rng.Bernoulli(0.5)
              ? static_cast<size_t>(rng.Uniform(0, num_factors - 1))
              : num_factors;
      for (size_t f = 0; f < num_factors; ++f) {
        relational::RelationSchema schema;
        const size_t arity = static_cast<size_t>(rng.Uniform(1, 3));
        for (size_t c = 0; c < arity; ++c) {
          std::string name = "f" + std::to_string(f) + ".c" + std::to_string(c);
          ASSERT_TRUE(
              schema.AddColumn({name, relational::ValueType::kString}).ok());
          if (f != bystander) all_columns.push_back(name);
        }
        std::vector<Row> rows;
        const int n = f == bystander && rng.Bernoulli(0.3)
                          ? 0
                          : static_cast<int>(rng.Uniform(0, 6));
        for (int i = 0; i < n; ++i) {
          if (!rows.empty() && rng.Bernoulli(0.3)) {
            rows.push_back(rows[static_cast<size_t>(
                rng.Uniform(0, static_cast<int64_t>(rows.size()) - 1))]);
            continue;
          }
          Row row;
          for (size_t c = 0; c < arity; ++c) row.push_back(value());
          rows.push_back(std::move(row));
        }
        factors.push_back(std::make_shared<const Relation>(
            Relation(std::move(schema), std::move(rows))));
      }
      // Projected columns: a shuffled subset, at least one.
      for (size_t i = all_columns.size(); i > 1; --i) {
        std::swap(all_columns[i - 1],
                  all_columns[static_cast<size_t>(
                      rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
      }
      std::vector<std::string> columns(
          all_columns.begin(),
          all_columns.begin() +
              rng.Uniform(1, static_cast<int64_t>(all_columns.size())));
      std::vector<int> layout;
      const size_t answer_arity = static_cast<size_t>(rng.Uniform(1, 3));
      for (size_t c = 0; c < answer_arity; ++c) {
        layout.push_back(static_cast<int>(
            rng.Uniform(-1, static_cast<int64_t>(columns.size()) - 1)));
      }

      auto cover = algebra::DistinctCover::Make(factors, columns);
      ASSERT_TRUE(cover.ok()) << cover.status().ToString();
      const double p = rng.NextDouble() * 0.1;
      got.AddCover(cover.ValueOrDie(), layout, p);

      // Reference: Project + Distinct of the materialized product.
      Relation product = *factors[0];
      for (size_t f = 1; f < factors.size(); ++f) {
        auto next = product.Product(*factors[f]);
        ASSERT_TRUE(next.ok());
        product = std::move(next).ValueOrDie();
      }
      auto projected = product.Project(columns);
      ASSERT_TRUE(projected.ok());
      const Relation distinct = projected.ValueOrDie().Distinct();
      std::vector<Row> appended;
      cover.ValueOrDie().AppendRows(&appended);
      ASSERT_EQ(appended.size(), distinct.num_rows()) << "seed " << seed;
      ASSERT_EQ(cover.ValueOrDie().num_rows(), distinct.num_rows());
      for (size_t i = 0; i < appended.size(); ++i) {
        EXPECT_TRUE(same_row(appended[i], distinct.rows()[i]))
            << "seed " << seed << " row " << i;
      }
      if (distinct.empty()) {
        ref_null += p;
        continue;
      }
      std::vector<Row> partition;
      for (const Row& row : projected.ValueOrDie().rows()) {
        Row answer;
        for (int c : layout) {
          answer.push_back(c < 0 ? Value::Null() : row[static_cast<size_t>(c)]);
        }
        bool seen = false;
        for (const Row& d : partition) {
          if (relational::RowsEqual(d, answer)) seen = true;
        }
        if (!seen) partition.push_back(std::move(answer));
      }
      for (const Row& d : partition) {
        bool merged = false;
        for (auto& t : ref) {
          if (relational::RowsEqual(t.values, d)) {
            t.probability += p;
            merged = true;
            break;
          }
        }
        if (!merged) ref.push_back(Ref{d, p});
      }
    }
    ASSERT_EQ(got.size(), ref.size()) << "seed " << seed;
    EXPECT_TRUE(SameBits(got.null_probability(), ref_null)) << "seed " << seed;
    for (size_t i = 0; i < ref.size(); ++i) {
      const auto& t = got.tuples()[i];
      EXPECT_TRUE(same_row(t.values, ref[i].values))
          << "seed " << seed << " tuple " << i;
      EXPECT_TRUE(SameBits(t.probability, ref[i].probability))
          << "seed " << seed << " tuple " << i << ": " << t.probability
          << " vs " << ref[i].probability;
    }
    // AddCover hashed each tuple as HashRow does: a plain Add of a
    // non-NaN tuple finds it.
    const size_t size = got.size();
    for (const Ref& r : ref) {
      bool has_nan = false;
      for (const Value& v : r.values) {
        has_nan = has_nan || (v.type() == relational::ValueType::kDouble &&
                              std::isnan(v.AsDouble()));
      }
      if (!has_nan) got.Add(r.values, 0.0);
    }
    EXPECT_EQ(got.size(), size) << "seed " << seed;
  }
}

/// The comparator AnswerSet ordered copied tuples with before it ranked
/// codes: probability descending, ties by RowLess of the rows.
bool RowOrderLess(const AnswerTuple& a, const AnswerTuple& b) {
  if (a.probability != b.probability) return a.probability > b.probability;
  return relational::RowLess(a.values, b.values);
}

/// Seeded reference test of the ordering routine: Order, Sorted and TopK
/// must give, position by position, what std::sort / std::partial_sort
/// of copied tuples under RowOrderLess gives — over rows of 1-3 columns
/// mixing ints, `2` and `2.0`, doubles, -0.0, strings and NULL, with
/// probabilities drawn from three values so rows decide most ties, and
/// with and without NaN. Seeds past 200 build wide rows (6-12 columns,
/// some cut short) whose leading columns hold hundreds of classes, so
/// their ranks overflow Order's 64-bit packed prefix, while rows sharing
/// one of four prefixes leave the ties to the columns past it; in NaN
/// sets, NaN is confined to one column whose position varies.
TEST(AnswerSetTest, OrderMatchesRowLessReference) {
  using relational::Row;
  using relational::Value;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto same_tuple = [](const AnswerTuple& a, const AnswerTuple& b) {
    if (a.values.size() != b.values.size()) return false;
    for (size_t c = 0; c < a.values.size(); ++c) {
      if (a.values[c].type() != b.values[c].type() ||
          a.values[c].ToString() != b.values[c].ToString()) {
        return false;
      }
    }
    return SameBits(a.probability, b.probability);
  };
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const bool with_nan = seed % 2 == 0;
    const bool wide = seed > 200;
    auto value = [&]() -> Value {
      switch (rng.Uniform(0, 7)) {
        case 0:
          return Value::Null();
        case 1:
          return Value(rng.Uniform(0, 3));
        case 2:
          return rng.Bernoulli(0.5) ? Value(2) : Value(2.0);
        case 3:
          return Value(rng.Uniform(0, 3) + 0.5);
        case 4:
          return rng.Bernoulli(0.5) ? Value(-0.0) : Value(0);
        case 5:
          return with_nan && rng.Bernoulli(0.3) ? Value(nan) : Value(-1.5);
        default:
          return Value(std::string(rng.Uniform(0, 2),
                                   "ab"[rng.Uniform(0, 1)]));
      }
    };
    // std::sort requires a strict weak order, which NaN breaks (it is
    // equivalent to every number), so NaN sets stay at 16 tuples, where
    // libstdc++ sorts by guarded insertion alone.
    const int64_t max_tuples = with_nan ? 16 : 400;
    const size_t arity = static_cast<size_t>(wide ? rng.Uniform(6, 12)
                                                  : rng.Uniform(1, 3));
    const bool mixed_widths = rng.Bernoulli(0.2);
    // Wide rows: every column but the last two comes from a row-wide
    // prefix, fresh or one of four shared ones; NaN only at nan_column.
    size_t nan_column = 0;
    std::vector<Row> prefixes(wide ? 4 : 0);
    if (wide) {
      nan_column = static_cast<size_t>(rng.Uniform(0, arity - 1));
      for (Row& shared : prefixes) {
        for (size_t c = 0; c + 2 < arity; ++c) {
          shared.emplace_back(rng.Uniform(0, 999999));
        }
      }
    }
    auto wide_row = [&]() {
      Row row = prefixes[static_cast<size_t>(rng.Uniform(0, 3))];
      if (rng.Bernoulli(0.5)) {
        for (Value& v : row) v = Value(rng.Uniform(0, 999999));
      }
      row.push_back(value());
      row.push_back(value());
      for (size_t c = 0; c < arity; ++c) {
        if (c == nan_column && with_nan && rng.Bernoulli(0.3)) {
          row[c] = nan;
        } else if (c != nan_column && IsNaNValue(row[c])) {
          row[c] = Value(-1.5);
        }
      }
      if (mixed_widths && rng.Bernoulli(0.5)) {
        row.resize(static_cast<size_t>(rng.Uniform(1, arity)));
      }
      return row;
    };
    AnswerSet answers({"x"});
    for (int round = 0; round < 20 &&
                        static_cast<int64_t>(answers.size()) < max_tuples;
         ++round) {
      const double p = 0.125 * static_cast<double>(rng.Uniform(1, 3));
      std::vector<Row> rows;
      const int64_t n = rng.Uniform(1, max_tuples / 4 + 1);
      for (int64_t i = 0; i < n; ++i) {
        if (wide) {
          rows.push_back(wide_row());
          continue;
        }
        const size_t width =
            mixed_widths ? static_cast<size_t>(rng.Uniform(1, 3)) : arity;
        Row row;
        for (size_t c = 0; c < width; ++c) row.push_back(value());
        rows.push_back(std::move(row));
      }
      if (mixed_widths || rng.Bernoulli(0.3)) {
        for (const Row& row : rows) {
          if (static_cast<int64_t>(answers.size()) >= max_tuples) break;
          answers.Add(row, p);
        }
      } else {
        while (static_cast<int64_t>(answers.size() + rows.size()) >
               max_tuples) {
          rows.pop_back();
        }
        if (!rows.empty()) answers.AddCover(OneFactorCover(rows, arity), p);
      }
    }
    const std::vector<AnswerTuple>& tuples = answers.tuples();
    const size_t n = tuples.size();
    std::vector<uint32_t> identity(n);
    std::iota(identity.begin(), identity.end(), 0u);
    auto index_less = [&tuples](uint32_t a, uint32_t b) {
      return RowOrderLess(tuples[a], tuples[b]);
    };

    // Full order: std::sort of copied tuples, and of positions.
    std::vector<AnswerTuple> expected = tuples;
    std::sort(expected.begin(), expected.end(), RowOrderLess);
    std::vector<uint32_t> expected_order = identity;
    std::sort(expected_order.begin(), expected_order.end(), index_less);
    std::vector<uint32_t> order = identity;
    answers.Order(&order);
    ASSERT_EQ(order, expected_order) << "seed " << seed;
    const std::vector<AnswerTuple> sorted = answers.Sorted();
    ASSERT_EQ(sorted.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_tuple(sorted[i], expected[i]))
          << "seed " << seed << " position " << i;
    }

    for (size_t k : {size_t{1}, size_t{3}, n / 2, n, n + 1}) {
      // TopK is the first k of the full order.
      const std::vector<AnswerTuple> top = answers.TopK(k);
      ASSERT_EQ(top.size(), std::min(k, n));
      for (size_t i = 0; i < top.size(); ++i) {
        ASSERT_TRUE(same_tuple(top[i], expected[i]))
            << "seed " << seed << " k " << k << " position " << i;
      }
      // Order with k: std::partial_sort over the first min(k, n).
      const size_t take = std::min(k, n);
      std::vector<uint32_t> expected_partial = identity;
      std::partial_sort(expected_partial.begin(),
                        expected_partial.begin() +
                            static_cast<std::ptrdiff_t>(take),
                        expected_partial.end(), index_less);
      std::vector<uint32_t> partial = identity;
      answers.Order(&partial, k);
      const auto end = partial.begin() + static_cast<std::ptrdiff_t>(take);
      ASSERT_TRUE(std::equal(partial.begin(), end, expected_partial.begin()))
          << "seed " << seed << " k " << k;
    }
    // A subset (the threshold sinks' filtered positions) orders alike.
    std::vector<uint32_t> subset;
    for (uint32_t pos = 0; pos < n; ++pos) {
      if (tuples[pos].probability >= 0.25) subset.push_back(pos);
    }
    std::vector<uint32_t> expected_subset = subset;
    std::sort(expected_subset.begin(), expected_subset.end(), index_less);
    answers.Order(&subset);
    ASSERT_EQ(subset, expected_subset) << "seed " << seed;
  }
}

}  // namespace
}  // namespace reformulation
}  // namespace urm
