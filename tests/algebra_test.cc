#include <gtest/gtest.h>

#include <unordered_set>

#include "algebra/evaluate.h"
#include "algebra/fingerprint.h"
#include "algebra/optimize.h"
#include "algebra/plan.h"
#include "common/logging.h"
#include "common/random.h"
#include "relational/catalog.h"

namespace urm {
namespace algebra {
namespace {

using relational::Catalog;
using relational::ColumnDef;
using relational::Relation;
using relational::RelationSchema;
using relational::Value;
using relational::ValueType;

Catalog SmallCatalog() {
  Catalog catalog;
  {
    RelationSchema s;
    URM_CHECK_OK(s.AddColumn({"r.id", ValueType::kString}));
    URM_CHECK_OK(s.AddColumn({"r.v", ValueType::kInt64}));
    Relation r(s);
    URM_CHECK_OK(r.AddRow({"a", 1}));
    URM_CHECK_OK(r.AddRow({"b", 2}));
    URM_CHECK_OK(r.AddRow({"c", 2}));
    URM_CHECK_OK(catalog.Register(
        "r", std::make_shared<const Relation>(std::move(r))));
  }
  {
    RelationSchema s;
    URM_CHECK_OK(s.AddColumn({"s.id", ValueType::kString}));
    URM_CHECK_OK(s.AddColumn({"s.w", ValueType::kDouble}));
    Relation r(s);
    URM_CHECK_OK(r.AddRow({"a", 0.5}));
    URM_CHECK_OK(r.AddRow({"b", 1.5}));
    URM_CHECK_OK(catalog.Register(
        "s", std::make_shared<const Relation>(std::move(r))));
  }
  {
    RelationSchema s;
    URM_CHECK_OK(s.AddColumn({"t.k", ValueType::kString}));
    URM_CHECK_OK(s.AddColumn({"t.x", ValueType::kInt64}));
    Relation r(s);
    URM_CHECK_OK(r.AddRow({"p", 3}));
    URM_CHECK_OK(r.AddRow({"q", 4}));
    URM_CHECK_OK(r.AddRow({"r", 3}));
    URM_CHECK_OK(catalog.Register(
        "t", std::make_shared<const Relation>(std::move(r))));
  }
  return catalog;
}

/// A Cartesian cover over the small catalog and the number of
/// selections inside its factors (the only operators below the
/// aggregate the evaluator runs).
struct Cover {
  std::string name;
  PlanPtr plan;
  size_t selections;
};

/// Two- and three-factor covers, left-deep and bushy, and one whose
/// middle factor is empty (the owner of s1.w, a non-owner otherwise).
std::vector<Cover> Covers() {
  PlanPtr r = MakeScan("r", "r1");
  PlanPtr s = MakeScan("s", "s1");
  PlanPtr t = MakeScan("t", "t1");
  PlanPtr none = MakeSelect(
      s, Predicate::AttrCmpValue("s1.id", CmpOp::kEq, "zzz"));
  return {{"r×s", MakeProduct(r, s), 0},
          {"(r×s)×t", MakeProduct(MakeProduct(r, s), t), 0},
          {"r×(s×t)", MakeProduct(r, MakeProduct(s, t)), 0},
          {"(r×∅)×t", MakeProduct(MakeProduct(r, none), t), 1}};
}

/// The materialized rows of `plan` (the evaluator builds plain
/// Products): the reference the factor-based answers must match.
relational::RelationPtr Materialize(const PlanPtr& plan,
                                    const Catalog& catalog) {
  auto rel = Evaluate(plan, catalog);
  URM_CHECK(rel.ok()) << rel.status().ToString();
  return rel.ValueOrDie();
}

/// SUM(attr) over materialized rows, row by row; INT64 unless a
/// numeric cell is not.
Value ReferenceSum(const Relation& rel, const std::string& attr) {
  size_t idx = *rel.schema().IndexOf(attr);
  double sum = 0.0;
  bool all_int = true;
  for (const auto& row : rel.rows()) {
    if (!row[idx].is_numeric()) continue;
    all_int = all_int && row[idx].type() == ValueType::kInt64;
    sum += row[idx].NumericValue();
  }
  return all_int ? Value(static_cast<int64_t>(sum)) : Value(sum);
}

TEST(ExprTest, CompareValuesAllOps) {
  EXPECT_TRUE(CompareValues(Value(2), CmpOp::kEq, Value(2.0)));
  EXPECT_TRUE(CompareValues(Value(1), CmpOp::kNe, Value(2)));
  EXPECT_TRUE(CompareValues(Value(1), CmpOp::kLt, Value(2)));
  EXPECT_TRUE(CompareValues(Value(2), CmpOp::kLe, Value(2)));
  EXPECT_TRUE(CompareValues(Value(3), CmpOp::kGt, Value(2)));
  EXPECT_TRUE(CompareValues(Value(2), CmpOp::kGe, Value(2)));
  EXPECT_FALSE(CompareValues(Value(2), CmpOp::kLt, Value(2)));
}

TEST(ExprTest, NullComparisonsAreFalse) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    EXPECT_FALSE(CompareValues(Value::Null(), op, Value(1)));
    EXPECT_FALSE(CompareValues(Value(1), op, Value::Null()));
  }
}

TEST(ExprTest, PredicateRename) {
  Predicate p = Predicate::AttrCmpAttr("a.x", CmpOp::kEq, "b.y");
  Predicate renamed = p.RenameAttributes({{"a.x", "s.x"}, {"b.y", "t.y"}});
  EXPECT_EQ(renamed.lhs, "s.x");
  EXPECT_EQ(*renamed.rhs_attr, "t.y");
}

TEST(ExprTest, PredicateToStringForms) {
  EXPECT_EQ(
      Predicate::AttrCmpValue("a.x", CmpOp::kEq, "v").ToString(),
      "a.x = 'v'");
  EXPECT_EQ(Predicate::AttrCmpAttr("a.x", CmpOp::kLt, "b.y").ToString(),
            "a.x < b.y");
}

TEST(ExprTest, BindFailsOnMissingAttr) {
  Catalog catalog = SmallCatalog();
  auto rel = catalog.Get("r").ValueOrDie();
  auto bound = BoundPredicate::Bind(
      Predicate::AttrCmpValue("nope", CmpOp::kEq, 1), rel->schema());
  EXPECT_FALSE(bound.ok());
}

TEST(PlanTest, CountOperatorsSkipsLeavesAndDistinct) {
  PlanPtr p = MakeScan("r", "r1");
  EXPECT_EQ(CountOperators(p), 0u);
  p = MakeSelect(p, Predicate::AttrCmpValue("r1.v", CmpOp::kEq, 2));
  p = MakeProject(p, {"r1.id"});
  p = MakeDistinct(p);
  EXPECT_EQ(CountOperators(p), 2u);
  PlanPtr prod = MakeProduct(p, MakeScan("s", "s1"));
  EXPECT_EQ(CountOperators(prod), 3u);
}

TEST(PlanTest, ReferencedAttributesFirstOccurrenceOrder) {
  PlanPtr p = MakeScan("r", "r1");
  p = MakeSelect(p, Predicate::AttrCmpValue("r1.v", CmpOp::kEq, 2));
  p = MakeSelect(p, Predicate::AttrCmpAttr("r1.id", CmpOp::kEq, "r1.v"));
  p = MakeProject(p, {"r1.id"});
  auto attrs = ReferencedAttributes(p);
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0], "r1.id");  // outermost first
  EXPECT_EQ(attrs[1], "r1.v");
}

TEST(PlanTest, CanonicalDistinguishesPlans) {
  PlanPtr a = MakeSelect(MakeScan("r", "r1"),
                         Predicate::AttrCmpValue("r1.v", CmpOp::kEq, 2));
  PlanPtr b = MakeSelect(MakeScan("r", "r1"),
                         Predicate::AttrCmpValue("r1.v", CmpOp::kEq, 3));
  PlanPtr a2 = MakeSelect(MakeScan("r", "r1"),
                          Predicate::AttrCmpValue("r1.v", CmpOp::kEq, 2));
  EXPECT_NE(Canonical(a), Canonical(b));
  EXPECT_EQ(Canonical(a), Canonical(a2));
}

TEST(EvaluateTest, ScanRenamesColumnsToAlias) {
  Catalog catalog = SmallCatalog();
  auto rel = Evaluate(MakeScan("r", "x"), catalog);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.ValueOrDie()->schema().column(0).name, "x.id");
}

TEST(EvaluateTest, SelectFilters) {
  Catalog catalog = SmallCatalog();
  PlanPtr p = MakeSelect(MakeScan("r", "r1"),
                         Predicate::AttrCmpValue("r1.v", CmpOp::kEq, 2));
  auto rel = Evaluate(p, catalog);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.ValueOrDie()->num_rows(), 2u);
}

TEST(EvaluateTest, ProjectAndDistinct) {
  Catalog catalog = SmallCatalog();
  PlanPtr p = MakeDistinct(MakeProject(MakeScan("r", "r1"), {"r1.v"}));
  auto rel = Evaluate(p, catalog);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.ValueOrDie()->num_rows(), 2u);  // values 1 and 2
}

TEST(EvaluateTest, ProductCardinality) {
  Catalog catalog = SmallCatalog();
  PlanPtr p = MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1"));
  auto rel = Evaluate(p, catalog);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.ValueOrDie()->num_rows(), 6u);
}

TEST(EvaluateTest, FusedHashJoinMatchesProductFilter) {
  Catalog catalog = SmallCatalog();
  PlanPtr join = MakeSelect(
      MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")),
      Predicate::AttrCmpAttr("r1.id", CmpOp::kEq, "s1.id"));
  EvalStats stats;
  EvalContext ctx;
  ctx.catalog = &catalog;
  ctx.stats = &stats;
  auto rel = Evaluate(join, ctx);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.ValueOrDie()->num_rows(), 2u);  // a and b match
  // Fused path still accounts for product + selection.
  EXPECT_EQ(stats.operators_executed, 2u);
}

TEST(EvaluateTest, CountOverProductIsLazy) {
  Catalog catalog = SmallCatalog();
  for (const Cover& cover : Covers()) {
    for (bool project : {false, true}) {
      PlanPtr input = project ? MakeProject(cover.plan, {"r1.id"})
                              : cover.plan;
      EvalStats stats;
      EvalContext ctx;
      ctx.catalog = &catalog;
      ctx.stats = &stats;
      auto rel = Evaluate(MakeAggregate(input, AggKind::kCount), ctx);
      ASSERT_TRUE(rel.ok()) << cover.name;
      size_t rows = Materialize(cover.plan, catalog)->num_rows();
      EXPECT_EQ(rel.ValueOrDie()->rows()[0][0],
                Value(static_cast<int64_t>(rows)))
          << cover.name;
      // Only the aggregate's own row: no product row is built.
      EXPECT_EQ(stats.tuples_produced, 1u) << cover.name;
      // Neither the Products nor a Project seen through are counted.
      EXPECT_EQ(stats.operators_executed, 1 + cover.selections)
          << cover.name << (project ? " π" : "");
    }
  }
}

TEST(EvaluateTest, SumOverProductScalesByOtherSide) {
  Catalog catalog = SmallCatalog();
  // sum(v) = 5, times |s| = 2.
  auto simple = Evaluate(
      MakeAggregate(MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")),
                    AggKind::kSum, "r1.v"),
      catalog);
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(simple.ValueOrDie()->rows()[0][0], Value(10));

  // An int column in the first and the last factor, a string column
  // (sums to INT64 0) and a double column.
  for (const Cover& cover : Covers()) {
    for (const std::string attr : {"r1.v", "t1.x", "r1.id", "s1.w"}) {
      if (!Materialize(cover.plan, catalog)->schema().IndexOf(attr)) {
        continue;  // t is not in the two-factor cover
      }
      for (bool project : {false, true}) {
        std::string label = cover.name + " SUM(" + attr + ")" +
                            (project ? " π" : "");
        PlanPtr input = project ? MakeProject(cover.plan, {attr})
                                : cover.plan;
        EvalStats stats;
        EvalContext ctx;
        ctx.catalog = &catalog;
        ctx.stats = &stats;
        auto rel = Evaluate(MakeAggregate(input, AggKind::kSum, attr), ctx);
        ASSERT_TRUE(rel.ok()) << label << ": " << rel.status().ToString();
        Value expected =
            ReferenceSum(*Materialize(cover.plan, catalog), attr);
        const Value& got = rel.ValueOrDie()->rows()[0][0];
        EXPECT_EQ(got, expected) << label;
        EXPECT_EQ(got.type(), expected.type()) << label;
        EXPECT_EQ(rel.ValueOrDie()->schema().column(0).type,
                  expected.type())
            << label;
        EXPECT_EQ(stats.tuples_produced, 1u) << label;
        EXPECT_EQ(stats.operators_executed, 1 + cover.selections) << label;
      }
    }
  }
}

TEST(EvaluateTest, SumOverDoublesKeepsDoubleType) {
  Catalog catalog = SmallCatalog();
  PlanPtr p = MakeAggregate(MakeScan("s", "s1"), AggKind::kSum, "s1.w");
  auto rel = Evaluate(p, catalog);
  ASSERT_TRUE(rel.ok());
  EXPECT_DOUBLE_EQ(rel.ValueOrDie()->rows()[0][0].AsDouble(), 2.0);
}

TEST(EvaluateTest, DistinctProjectSplitsAcrossProduct) {
  Catalog catalog = SmallCatalog();
  // distinct(π_{r1.v}(r × s)) = distinct values of v = {1, 2}.
  PlanPtr p = MakeDistinct(MakeProject(
      MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")), {"r1.v"}));
  auto rel = Evaluate(p, catalog);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.ValueOrDie()->num_rows(), 2u);

  // Three factors, the middle one contributing no column, projected
  // against factor order: columns come in projection order, rows in
  // the order Distinct keeps over the materialized product.
  PlanPtr cover = MakeProduct(
      MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")),
      MakeScan("t", "t1"));
  const std::vector<std::string> cols = {"t1.x", "r1.v"};
  EvalStats stats;
  EvalContext ctx;
  ctx.catalog = &catalog;
  ctx.stats = &stats;
  auto split = Evaluate(MakeDistinct(MakeProject(cover, cols)), ctx);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  auto reference = Materialize(cover, catalog)->Project(cols);
  ASSERT_TRUE(reference.ok());
  Relation expected = reference.ValueOrDie().Distinct();
  const Relation& got = *split.ValueOrDie();
  ASSERT_EQ(got.schema().num_columns(), 2u);
  EXPECT_EQ(got.schema().column(0).name, "t1.x");
  EXPECT_EQ(got.schema().column(1).name, "r1.v");
  ASSERT_EQ(got.num_rows(), 4u);  // {3, 4} × {1, 2}
  EXPECT_EQ(got.rows(), expected.rows());
  EXPECT_EQ(stats.operators_executed, 1u);  // the projection
  EXPECT_EQ(stats.tuples_produced, 0u);

  // The same two cases through Make + AppendRows over the factors.
  const std::vector<relational::RelationPtr> factors = {
      Materialize(MakeScan("r", "r1"), catalog),
      Materialize(MakeScan("s", "s1"), catalog),
      Materialize(MakeScan("t", "t1"), catalog)};
  auto two = DistinctCover::Make({factors[0], factors[1]}, {"r1.v"});
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two.ValueOrDie().num_rows(), 2u);
  std::vector<relational::Row> two_rows;
  two.ValueOrDie().AppendRows(&two_rows);
  EXPECT_EQ(two_rows, rel.ValueOrDie()->rows());
  auto three = DistinctCover::Make(factors, cols);
  ASSERT_TRUE(three.ok());
  ASSERT_EQ(three.ValueOrDie().schema().num_columns(), 2u);
  EXPECT_EQ(three.ValueOrDie().schema().column(0).name, "t1.x");
  EXPECT_EQ(three.ValueOrDie().schema().column(1).name, "r1.v");
  std::vector<relational::Row> three_rows;
  three.ValueOrDie().AppendRows(&three_rows);
  EXPECT_EQ(three_rows, expected.rows());
  EXPECT_FALSE(DistinctCover::Make(factors, {"t1.nope"}).ok());
}

/// RowAt(n) reads the row AppendRows puts n-th, on random covers of two
/// to four factors with columns projected out of factor order, where
/// some factors hold no projected column (no share) and some hold one
/// distinct row (a single pick).
TEST(DistinctCoverTest, RowAtMatchesAppendRows) {
  size_t no_share = 0, single_pick = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    std::vector<relational::RelationPtr> factors;
    std::vector<std::string> columns;
    const int64_t num_factors = rng.Uniform(2, 4);
    for (int64_t f = 0; f < num_factors; ++f) {
      const std::string alias = "f" + std::to_string(f);
      const int64_t width = rng.Uniform(1, 3);
      RelationSchema schema;
      for (int64_t c = 0; c < width; ++c) {
        ASSERT_TRUE(schema
                        .AddColumn({alias + ".c" + std::to_string(c),
                                    ValueType::kInt64})
                        .ok());
      }
      const bool single = rng.Bernoulli(0.25);
      Relation rel(schema);
      for (int64_t r = rng.Uniform(1, 6); r > 0; --r) {
        relational::Row row;
        for (int64_t c = 0; c < width; ++c) {
          row.emplace_back(single ? int64_t{7} : rng.Uniform(0, 2));
        }
        ASSERT_TRUE(rel.AddRow(std::move(row)).ok());
      }
      factors.push_back(std::make_shared<const Relation>(std::move(rel)));
      // Factor 0 always has a share, so the cover has a column.
      if (f > 0 && rng.Bernoulli(0.3)) {
        ++no_share;
        continue;
      }
      single_pick += single;
      for (int64_t c = 0; c < width; ++c) {
        if (c == 0 || rng.Bernoulli(0.6)) {
          columns.push_back(alias + ".c" + std::to_string(c));
        }
      }
    }
    for (size_t i = columns.size(); i > 1; --i) {
      std::swap(columns[i - 1],
                columns[static_cast<size_t>(rng.Uniform(0, i - 1))]);
    }
    auto made = DistinctCover::Make(factors, columns);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const DistinctCover& cover = made.ValueOrDie();
    std::vector<relational::Row> rows;
    cover.AppendRows(&rows);
    ASSERT_EQ(rows.size(), cover.num_rows());
    for (size_t n = 0; n < rows.size(); ++n) {
      const DistinctCover::Cursor row = cover.RowAt(n);
      for (size_t c = 0; c < columns.size(); ++c) {
        EXPECT_EQ(row.cell(c), rows[n][c])
            << "seed " << seed << " row " << n << " column " << c;
      }
    }
  }
  EXPECT_GT(no_share, 0u);
  EXPECT_GT(single_pick, 0u);
}

TEST(EvaluateTest, DistinctProjectEmptySideYieldsNothing) {
  Catalog catalog = SmallCatalog();
  PlanPtr empty_side = MakeSelect(
      MakeScan("s", "s1"),
      Predicate::AttrCmpValue("s1.id", CmpOp::kEq, "zzz"));
  PlanPtr p = MakeDistinct(MakeProject(
      MakeProduct(MakeScan("r", "r1"), empty_side), {"r1.v"}));
  auto rel = Evaluate(p, catalog);
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel.ValueOrDie()->empty());
}

void ExpectSameStats(const EvalStats& a, const EvalStats& b) {
  EXPECT_EQ(a.operators_executed, b.operators_executed);
  EXPECT_EQ(a.scans, b.scans);
  EXPECT_EQ(a.tuples_produced, b.tuples_produced);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.cache_bytes_saved, b.cache_bytes_saved);
  EXPECT_EQ(a.store_hits, b.store_hits);
  EXPECT_EQ(a.columnar_scans, b.columnar_scans);
  EXPECT_EQ(a.row_scans, b.row_scans);
  EXPECT_EQ(a.bytes_scanned, b.bytes_scanned);
  EXPECT_EQ(a.logical_bytes_scanned, b.logical_bytes_scanned);
}

/// Evaluated with `reads`, `plan` emits exactly `columns`, in that
/// order, holding the rows (same order) and the statistics of the
/// evaluation without a read set.
void ExpectReadColumns(const PlanPtr& plan, const ReadSet& reads,
                       const std::vector<std::string>& columns) {
  Catalog catalog = SmallCatalog();
  EvalStats full_stats, read_stats;
  EvalContext ctx;
  ctx.catalog = &catalog;
  ctx.stats = &full_stats;
  auto full = Evaluate(plan, ctx);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ctx.stats = &read_stats;
  ctx.reads = &reads;
  auto read = Evaluate(plan, ctx);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const Relation& got = *read.ValueOrDie();
  ASSERT_EQ(got.schema().num_columns(), columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    EXPECT_EQ(got.schema().column(i).name, columns[i]);
  }
  auto expected = full.ValueOrDie()->Project(columns);
  ASSERT_TRUE(expected.ok());
  EXPECT_GT(got.num_rows(), 0u);
  EXPECT_EQ(got.rows(), expected.ValueOrDie().rows());
  ExpectSameStats(read_stats, full_stats);
}

TEST(EvaluateTest, ReadSetPrunesHashJoinColumns) {
  PlanPtr join = MakeSelect(
      MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")),
      Predicate::AttrCmpAttr("r1.id", CmpOp::kEq, "s1.id"));
  ExpectReadColumns(join, {"s1.w", "r1.id", "s1.id"},
                    {"r1.id", "s1.id", "s1.w"});
  // An unqualified name keeps every column it could resolve to.
  ExpectReadColumns(join, {"id"}, {"r1.id", "s1.id"});
}

TEST(EvaluateTest, ReadSetPrunesProductColumns) {
  // A non-equi predicate: the product is materialized, then filtered.
  PlanPtr filtered = MakeSelect(
      MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")),
      Predicate::AttrCmpAttr("s1.w", CmpOp::kLt, "r1.v"));
  ExpectReadColumns(filtered, {"s1.w", "r1.v", "r1.id"},
                    {"r1.id", "r1.v", "s1.w"});
  ExpectReadColumns(MakeProduct(MakeScan("r", "r1"), MakeScan("t", "t1")),
                    {"t1.x"}, {"t1.x"});
}

TEST(EvaluateTest, SelectionReadsItsPredicateColumnsOffItsInput) {
  // Nothing above reads s1.w or r1.v, yet the filter needs them on the
  // product; nested, the outer filter's r1.id reaches the product too.
  PlanPtr filtered = MakeSelect(
      MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")),
      Predicate::AttrCmpAttr("s1.w", CmpOp::kLt, "r1.v"));
  ExpectReadColumns(filtered, {"r1.id"}, {"r1.id", "r1.v", "s1.w"});
  ExpectReadColumns(
      MakeSelect(filtered, Predicate::AttrCmpValue("r1.id", CmpOp::kEq, "b")),
      {"s1.w"}, {"r1.id", "r1.v", "s1.w"});
}

TEST(EvaluateTest, SourceQueryCoverMatchesEvaluate) {
  Catalog catalog = SmallCatalog();
  PlanPtr join = MakeSelect(
      MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")),
      Predicate::AttrCmpAttr("r1.id", CmpOp::kEq, "s1.id"));
  for (const PlanPtr& plan :
       {MakeDistinct(MakeProject(MakeProduct(join, MakeScan("t", "t1")),
                                 {"t1.x", "s1.w"})),
        MakeAggregate(join, AggKind::kCount)}) {
    EvalStats cover_stats, rel_stats;
    EvalContext ctx;
    ctx.catalog = &catalog;
    ctx.stats = &cover_stats;
    auto cover = EvaluateSourceQuery(plan, ctx);
    ASSERT_TRUE(cover.ok()) << cover.status().ToString();
    ctx.stats = &rel_stats;
    auto rel = Evaluate(plan, ctx);
    ASSERT_TRUE(rel.ok());
    std::vector<relational::Row> rows;
    cover.ValueOrDie().AppendRows(&rows);
    EXPECT_EQ(rows, rel.ValueOrDie()->rows());
    EXPECT_EQ(cover.ValueOrDie().schema().ToString(),
              rel.ValueOrDie()->schema().ToString());
    ExpectSameStats(cover_stats, rel_stats);
  }
}

TEST(EvaluateTest, CacheMemoizesSubplans) {
  Catalog catalog = SmallCatalog();
  PlanPtr sub = MakeSelect(MakeScan("r", "r1"),
                           Predicate::AttrCmpValue("r1.v", CmpOp::kEq, 2));
  EvalCache cache;
  EvalStats stats;
  EvalContext ctx;
  ctx.catalog = &catalog;
  ctx.stats = &stats;
  ctx.cache = &cache;
  ASSERT_TRUE(Evaluate(sub, ctx).ok());
  ASSERT_TRUE(Evaluate(sub, ctx).ok());
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.operators_executed, 1u);
}

TEST(EvaluateTest, CacheFilterRestrictsStorage) {
  Catalog catalog = SmallCatalog();
  PlanPtr sub = MakeSelect(MakeScan("r", "r1"),
                           Predicate::AttrCmpValue("r1.v", CmpOp::kEq, 2));
  EvalCache cache;
  std::unordered_set<std::string> filter;  // empty: nothing stored
  EvalStats stats;
  EvalContext ctx;
  ctx.catalog = &catalog;
  ctx.stats = &stats;
  ctx.cache = &cache;
  ctx.cache_filter = &filter;
  ASSERT_TRUE(Evaluate(sub, ctx).ok());
  ASSERT_TRUE(Evaluate(sub, ctx).ok());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_TRUE(cache.empty());
}

TEST(OptimizeTest, StaticSchemaMatchesEvaluation) {
  Catalog catalog = SmallCatalog();
  PlanPtr p = MakeProject(
      MakeSelect(MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")),
                 Predicate::AttrCmpAttr("r1.id", CmpOp::kEq, "s1.id")),
      {"r1.id", "s1.w"});
  auto schema = StaticSchema(p, catalog);
  ASSERT_TRUE(schema.ok());
  auto rel = Evaluate(p, catalog);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(schema.ValueOrDie().ToString(),
            rel.ValueOrDie()->schema().ToString());
}

TEST(OptimizeTest, PushdownMovesSelectionBelowProduct) {
  Catalog catalog = SmallCatalog();
  PlanPtr p = MakeSelect(
      MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")),
      Predicate::AttrCmpValue("r1.v", CmpOp::kEq, 2));
  auto optimized = PushDownSelections(p, catalog);
  ASSERT_TRUE(optimized.ok());
  const PlanNode* root = optimized.ValueOrDie().get();
  ASSERT_EQ(root->kind, PlanKind::kProduct);
  EXPECT_EQ(root->child->kind, PlanKind::kSelect);
  // Results unchanged.
  auto before = Evaluate(p, catalog);
  auto after = Evaluate(optimized.ValueOrDie(), catalog);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before.ValueOrDie()->num_rows(),
            after.ValueOrDie()->num_rows());
}

TEST(OptimizeTest, JoinPredicateStaysAtProduct) {
  Catalog catalog = SmallCatalog();
  PlanPtr p = MakeSelect(
      MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1")),
      Predicate::AttrCmpAttr("r1.id", CmpOp::kEq, "s1.id"));
  auto optimized = PushDownSelections(p, catalog);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(optimized.ValueOrDie()->kind, PlanKind::kSelect);
  EXPECT_EQ(optimized.ValueOrDie()->child->kind, PlanKind::kProduct);
}

/// A representative two-instance plan for fingerprint tests:
/// π_attrs σ_{r1.id = s1.id} σ_{r1.v op k} (r × s).
PlanPtr FingerprintExemplar(CmpOp op, Value constant,
                            std::vector<std::string> attrs) {
  PlanPtr p = MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1"));
  p = MakeSelect(p, Predicate::AttrCmpAttr("r1.id", CmpOp::kEq, "s1.id"));
  p = MakeSelect(p, Predicate::AttrCmpValue("r1.v", op, constant));
  return MakeProject(p, std::move(attrs));
}

TEST(FingerprintTest, IdenticalPlansBuiltIndependentlyCollide) {
  PlanPtr a = FingerprintExemplar(CmpOp::kEq, Value(2), {"r1.id"});
  PlanPtr b = FingerprintExemplar(CmpOp::kEq, Value(2), {"r1.id"});
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(HashPlan(a), HashPlan(b));
  EXPECT_EQ(MakeFingerprint(a, 7), MakeFingerprint(b, 7));
}

TEST(FingerprintTest, DifferingSelectionConstantDiverges) {
  PlanPtr a = FingerprintExemplar(CmpOp::kEq, Value(2), {"r1.id"});
  PlanPtr b = FingerprintExemplar(CmpOp::kEq, Value(3), {"r1.id"});
  EXPECT_NE(HashPlan(a), HashPlan(b));
}

TEST(FingerprintTest, DifferingComparisonOperatorDiverges) {
  PlanPtr a = FingerprintExemplar(CmpOp::kEq, Value(2), {"r1.id"});
  PlanPtr b = FingerprintExemplar(CmpOp::kGe, Value(2), {"r1.id"});
  EXPECT_NE(HashPlan(a), HashPlan(b));
}

TEST(FingerprintTest, DifferingJoinPredicateDiverges) {
  PlanPtr base = MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1"));
  PlanPtr a = MakeSelect(
      base, Predicate::AttrCmpAttr("r1.id", CmpOp::kEq, "s1.id"));
  PlanPtr b = MakeSelect(
      base, Predicate::AttrCmpAttr("r1.v", CmpOp::kEq, "s1.id"));
  EXPECT_NE(HashPlan(a), HashPlan(b));
  // Attribute-vs-constant comparisons never collide with
  // attribute-vs-attribute ones, even with equal renderings.
  PlanPtr c = MakeSelect(
      base, Predicate::AttrCmpValue("r1.id", CmpOp::kEq, Value("s1.id")));
  EXPECT_NE(HashPlan(a), HashPlan(c));
}

TEST(FingerprintTest, DifferingProjectionAndAggregateDiverge) {
  PlanPtr scan = MakeScan("r", "r1");
  EXPECT_NE(HashPlan(MakeProject(scan, {"r1.id"})),
            HashPlan(MakeProject(scan, {"r1.v"})));
  EXPECT_NE(HashPlan(MakeAggregate(scan, AggKind::kCount)),
            HashPlan(MakeAggregate(scan, AggKind::kSum, "r1.v")));
  EXPECT_NE(HashPlan(scan), HashPlan(MakeDistinct(scan)));
}

TEST(FingerprintTest, ContextHashSeparatesEqualPlans) {
  PlanPtr plan = FingerprintExemplar(CmpOp::kEq, Value(2), {"r1.id"});
  PlanFingerprint method_a = MakeFingerprint(plan, 1);
  PlanFingerprint method_b = MakeFingerprint(plan, 2);
  EXPECT_EQ(method_a.plan_hash, method_b.plan_hash);
  EXPECT_NE(method_a, method_b);
  std::unordered_set<PlanFingerprint, PlanFingerprintHash> set;
  set.insert(method_a);
  set.insert(method_b);
  set.insert(MakeFingerprint(plan, 1));  // duplicate
  EXPECT_EQ(set.size(), 2u);
}

TEST(FingerprintTest, AgreesWithCanonicalOnEquality) {
  // Plans with equal canonical strings must have equal hashes.
  PlanPtr a = FingerprintExemplar(CmpOp::kLt, Value(9), {"r1.id", "s1.w"});
  PlanPtr b = FingerprintExemplar(CmpOp::kLt, Value(9), {"r1.id", "s1.w"});
  ASSERT_EQ(Canonical(a), Canonical(b));
  EXPECT_EQ(HashPlan(a), HashPlan(b));
}

TEST(OptimizeTest, PushdownThroughSelectionStacks) {
  Catalog catalog = SmallCatalog();
  PlanPtr p = MakeProduct(MakeScan("r", "r1"), MakeScan("s", "s1"));
  p = MakeSelect(p, Predicate::AttrCmpAttr("r1.id", CmpOp::kEq, "s1.id"));
  p = MakeSelect(p, Predicate::AttrCmpValue("s1.w", CmpOp::kGt, 1.0));
  auto optimized = PushDownSelections(p, catalog);
  ASSERT_TRUE(optimized.ok());
  auto before = Evaluate(p, catalog);
  auto after = Evaluate(optimized.ValueOrDie(), catalog);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before.ValueOrDie()->num_rows(),
            after.ValueOrDie()->num_rows());
  EXPECT_EQ(after.ValueOrDie()->num_rows(), 1u);  // only b matches both
}

}  // namespace
}  // namespace algebra
}  // namespace urm
