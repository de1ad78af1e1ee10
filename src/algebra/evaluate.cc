#include "algebra/evaluate.h"

#include "algebra/cover.h"
#include "columnar/columnar_relation.h"
#include "common/logging.h"

namespace urm {
namespace algebra {

using relational::ColumnDef;
using relational::Relation;
using relational::RelationPtr;
using relational::RelationSchema;
using relational::Row;
using relational::Value;

namespace {

Result<RelationPtr> EvaluateScan(const PlanNode& node,
                                 const EvalContext& ctx) {
  URM_CHECK(ctx.catalog != nullptr);
  auto base = ctx.catalog->Get(node.table);
  if (!base.ok()) return base.status();
  RelationPtr rel = std::move(base).ValueOrDie();
  if (ctx.stats != nullptr) ctx.stats->scans++;
  if (node.alias.empty()) return rel;
  // Re-qualify columns to the instance alias; row storage is shared.
  RelationSchema renamed;
  for (const auto& col : rel->schema().columns()) {
    URM_RETURN_NOT_OK(renamed.AddColumn(
        ColumnDef{node.alias + "." + relational::AttributePart(col.name),
                  col.type}));
  }
  auto view = rel->WithSchema(std::move(renamed));
  if (!view.ok()) return view.status();
  return std::make_shared<const Relation>(std::move(view).ValueOrDie());
}

columnar::Cmp ToColumnarCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return columnar::Cmp::kEq;
    case CmpOp::kNe:
      return columnar::Cmp::kNe;
    case CmpOp::kLt:
      return columnar::Cmp::kLt;
    case CmpOp::kLe:
      return columnar::Cmp::kLe;
    case CmpOp::kGt:
      return columnar::Cmp::kGt;
    case CmpOp::kGe:
      return columnar::Cmp::kGe;
  }
  return columnar::Cmp::kEq;
}

Result<RelationPtr> EvaluateSelect(const PlanNode& node, RelationPtr input,
                                   const EvalContext& ctx) {
  auto bound = BoundPredicate::Bind(node.predicate, input->schema());
  if (!bound.ok()) return bound.status();
  const BoundPredicate& pred = bound.ValueOrDie();

  // Codec-aware path: an attr-vs-const predicate over an input whose
  // compressed encoding is live (catalog relations and their aliased
  // views) evaluates on the encoded column and gathers the selection
  // vector — no row-at-a-time loop, and only the predicate column's
  // encoded bytes are read to decide membership.
  if (!pred.rhs_index().has_value()) {
    if (const columnar::ColumnarRelation* enc = input->ColumnarIfEncoded()) {
      const columnar::Column& col = enc->column(pred.lhs_index());
      columnar::SelectionVector sel;
      col.EvalPredicate(ToColumnarCmp(pred.op()), pred.rhs_value(), &sel);
      Relation out = input->Gather(sel);
      if (ctx.stats != nullptr) {
        ctx.stats->columnar_scans++;
        ctx.stats->bytes_scanned += col.EncodedBytes();
        ctx.stats->logical_bytes_scanned += col.LogicalBytes();
        ctx.stats->tuples_produced += out.num_rows();
      }
      return std::make_shared<const Relation>(std::move(out));
    }
  }

  Relation out(input->schema());
  size_t touched_bytes = 0;
  for (const Row& row : input->rows()) {
    touched_bytes += relational::ApproxValueBytes(row[pred.lhs_index()]);
    if (pred.rhs_index().has_value()) {
      touched_bytes += relational::ApproxValueBytes(row[*pred.rhs_index()]);
    }
    if (pred.Matches(row)) {
      URM_CHECK_OK(out.AddRow(row));
    }
  }
  if (ctx.stats != nullptr) {
    ctx.stats->row_scans++;
    ctx.stats->bytes_scanned += touched_bytes;
    ctx.stats->logical_bytes_scanned += touched_bytes;
    ctx.stats->tuples_produced += out.num_rows();
  }
  return std::make_shared<const Relation>(std::move(out));
}

/// Evaluates each factor of `plan` read as a Cartesian cover, once
/// and through the e-MQO memo when one is set; the Products joining
/// them are never built.
Result<std::vector<RelationPtr>> EvaluateFactors(const PlanPtr& plan,
                                                 const EvalContext& ctx) {
  std::vector<RelationPtr> out;
  for (const PlanPtr& factor : ProductFactors(plan)) {
    auto rel = Evaluate(factor, ctx);
    if (!rel.ok()) return rel.status();
    out.push_back(std::move(rel).ValueOrDie());
  }
  return out;
}

// Equi-join of left and right on one column each (hash build on the
// smaller side). Result schema = left ++ right, as for Product+Select.
Result<RelationPtr> HashJoin(RelationPtr left, size_t left_col,
                             RelationPtr right, size_t right_col,
                             const EvalContext& ctx) {
  auto schema = left->schema().Concat(right->schema());
  if (!schema.ok()) return schema.status();
  Relation out(std::move(schema).ValueOrDie());

  bool build_left = left->num_rows() <= right->num_rows();
  const Relation& build = build_left ? *left : *right;
  const Relation& probe = build_left ? *right : *left;
  size_t build_col = build_left ? left_col : right_col;
  size_t probe_col = build_left ? right_col : left_col;

  std::unordered_multimap<size_t, size_t> table;
  table.reserve(build.num_rows());
  for (size_t i = 0; i < build.num_rows(); ++i) {
    const Value& v = build.rows()[i][build_col];
    if (v.is_null()) continue;  // NULL never joins
    table.emplace(v.Hash(), i);
  }
  for (const Row& probe_row : probe.rows()) {
    const Value& v = probe_row[probe_col];
    if (v.is_null()) continue;
    auto [begin, end] = table.equal_range(v.Hash());
    for (auto it = begin; it != end; ++it) {
      const Row& build_row = build.rows()[it->second];
      if (!(build_row[build_col] == v)) continue;  // hash collision
      const Row& l = build_left ? build_row : probe_row;
      const Row& r = build_left ? probe_row : build_row;
      Row combined = l;
      combined.insert(combined.end(), r.begin(), r.end());
      URM_CHECK_OK(out.AddRow(std::move(combined)));
    }
  }
  if (ctx.stats != nullptr) ctx.stats->tuples_produced += out.num_rows();
  return std::make_shared<const Relation>(std::move(out));
}

// Attempts to evaluate Select(Product(a, b)) with a cross-side equality
// predicate as a hash join. Returns nullopt if the shape does not apply
// (caller falls back to materializing the product).
Result<RelationPtr> TryFusedJoin(const PlanNode& select_node,
                                 const EvalContext& ctx, bool* applied) {
  *applied = false;
  const Predicate& pred = select_node.predicate;
  if (!pred.is_join_predicate() || pred.op != CmpOp::kEq ||
      select_node.child->kind != PlanKind::kProduct) {
    return RelationPtr(nullptr);
  }
  auto left = Evaluate(select_node.child->child, ctx);
  if (!left.ok()) return left.status();
  auto right = Evaluate(select_node.child->right, ctx);
  if (!right.ok()) return right.status();
  RelationPtr l = std::move(left).ValueOrDie();
  RelationPtr r = std::move(right).ValueOrDie();

  auto ll = l->schema().IndexOf(pred.lhs);
  auto rr = r->schema().IndexOf(*pred.rhs_attr);
  size_t lcol, rcol;
  if (ll.has_value() && rr.has_value()) {
    lcol = *ll;
    rcol = *rr;
  } else {
    auto lr = l->schema().IndexOf(*pred.rhs_attr);
    auto rl = r->schema().IndexOf(pred.lhs);
    if (!lr.has_value() || !rl.has_value()) return RelationPtr(nullptr);
    lcol = *lr;
    rcol = *rl;
  }
  *applied = true;
  // The fused pair still counts as two executed operators (product and
  // selection) so operator statistics match the unfused evaluation.
  if (ctx.stats != nullptr) ctx.stats->operators_executed++;
  return HashJoin(std::move(l), lcol, std::move(r), rcol, ctx);
}

}  // namespace

Result<RelationPtr> Evaluate(const PlanPtr& plan, const EvalContext& ctx) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");

  // Leaves are cheap; only consult the memo for operator nodes.
  std::string key;
  if (ctx.cache != nullptr && plan->kind != PlanKind::kScan &&
      plan->kind != PlanKind::kRelationLeaf) {
    key = Canonical(plan);
    auto it = ctx.cache->find(key);
    if (it != ctx.cache->end()) {
      if (ctx.stats != nullptr) ctx.stats->cache_hits++;
      return it->second;
    }
    // Symmetric with the hit side so hit rates derived from the
    // counters are meaningful for the e-MQO memo too.
    if (ctx.stats != nullptr) ctx.stats->cache_misses++;
  }

  Result<RelationPtr> result = Status::Internal("unreachable");
  switch (plan->kind) {
    case PlanKind::kScan:
      result = EvaluateScan(*plan, ctx);
      break;
    case PlanKind::kRelationLeaf:
      result = plan->relation;
      break;
    case PlanKind::kSelect: {
      bool fused = false;
      auto join = TryFusedJoin(*plan, ctx, &fused);
      if (!join.ok()) return join.status();
      if (fused) {
        result = std::move(join);
        break;
      }
      auto child = Evaluate(plan->child, ctx);
      if (!child.ok()) return child.status();
      result = EvaluateSelect(*plan, std::move(child).ValueOrDie(), ctx);
      break;
    }
    case PlanKind::kProject: {
      auto child = Evaluate(plan->child, ctx);
      if (!child.ok()) return child.status();
      auto projected =
          std::move(child).ValueOrDie()->Project(plan->attrs);
      if (!projected.ok()) return projected.status();
      if (ctx.stats != nullptr) {
        ctx.stats->tuples_produced += projected.ValueOrDie().num_rows();
      }
      result = std::make_shared<const Relation>(
          std::move(projected).ValueOrDie());
      break;
    }
    case PlanKind::kProduct: {
      auto left = Evaluate(plan->child, ctx);
      if (!left.ok()) return left.status();
      auto right = Evaluate(plan->right, ctx);
      if (!right.ok()) return right.status();
      auto prod = left.ValueOrDie()->Product(*right.ValueOrDie());
      if (!prod.ok()) return prod.status();
      if (ctx.stats != nullptr) {
        ctx.stats->tuples_produced += prod.ValueOrDie().num_rows();
      }
      result =
          std::make_shared<const Relation>(std::move(prod).ValueOrDie());
      break;
    }
    case PlanKind::kAggregate: {
      // COUNT and SUM see through bag projections, which keep both the
      // row count and the summed column's values.
      PlanPtr input = plan->child;
      while (input->kind == PlanKind::kProject) input = input->child;
      auto factors = EvaluateFactors(input, ctx);
      if (!factors.ok()) return factors.status();
      auto agg = AggregateCover(factors.ValueOrDie(), plan->agg,
                                plan->agg_attr);
      if (!agg.ok()) return agg.status();
      if (ctx.stats != nullptr) ctx.stats->tuples_produced += 1;
      result = std::make_shared<const Relation>(std::move(agg).ValueOrDie());
      break;
    }
    case PlanKind::kDistinct: {
      if (plan->child->kind == PlanKind::kProject) {
        auto factors = EvaluateFactors(plan->child->child, ctx);
        if (!factors.ok()) return factors.status();
        std::vector<Row> rows;
        auto schema = DistinctProjectCover(factors.ValueOrDie(),
                                           plan->child->attrs, &rows);
        if (!schema.ok()) return schema.status();
        result = std::make_shared<const Relation>(
            std::move(schema).ValueOrDie(), std::move(rows));
        // The split also executed the projection; account for it so the
        // operator counter matches the plan shape.
        if (ctx.stats != nullptr) ctx.stats->operators_executed++;
      } else {
        auto child = Evaluate(plan->child, ctx);
        if (!child.ok()) return child.status();
        result = std::make_shared<const Relation>(
            child.ValueOrDie()->Distinct());
      }
      break;
    }
  }
  if (!result.ok()) return result.status();

  // kDistinct is an answer-semantics artifact, not a query operator; it
  // is excluded from the operator count (see CountOperators).
  if (ctx.stats != nullptr && plan->kind != PlanKind::kScan &&
      plan->kind != PlanKind::kRelationLeaf &&
      plan->kind != PlanKind::kDistinct) {
    ctx.stats->operators_executed++;
  }
  if (!key.empty() && ctx.cache != nullptr &&
      (ctx.cache_filter == nullptr || ctx.cache_filter->count(key) > 0)) {
    ctx.cache->emplace(std::move(key), result.ValueOrDie());
  }
  return result;
}

Result<RelationPtr> Evaluate(const PlanPtr& plan,
                             const relational::Catalog& catalog) {
  EvalContext ctx;
  ctx.catalog = &catalog;
  return Evaluate(plan, ctx);
}

}  // namespace algebra
}  // namespace urm
