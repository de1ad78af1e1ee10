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

/// distinct(π(X)) for `project` = π(X) under a Distinct, as a cover
/// over the factors of X; the Products joining them are never built.
/// The split also executes the projection, so it counts as one operator.
Result<DistinctCover> CoverDistinctProject(const PlanNode& project,
                                           const EvalContext& ctx) {
  auto factors = EvaluateFactors(project.child, ctx);
  if (!factors.ok()) return factors.status();
  auto cover = DistinctCover::Make(factors.ValueOrDie(), project.attrs);
  if (cover.ok() && ctx.stats != nullptr) ctx.stats->operators_executed++;
  return cover;
}

/// The columns a join or product of `left` and `right` emits: left's
/// then right's, in order, keeping only those ctx.reads names (all
/// without a read set). A column is kept when a read name is its full
/// name or, unqualified, its attribute part — every column an operator
/// above could resolve a read name to, ambiguity included.
struct JoinColumns {
  RelationSchema schema;
  std::vector<size_t> left;
  std::vector<size_t> right;

  static Result<JoinColumns> Of(const RelationSchema& left,
                                const RelationSchema& right,
                                const ReadSet* reads) {
    auto full = left.Concat(right);
    if (!full.ok()) return full.status();
    const RelationSchema& all = full.ValueOrDie();
    JoinColumns out;
    for (size_t i = 0; i < all.num_columns(); ++i) {
      const std::string& name = all.column(i).name;
      if (reads != nullptr) {
        if (reads->count(name) == 0 &&
            reads->count(relational::AttributePart(name)) == 0) {
          continue;
        }
        URM_RETURN_NOT_OK(out.schema.AddColumn(all.column(i)));
      }
      if (i < left.num_columns()) {
        out.left.push_back(i);
      } else {
        out.right.push_back(i - left.num_columns());
      }
    }
    if (reads == nullptr) out.schema = std::move(full).ValueOrDie();
    return out;
  }

  Row Combine(const Row& l, const Row& r) const {
    Row out;
    out.reserve(left.size() + right.size());
    for (size_t i : left) out.push_back(l[i]);
    for (size_t i : right) out.push_back(r[i]);
    return out;
  }
};

// Equi-join of left and right on one column each (hash build on the
// smaller side). Result columns = left ++ right, as for Product+Select,
// less those no read names (JoinColumns).
Result<RelationPtr> HashJoin(RelationPtr left, size_t left_col,
                             RelationPtr right, size_t right_col,
                             const EvalContext& ctx) {
  auto columns = JoinColumns::Of(left->schema(), right->schema(), ctx.reads);
  if (!columns.ok()) return columns.status();
  const JoinColumns& emit = columns.ValueOrDie();
  std::vector<Row> rows;

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
      rows.push_back(emit.Combine(l, r));
    }
  }
  if (ctx.stats != nullptr) ctx.stats->tuples_produced += rows.size();
  return std::make_shared<const Relation>(emit.schema, std::move(rows));
}

// left × right, emitting the columns JoinColumns keeps.
Result<RelationPtr> Product(const Relation& left, const Relation& right,
                            const EvalContext& ctx) {
  auto columns = JoinColumns::Of(left.schema(), right.schema(), ctx.reads);
  if (!columns.ok()) return columns.status();
  const JoinColumns& emit = columns.ValueOrDie();
  std::vector<Row> rows;
  rows.reserve(left.num_rows() * right.num_rows());
  for (const Row& l : left.rows()) {
    for (const Row& r : right.rows()) rows.push_back(emit.Combine(l, r));
  }
  if (ctx.stats != nullptr) ctx.stats->tuples_produced += rows.size();
  return std::make_shared<const Relation>(emit.schema, std::move(rows));
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
      // The filter reads its own columns off its input, whether or not
      // an operator above reads them.
      const Predicate& pred = plan->predicate;
      ReadSet with_pred;
      EvalContext child_ctx = ctx;
      if (ctx.reads != nullptr &&
          (ctx.reads->count(pred.lhs) == 0 ||
           (pred.rhs_attr.has_value() &&
            ctx.reads->count(*pred.rhs_attr) == 0))) {
        with_pred = *ctx.reads;
        with_pred.insert(pred.lhs);
        if (pred.rhs_attr.has_value()) with_pred.insert(*pred.rhs_attr);
        child_ctx.reads = &with_pred;
      }
      auto child = Evaluate(plan->child, child_ctx);
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
      result = Product(*left.ValueOrDie(), *right.ValueOrDie(), ctx);
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
        auto cover = CoverDistinctProject(*plan->child, ctx);
        if (!cover.ok()) return cover.status();
        std::vector<Row> rows;
        cover.ValueOrDie().AppendRows(&rows);
        result = std::make_shared<const Relation>(
            cover.ValueOrDie().schema(), std::move(rows));
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

namespace {

/// Whether `plan` has a Select over a Product or with a join predicate:
/// where a source plan runs a hash join or materializes a product. A
/// plan without one gets no read set, so small single-table queries do
/// not pay for computing it.
bool JoinsRows(const PlanPtr& plan) {
  if (plan == nullptr) return false;
  if (plan->kind == PlanKind::kSelect &&
      (plan->predicate.is_join_predicate() ||
       plan->child->kind == PlanKind::kProduct)) {
    return true;
  }
  return JoinsRows(plan->child) || JoinsRows(plan->right);
}

}  // namespace

Result<DistinctCover> EvaluateSourceQuery(const PlanPtr& plan,
                                          const EvalContext& ctx) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  ReadSet reads;
  EvalContext read_ctx = ctx;
  if (read_ctx.reads == nullptr && JoinsRows(plan)) {
    for (std::string& attr : ReferencedAttributes(plan)) {
      reads.insert(std::move(attr));
    }
    read_ctx.reads = &reads;
  }
  if (plan->kind == PlanKind::kDistinct &&
      plan->child->kind == PlanKind::kProject) {
    return CoverDistinctProject(*plan->child, read_ctx);
  }
  auto rel = Evaluate(plan, read_ctx);
  if (!rel.ok()) return rel.status();
  std::vector<std::string> columns;
  for (const auto& col : rel.ValueOrDie()->schema().columns()) {
    columns.push_back(col.name);
  }
  return DistinctCover::Make({std::move(rel).ValueOrDie()}, columns);
}

Result<RelationPtr> Evaluate(const PlanPtr& plan,
                             const relational::Catalog& catalog) {
  EvalContext ctx;
  ctx.catalog = &catalog;
  return Evaluate(plan, ctx);
}

}  // namespace algebra
}  // namespace urm
