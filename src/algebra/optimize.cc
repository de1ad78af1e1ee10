#include "algebra/optimize.h"

#include <algorithm>

#include "common/logging.h"

namespace urm {
namespace algebra {

using relational::Catalog;
using relational::ColumnDef;
using relational::RelationSchema;

Result<RelationSchema> StaticSchema(const PlanPtr& plan,
                                    const Catalog& catalog) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  switch (plan->kind) {
    case PlanKind::kScan: {
      auto rel = catalog.Get(plan->table);
      if (!rel.ok()) return rel.status();
      const RelationSchema& base = rel.ValueOrDie()->schema();
      if (plan->alias.empty()) return base;
      RelationSchema renamed;
      for (const auto& col : base.columns()) {
        URM_RETURN_NOT_OK(renamed.AddColumn(ColumnDef{
            plan->alias + "." + relational::AttributePart(col.name),
            col.type}));
      }
      return renamed;
    }
    case PlanKind::kRelationLeaf:
      return plan->relation->schema();
    case PlanKind::kSelect:
      return StaticSchema(plan->child, catalog);
    case PlanKind::kProject: {
      auto child = StaticSchema(plan->child, catalog);
      if (!child.ok()) return child.status();
      return child.ValueOrDie().Select(plan->attrs);
    }
    case PlanKind::kProduct: {
      auto left = StaticSchema(plan->child, catalog);
      if (!left.ok()) return left.status();
      auto right = StaticSchema(plan->right, catalog);
      if (!right.ok()) return right.status();
      return left.ValueOrDie().Concat(right.ValueOrDie());
    }
    case PlanKind::kAggregate: {
      RelationSchema out;
      URM_RETURN_NOT_OK(out.AddColumn(ColumnDef{
          plan->agg == AggKind::kCount ? "count" : "sum",
          plan->agg == AggKind::kCount ? relational::ValueType::kInt64
                                       : relational::ValueType::kDouble}));
      return out;
    }
    case PlanKind::kDistinct:
      return StaticSchema(plan->child, catalog);
  }
  return Status::Internal("unreachable");
}

namespace {

/// Left-deep product of `factors` (which must be non-empty).
PlanPtr CombineFactors(const std::vector<PlanPtr>& factors) {
  URM_CHECK(!factors.empty());
  PlanPtr out = factors[0];
  for (size_t i = 1; i < factors.size(); ++i) {
    out = MakeProduct(out, factors[i]);
  }
  return out;
}

/// Pushes a single predicate into `plan` as deep as possible; returns
/// the resulting tree. For a predicate over a product the product is
/// *reassociated* so that the predicate lands on exactly the factors it
/// references — a join predicate then touches a two-factor product that
/// the evaluator executes as a hash join, and unrelated factors are
/// never multiplied in.
Result<PlanPtr> PushPredicate(const Predicate& pred, const PlanPtr& plan,
                              const Catalog& catalog) {
  if (plan->kind == PlanKind::kSelect) {
    // Push below sibling selections so products are reached.
    auto pushed = PushPredicate(pred, plan->child, catalog);
    if (!pushed.ok()) return pushed.status();
    return MakeSelect(std::move(pushed).ValueOrDie(), plan->predicate);
  }
  if (plan->kind != PlanKind::kProduct) {
    return MakeSelect(plan, pred);
  }

  std::vector<PlanPtr> factors = ProductFactors(plan);

  // Locate the factor(s) holding the referenced attributes.
  const auto refs = pred.ReferencedAttributes();
  std::vector<size_t> hits;
  for (const auto& ref : refs) {
    bool found = false;
    for (size_t i = 0; i < factors.size(); ++i) {
      auto schema = StaticSchema(factors[i], catalog);
      if (!schema.ok()) return schema.status();
      if (schema.ValueOrDie().IndexOf(ref).has_value()) {
        if (std::find(hits.begin(), hits.end(), i) == hits.end()) {
          hits.push_back(i);
        }
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::NotFound("predicate attribute not in any factor: " +
                              ref);
    }
  }

  if (hits.size() == 1) {
    auto pushed = PushPredicate(pred, factors[hits[0]], catalog);
    if (!pushed.ok()) return pushed.status();
    factors[hits[0]] = std::move(pushed).ValueOrDie();
    return CombineFactors(factors);
  }
  // Join predicate across two factors: bind exactly those two.
  size_t lo = std::min(hits[0], hits[1]), hi = std::max(hits[0], hits[1]);
  PlanPtr joined =
      MakeSelect(MakeProduct(factors[lo], factors[hi]), pred);
  std::vector<PlanPtr> rebuilt;
  for (size_t i = 0; i < factors.size(); ++i) {
    if (i == lo) {
      rebuilt.push_back(joined);
    } else if (i != hi) {
      rebuilt.push_back(factors[i]);
    }
  }
  return CombineFactors(rebuilt);
}

}  // namespace

Result<PlanPtr> PushDownSelections(const PlanPtr& plan,
                                   const Catalog& catalog) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  switch (plan->kind) {
    case PlanKind::kScan:
    case PlanKind::kRelationLeaf:
      return plan;
    case PlanKind::kSelect: {
      auto child = PushDownSelections(plan->child, catalog);
      if (!child.ok()) return child.status();
      return PushPredicate(plan->predicate,
                           std::move(child).ValueOrDie(), catalog);
    }
    case PlanKind::kProject: {
      auto child = PushDownSelections(plan->child, catalog);
      if (!child.ok()) return child.status();
      return MakeProject(std::move(child).ValueOrDie(), plan->attrs);
    }
    case PlanKind::kProduct: {
      auto left = PushDownSelections(plan->child, catalog);
      if (!left.ok()) return left.status();
      auto right = PushDownSelections(plan->right, catalog);
      if (!right.ok()) return right.status();
      return MakeProduct(std::move(left).ValueOrDie(),
                         std::move(right).ValueOrDie());
    }
    case PlanKind::kAggregate: {
      auto child = PushDownSelections(plan->child, catalog);
      if (!child.ok()) return child.status();
      return MakeAggregate(std::move(child).ValueOrDie(), plan->agg,
                           plan->agg_attr);
    }
    case PlanKind::kDistinct: {
      auto child = PushDownSelections(plan->child, catalog);
      if (!child.ok()) return child.status();
      return MakeDistinct(std::move(child).ValueOrDie());
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace algebra
}  // namespace urm
