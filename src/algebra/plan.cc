#include "algebra/plan.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace urm {
namespace algebra {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
  }
  return "?";
}

PlanPtr MakeScan(std::string table, std::string alias) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kScan;
  node->table = std::move(table);
  node->alias = std::move(alias);
  return node;
}

PlanPtr MakeRelationLeaf(relational::RelationPtr relation,
                         std::string label) {
  URM_CHECK(relation != nullptr);
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kRelationLeaf;
  node->relation = std::move(relation);
  node->label = std::move(label);
  return node;
}

PlanPtr MakeSelect(PlanPtr child, Predicate predicate) {
  URM_CHECK(child != nullptr);
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kSelect;
  node->child = std::move(child);
  node->predicate = std::move(predicate);
  return node;
}

PlanPtr MakeProject(PlanPtr child, std::vector<std::string> attrs) {
  URM_CHECK(child != nullptr);
  URM_CHECK(!attrs.empty());
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kProject;
  node->child = std::move(child);
  node->attrs = std::move(attrs);
  return node;
}

PlanPtr MakeProduct(PlanPtr left, PlanPtr right) {
  URM_CHECK(left != nullptr);
  URM_CHECK(right != nullptr);
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kProduct;
  node->child = std::move(left);
  node->right = std::move(right);
  return node;
}

PlanPtr MakeAggregate(PlanPtr child, AggKind kind, std::string attr) {
  URM_CHECK(child != nullptr);
  if (kind == AggKind::kSum) {
    URM_CHECK(!attr.empty()) << "SUM requires an attribute";
  }
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kAggregate;
  node->child = std::move(child);
  node->agg = kind;
  node->agg_attr = std::move(attr);
  return node;
}

PlanPtr MakeDistinct(PlanPtr child) {
  URM_CHECK(child != nullptr);
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kDistinct;
  node->child = std::move(child);
  return node;
}

size_t CountOperators(const PlanPtr& plan) {
  if (plan == nullptr) return 0;
  switch (plan->kind) {
    case PlanKind::kScan:
    case PlanKind::kRelationLeaf:
      return 0;
    case PlanKind::kDistinct:
      // An artifact of set-semantics answer aggregation, not one of the
      // query's operators.
      return CountOperators(plan->child);
    case PlanKind::kProduct:
      return 1 + CountOperators(plan->child) + CountOperators(plan->right);
    default:
      return 1 + CountOperators(plan->child);
  }
}

namespace {

void CollectAttrs(const PlanPtr& plan, std::vector<std::string>* out) {
  if (plan == nullptr) return;
  auto add = [out](const std::string& a) {
    if (std::find(out->begin(), out->end(), a) == out->end()) {
      out->push_back(a);
    }
  };
  switch (plan->kind) {
    case PlanKind::kScan:
    case PlanKind::kRelationLeaf:
      return;
    case PlanKind::kSelect:
      for (const auto& a : plan->predicate.ReferencedAttributes()) add(a);
      CollectAttrs(plan->child, out);
      return;
    case PlanKind::kProject:
      for (const auto& a : plan->attrs) add(a);
      CollectAttrs(plan->child, out);
      return;
    case PlanKind::kProduct:
      CollectAttrs(plan->child, out);
      CollectAttrs(plan->right, out);
      return;
    case PlanKind::kAggregate:
      if (!plan->agg_attr.empty()) add(plan->agg_attr);
      CollectAttrs(plan->child, out);
      return;
    case PlanKind::kDistinct:
      CollectAttrs(plan->child, out);
      return;
  }
}

void CollectScansImpl(const PlanPtr& plan,
                      std::vector<const PlanNode*>* out) {
  if (plan == nullptr) return;
  if (plan->kind == PlanKind::kScan) {
    out->push_back(plan.get());
    return;
  }
  CollectScansImpl(plan->child, out);
  CollectScansImpl(plan->right, out);
}

void CanonicalImpl(const PlanPtr& plan, std::string* out) {
  if (plan == nullptr) {
    out->append("()");
    return;
  }
  switch (plan->kind) {
    case PlanKind::kScan:
      out->append("scan[");
      out->append(plan->table);
      out->append(" as ");
      out->append(plan->alias);
      out->append("]");
      return;
    case PlanKind::kRelationLeaf:
      out->append("rel[");
      out->append(plan->label);
      out->append("]");
      return;
    case PlanKind::kSelect:
      out->append("select[");
      out->append(plan->predicate.ToString());
      out->append("](");
      CanonicalImpl(plan->child, out);
      out->append(")");
      return;
    case PlanKind::kProject:
      out->append("project[");
      out->append(Join(plan->attrs, ","));
      out->append("](");
      CanonicalImpl(plan->child, out);
      out->append(")");
      return;
    case PlanKind::kProduct:
      out->append("product(");
      CanonicalImpl(plan->child, out);
      out->append(",");
      CanonicalImpl(plan->right, out);
      out->append(")");
      return;
    case PlanKind::kAggregate:
      out->append(AggKindName(plan->agg));
      out->append("[");
      out->append(plan->agg_attr);
      out->append("](");
      CanonicalImpl(plan->child, out);
      out->append(")");
      return;
    case PlanKind::kDistinct:
      out->append("distinct(");
      CanonicalImpl(plan->child, out);
      out->append(")");
      return;
  }
}

void ToStringImpl(const PlanPtr& plan, int indent, std::string* out) {
  if (plan == nullptr) return;
  out->append(static_cast<size_t>(indent) * 2, ' ');
  switch (plan->kind) {
    case PlanKind::kScan:
      out->append("Scan " + plan->table +
                  (plan->alias.empty() ? "" : " AS " + plan->alias) + "\n");
      return;
    case PlanKind::kRelationLeaf:
      out->append("Relation " + plan->label + " [" +
                  std::to_string(plan->relation->num_rows()) + " rows]\n");
      return;
    case PlanKind::kSelect:
      out->append("Select " + plan->predicate.ToString() + "\n");
      ToStringImpl(plan->child, indent + 1, out);
      return;
    case PlanKind::kProject:
      out->append("Project " + Join(plan->attrs, ", ") + "\n");
      ToStringImpl(plan->child, indent + 1, out);
      return;
    case PlanKind::kProduct:
      out->append("Product\n");
      ToStringImpl(plan->child, indent + 1, out);
      ToStringImpl(plan->right, indent + 1, out);
      return;
    case PlanKind::kAggregate:
      out->append(std::string(AggKindName(plan->agg)) +
                  (plan->agg_attr.empty() ? "(*)" : "(" + plan->agg_attr + ")") +
                  "\n");
      ToStringImpl(plan->child, indent + 1, out);
      return;
    case PlanKind::kDistinct:
      out->append("Distinct\n");
      ToStringImpl(plan->child, indent + 1, out);
      return;
  }
}

}  // namespace

std::vector<std::string> ReferencedAttributes(const PlanPtr& plan) {
  std::vector<std::string> out;
  CollectAttrs(plan, &out);
  return out;
}

std::vector<const PlanNode*> CollectScans(const PlanPtr& plan) {
  std::vector<const PlanNode*> out;
  CollectScansImpl(plan, &out);
  return out;
}

std::vector<PlanPtr> ProductFactors(const PlanPtr& plan) {
  if (plan->kind != PlanKind::kProduct) return {plan};
  std::vector<PlanPtr> out = ProductFactors(plan->child);
  for (PlanPtr& f : ProductFactors(plan->right)) out.push_back(std::move(f));
  return out;
}

std::string Canonical(const PlanPtr& plan) {
  std::string out;
  CanonicalImpl(plan, &out);
  return out;
}

std::string ToString(const PlanPtr& plan) {
  std::string out;
  ToStringImpl(plan, 0, &out);
  return out;
}

}  // namespace algebra
}  // namespace urm
