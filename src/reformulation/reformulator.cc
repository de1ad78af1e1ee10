#include "reformulation/reformulator.h"

#include <algorithm>
#include <map>
#include <set>

#include "relational/schema.h"

namespace urm {
namespace reformulation {

using algebra::MakeDistinct;
using algebra::MakeProduct;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::PlanKind;
using algebra::PlanPtr;
using relational::AttributePart;
using relational::InstancePart;

Reformulator::Reformulator(matching::SchemaDef source_schema)
    : source_schema_(std::move(source_schema)) {}

namespace {

/// Rewrites the analyzed target plan: scans become their instance cover
/// subplans; attribute references go through `rename`.
Result<PlanPtr> RebuildPlan(
    const PlanPtr& node,
    const std::map<std::string, PlanPtr>& instance_plans,
    const std::vector<std::pair<std::string, std::string>>& rename) {
  auto renamed = [&rename](const std::string& ref) -> Result<std::string> {
    for (const auto& [from, to] : rename) {
      if (from == ref) return to;
    }
    return Status::NotFound("no source column for target ref: " + ref);
  };
  switch (node->kind) {
    case PlanKind::kScan: {
      auto it = instance_plans.find(node->alias);
      if (it == instance_plans.end()) {
        return Status::Internal("missing instance plan: " + node->alias);
      }
      return it->second;
    }
    case PlanKind::kRelationLeaf:
      return Status::InvalidArgument(
          "target queries must not contain materialized leaves");
    case PlanKind::kSelect: {
      auto child = RebuildPlan(node->child, instance_plans, rename);
      if (!child.ok()) return child.status();
      algebra::Predicate pred = node->predicate;
      auto lhs = renamed(pred.lhs);
      if (!lhs.ok()) return lhs.status();
      pred.lhs = lhs.ValueOrDie();
      if (pred.rhs_attr.has_value()) {
        auto rhs = renamed(*pred.rhs_attr);
        if (!rhs.ok()) return rhs.status();
        pred.rhs_attr = rhs.ValueOrDie();
      }
      return algebra::MakeSelect(std::move(child).ValueOrDie(),
                                 std::move(pred));
    }
    case PlanKind::kProject: {
      auto child = RebuildPlan(node->child, instance_plans, rename);
      if (!child.ok()) return child.status();
      std::vector<std::string> attrs;
      for (const auto& a : node->attrs) {
        auto r = renamed(a);
        if (!r.ok()) return r.status();
        attrs.push_back(r.ValueOrDie());
      }
      return MakeProject(std::move(child).ValueOrDie(), std::move(attrs));
    }
    case PlanKind::kProduct: {
      auto left = RebuildPlan(node->child, instance_plans, rename);
      if (!left.ok()) return left.status();
      auto right = RebuildPlan(node->right, instance_plans, rename);
      if (!right.ok()) return right.status();
      return MakeProduct(std::move(left).ValueOrDie(),
                         std::move(right).ValueOrDie());
    }
    case PlanKind::kAggregate: {
      auto child = RebuildPlan(node->child, instance_plans, rename);
      if (!child.ok()) return child.status();
      std::string attr = node->agg_attr;
      if (!attr.empty()) {
        auto r = renamed(attr);
        if (!r.ok()) return r.status();
        attr = r.ValueOrDie();
      }
      return algebra::MakeAggregate(std::move(child).ValueOrDie(),
                                    node->agg, std::move(attr));
    }
    case PlanKind::kDistinct: {
      auto child = RebuildPlan(node->child, instance_plans, rename);
      if (!child.ok()) return child.status();
      return MakeDistinct(std::move(child).ValueOrDie());
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<SourceQuery> Reformulator::Reformulate(
    const TargetQueryInfo& info, const mapping::Mapping& m) const {
  std::map<std::string, PlanPtr> instance_plans;
  std::vector<std::pair<std::string, std::string>> rename;

  for (const auto& inst : info.instances) {
    // Match every needed attribute through m.
    std::vector<std::string> mapped_sources;
    for (const auto& attr : inst.needed) {
      auto src = m.SourceFor(inst.table + "." + attr);
      bool required =
          std::find(inst.referenced.begin(), inst.referenced.end(), attr) !=
          inst.referenced.end();
      if (!src.has_value()) {
        if (required) return SourceQuery{};  // not answerable
        continue;  // cover-only attribute absent from this mapping
      }
      if (!source_schema_.HasAttribute(*src)) {
        return Status::Internal("mapping targets unknown source attr: " +
                                *src);
      }
      mapped_sources.push_back(*src);
      if (required) {
        rename.emplace_back(
            inst.alias + "." + attr,
            inst.alias + "$" + InstancePart(*src) + "." +
                AttributePart(*src));
      }
    }
    if (mapped_sources.empty()) return SourceQuery{};  // nothing to scan

    // Minimal cover: each source attribute lives in exactly one
    // relation, so the cover is the (sorted, distinct) relation set.
    std::set<std::string> cover;
    for (const auto& src : mapped_sources) {
      cover.insert(InstancePart(src));
    }
    PlanPtr sub;
    for (const auto& rel : cover) {
      PlanPtr scan = MakeScan(rel, inst.alias + "$" + rel);
      sub = sub == nullptr ? scan : MakeProduct(std::move(sub), scan);
    }
    instance_plans[inst.alias] = std::move(sub);
  }

  auto rebuilt = RebuildPlan(info.query, instance_plans, rename);
  if (!rebuilt.ok()) return rebuilt.status();
  PlanPtr plan = std::move(rebuilt).ValueOrDie();

  SourceQuery out;
  out.answerable = true;
  if (info.is_aggregate) {
    out.plan = std::move(plan);
    out.layout = {info.output_refs[0] == "count"
                      ? std::optional<std::string>("count")
                      : std::optional<std::string>("sum")};
    return out;
  }

  // Non-aggregate: ensure the plan projects exactly the mapped output
  // columns, and apply set semantics.
  std::vector<std::optional<std::string>> layout;
  bool already_projected = plan->kind == PlanKind::kProject;
  std::vector<std::string> out_cols;
  for (const auto& ref : info.output_refs) {
    bool found = false;
    for (const auto& [from, to] : rename) {
      if (from == ref) {
        layout.emplace_back(to);
        out_cols.push_back(to);
        found = true;
        break;
      }
    }
    if (!found) layout.emplace_back(std::nullopt);
  }
  if (!already_projected) {
    if (out_cols.empty()) {
      return Status::Internal("no mapped output columns");
    }
    plan = MakeProject(std::move(plan), std::move(out_cols));
  }
  out.plan = MakeDistinct(std::move(plan));
  out.layout = std::move(layout);
  return out;
}

Result<std::vector<int>> LayoutColumns(
    const relational::RelationSchema& result,
    const std::vector<std::optional<std::string>>& layout) {
  std::vector<int> columns;
  columns.reserve(layout.size());
  for (const auto& col : layout) {
    if (!col.has_value()) {
      columns.push_back(-1);
      continue;
    }
    auto idx = result.IndexOf(*col);
    if (!idx.has_value()) {
      return Status::NotFound("layout column missing from result: " + *col);
    }
    columns.push_back(static_cast<int>(*idx));
  }
  return columns;
}

}  // namespace reformulation
}  // namespace urm
