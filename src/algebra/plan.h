#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "relational/relation.h"

/// \file plan.h
/// Relational algebra plan trees. The same node type serves both *target
/// queries* (leaves are Scans of target tables) and *source queries*
/// (leaves are Scans of source relations, or — inside o-sharing e-units —
/// already-materialized intermediate relations).

namespace urm {
namespace algebra {

struct PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

enum class PlanKind {
  kScan,        ///< leaf: named table with an instance alias
  kRelationLeaf,///< leaf: materialized relation (o-sharing intermediate)
  kSelect,      ///< unary: filter by Predicate
  kProject,     ///< unary: column projection (bag semantics)
  kProduct,     ///< binary: Cartesian product
  kAggregate,   ///< unary: COUNT(*) or SUM(attr), single-row output
  kDistinct,    ///< unary: duplicate elimination (set semantics)
};

enum class AggKind {
  kCount,
  kSum,
};

const char* AggKindName(AggKind kind);

/// \brief Immutable algebra node, shared by pointer.
///
/// Field usage by kind:
///   kScan:         table, alias
///   kRelationLeaf: relation, label
///   kSelect:       child, predicate
///   kProject:      child, attrs
///   kProduct:      child (left), right
///   kAggregate:    child, agg, agg_attr (empty for COUNT)
struct PlanNode {
  PlanKind kind = PlanKind::kScan;

  std::string table;
  std::string alias;

  relational::RelationPtr relation;
  std::string label;

  Predicate predicate;

  std::vector<std::string> attrs;

  AggKind agg = AggKind::kCount;
  std::string agg_attr;

  PlanPtr child;
  PlanPtr right;
};

/// Leaf scanning `table`; output columns are renamed "<alias>.<attr>".
/// With an empty alias, columns keep their stored names.
PlanPtr MakeScan(std::string table, std::string alias = "");

/// Leaf wrapping a materialized relation. `label` is used in plan
/// printing and canonicalization (choose a unique label per
/// materialization).
PlanPtr MakeRelationLeaf(relational::RelationPtr relation,
                         std::string label);

/// σ_predicate(child)
PlanPtr MakeSelect(PlanPtr child, Predicate predicate);

/// π_attrs(child) — bag semantics; answer-level duplicate aggregation is
/// done by the probabilistic evaluators.
PlanPtr MakeProject(PlanPtr child, std::vector<std::string> attrs);

/// left × right
PlanPtr MakeProduct(PlanPtr left, PlanPtr right);

/// COUNT(*)(child) or SUM(attr)(child); emits exactly one row.
PlanPtr MakeAggregate(PlanPtr child, AggKind kind, std::string attr = "");

/// δ(child) — duplicate elimination. Reformulated (non-aggregate)
/// queries are wrapped in Distinct because the paper aggregates
/// duplicate answers per mapping (set semantics).
PlanPtr MakeDistinct(PlanPtr child);

/// Number of operator nodes (Select/Project/Product/Aggregate; leaves
/// excluded). The paper's `l`.
size_t CountOperators(const PlanPtr& plan);

/// All attribute names referenced by operators in the tree, in a
/// deterministic first-occurrence order (selections and join predicates,
/// projections, aggregate attributes).
std::vector<std::string> ReferencedAttributes(const PlanPtr& plan);

/// All Scan leaves in left-to-right order.
std::vector<const PlanNode*> CollectScans(const PlanPtr& plan);

/// The factors of `plan` read as a Cartesian cover: nested Products
/// flattened left to right, any other node one factor. Their product,
/// taken in this order, has the rows of `plan` in the same order.
std::vector<PlanPtr> ProductFactors(const PlanPtr& plan);

/// Stable canonical serialization. Two plans with equal canonical
/// strings are structurally identical queries; used to detect duplicate
/// source queries (e-basic) and shared subexpressions (e-MQO).
std::string Canonical(const PlanPtr& plan);

/// Pretty multi-line rendering for debugging/documentation.
std::string ToString(const PlanPtr& plan);

}  // namespace algebra
}  // namespace urm
