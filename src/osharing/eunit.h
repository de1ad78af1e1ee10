#pragma once

#include <map>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "relational/relation.h"

/// \file eunit.h
/// The o-sharing execution state (paper §V): an e-unit is a partially
/// executed target query — some operators already evaluated into
/// materialized intermediate relations — together with the set of
/// mappings that share all correspondences used so far.
///
/// Representation note: the paper's intermediate relations R_i are kept
/// *factored*. A Group collects the target-table instances merged by
/// executed Cartesian products; its state is a set of independent
/// `Factor` relations whose (implicit) Cartesian product is the paper's
/// intermediate relation. Rows are multiplied only where a join
/// predicate spans two factors; the leaf reads its answer (COUNT, SUM
/// or the distinct output rows) off the factors through
/// algebra/cover.h, as the evaluator does — same results, but
/// Cartesian covers never blow up, and the last product is never built.
///
/// Such a fused join emits only the e-unit's *branch read set*: the
/// source columns the refs of its pending selections, remaining tops
/// and leaf output resolve to. A resolved ref has one column; an
/// unresolved one contributes its column under every mapping of the
/// e-unit, because the fused factor serves every partition below it
/// (the union rule e-MQO's shared memo follows). A COUNT may thus
/// leave a factor with rows and no columns. Scans and selections
/// within one factor keep their input's width: their OperatorStore
/// keys (input identity + predicate) then name one result for every
/// query, and a selection over a fused factor is keyed by that pruned
/// relation, which the store entry pins.

namespace urm {
namespace osharing {

/// One materialized independent piece of a group.
struct Factor {
  relational::RelationPtr rel;
  /// Source scan instances folded into this factor ("po1$orders", ...).
  std::vector<std::string> scan_aliases;

  bool ContainsScan(const std::string& alias) const {
    for (const auto& a : scan_aliases) {
      if (a == alias) return true;
    }
    return false;
  }
};

/// A set of target instances whose executed products merged them, plus
/// the materialized factors.
struct Group {
  std::vector<std::string> instances;  ///< target aliases in this group
  std::vector<Factor> factors;

  bool ContainsInstance(const std::string& alias) const {
    for (const auto& a : instances) {
      if (a == alias) return true;
    }
    return false;
  }
  bool HasEmptyFactor() const {
    for (const auto& f : factors) {
      if (f.rel->empty()) return true;
    }
    return false;
  }
};

/// \brief One node of the u-trace.
struct EUnit {
  /// Remaining operators, as indexes into the QueryShape lists.
  std::vector<size_t> pending_selections;
  std::vector<size_t> pending_products;
  size_t next_top = 0;  ///< index of the next top op (tops run in order)

  std::vector<Group> groups;

  /// Mappings sharing this branch (representatives from the initial
  /// partition, carrying their partitions' total probability).
  std::vector<const baselines::WeightedMapping*> mappings;
  double probability = 0.0;

  /// Target refs whose source column is already fixed on this branch
  /// ("po1.orderNum" -> "po1$orders.o_orderkey").
  std::map<std::string, std::string> resolved;

  const Group* GroupOfInstance(const std::string& alias) const {
    for (const auto& g : groups) {
      if (g.ContainsInstance(alias)) return &g;
    }
    return nullptr;
  }
  size_t GroupIndexOfInstance(const std::string& alias) const {
    for (size_t i = 0; i < groups.size(); ++i) {
      if (groups[i].ContainsInstance(alias)) return i;
    }
    return static_cast<size_t>(-1);
  }
};

}  // namespace osharing
}  // namespace urm
