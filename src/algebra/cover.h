#pragma once

#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/status.h"
#include "relational/relation.h"

/// \file cover.h
/// Answers over a Cartesian cover — the product F₀ × F₁ × … of evaluated
/// factor relations, in list order — from the factors, without building
/// the product. The evaluator and o-sharing's factored e-units both
/// answer COUNT, SUM and distinct projections here (docs/ARCHITECTURE.md,
/// "Cartesian covers").

namespace urm {
namespace algebra {

/// COUNT(*) or SUM(column) over the cover, as the one-row relation an
/// Aggregate yields (column "count" or "sum"). COUNT = Π|Fᵢ|. SUM = (SUM
/// of the column over the factor holding it) × (Π|Fⱼ| over the other
/// factors), one multiplication; NULL and non-numeric cells add nothing
/// (a mapping may match SUM's attribute to a string column), and it is
/// INT64 when every numeric cell is, DOUBLE otherwise.
Result<relational::Relation> AggregateCover(
    const std::vector<relational::RelationPtr>& factors, AggKind agg,
    const std::string& column);

/// distinct(π_columns(F₀ × F₁ × …)): the product of each factor's
/// distinct projection onto its share of `columns`, appended to `*rows`
/// in Relation::Product order with values in `columns` order; returns
/// their schema. A factor holding none of the columns only has to be
/// non-empty.
Result<relational::RelationSchema> DistinctProjectCover(
    const std::vector<relational::RelationPtr>& factors,
    const std::vector<std::string>& columns,
    std::vector<relational::Row>* rows);

}  // namespace algebra
}  // namespace urm
