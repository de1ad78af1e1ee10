#pragma once

#include <optional>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/status.h"
#include "mapping/mapping.h"
#include "matching/schema_def.h"
#include "reformulation/answer.h"
#include "reformulation/target_query.h"

/// \file reformulator.h
/// Target-to-source query reformulation through one possible mapping
/// (paper §III-B and §VI-B). Every target-table instance is replaced by
/// the minimal set of source relations covering the attributes the
/// query needs from it, combined with Cartesian products; operator
/// attribute references are rewritten to the matched source columns.

namespace urm {
namespace reformulation {

/// \brief A reformulated source query plus its answer layout.
struct SourceQuery {
  /// The source plan (null when not answerable). Non-aggregate plans
  /// are wrapped in Distinct (per-mapping set semantics) and project
  /// exactly the mapped output columns.
  algebra::PlanPtr plan;
  /// False when the mapping leaves a required attribute unmatched; the
  /// query then has the empty answer under this mapping.
  bool answerable = false;
  /// For each entry of TargetQueryInfo::output_refs, the qualified
  /// source column in `plan`'s output carrying it (nullopt only for
  /// unmapped optional outputs; never occurs for answerable queries
  /// today but kept for forward compatibility with outer mappings).
  std::vector<std::optional<std::string>> layout;
};

/// \brief Rewrites analyzed target queries through mappings.
class Reformulator {
 public:
  explicit Reformulator(matching::SchemaDef source_schema);

  /// Reformulates `info.query` through `m`.
  ///
  /// Source scan instances are aliased "<target_alias>$<relation>", so
  /// self-joins and repeated relations stay distinguishable. Covers use
  /// the minimal source-relation set for the mapped needed attributes
  /// (attributes live in exactly one relation, so the minimal cover is
  /// the set of their relations), combined left-deep in sorted order —
  /// a canonical shape, making "same source query" detectable by
  /// string comparison of Canonical(plan).
  Result<SourceQuery> Reformulate(const TargetQueryInfo& info,
                                  const mapping::Mapping& m) const;

  const matching::SchemaDef& source_schema() const { return source_schema_; }

 private:
  matching::SchemaDef source_schema_;
};

/// Maps each result row through `layout` (unmapped outputs become NULL)
/// and de-duplicates — the target-level answer rows of one mapping
/// partition, in first-occurrence order.
Result<std::vector<relational::Row>> AssembleRows(
    const relational::Relation& result,
    const std::vector<std::optional<std::string>>& layout);

/// Converts a materialized source result into target-level answers:
/// each distinct row AssembleRows would return accumulates `probability`
/// in `answers`, through AnswerSet::AddPartition. An empty result
/// contributes the θ outcome instead.
Status AssembleAnswers(const relational::Relation& result,
                       const std::vector<std::optional<std::string>>& layout,
                       double probability, AnswerSet* answers);

}  // namespace reformulation
}  // namespace urm
