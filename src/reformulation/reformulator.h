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

/// The position in `result` (a source query's cover schema) of each
/// layout column, -1 where the output is unmapped: the `columns` that
/// AnswerSet::AddCover reads a partition's answer rows through.
Result<std::vector<int>> LayoutColumns(
    const relational::RelationSchema& result,
    const std::vector<std::optional<std::string>>& layout);

}  // namespace reformulation
}  // namespace urm
