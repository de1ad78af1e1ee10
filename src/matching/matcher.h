#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "matching/schema_def.h"
#include "matching/synonyms.h"

/// \file matcher.h
/// Name-based schema matcher. Stands in for COMA++ (closed source): it
/// produces the same artifact COMA++ would — a list of attribute
/// correspondences with similarity scores in (0, 1] — from identifier
/// tokens, a synonym dictionary, and optional curated *seed scores*
/// (playing the role of COMA++'s instance/terminology evidence).

namespace urm {
namespace matching {

/// \brief A scored attribute correspondence (source_attr, target_attr).
///
/// Attribute names are qualified "<table>.<attr>" within their schema.
struct Correspondence {
  std::string source_attr;
  std::string target_attr;
  double score = 0.0;

  bool operator==(const Correspondence& other) const {
    return source_attr == other.source_attr &&
           target_attr == other.target_attr;
  }
  bool operator<(const Correspondence& other) const {
    if (target_attr != other.target_attr) {
      return target_attr < other.target_attr;
    }
    return source_attr < other.source_attr;
  }
  std::string ToString() const;
};

/// Extra evidence the matcher folds in: (target_attr, source_attr) ->
/// score. Defined alongside the target schemas in datagen.
using SeedScores = std::map<std::pair<std::string, std::string>, double>;

struct MatcherOptions {
  /// Name-based correspondences scoring below this are dropped (seeded
  /// pairs are always kept).
  double threshold = 0.74;
  /// Weight of the table-name context in the final score.
  double table_weight = 0.15;
  /// Weight multiplier for filler tokens (see IsFillerToken).
  double filler_weight = 0.2;
};

/// \brief Computes the scored correspondence list between two schemas.
class NameMatcher {
 public:
  explicit NameMatcher(SynonymDictionary dictionary = SynonymDictionary::Default(),
                       MatcherOptions options = MatcherOptions());

  /// Name-based similarity of two qualified attributes (no seeds).
  double AttributeSimilarity(const std::string& source_qualified,
                             const std::string& target_qualified) const;

  /// All correspondences scoring >= threshold, sorted by target then
  /// source attribute. `seeds` entries are merged in with max(). Each
  /// score equals AttributeSimilarity's; every attribute is tokenized
  /// once and every token pair scored once per call.
  std::vector<Correspondence> Match(const SchemaDef& source,
                                    const SchemaDef& target,
                                    const SeedScores& seeds = {}) const;

 private:
  SynonymDictionary dictionary_;
  MatcherOptions options_;
};

}  // namespace matching
}  // namespace urm
