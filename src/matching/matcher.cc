#include "matching/matcher.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/string_util.h"
#include "matching/similarity.h"
#include "relational/schema.h"

namespace urm {
namespace matching {

std::string Correspondence::ToString() const {
  return "(" + source_attr + ", " + target_attr + ", " +
         std::to_string(score) + ")";
}

namespace {

/// The identifier tokens one matcher call meets, interned, with the
/// TokenScore of each ordered token pair computed at most once.
class TokenScores {
 public:
  explicit TokenScores(const SynonymDictionary& dictionary)
      : dictionary_(dictionary) {}

  /// Token ids of `identifier`, in TokenizeIdentifier's order.
  std::vector<int> Tokenize(const std::string& identifier) {
    std::vector<int> ids;
    for (std::string& token : TokenizeIdentifier(identifier)) {
      auto [it, inserted] =
          ids_.emplace(token, static_cast<int>(tokens_.size()));
      if (inserted) tokens_.push_back(std::move(token));
      ids.push_back(it->second);
    }
    return ids;
  }

  bool IsFiller(int id) const { return IsFillerToken(tokens_[id]); }

  double Score(int a, int b) {
    auto key = (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
    auto [it, inserted] = scores_.emplace(key, 0.0);
    if (inserted) it->second = dictionary_.TokenScore(tokens_[a], tokens_[b]);
    return it->second;
  }

 private:
  const SynonymDictionary& dictionary_;
  std::unordered_map<std::string, int> ids_;
  std::vector<std::string> tokens_;
  std::unordered_map<uint64_t, double> scores_;
};

/// A qualified attribute's table-name and attribute-name tokens.
struct AttributeTokens {
  std::vector<int> table;
  std::vector<int> attr;
};

AttributeTokens TokenizeAttribute(const std::string& qualified,
                                  TokenScores* scores) {
  return {scores->Tokenize(relational::InstancePart(qualified)),
          scores->Tokenize(relational::AttributePart(qualified))};
}

double TokenSetSimilarity(const std::vector<int>& a,
                          const std::vector<int>& b, double filler_weight,
                          TokenScores* scores) {
  if (a.empty() || b.empty()) return 0.0;
  // Directed score: every token of `from` finds its best counterpart in
  // `to`, weighted down for filler tokens. Symmetrized by averaging.
  auto directed = [&](const std::vector<int>& from,
                      const std::vector<int>& to) {
    double total = 0.0, weight_sum = 0.0;
    for (int ft : from) {
      double w = scores->IsFiller(ft) ? filler_weight : 1.0;
      double best = 0.0;
      for (int tt : to) {
        best = std::max(best, scores->Score(ft, tt));
      }
      total += w * best;
      weight_sum += w;
    }
    return weight_sum > 0.0 ? total / weight_sum : 0.0;
  };
  return (directed(a, b) + directed(b, a)) / 2.0;
}

double Similarity(const AttributeTokens& source,
                  const AttributeTokens& target,
                  const MatcherOptions& options, TokenScores* scores) {
  double attr_sim = TokenSetSimilarity(source.attr, target.attr,
                                       options.filler_weight, scores);
  double table_sim = TokenSetSimilarity(source.table, target.table,
                                        options.filler_weight, scores);
  return (1.0 - options.table_weight) * attr_sim +
         options.table_weight * table_sim;
}

}  // namespace

NameMatcher::NameMatcher(SynonymDictionary dictionary,
                         MatcherOptions options)
    : dictionary_(std::move(dictionary)), options_(options) {}

double NameMatcher::AttributeSimilarity(
    const std::string& source_qualified,
    const std::string& target_qualified) const {
  TokenScores scores(dictionary_);
  return Similarity(TokenizeAttribute(source_qualified, &scores),
                    TokenizeAttribute(target_qualified, &scores), options_,
                    &scores);
}

std::vector<Correspondence> NameMatcher::Match(
    const SchemaDef& source, const SchemaDef& target,
    const SeedScores& seeds) const {
  std::vector<Correspondence> out;
  const auto source_attrs = source.AllAttributes();
  const auto target_attrs = target.AllAttributes();
  TokenScores scores(dictionary_);
  std::vector<AttributeTokens> source_tokens, target_tokens;
  for (const auto& src : source_attrs) {
    source_tokens.push_back(TokenizeAttribute(src, &scores));
  }
  for (const auto& tgt : target_attrs) {
    target_tokens.push_back(TokenizeAttribute(tgt, &scores));
  }
  for (size_t t = 0; t < target_attrs.size(); ++t) {
    const std::string& tgt = target_attrs[t];
    for (size_t s = 0; s < source_attrs.size(); ++s) {
      const std::string& src = source_attrs[s];
      double score =
          Similarity(source_tokens[s], target_tokens[t], options_, &scores);
      auto seed = seeds.find({tgt, src});
      if (seed != seeds.end()) {
        // Seeds are curated evidence (COMA++'s instance/terminology
        // matchers); they are kept regardless of the name threshold.
        out.push_back(Correspondence{src, tgt,
                                     std::max(score, seed->second)});
        continue;
      }
      if (score >= options_.threshold) {
        out.push_back(Correspondence{src, tgt, score});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace matching
}  // namespace urm
