#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "datagen/target_schemas.h"
#include "datagen/tpch.h"
#include "matching/matcher.h"
#include "matching/schema_def.h"
#include "matching/similarity.h"
#include "matching/synonyms.h"

namespace urm {
namespace matching {
namespace {

TEST(SimilarityTest, LevenshteinBasics) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("phone", "phone"), 0u);
}

TEST(SimilarityTest, NormalizedLevenshteinRange) {
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("", ""), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("abc", "xyz"), 0.0);
  double d = NormalizedLevenshtein("order", "orders");
  EXPECT_GT(d, 0.8);
  EXPECT_LT(d, 1.0);
}

TEST(SimilarityTest, JaroKnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", "abc"), 0.0);
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
}

TEST(SimilarityTest, JaroWinklerBoostsPrefix) {
  double jw = JaroWinklerSimilarity("orderkey", "ordernum");
  double j = JaroSimilarity("orderkey", "ordernum");
  EXPECT_GE(jw, j);
}

TEST(SimilarityTest, TrigramSharesSubstrings) {
  EXPECT_DOUBLE_EQ(TrigramSimilarity("abc", "abc"), 1.0);
  EXPECT_GT(TrigramSimilarity("shipdate", "shipdates"), 0.5);
  EXPECT_LT(TrigramSimilarity("abc", "xyz"), 0.2);
}

TEST(SimilarityTest, CompositeTakesMaximum) {
  double c = CompositeStringSimilarity("phone", "phones");
  EXPECT_GE(c, JaroWinklerSimilarity("phone", "phones"));
  EXPECT_GE(c, NormalizedLevenshtein("phone", "phones"));
  EXPECT_GE(c, TrigramSimilarity("phone", "phones"));
}

TEST(SynonymsTest, DefaultGroupsWork) {
  SynonymDictionary dict = SynonymDictionary::Default();
  EXPECT_TRUE(dict.AreSynonyms("phone", "telephone"));
  EXPECT_TRUE(dict.AreSynonyms("addr", "street"));
  EXPECT_TRUE(dict.AreSynonyms("num", "key"));
  EXPECT_FALSE(dict.AreSynonyms("phone", "street"));
}

TEST(SynonymsTest, TokenScoreTiers) {
  SynonymDictionary dict = SynonymDictionary::Default();
  EXPECT_DOUBLE_EQ(dict.TokenScore("phone", "phone"), 1.0);
  EXPECT_DOUBLE_EQ(dict.TokenScore("phone", "telephone"), 0.9);
  EXPECT_LT(dict.TokenScore("phone", "street"), 0.9);
}

TEST(SynonymsTest, EmptyDictionaryFallsBackToStrings) {
  SynonymDictionary dict = SynonymDictionary::Empty();
  EXPECT_FALSE(dict.AreSynonyms("phone", "telephone"));
  EXPECT_DOUBLE_EQ(dict.TokenScore("phone", "phone"), 1.0);
}

TEST(SynonymsTest, FillerTokens) {
  EXPECT_TRUE(IsFillerToken("to"));
  EXPECT_TRUE(IsFillerToken("l"));
  EXPECT_FALSE(IsFillerToken("phone"));
}

TEST(SchemaDefTest, TablesAndAttributes) {
  SchemaDef schema("S", {});
  ASSERT_TRUE(schema.AddTable({"t", {"a", "b"}}).ok());
  EXPECT_EQ(schema.AddTable({"t", {"c"}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(schema.HasTable("t"));
  EXPECT_FALSE(schema.HasTable("u"));
  EXPECT_EQ(schema.NumAttributes(), 2u);
  auto attrs = schema.AllAttributes();
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0], "t.a");
  EXPECT_TRUE(schema.HasAttribute("t.b"));
  EXPECT_FALSE(schema.HasAttribute("t.z"));
  EXPECT_FALSE(schema.HasAttribute("b"));
}

TEST(MatcherTest, SynonymDrivenCorrespondence) {
  NameMatcher matcher;
  double sim =
      matcher.AttributeSimilarity("customer.c_phone", "PO.telephone");
  EXPECT_GT(sim, 0.5);
  double unrelated =
      matcher.AttributeSimilarity("customer.c_acctbal", "PO.telephone");
  EXPECT_LT(unrelated, sim);
}

TEST(MatcherTest, MatchRespectsThreshold) {
  SchemaDef source("S", {{"customer", {"c_phone", "c_acctbal"}}});
  SchemaDef target("T", {{"PO", {"telephone"}}});
  MatcherOptions strict;
  strict.threshold = 0.99;
  NameMatcher strict_matcher(SynonymDictionary::Default(), strict);
  EXPECT_TRUE(strict_matcher.Match(source, target).empty());

  MatcherOptions loose;
  loose.threshold = 0.3;
  NameMatcher loose_matcher(SynonymDictionary::Default(), loose);
  EXPECT_FALSE(loose_matcher.Match(source, target).empty());
}

TEST(MatcherTest, SeedsRaiseScores) {
  SchemaDef source("S", {{"orders", {"o_clerk"}}});
  SchemaDef target("T", {{"PO", {"invoiceTo"}}});
  NameMatcher matcher;
  EXPECT_TRUE(matcher.Match(source, target).empty());
  SeedScores seeds;
  seeds[{"PO.invoiceTo", "orders.o_clerk"}] = 0.8;
  auto with_seeds = matcher.Match(source, target, seeds);
  ASSERT_EQ(with_seeds.size(), 1u);
  EXPECT_DOUBLE_EQ(with_seeds[0].score, 0.8);
}

TEST(MatcherTest, OutputSortedByTargetThenSource) {
  SchemaDef source("S", {{"customer", {"c_phone"}},
                         {"supplier", {"s_phone"}}});
  SchemaDef target("T", {{"PO", {"telephone", "shipToPhone"}}});
  MatcherOptions opts;
  opts.threshold = 0.4;
  NameMatcher matcher(SynonymDictionary::Default(), opts);
  auto result = matcher.Match(source, target);
  ASSERT_GE(result.size(), 2u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_FALSE(result[i] < result[i - 1]);
  }
}

TEST(MatcherTest, MatchScoresEveryPairAsAttributeSimilarity) {
  // Match shares tokens and token scores across pairs; each score must
  // still be AttributeSimilarity's, seeds folded in with max(), to the
  // bit, on the three paper schemas against TPC-H.
  NameMatcher matcher;
  const SchemaDef source = datagen::TpchSchema();
  auto bits = [](double d) {
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
  };
  for (datagen::TargetSchemaId id : datagen::AllTargetSchemas()) {
    datagen::TargetSchemaBundle bundle = datagen::GetTargetSchema(id);
    std::vector<Correspondence> expected;
    for (const auto& tgt : bundle.schema.AllAttributes()) {
      for (const auto& src : source.AllAttributes()) {
        double score = matcher.AttributeSimilarity(src, tgt);
        auto seed = bundle.seeds.find({tgt, src});
        if (seed != bundle.seeds.end()) {
          score = std::max(score, seed->second);
        } else if (score < MatcherOptions().threshold) {
          continue;
        }
        expected.push_back(Correspondence{src, tgt, score});
      }
    }
    std::sort(expected.begin(), expected.end());
    auto got = matcher.Match(source, bundle.schema, bundle.seeds);
    ASSERT_EQ(got.size(), expected.size()) << datagen::TargetSchemaName(id);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].source_attr, expected[i].source_attr);
      EXPECT_EQ(got[i].target_attr, expected[i].target_attr);
      EXPECT_EQ(bits(got[i].score), bits(expected[i].score))
          << got[i].ToString() << " vs " << expected[i].ToString();
    }
  }
}

}  // namespace
}  // namespace matching
}  // namespace urm
