#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "core/engine.h"
#include "core/workload.h"

/// Answer identity at the paper's scale (|D| = 0.3 MB, h = 100): every
/// Table III query under the five methods, top-k (k = 1, 5) and
/// threshold (0.1, 0.5), digested byte for byte — tuple order, each
/// value's type and text, probability and bound bits, and θ mass — and
/// compared with digests pinned when the answers were last known good.
/// A change that means to keep answers identical must leave every
/// digest as it is; one that changes answers on purpose re-pins them
/// and says why.

namespace urm {
namespace core {
namespace {

/// FNV-1a over a canonical byte stream of answers.
class Digest {
 public:
  void Number(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Bits(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Number(bits);
  }
  void Text(const std::string& s) {
    Number(s.size());
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void Row(const relational::Row& row) {
    Number(row.size());
    for (const relational::Value& v : row) {
      Number(static_cast<uint64_t>(v.type()));
      Text(v.ToString());
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

Engine* SharedEngine(datagen::TargetSchemaId schema) {
  static std::map<datagen::TargetSchemaId, std::unique_ptr<Engine>> cache;
  auto it = cache.find(schema);
  if (it == cache.end()) {
    Engine::Options options;
    options.target_mb = 0.3;
    options.num_mappings = 100;
    options.seed = 42;
    options.target_schema = schema;
    auto engine = Engine::Create(options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    it = cache.emplace(schema, std::move(engine).ValueOrDie()).first;
  }
  return it->second.get();
}

/// One query's nine responses, in a fixed order, folded into one digest.
uint64_t QueryDigest(const WorkloadQuery& wq) {
  Engine* engine = SharedEngine(wq.schema);
  Digest digest;
  for (Method method : {Method::kBasic, Method::kEBasic, Method::kEMqo,
                        Method::kQSharing, Method::kOSharing}) {
    auto response = engine->Run(Request::MethodEval(wq.query, method));
    EXPECT_TRUE(response.ok()) << wq.id << " " << MethodName(method);
    if (!response.ok()) return 0;
    const auto& answers = response.ValueOrDie().evaluate.answers;
    digest.Number(answers.size());
    for (const auto& t : answers.tuples()) {
      digest.Row(t.values);
      digest.Bits(t.probability);
    }
    digest.Bits(answers.null_probability());
  }
  for (size_t k : {1, 5}) {
    auto response = engine->Run(Request::TopK(wq.query, k));
    EXPECT_TRUE(response.ok()) << wq.id << " top-" << k;
    if (!response.ok()) return 0;
    const auto& tuples = response.ValueOrDie().top_k.tuples;
    digest.Number(tuples.size());
    for (const auto& t : tuples) {
      digest.Row(t.values);
      digest.Bits(t.lower_bound);
      digest.Bits(t.upper_bound);
    }
  }
  for (double threshold : {0.1, 0.5}) {
    auto response = engine->Run(Request::Threshold(wq.query, threshold));
    EXPECT_TRUE(response.ok()) << wq.id << " threshold " << threshold;
    if (!response.ok()) return 0;
    const auto& tuples = response.ValueOrDie().threshold.tuples;
    digest.Number(tuples.size());
    for (const auto& t : tuples) {
      digest.Row(t.values);
      digest.Bits(t.lower_bound);
      digest.Bits(t.upper_bound);
    }
  }
  return digest.value();
}

/// Pinned digests, one per Table III query.
const std::map<std::string, uint64_t>& PinnedDigests() {
  static const std::map<std::string, uint64_t> pinned = {
      {"Q1", 0x09f77902d004c6caULL},  {"Q2", 0x74bfe4213395351aULL},
      {"Q3", 0x8a4de9ae1d907354ULL},  {"Q4", 0x6e6ba6d78fb635cfULL},
      {"Q5", 0x4bf3e7f95117a318ULL},  {"Q6", 0xebb51f8cdf03e417ULL},
      {"Q7", 0x7c0b0e9a744fa144ULL},  {"Q8", 0x13934703a8dacb7dULL},
      {"Q9", 0x80ca9dcf03accaf4ULL},  {"Q10", 0x39f4e156d348c0f5ULL},
  };
  return pinned;
}

TEST(AnswerIdentityTest, PaperQueriesMatchPinnedDigests) {
  for (const WorkloadQuery& wq : PaperWorkload()) {
    const uint64_t got = QueryDigest(wq);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, got);
    auto it = PinnedDigests().find(wq.id);
    ASSERT_NE(it, PinnedDigests().end()) << wq.id;
    EXPECT_EQ(got, it->second) << wq.id << " digests to " << hex;
  }
}

}  // namespace
}  // namespace core
}  // namespace urm
