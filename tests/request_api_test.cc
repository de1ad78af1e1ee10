#include "core/request.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "core/workload.h"
#include "service/query_service.h"

/// Tests for the unified async request API: the Engine::Run dispatcher
/// over all four query kinds, futures/callbacks, streaming AnswerSinks,
/// and request-level caching in the service tier.

namespace urm {
namespace core {
namespace {

using service::QueryResponse;
using service::QueryService;
using service::ServiceOptions;

/// Two Excel queries with identical output arity (set-op operands must
/// agree on it): a projected selection per predicate.
algebra::PlanPtr ProjectedSelection(const char* attr, const char* value) {
  return algebra::MakeProject(
      algebra::MakeSelect(
          algebra::MakeScan("PO", "po"),
          algebra::Predicate::AttrCmpValue(attr, algebra::CmpOp::kEq,
                                           relational::Value(value))),
      {"po.orderNum"});
}

algebra::PlanPtr SetOpLeft() {
  return ProjectedSelection("po.company", "ABC");
}

algebra::PlanPtr SetOpRight() {
  return ProjectedSelection("po.telephone", "335-1736");
}

/// Engines are expensive; build one per target schema and share.
Engine* SharedEngine(datagen::TargetSchemaId schema) {
  static std::map<datagen::TargetSchemaId, std::unique_ptr<Engine>> cache;
  auto it = cache.find(schema);
  if (it == cache.end()) {
    Engine::Options options;
    options.target_mb = 0.3;
    options.num_mappings = 24;
    options.target_schema = schema;
    auto engine = Engine::Create(options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    it = cache.emplace(schema, std::move(engine).ValueOrDie()).first;
  }
  return it->second.get();
}

/// Counts streamed leaves and records ordering facts used to prove the
/// stream precedes completion.
class RecordingSink : public AnswerSink {
 public:
  bool OnAnswer(const std::vector<relational::Row>& rows,
                double probability) override {
    answer_rows_ += rows.size();
    probability_mass_ += probability;
    if (answers_++ == 0) {
      first_before_completion_ = !completed_.load();
    }
    return true;
  }

  void OnComplete(const Status& status) override {
    complete_calls_++;
    complete_status_ = status;
  }

  /// External completion signal (set by the service callback) used to
  /// check leaves arrive while the request is still running.
  std::atomic<bool>& completed() { return completed_; }

  size_t answers() const { return answers_; }
  size_t answer_rows() const { return answer_rows_; }
  double probability_mass() const { return probability_mass_; }
  bool first_before_completion() const { return first_before_completion_; }
  int complete_calls() const { return complete_calls_; }
  const Status& complete_status() const { return complete_status_; }

 private:
  std::atomic<bool> completed_{false};
  size_t answers_ = 0;
  size_t answer_rows_ = 0;
  double probability_mass_ = 0.0;
  bool first_before_completion_ = false;
  int complete_calls_ = 0;
  Status complete_status_;
};

/// Unsubscribes after the first leaf.
class OneShotSink : public AnswerSink {
 public:
  bool OnAnswer(const std::vector<relational::Row>&, double) override {
    answers_++;
    return false;
  }
  size_t answers() const { return answers_; }

 private:
  size_t answers_ = 0;
};

TEST(RequestDispatchTest, RunMatchesLegacyEntryPointsForAllKinds) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  const auto q4 = QueryById("Q4").query;

  // Method evaluation, every method.
  for (Method method : {Method::kBasic, Method::kEBasic, Method::kEMqo,
                        Method::kQSharing, Method::kOSharing}) {
    auto legacy = engine->Evaluate(q4, method);
    auto unified = engine->Run(Request::MethodEval(q4, method));
    ASSERT_TRUE(legacy.ok() && unified.ok()) << MethodName(method);
    EXPECT_EQ(unified.ValueOrDie().kind, RequestKind::kEvaluate);
    EXPECT_TRUE(legacy.ValueOrDie().answers.ApproxEquals(
        unified.ValueOrDie().evaluate.answers, 1e-12));
  }

  // o-sharing with an explicit strategy.
  auto legacy_snf =
      engine->EvaluateOSharing(q4, osharing::StrategyKind::kSNF);
  auto unified_snf = engine->Run(
      Request::MethodEval(q4, Method::kOSharing)
          .WithStrategy(osharing::StrategyKind::kSNF));
  ASSERT_TRUE(legacy_snf.ok() && unified_snf.ok());
  EXPECT_TRUE(legacy_snf.ValueOrDie().answers.ApproxEquals(
      unified_snf.ValueOrDie().evaluate.answers, 1e-12));

  // Top-k.
  auto legacy_topk = engine->EvaluateTopK(q4, 3);
  auto unified_topk = engine->Run(Request::TopK(q4, 3));
  ASSERT_TRUE(legacy_topk.ok() && unified_topk.ok());
  const auto& lt = legacy_topk.ValueOrDie().tuples;
  const auto& ut = unified_topk.ValueOrDie().top_k.tuples;
  ASSERT_EQ(lt.size(), ut.size());
  for (size_t i = 0; i < lt.size(); ++i) {
    EXPECT_EQ(lt[i].lower_bound, ut[i].lower_bound);
    EXPECT_EQ(lt[i].upper_bound, ut[i].upper_bound);
  }

  // Set-op.
  const auto left = SetOpLeft();
  const auto right = SetOpRight();
  auto legacy_setop = engine->EvaluateSetOp(left, right, SetOpKind::kUnion);
  auto unified_setop =
      engine->Run(Request::SetOp(left, right, SetOpKind::kUnion));
  ASSERT_TRUE(legacy_setop.ok() && unified_setop.ok());
  EXPECT_TRUE(legacy_setop.ValueOrDie().answers.ApproxEquals(
      unified_setop.ValueOrDie().evaluate.answers, 1e-12));

  // Threshold.
  auto legacy_thr = engine->EvaluateThreshold(q4, 0.2);
  auto unified_thr = engine->Run(Request::Threshold(q4, 0.2));
  ASSERT_TRUE(legacy_thr.ok() && unified_thr.ok());
  EXPECT_EQ(legacy_thr.ValueOrDie().tuples.size(),
            unified_thr.ValueOrDie().threshold.tuples.size());
}

TEST(RequestDispatchTest, ValidationCatchesMalformedRequests) {
  EXPECT_FALSE(ValidateRequest(Request::MethodEval(nullptr,
                                                   Method::kBasic)).ok());
  EXPECT_FALSE(ValidateRequest(
                   Request::TopK(QueryById("Q1").query, 0)).ok());
  EXPECT_FALSE(ValidateRequest(Request::SetOp(QueryById("Q1").query,
                                              nullptr, SetOpKind::kUnion))
                   .ok());
  EXPECT_FALSE(ValidateRequest(
                   Request::Threshold(QueryById("Q1").query, 0.0)).ok());
  EXPECT_FALSE(ValidateRequest(
                   Request::Threshold(QueryById("Q1").query, 1.5)).ok());
  EXPECT_FALSE(ValidateRequest(
                   Request::Threshold(QueryById("Q1").query,
                                      std::numeric_limits<double>::quiet_NaN()))
                   .ok());
}

TEST(RequestFingerprintTest, DistinguishesKindsAndParameters) {
  const auto q1 = QueryById("Q1").query;
  const auto q4 = QueryById("Q4").query;
  auto fp = [&](const Request& r) { return FingerprintRequest(r, 7); };

  // Same plan under different kinds/parameters must not collide.
  auto eval = fp(Request::MethodEval(q4, Method::kOSharing));
  EXPECT_NE(eval, fp(Request::MethodEval(q4, Method::kBasic)));
  EXPECT_NE(eval, fp(Request::TopK(q4, 3)));
  EXPECT_NE(fp(Request::TopK(q4, 3)), fp(Request::TopK(q4, 4)));
  EXPECT_NE(fp(Request::Threshold(q4, 0.2)),
            fp(Request::Threshold(q4, 0.3)));
  EXPECT_NE(fp(Request::SetOp(q1, q4, SetOpKind::kUnion)),
            fp(Request::SetOp(q1, q4, SetOpKind::kIntersect)));
  EXPECT_NE(fp(Request::SetOp(q1, q4, SetOpKind::kExcept)),
            fp(Request::SetOp(q4, q1, SetOpKind::kExcept)));
  EXPECT_NE(eval, fp(Request::MethodEval(q4, Method::kOSharing)
                         .WithStrategy(osharing::StrategyKind::kSNF)));

  // Structurally identical requests built independently hash equal.
  EXPECT_EQ(fp(Request::TopK(QueryById("Q4").query, 3)),
            fp(Request::TopK(QueryById("Q4").query, 3)));
  // A strategy override is identity only for the kinds that consume
  // it; elsewhere it must not split the cache/dedup key.
  EXPECT_EQ(fp(Request::MethodEval(q4, Method::kBasic)
                   .WithStrategy(osharing::StrategyKind::kSNF)),
            fp(Request::MethodEval(q4, Method::kBasic)));
  EXPECT_EQ(fp(Request::SetOp(q1, q4, SetOpKind::kUnion)
                   .WithStrategy(osharing::StrategyKind::kSNF)),
            fp(Request::SetOp(q1, q4, SetOpKind::kUnion)));
  // The context hash still separates configurations.
  EXPECT_NE(FingerprintRequest(Request::TopK(q4, 3), 1),
            FingerprintRequest(Request::TopK(q4, 3), 2));
}

TEST(AsyncSubmitTest, FuturesResolveWithResultsIdenticalToSyncPath) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 3;
  options.cache_capacity = 0;  // force real evaluations
  QueryService service(engine, options);

  std::vector<Request> requests;
  for (const char* id : {"Q1", "Q2", "Q4"}) {
    requests.push_back(
        Request::MethodEval(QueryById(id).query, Method::kOSharing));
    requests.push_back(Request::TopK(QueryById(id).query, 3));
  }
  std::vector<std::future<QueryResponse>> futures;
  for (const auto& request : requests) {
    futures.push_back(service.SubmitAsync(request));
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    QueryResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_NE(response.response, nullptr);
    auto direct = engine->Run(requests[i]);
    ASSERT_TRUE(direct.ok());
    if (requests[i].kind == RequestKind::kEvaluate) {
      EXPECT_TRUE(direct.ValueOrDie().evaluate.answers.ApproxEquals(
          response.response->evaluate.answers, 1e-12));
      // The legacy MethodResult view aliases the same response.
      ASSERT_NE(response.result, nullptr);
      EXPECT_EQ(response.result.get(), &response.response->evaluate);
    } else {
      const auto& direct_tuples = direct.ValueOrDie().top_k.tuples;
      const auto& async_tuples = response.response->top_k.tuples;
      ASSERT_EQ(direct_tuples.size(), async_tuples.size());
      for (size_t t = 0; t < direct_tuples.size(); ++t) {
        EXPECT_EQ(direct_tuples[t].lower_bound,
                  async_tuples[t].lower_bound);
      }
    }
  }
}

TEST(AsyncSubmitTest, CompletionCallbackFires) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  QueryService service(engine, ServiceOptions{});
  std::atomic<int> calls{0};
  Status seen;
  auto future = service.SubmitAsync(
      Request::MethodEval(QueryById("Q1").query, Method::kQSharing),
      nullptr, [&](const QueryResponse& response) {
        seen = response.status;
        calls++;
      });
  auto response = future.get();
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(seen.ok());

  // Invalid requests invoke the callback too (inline).
  service.SubmitAsync(Request::MethodEval(nullptr, Method::kBasic), nullptr,
                      [&](const QueryResponse& response) {
                        EXPECT_FALSE(response.status.ok());
                        calls++;
                      })
      .get();
  EXPECT_EQ(calls.load(), 2);
}

TEST(AsyncSubmitTest, DestructionCompletesOutstandingFutures) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  // One worker + nested fan-out: destruction races an in-flight
  // evaluation whose ParallelFor would enqueue helper tasks on the
  // stopping pool (they must degrade to inline execution, not abort).
  ServiceOptions options;
  options.num_threads = 1;
  options.intra_query_parallelism = 4;
  options.cache_capacity = 0;
  std::vector<std::future<QueryResponse>> futures;
  {
    QueryService service(engine, options);
    for (const char* id : {"Q1", "Q2", "Q4"}) {
      futures.push_back(service.SubmitAsync(
          Request::MethodEval(QueryById(id).query, Method::kOSharing)));
    }
  }  // ~QueryService drains the pool with evaluations still queued
  for (auto& future : futures) {
    QueryResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_NE(response.response, nullptr);
  }
}

TEST(StreamingTest, SinkObservesFirstLeafBeforeEvaluationCompletes) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 2;
  QueryService service(engine, options);

  // Q4 partitions into several u-trace leaves, so the stream is
  // strictly longer than one event.
  RecordingSink sink;
  auto future = service.SubmitAsync(
      Request::MethodEval(QueryById("Q4").query, Method::kOSharing), &sink,
      [&](const QueryResponse&) { sink.completed() = true; });
  QueryResponse response = future.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  EXPECT_GT(sink.answers(), 1u);
  // The first leaf arrived while the request was still in flight: the
  // completion callback (which fires when evaluation is done, before
  // the future is fulfilled) had not run yet.
  EXPECT_TRUE(sink.first_before_completion());
  EXPECT_EQ(sink.complete_calls(), 1);
  EXPECT_TRUE(sink.complete_status().ok());
  // The streamed partition masses cover the full probability space
  // (the same leaves the aggregated AnswerSet was built from).
  EXPECT_NEAR(sink.probability_mass(), 1.0, 1e-9);
}

TEST(StreamingTest, SyncRunStreamsLeavesForUTraceKinds) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  const auto q4 = QueryById("Q4").query;

  RecordingSink eval_sink;
  Engine::EvalOptions eval;
  eval.sink = &eval_sink;
  auto eval_response =
      engine->Run(Request::MethodEval(q4, Method::kOSharing), eval);
  ASSERT_TRUE(eval_response.ok());
  EXPECT_GT(eval_sink.answers(), 1u);
  EXPECT_EQ(eval_sink.complete_calls(), 1);

  RecordingSink topk_sink;
  Engine::EvalOptions topk_eval;
  topk_eval.sink = &topk_sink;
  auto topk_response = engine->Run(Request::TopK(q4, 3), topk_eval);
  ASSERT_TRUE(topk_response.ok());
  EXPECT_GE(topk_sink.answers(), 1u);
  EXPECT_EQ(topk_sink.answers(),
            topk_response.ValueOrDie().top_k.leaves_visited);

  RecordingSink threshold_sink;
  Engine::EvalOptions threshold_eval;
  threshold_eval.sink = &threshold_sink;
  auto threshold_response =
      engine->Run(Request::Threshold(q4, 0.2), threshold_eval);
  ASSERT_TRUE(threshold_response.ok());
  EXPECT_GE(threshold_sink.answers(), 1u);

  // Non-u-trace kinds still fire OnComplete.
  RecordingSink basic_sink;
  Engine::EvalOptions basic_eval;
  basic_eval.sink = &basic_sink;
  ASSERT_TRUE(
      engine->Run(Request::MethodEval(q4, Method::kBasic), basic_eval).ok());
  EXPECT_EQ(basic_sink.answers(), 0u);
  EXPECT_EQ(basic_sink.complete_calls(), 1);
}

TEST(StreamingTest, UnsubscribingSinkDoesNotAbortTheEvaluation) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  const auto q4 = QueryById("Q4").query;
  auto reference = engine->Run(Request::MethodEval(q4, Method::kOSharing));
  ASSERT_TRUE(reference.ok());

  OneShotSink sink;
  Engine::EvalOptions eval;
  eval.sink = &sink;
  auto streamed = engine->Run(Request::MethodEval(q4, Method::kOSharing),
                              eval);
  ASSERT_TRUE(streamed.ok());
  // The sink saw exactly one leaf (then unsubscribed) out of several —
  // direct evidence answers stream ahead of completion — while the
  // evaluation still aggregated every leaf.
  EXPECT_EQ(sink.answers(), 1u);
  EXPECT_GT(streamed.ValueOrDie().evaluate.source_queries, 1u);
  EXPECT_TRUE(reference.ValueOrDie().evaluate.answers.ApproxEquals(
      streamed.ValueOrDie().evaluate.answers, 1e-12));
}

TEST(StreamingTest, ParallelOSharingStreamsTheSameLeafSequence) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  const auto q4 = QueryById("Q4").query;

  RecordingSink sequential_sink;
  Engine::EvalOptions sequential;
  sequential.sink = &sequential_sink;
  ASSERT_TRUE(engine->Run(Request::MethodEval(q4, Method::kOSharing),
                          sequential)
                  .ok());

  ThreadPool pool(3);
  RecordingSink parallel_sink;
  Engine::EvalOptions parallel;
  parallel.parallelism = 3;
  parallel.pool = &pool;
  parallel.sink = &parallel_sink;
  ASSERT_TRUE(engine->Run(Request::MethodEval(q4, Method::kOSharing),
                          parallel)
                  .ok());

  EXPECT_EQ(sequential_sink.answers(), parallel_sink.answers());
  EXPECT_EQ(sequential_sink.answer_rows(), parallel_sink.answer_rows());
  EXPECT_NEAR(sequential_sink.probability_mass(),
              parallel_sink.probability_mass(), 1e-12);
}

TEST(RequestCachingTest, AllKindsHitTheAnswerCacheOnRepeatSubmission) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 2;
  QueryService service(engine, options);

  const auto q4 = QueryById("Q4").query;
  std::vector<Request> kinds = {
      Request::MethodEval(q4, Method::kOSharing),
      Request::TopK(q4, 3),
      Request::SetOp(SetOpLeft(), SetOpRight(), SetOpKind::kUnion),
      Request::Threshold(q4, 0.2),
  };
  for (const auto& request : kinds) {
    auto first = service.Submit(request);
    ASSERT_TRUE(first.status.ok())
        << RequestKindName(request.kind) << ": "
        << first.status.ToString();
    EXPECT_FALSE(first.cache_hit) << RequestKindName(request.kind);
    auto second = service.Submit(request);
    ASSERT_TRUE(second.status.ok());
    EXPECT_TRUE(second.cache_hit) << RequestKindName(request.kind);
    // Zero-copy: the cached Response object is shared.
    EXPECT_EQ(first.response.get(), second.response.get());
  }
  EXPECT_EQ(service.cache_stats().hits, kinds.size());
  EXPECT_EQ(service.cache_stats().entries, kinds.size());
}

TEST(RequestCachingTest, MixedKindBatchDeduplicatesAndOrders) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 3;
  QueryService service(engine, options);

  const auto q4 = QueryById("Q4").query;
  std::vector<Request> batch = {
      Request::TopK(q4, 3),
      Request::MethodEval(q4, Method::kOSharing),
      Request::TopK(q4, 3),  // duplicate of [0]
      Request::Threshold(q4, 0.2),
  };
  auto responses = service.Submit(batch);
  ASSERT_EQ(responses.size(), 4u);
  for (const auto& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_NE(r.response, nullptr);
  }
  EXPECT_EQ(responses[0].fingerprint, responses[2].fingerprint);
  EXPECT_FALSE(responses[0].shared_in_batch);
  EXPECT_TRUE(responses[2].shared_in_batch);
  EXPECT_EQ(responses[0].response.get(), responses[2].response.get());
  EXPECT_EQ(responses[0].response->kind, RequestKind::kTopK);
  EXPECT_EQ(responses[1].response->kind, RequestKind::kEvaluate);
  EXPECT_EQ(responses[3].response->kind, RequestKind::kThreshold);
  // Three distinct evaluations.
  EXPECT_EQ(service.cache_stats().misses, 3u);
}

TEST(RequestCachingTest, ReconfigurationInvalidatesAllKinds) {
  Engine::Options engine_options;
  engine_options.target_mb = 0.05;
  engine_options.num_mappings = 8;
  auto owned = Engine::Create(engine_options);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  Engine* engine = owned.ValueOrDie().get();

  QueryService service(engine, ServiceOptions{});
  Request request = Request::TopK(QueryById("Q4").query, 3);
  uint64_t epoch_before = engine->mapping_epoch();
  auto fp_before = service.Fingerprint(request);
  ASSERT_TRUE(service.Submit(request).status.ok());
  engine->UseTopMappings(4);
  EXPECT_EQ(engine->mapping_epoch(), epoch_before + 1);
  EXPECT_NE(service.Fingerprint(request), fp_before);
  auto after = service.Submit(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);  // reconfiguration invalidates by key
}

}  // namespace
}  // namespace core
}  // namespace urm
