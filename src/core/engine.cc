#include "core/engine.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/hash_util.h"
#include "common/timer.h"
#include "mapping/sharded.h"
#include "obs/log.h"
#include "matching/matcher.h"
#include "qsharing/qsharing.h"
#include "reformulation/reformulator.h"

namespace urm {
namespace core {

namespace {

/// Adapts the public streaming interface to the o-sharing engine's
/// LeafVisitor so Run can tee u-trace leaves to a caller's sink.
class SinkLeafAdapter : public osharing::LeafVisitor {
 public:
  explicit SinkLeafAdapter(AnswerSink* sink) : sink_(sink) {}

  bool OnLeaf(const algebra::DistinctCover& cover,
              double probability) override {
    std::vector<relational::Row> rows;
    cover.AppendRows(&rows);
    return sink_->OnAnswer(rows, probability);
  }

 private:
  AnswerSink* sink_;
};

}  // namespace

Result<std::unique_ptr<Engine>> Engine::Create(const Options& options) {
  auto engine = std::unique_ptr<Engine>(new Engine());
  engine->options_ = options;

  datagen::TpchOptions tpch;
  tpch.target_mb = options.target_mb;
  tpch.seed = options.seed;
  auto catalog = datagen::GenerateTpch(tpch);
  if (!catalog.ok()) return catalog.status();
  engine->catalog_ = std::move(catalog).ValueOrDie();
  engine->source_schema_ = datagen::TpchSchema();

  datagen::TargetSchemaBundle bundle =
      datagen::GetTargetSchema(options.target_schema);
  engine->target_schema_ = std::move(bundle.schema);

  matching::MatcherOptions matcher_options;
  matcher_options.threshold = options.matcher_threshold;
  matching::NameMatcher matcher(matching::SynonymDictionary::Default(),
                                matcher_options);
  engine->correspondences_ = matcher.Match(
      engine->source_schema_, engine->target_schema_, bundle.seeds);
  if (engine->correspondences_.empty()) {
    return Status::Internal("matcher produced no correspondences");
  }

  mapping::MappingGenOptions gen;
  gen.h = options.num_mappings;
  auto mappings =
      mapping::GenerateMappings(engine->correspondences_, gen);
  if (!mappings.ok()) return mappings.status();
  engine->all_mappings_ = std::move(mappings).ValueOrDie();
  engine->PublishMappings(engine->all_mappings_, /*advance_epoch=*/false);
  return engine;
}

std::unique_ptr<Engine> Engine::FromParts(
    relational::Catalog catalog, matching::SchemaDef source_schema,
    matching::SchemaDef target_schema,
    std::vector<mapping::Mapping> mappings, Options options) {
  auto engine = std::unique_ptr<Engine>(new Engine());
  engine->catalog_ = std::move(catalog);
  engine->source_schema_ = std::move(source_schema);
  engine->target_schema_ = std::move(target_schema);
  engine->all_mappings_ = std::move(mappings);
  engine->options_ = options;
  engine->PublishMappings(engine->all_mappings_, /*advance_epoch=*/false);
  return engine;
}

std::shared_ptr<const Engine::MappingState> Engine::CurrentMappingState()
    const {
  std::lock_guard<std::mutex> lock(mapping_mu_);
  return mapping_state_;
}

void Engine::PublishMappings(std::vector<mapping::Mapping> mappings,
                             bool advance_epoch) {
  auto state = std::make_shared<MappingState>();
  state->mappings = std::move(mappings);
  state->hash = mapping::MappingSetHash(state->mappings);
  std::lock_guard<std::mutex> lock(mapping_mu_);
  state->epoch = advance_epoch && mapping_state_ != nullptr
                     ? mapping_state_->epoch + 1
                     : 0;
  mapping_epoch_.store(state->epoch, std::memory_order_release);
  mapping_set_hash_.store(state->hash, std::memory_order_release);
  mapping_state_ = std::move(state);
}

void Engine::UseTopMappings(size_t h) {
  PublishMappings(mapping::TakeTopMappings(all_mappings_, h),
                  /*advance_epoch=*/true);
}

Status Engine::SetActiveMappings(std::vector<mapping::Mapping> mappings) {
  if (mappings.empty()) {
    return Status::InvalidArgument("mapping set must not be empty");
  }
  double total = 0.0;
  for (const mapping::Mapping& m : mappings) total += m.probability();
  if (!(total > 0.0)) {
    return Status::InvalidArgument(
        "mapping set has non-positive total probability");
  }
  for (mapping::Mapping& m : mappings) {
    m.set_probability(m.probability() / total);
  }
  PublishMappings(std::move(mappings), /*advance_epoch=*/true);
  return Status::OK();
}

Result<reformulation::TargetQueryInfo> Engine::Analyze(
    const algebra::PlanPtr& query) const {
  return reformulation::AnalyzeTargetQuery(query, target_schema_);
}

std::vector<uint64_t> Engine::SourceFootprint(const Request& request) const {
  const std::shared_ptr<const MappingState> state = CurrentMappingState();
  std::set<uint64_t> tables;
  // Union over the active mappings of the source tables backing every
  // needed target attribute of every instance — a superset of what any
  // reformulation of this request can scan. An analysis failure yields
  // the empty set, which callers treat as depends-on-everything.
  auto absorb = [&](const algebra::PlanPtr& plan) -> bool {
    auto info = Analyze(plan);
    if (!info.ok()) return false;
    for (const reformulation::InstanceInfo& inst :
         info.ValueOrDie().instances) {
      for (const std::string& attr : inst.needed) {
        const std::string target_attr = inst.table + "." + attr;
        for (const mapping::Mapping& m : state->mappings) {
          const std::optional<std::string> source = m.SourceFor(target_attr);
          if (!source.has_value()) continue;
          const size_t dot = source->find('.');
          tables.insert(Fnv1a(dot == std::string::npos
                                  ? *source
                                  : source->substr(0, dot)));
        }
      }
    }
    return true;
  };
  if (request.query == nullptr || !absorb(request.query)) return {};
  if (request.kind == RequestKind::kSetOp &&
      (request.right == nullptr || !absorb(request.right))) {
    return {};
  }
  return std::vector<uint64_t>(tables.begin(), tables.end());
}

Result<Response> Engine::Run(const Request& request) const {
  return Run(request, EvalOptions());
}

Result<Response> Engine::Run(const Request& request,
                             const EvalOptions& eval) const {
  auto response = RunInternal(request, eval);
  if (eval.sink != nullptr) {
    eval.sink->OnComplete(response.ok() ? Status::OK() : response.status());
  }
  return response;
}

Result<baselines::MethodResult> Engine::EvaluateMethodOverMappings(
    const reformulation::TargetQueryInfo& info, const Request& request,
    const EvalOptions& eval, const std::vector<mapping::Mapping>& mappings,
    const relational::Catalog& catalog, uint64_t store_epoch,
    uint64_t store_shard_epoch, osharing::LeafVisitor* tee) const {
  reformulation::Reformulator reformulator(source_schema_);
  baselines::ExecOptions exec;
  exec.parallelism = eval.parallelism;
  exec.pool = eval.pool;
  switch (request.method) {
    case Method::kBasic:
      return baselines::RunBasic(info, baselines::AsWeighted(mappings),
                                 catalog, reformulator, exec);
    case Method::kEBasic:
      return baselines::RunEBasic(info, baselines::AsWeighted(mappings),
                                  catalog, reformulator, exec);
    case Method::kEMqo:
      return baselines::RunEMqo(info, baselines::AsWeighted(mappings),
                                catalog, reformulator, exec);
    case Method::kQSharing:
      return qsharing::RunQSharing(info, mappings, catalog, reformulator,
                                   exec);
    case Method::kOSharing: {
      osharing::OSharingOptions options;
      options.strategy = request.strategy.value_or(options_.strategy);
      options.random_seed = options_.seed;
      options.parallelism = eval.parallelism;
      options.pool = eval.pool;
      options.tee = tee;
      options.store = eval.operator_store;
      options.store_epoch = store_epoch;
      options.store_shard_epoch = store_shard_epoch;
      return osharing::RunOSharing(info, mappings, catalog, options);
    }
  }
  return Status::Internal("unreachable");
}

Result<Response> Engine::RunInternal(const Request& request,
                                     const EvalOptions& eval) const {
  URM_RETURN_NOT_OK(ValidateRequest(request));
  // Pin the world once per dispatch: an immutable mapping-set snapshot
  // and a point-in-time catalog copy (cheap — shared_ptrs to immutable
  // relations). Everything below reads only these, so a concurrent
  // ApplyDelta / reconfiguration cannot tear an evaluation: it
  // completes entirely against the pinned state.
  const std::shared_ptr<const MappingState> state = CurrentMappingState();
  const relational::Catalog catalog = catalog_;
  return RunPinned(request, eval, *state, catalog);
}

Result<Response> Engine::RunPinned(const Request& request,
                                   const EvalOptions& eval,
                                   const MappingState& state,
                                   const relational::Catalog& catalog) const {
  // Sharded dispatch: streaming requests stay on the single-pass path
  // (a per-shard merge has no global leaf order to stream), and a set
  // that cannot be split (h < 2) falls through below.
  if (eval.mapping_shards > 1 && eval.sink == nullptr &&
      state.mappings.size() > 1) {
    return RunSharded(request, eval, state, catalog);
  }
  SinkLeafAdapter adapter(eval.sink);
  osharing::LeafVisitor* tee = eval.sink != nullptr ? &adapter : nullptr;

  Response response;
  response.kind = request.kind;
  switch (request.kind) {
    case RequestKind::kEvaluate: {
      auto info = Analyze(request.query);
      if (!info.ok()) return info.status();
      auto result = EvaluateMethodOverMappings(info.ValueOrDie(), request,
                                               eval, state.mappings, catalog,
                                               /*store_epoch=*/state.epoch,
                                               /*store_shard_epoch=*/0, tee);
      if (!result.ok()) return result.status();
      response.evaluate = std::move(result).ValueOrDie();
      return response;
    }

    case RequestKind::kTopK: {
      auto info = Analyze(request.query);
      if (!info.ok()) return info.status();
      topk::TopKOptions options;
      options.osharing.strategy = request.strategy.value_or(options_.strategy);
      options.osharing.random_seed = options_.seed;
      options.osharing.tee = tee;
      options.osharing.store = eval.operator_store;
      options.osharing.store_epoch = state.epoch;
      auto result = topk::RunTopK(info.ValueOrDie(), state.mappings, catalog,
                                  request.k, options);
      if (!result.ok()) return result.status();
      response.top_k = std::move(result).ValueOrDie();
      return response;
    }

    case RequestKind::kSetOp: {
      auto left_info = Analyze(request.query);
      if (!left_info.ok()) return left_info.status();
      auto right_info = Analyze(request.right);
      if (!right_info.ok()) return right_info.status();
      reformulation::Reformulator reformulator(source_schema_);
      auto result = core::EvaluateSetOp(left_info.ValueOrDie(),
                                        right_info.ValueOrDie(),
                                        request.set_op, state.mappings,
                                        catalog, reformulator);
      if (!result.ok()) return result.status();
      response.evaluate = std::move(result).ValueOrDie();
      return response;
    }

    case RequestKind::kThreshold: {
      auto info = Analyze(request.query);
      if (!info.ok()) return info.status();
      osharing::OSharingOptions options;
      options.strategy = request.strategy.value_or(options_.strategy);
      options.random_seed = options_.seed;
      options.tee = tee;
      options.store = eval.operator_store;
      options.store_epoch = state.epoch;
      auto result = topk::RunThreshold(info.ValueOrDie(), state.mappings,
                                       catalog, request.threshold, options);
      if (!result.ok()) return result.status();
      response.threshold = std::move(result).ValueOrDie();
      return response;
    }
  }
  return Status::Internal("unreachable");
}

namespace {

/// Reweights one shard's answer set by its probability mass into
/// `merged`. Determinism: shards merge in shard order (the caller's
/// loop) and tuples within a shard in their accumulation order, so
/// repeated sharded evaluations produce the same AnswerSet — and, for
/// exactly representable probabilities, the same bits as the unsharded
/// pass.
void MergeShardAnswers(const reformulation::AnswerSet& shard_answers,
                       double mass, reformulation::AnswerSet* merged) {
  for (const reformulation::AnswerTuple& t : shard_answers.tuples()) {
    merged->Add(t.values, t.probability * mass);
  }
  merged->AddNull(shard_answers.null_probability() * mass);
}

constexpr double kShardMergeEps = 1e-12;  ///< mirrors the u-trace sinks

}  // namespace

std::shared_ptr<const mapping::ShardedMappingSet> Engine::ShardedView(
    const MappingState& state, size_t num_shards) const {
  std::lock_guard<std::mutex> lock(shard_memo_mu_);
  if (shard_memo_ == nullptr || shard_memo_epoch_ != state.epoch ||
      shard_memo_count_ != num_shards) {
    shard_memo_ = std::make_shared<const mapping::ShardedMappingSet>(
        mapping::ShardedMappingSet::Build(state.mappings, num_shards));
    shard_memo_epoch_ = state.epoch;
    shard_memo_count_ = num_shards;
  }
  return shard_memo_;
}

Result<Response> Engine::RunSharded(const Request& request,
                                    const EvalOptions& eval,
                                    const MappingState& state,
                                    const relational::Catalog& catalog) const {
  Timer timer;
  const std::shared_ptr<const mapping::ShardedMappingSet> view = ShardedView(
      state, static_cast<size_t>(std::max(eval.mapping_shards, 1)));
  const mapping::ShardedMappingSet& sharded = *view;
  if (sharded.num_shards() <= 1) {
    EvalOptions whole = eval;
    whole.mapping_shards = 1;
    return RunPinned(request, whole, state, catalog);
  }

  auto info = Analyze(request.query);
  if (!info.ok()) return info.status();
  std::optional<reformulation::TargetQueryInfo> right_info;
  if (request.kind == RequestKind::kSetOp) {
    auto right = Analyze(request.right);
    if (!right.ok()) return right.status();
    right_info = std::move(right).ValueOrDie();
  }

  // Per-shard evaluation: each shard is a well-formed renormalized
  // mapping set evaluated by its own engine clone (private
  // reformulator / o-sharing engine; shared read-only catalog and
  // query info). The QueryService's OperatorStore is shared by all
  // shards, each under its shard-local key epoch. Within a shard the
  // evaluation may fan out further (eval.parallelism); the nested
  // ParallelFor is claim-based and deadlock-free.
  EvalOptions shard_eval = eval;
  shard_eval.mapping_shards = 1;
  shard_eval.sink = nullptr;
  const size_t num_shards = sharded.num_shards();
  std::vector<Result<baselines::MethodResult>> parts(
      num_shards, Result<baselines::MethodResult>(
                      Status::Internal("shard not evaluated")));
  std::vector<double> shard_seconds(num_shards, 0.0);
  auto eval_shard_inner = [&](size_t s) {
    const mapping::MappingShard& shard = sharded.shard(s);
    switch (request.kind) {
      case RequestKind::kEvaluate:
        parts[s] = EvaluateMethodOverMappings(
            info.ValueOrDie(), request, shard_eval, shard.mappings, catalog,
            /*store_epoch=*/state.epoch, shard.hash, nullptr);
        return;
      case RequestKind::kSetOp: {
        reformulation::Reformulator reformulator(source_schema_);
        parts[s] = core::EvaluateSetOp(info.ValueOrDie(), *right_info,
                                       request.set_op, shard.mappings,
                                       catalog, reformulator);
        return;
      }
      case RequestKind::kTopK:
      case RequestKind::kThreshold: {
        // Top-k / threshold shards compute their complete renormalized
        // answer mass with the full o-sharing scan: a shard cannot
        // prune locally below the global rank/threshold cut (a tuple's
        // probability sums contributions across shards), so its only
        // sound early-termination bound is its own exhausted mass —
        // which the scan applies by construction. The cut happens on
        // the merged exact probabilities below.
        osharing::OSharingOptions options;
        options.strategy = request.strategy.value_or(options_.strategy);
        options.random_seed = options_.seed;
        options.parallelism = shard_eval.parallelism;
        options.pool = shard_eval.pool;
        options.store = shard_eval.operator_store;
        options.store_epoch = state.epoch;
        options.store_shard_epoch = shard.hash;
        parts[s] = osharing::RunOSharing(info.ValueOrDie(), shard.mappings,
                                         catalog, options);
        return;
      }
    }
    parts[s] = Status::Internal("unreachable request kind");
  };
  // Per-shard wall time feeds the skew metric below: with a static
  // contiguous shard split, one slow shard bounds the whole request.
  auto eval_shard = [&](size_t s) {
    Timer shard_timer;
    eval_shard_inner(s);
    shard_seconds[s] = shard_timer.Seconds();
  };
  if (eval.pool != nullptr) {
    eval.pool->ParallelFor(num_shards, eval_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) eval_shard(s);
  }
  for (const auto& part : parts) {
    if (!part.ok()) return part.status();
  }
  if (eval.shard_metrics != nullptr) {
    double max_seconds = 0.0;
    double total_seconds = 0.0;
    for (double s : shard_seconds) {
      if (eval.shard_metrics->shard_seconds != nullptr) {
        eval.shard_metrics->shard_seconds->Observe(s);
      }
      max_seconds = std::max(max_seconds, s);
      total_seconds += s;
    }
    const double mean_seconds =
        total_seconds / static_cast<double>(num_shards);
    if (eval.shard_metrics->shard_skew != nullptr && mean_seconds > 0.0) {
      eval.shard_metrics->shard_skew->Observe(max_seconds / mean_seconds);
    }
    URM_LOG(Debug, "shard")
        << RequestKindName(request.kind) << " over " << num_shards
        << " shards: max " << max_seconds * 1e3 << " ms, mean "
        << mean_seconds * 1e3 << " ms";
  }

  // Deterministic merge in shard order, reweighted by shard mass.
  baselines::MethodResult combined;
  combined.answers = reformulation::AnswerSet(
      parts[0].ValueOrDie().answers.column_names());
  for (size_t s = 0; s < num_shards; ++s) {
    const baselines::MethodResult& part = parts[s].ValueOrDie();
    MergeShardAnswers(part.answers, sharded.shard(s).mass,
                      &combined.answers);
    combined.stats += part.stats;
    combined.rewrite_seconds += part.rewrite_seconds;
    combined.plan_seconds += part.plan_seconds;
    combined.eval_seconds += part.eval_seconds;
    combined.aggregate_seconds += part.aggregate_seconds;
    combined.source_queries += part.source_queries;
    combined.partitions += part.partitions;
  }

  Response response;
  response.kind = request.kind;
  switch (request.kind) {
    case RequestKind::kEvaluate:
    case RequestKind::kSetOp:
      response.evaluate = std::move(combined);
      return response;
    case RequestKind::kTopK: {
      // AnswerSet::TopK is (probability desc, row order) — the same
      // tie order as the unsharded top-k extraction, over exact
      // probabilities.
      auto top = combined.answers.TopK(request.k);
      topk::TopKResult result;
      result.tuples.reserve(top.size());
      for (auto& t : top) {
        result.tuples.push_back(topk::TopKEntry{
            std::move(t.values), t.probability, t.probability});
      }
      result.early_terminated = false;  // every shard scanned its mass
      result.leaves_visited = combined.source_queries;
      result.stats = combined.stats;
      result.seconds = timer.Seconds();
      response.top_k = std::move(result);
      return response;
    }
    case RequestKind::kThreshold: {
      // Only the qualifying tuples are ordered, and their rows are moved
      // out of the merged set, which is not read again.
      std::vector<uint32_t> order;
      for (uint32_t pos = 0; pos < combined.answers.size(); ++pos) {
        if (combined.answers.probability(pos) + kShardMergeEps >=
            request.threshold) {
          order.push_back(pos);
        }
      }
      combined.answers.Order(&order);
      std::vector<reformulation::AnswerTuple> tuples =
          std::move(combined.answers).TakeTuples();
      topk::ThresholdResult result;
      result.tuples.reserve(order.size());
      for (uint32_t pos : order) {
        reformulation::AnswerTuple& t = tuples[pos];
        result.tuples.push_back(topk::ThresholdEntry{
            std::move(t.values), t.probability, t.probability});
      }
      result.early_terminated = false;
      result.leaves_visited = combined.source_queries;
      result.stats = combined.stats;
      result.seconds = timer.Seconds();
      response.threshold = std::move(result);
      return response;
    }
  }
  return Status::Internal("unreachable");
}

Result<baselines::MethodResult> Engine::Evaluate(
    const algebra::PlanPtr& query, Method method) const {
  return Evaluate(query, method, EvalOptions());
}

Result<baselines::MethodResult> Engine::Evaluate(
    const algebra::PlanPtr& query, Method method,
    const EvalOptions& eval) const {
  auto response = Run(Request::MethodEval(query, method), eval);
  if (!response.ok()) return response.status();
  return std::move(response.ValueOrDie().evaluate);
}

Result<baselines::MethodResult> Engine::EvaluateOSharing(
    const algebra::PlanPtr& query, osharing::StrategyKind strategy) const {
  auto response = Run(
      Request::MethodEval(query, Method::kOSharing).WithStrategy(strategy));
  if (!response.ok()) return response.status();
  return std::move(response.ValueOrDie().evaluate);
}

Result<baselines::MethodResult> Engine::EvaluateSetOp(
    const algebra::PlanPtr& left, const algebra::PlanPtr& right,
    SetOpKind kind) const {
  auto response = Run(Request::SetOp(left, right, kind));
  if (!response.ok()) return response.status();
  return std::move(response.ValueOrDie().evaluate);
}

Result<topk::TopKResult> Engine::EvaluateTopK(const algebra::PlanPtr& query,
                                              size_t k) const {
  auto response = Run(Request::TopK(query, k));
  if (!response.ok()) return response.status();
  return std::move(response.ValueOrDie().top_k);
}

Result<topk::ThresholdResult> Engine::EvaluateThreshold(
    const algebra::PlanPtr& query, double threshold) const {
  auto response = Run(Request::Threshold(query, threshold));
  if (!response.ok()) return response.status();
  return std::move(response.ValueOrDie().threshold);
}

}  // namespace core
}  // namespace urm
