#include "baselines/baselines.h"

#include <map>
#include <string>

#include "algebra/optimize.h"
#include "baselines/mqo.h"
#include "common/timer.h"

namespace urm {
namespace baselines {

using algebra::EvalContext;
using algebra::PlanPtr;
using reformulation::AnswerSet;
using reformulation::SourceQuery;
using reformulation::TargetQueryInfo;

std::vector<WeightedMapping> AsWeighted(
    const std::vector<mapping::Mapping>& mappings) {
  std::vector<WeightedMapping> out;
  out.reserve(mappings.size());
  for (const auto& m : mappings) {
    out.push_back(WeightedMapping{&m, m.probability()});
  }
  return out;
}

namespace {

/// A reformulated query group: one executable source query standing for
/// `probability` worth of mappings.
struct QueryGroup {
  SourceQuery query;
  double probability = 0.0;
};

/// Reformulates every weighted mapping; when `deduplicate` is set,
/// mappings with the identical source query are merged into one group
/// (e-basic / e-MQO); otherwise one group per mapping (basic).
Result<std::vector<QueryGroup>> BuildGroups(
    const TargetQueryInfo& info,
    const std::vector<WeightedMapping>& mappings,
    const relational::Catalog& catalog,
    const reformulation::Reformulator& reformulator, bool deduplicate) {
  std::vector<QueryGroup> groups;
  std::map<std::string, size_t> by_canonical;
  for (const auto& wm : mappings) {
    auto reformed = reformulator.Reformulate(info, *wm.mapping);
    if (!reformed.ok()) return reformed.status();
    SourceQuery sq = std::move(reformed).ValueOrDie();
    if (sq.answerable) {
      auto optimized = algebra::PushDownSelections(sq.plan, catalog);
      if (!optimized.ok()) return optimized.status();
      sq.plan = std::move(optimized).ValueOrDie();
    }
    if (deduplicate) {
      std::string key =
          sq.answerable ? algebra::Canonical(sq.plan) : "<unanswerable>";
      auto it = by_canonical.find(key);
      if (it != by_canonical.end()) {
        groups[it->second].probability += wm.probability;
        continue;
      }
      by_canonical.emplace(std::move(key), groups.size());
    }
    groups.push_back(QueryGroup{std::move(sq), wm.probability});
  }
  return groups;
}

/// e-MQO's shared-subexpression memo: the memo, the subplans it
/// stores, and the union of the group plans' read sets — one memoized
/// subplan serves every plan containing it, so it must keep the
/// columns any of them reads.
struct SharedMemo {
  algebra::EvalCache* cache = nullptr;
  const std::unordered_set<std::string>* filter = nullptr;
  const algebra::ReadSet* reads = nullptr;
};

/// Executes the groups and aggregates answers; each group's source
/// query evaluates to a cover that AnswerSet reads in place. `memo`
/// wires up e-MQO's memoization (mutually exclusive with parallel
/// execution); without it each plan reads its own read set. With
/// `exec.parallel()`, the independent group plans evaluate concurrently
/// on the pool; answers are then merged in group order, replaying
/// exactly the sequential accumulation sequence.
Result<MethodResult> ExecuteGroups(
    const TargetQueryInfo& info, std::vector<QueryGroup> groups,
    const relational::Catalog& catalog, MethodResult result,
    const SharedMemo& memo, const ExecOptions& exec = ExecOptions()) {
  result.answers = AnswerSet(info.output_refs);
  Timer timer;
  // Per-group merge shared by both paths, so sequential and parallel
  // accounting cannot drift apart (the bit-identical-results guarantee
  // rests on replaying exactly this sequence in group order).
  auto merge_unanswerable = [&](const QueryGroup& group) {
    timer.Reset();
    result.answers.AddNull(group.probability);
    result.aggregate_seconds += timer.Lap();
  };
  auto merge_answered = [&](const QueryGroup& group,
                            const algebra::DistinctCover& cover,
                            double eval_seconds) -> Status {
    result.source_queries++;
    result.eval_seconds += eval_seconds;
    timer.Reset();
    auto columns =
        reformulation::LayoutColumns(cover.schema(), group.query.layout);
    if (!columns.ok()) return columns.status();
    result.answers.AddCover(cover, columns.ValueOrDie(), group.probability);
    result.aggregate_seconds += timer.Lap();
    return Status::OK();
  };
  if (exec.parallel() && memo.cache == nullptr) {
    struct GroupEval {
      Result<algebra::DistinctCover> cover =
          Status::Internal("group not evaluated");
      algebra::EvalStats stats;
      double seconds = 0.0;
    };
    std::vector<GroupEval> evals(groups.size());
    exec.pool->ParallelFor(groups.size(), [&](size_t i) {
      if (!groups[i].query.answerable) return;
      Timer eval_timer;
      EvalContext ctx;
      ctx.catalog = &catalog;
      ctx.stats = &evals[i].stats;
      evals[i].cover = algebra::EvaluateSourceQuery(groups[i].query.plan, ctx);
      evals[i].seconds = eval_timer.Lap();
    });
    for (size_t i = 0; i < groups.size(); ++i) {
      if (!groups[i].query.answerable) {
        merge_unanswerable(groups[i]);
        continue;
      }
      if (!evals[i].cover.ok()) return evals[i].cover.status();
      result.stats += evals[i].stats;
      URM_RETURN_NOT_OK(merge_answered(
          groups[i], evals[i].cover.ValueOrDie(), evals[i].seconds));
    }
    return result;
  }
  for (const auto& group : groups) {
    if (!group.query.answerable) {
      merge_unanswerable(group);
      continue;
    }
    timer.Reset();
    EvalContext ctx;
    ctx.catalog = &catalog;
    ctx.stats = &result.stats;
    ctx.cache = memo.cache;
    ctx.cache_filter = memo.filter;
    ctx.reads = memo.reads;
    auto cover = algebra::EvaluateSourceQuery(group.query.plan, ctx);
    if (!cover.ok()) return cover.status();
    URM_RETURN_NOT_OK(
        merge_answered(group, cover.ValueOrDie(), timer.Lap()));
  }
  return result;
}

}  // namespace

Result<MethodResult> RunBasic(
    const TargetQueryInfo& info,
    const std::vector<WeightedMapping>& mappings,
    const relational::Catalog& catalog,
    const reformulation::Reformulator& reformulator,
    const ExecOptions& exec) {
  MethodResult result;
  Timer timer;
  auto groups =
      BuildGroups(info, mappings, catalog, reformulator, false);
  if (!groups.ok()) return groups.status();
  result.rewrite_seconds = timer.Lap();
  return ExecuteGroups(info, std::move(groups).ValueOrDie(), catalog,
                       std::move(result), SharedMemo(), exec);
}

Result<MethodResult> RunEBasic(
    const TargetQueryInfo& info,
    const std::vector<WeightedMapping>& mappings,
    const relational::Catalog& catalog,
    const reformulation::Reformulator& reformulator,
    const ExecOptions& exec) {
  MethodResult result;
  Timer timer;
  auto groups = BuildGroups(info, mappings, catalog, reformulator, true);
  if (!groups.ok()) return groups.status();
  result.rewrite_seconds = timer.Lap();
  result.partitions = groups.ValueOrDie().size();
  return ExecuteGroups(info, std::move(groups).ValueOrDie(), catalog,
                       std::move(result), SharedMemo(), exec);
}

Result<MethodResult> RunEMqo(
    const TargetQueryInfo& info,
    const std::vector<WeightedMapping>& mappings,
    const relational::Catalog& catalog,
    const reformulation::Reformulator& reformulator,
    const ExecOptions& exec) {
  (void)exec;  // see header: the shared memo forces sequential order
  MethodResult result;
  Timer timer;
  auto groups = BuildGroups(info, mappings, catalog, reformulator, true);
  if (!groups.ok()) return groups.status();
  result.rewrite_seconds = timer.Lap();
  result.partitions = groups.ValueOrDie().size();

  std::vector<PlanPtr> plans;
  algebra::ReadSet reads;
  for (const auto& g : groups.ValueOrDie()) {
    if (!g.query.answerable) continue;
    plans.push_back(g.query.plan);
    for (std::string& attr : algebra::ReferencedAttributes(g.query.plan)) {
      reads.insert(std::move(attr));
    }
  }
  timer.Reset();
  auto mqo = GenerateGlobalPlan(plans, catalog);
  if (!mqo.ok()) return mqo.status();
  result.plan_seconds = timer.Lap();

  algebra::EvalCache cache;
  return ExecuteGroups(
      info, std::move(groups).ValueOrDie(), catalog, std::move(result),
      SharedMemo{&cache, &mqo.ValueOrDie().materialized, &reads});
}

}  // namespace baselines
}  // namespace urm
