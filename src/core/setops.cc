#include "core/setops.h"

#include <map>
#include <unordered_set>

#include "algebra/evaluate.h"
#include "algebra/optimize.h"
#include "common/timer.h"

namespace urm {
namespace core {

using reformulation::SourceQuery;
using reformulation::TargetQueryInfo;
using relational::Row;

const char* SetOpName(SetOpKind kind) {
  switch (kind) {
    case SetOpKind::kUnion:
      return "UNION";
    case SetOpKind::kIntersect:
      return "INTERSECT";
    case SetOpKind::kExcept:
      return "EXCEPT";
  }
  return "?";
}

namespace {

/// Rows of one side under one representative mapping (empty when the
/// mapping cannot answer the side): its source query's cover read
/// through the layout, each distinct row once, in first-occurrence
/// order.
Result<std::vector<Row>> SideRows(
    const TargetQueryInfo& info, const mapping::Mapping& rep,
    const relational::Catalog& catalog,
    const reformulation::Reformulator& reformulator,
    algebra::EvalStats* stats) {
  auto reformed = reformulator.Reformulate(info, rep);
  if (!reformed.ok()) return reformed.status();
  const SourceQuery& sq = reformed.ValueOrDie();
  if (!sq.answerable) return std::vector<Row>{};
  auto optimized = algebra::PushDownSelections(sq.plan, catalog);
  if (!optimized.ok()) return optimized.status();
  algebra::EvalContext ctx;
  ctx.catalog = &catalog;
  ctx.stats = stats;
  auto cover = algebra::EvaluateSourceQuery(optimized.ValueOrDie(), ctx);
  if (!cover.ok()) return cover.status();
  auto columns =
      reformulation::LayoutColumns(cover.ValueOrDie().schema(), sq.layout);
  if (!columns.ok()) return columns.status();
  // One partition of an AnswerSet keeps each answer row once.
  reformulation::AnswerSet side;
  side.AddCover(cover.ValueOrDie(), columns.ValueOrDie(), 1.0);
  std::vector<Row> rows;
  rows.reserve(side.size());
  for (const auto& tuple : side.tuples()) rows.push_back(tuple.values);
  return rows;
}

/// Positions in `rows` of the set operation's result. `rows` holds the
/// left side's rows, then from `split` on the right side's (each side
/// duplicate-free); left rows come first, each side in its own order.
/// One side's positions form a hash set that the other side's rows
/// probe by their own positions.
std::vector<size_t> Apply(SetOpKind kind, const std::vector<Row>& rows,
                          size_t split) {
  auto index = [&rows](size_t begin, size_t end) {
    std::unordered_set<size_t, relational::RowRefHash, relational::RowRefEq>
        set(end - begin, relational::RowRefHash{&rows},
            relational::RowRefEq{&rows});
    for (size_t i = begin; i < end; ++i) set.insert(i);
    return set;
  };
  std::vector<size_t> out;
  switch (kind) {
    case SetOpKind::kUnion: {
      auto left = index(0, split);
      for (size_t i = 0; i < split; ++i) out.push_back(i);
      for (size_t i = split; i < rows.size(); ++i) {
        if (left.count(i) == 0) out.push_back(i);
      }
      return out;
    }
    case SetOpKind::kIntersect:
    case SetOpKind::kExcept: {
      auto right = index(split, rows.size());
      const bool keep_shared = kind == SetOpKind::kIntersect;
      for (size_t i = 0; i < split; ++i) {
        if ((right.count(i) != 0) == keep_shared) out.push_back(i);
      }
      return out;
    }
  }
  return out;
}

}  // namespace

Result<baselines::MethodResult> EvaluateSetOp(
    const TargetQueryInfo& left, const TargetQueryInfo& right,
    SetOpKind kind, const std::vector<mapping::Mapping>& mappings,
    const relational::Catalog& catalog,
    const reformulation::Reformulator& reformulator) {
  if (left.output_refs.size() != right.output_refs.size()) {
    return Status::InvalidArgument(
        "set operation over queries with different output arity: " +
        std::to_string(left.output_refs.size()) + " vs " +
        std::to_string(right.output_refs.size()));
  }

  baselines::MethodResult result;
  result.answers = reformulation::AnswerSet(left.output_refs);
  Timer timer;

  // Partition by the combined signature: mappings agreeing on both
  // queries' slots produce identical answers for the set expression.
  struct Partition {
    const mapping::Mapping* representative = nullptr;
    double probability = 0.0;
  };
  std::map<std::string, Partition> partitions;
  for (const auto& m : mappings) {
    std::string sig = reformulation::MappingSignature(left, m) + "||" +
                      reformulation::MappingSignature(right, m);
    Partition& p = partitions[sig];
    if (p.representative == nullptr) p.representative = &m;
    p.probability += m.probability();
  }
  result.rewrite_seconds = timer.Lap();
  result.partitions = partitions.size();

  for (const auto& [sig, p] : partitions) {
    auto a = SideRows(left, *p.representative, catalog, reformulator,
                      &result.stats);
    if (!a.ok()) return a.status();
    auto b = SideRows(right, *p.representative, catalog, reformulator,
                      &result.stats);
    if (!b.ok()) return b.status();
    result.source_queries += 2;
    std::vector<Row> rows = std::move(a).ValueOrDie();
    const size_t split = rows.size();
    for (Row& r : b.ValueOrDie()) rows.push_back(std::move(r));
    std::vector<size_t> picked = Apply(kind, rows, split);
    if (picked.empty()) {
      result.answers.AddNull(p.probability);
    } else {
      for (size_t i : picked) {
        result.answers.Add(std::move(rows[i]), p.probability);
      }
    }
  }
  result.eval_seconds = timer.Lap();
  return result;
}

}  // namespace core
}  // namespace urm
