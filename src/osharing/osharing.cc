#include "osharing/osharing.h"

#include "common/timer.h"
#include "qsharing/qsharing.h"

namespace urm {
namespace osharing {

using baselines::MethodResult;
using baselines::WeightedMapping;

namespace {

/// Accumulates every leaf's cover into an AnswerSet.
class AccumulatingVisitor : public LeafVisitor {
 public:
  explicit AccumulatingVisitor(reformulation::AnswerSet* answers)
      : answers_(answers) {}

  bool OnLeaf(const algebra::DistinctCover& cover,
              double probability) override {
    answers_->AddCover(cover, probability);
    return true;
  }

 private:
  reformulation::AnswerSet* answers_;
};

}  // namespace

Result<MethodResult> RunOSharing(
    const reformulation::TargetQueryInfo& info,
    const std::vector<mapping::Mapping>& mappings,
    const relational::Catalog& catalog, const OSharingOptions& options) {
  MethodResult result;
  result.answers = reformulation::AnswerSet(info.output_refs);

  // Algorithm 2, steps 1-2: partition + represent.
  Timer timer;
  auto tree = qsharing::PartitionTree::Build(info, mappings);
  if (!tree.ok()) return tree.status();
  double unanswerable = 0.0;
  std::vector<WeightedMapping> reps =
      qsharing::Represent(tree.ValueOrDie(), &unanswerable);
  result.rewrite_seconds = timer.Lap();
  result.partitions = tree.ValueOrDie().partitions().size();

  // Steps 3-5: run the u-trace and aggregate. A caller-provided tee
  // observes the same leaf stream the accumulator consumes.
  OSharingEngine engine(info, catalog, options);
  URM_RETURN_NOT_OK(engine.Init());
  AccumulatingVisitor accumulator(&result.answers);
  TeeVisitor sink(&accumulator, options.tee);
  if (options.parallel()) {
    URM_RETURN_NOT_OK(engine.RunParallel(reps, &sink, options.pool));
  } else {
    URM_RETURN_NOT_OK(engine.Run(reps, &sink));
  }
  if (unanswerable > 0.0) result.answers.AddNull(unanswerable);
  result.eval_seconds = timer.Lap();
  result.stats = engine.stats();
  result.source_queries = engine.leaves_visited();
  return result;
}

}  // namespace osharing
}  // namespace urm
