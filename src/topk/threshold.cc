#include "topk/threshold.h"

#include "common/timer.h"
#include "qsharing/qsharing.h"
#include "reformulation/answer.h"

namespace urm {
namespace topk {

using baselines::WeightedMapping;

namespace {

/// Lower bounds (the mass seen so far, accumulated in an AnswerSet with
/// deferred rows), the unexplored mass, and the confirm / prune stopping
/// rule.
class ThresholdSink : public osharing::LeafVisitor {
 public:
  ThresholdSink(double threshold, double total_mass)
      : threshold_(threshold), remaining_(total_mass) {
    seen_.DeferRows();
  }

  bool OnLeaf(const algebra::DistinctCover& cover,
              double probability) override {
    seen_.AddCover(cover, probability);
    remaining_ -= probability;
    if (remaining_ < 0.0) remaining_ = 0.0;
    if (CanStop()) {
      stopped_early_ = true;
      return false;
    }
    return true;
  }

  void DiscountUpfront(double probability) {
    remaining_ -= probability;
    if (remaining_ < 0.0) remaining_ = 0.0;
  }

  bool CanStop() const {
    // New tuples could still qualify.
    if (remaining_ + kEps >= threshold_) return false;
    // Seen tuples that are neither confirmed nor pruned keep us going.
    for (uint32_t pos = 0; pos < seen_.size(); ++pos) {
      const double lower = seen_.probability(pos);
      bool confirmed = lower + kEps >= threshold_;
      bool pruned = lower + remaining_ + kEps < threshold_;
      if (!confirmed && !pruned) return false;
    }
    return true;
  }

  bool stopped_early() const { return stopped_early_; }

  /// The qualifying tuples in presentation order; only their rows are
  /// built.
  std::vector<ThresholdEntry> Extract() const {
    std::vector<uint32_t> order;
    for (uint32_t pos = 0; pos < seen_.size(); ++pos) {
      if (seen_.probability(pos) + kEps >= threshold_) order.push_back(pos);
    }
    seen_.Order(&order);
    std::vector<ThresholdEntry> out;
    out.reserve(order.size());
    for (uint32_t pos : order) {
      const double lower = seen_.probability(pos);
      out.push_back(
          ThresholdEntry{seen_.BuildRow(pos), lower, lower + remaining_});
    }
    return out;
  }

 private:
  static constexpr double kEps = 1e-12;

  double threshold_;
  double remaining_;
  bool stopped_early_ = false;
  reformulation::AnswerSet seen_;  ///< probability = lower bound
};

}  // namespace

Result<ThresholdResult> RunThreshold(
    const reformulation::TargetQueryInfo& info,
    const std::vector<mapping::Mapping>& mappings,
    const relational::Catalog& catalog, double threshold,
    const osharing::OSharingOptions& options) {
  if (!(threshold > 0.0 && threshold <= 1.0)) {
    return Status::InvalidArgument("threshold must be in (0, 1]");
  }
  Timer timer;
  ThresholdResult result;

  auto tree = qsharing::PartitionTree::Build(info, mappings);
  if (!tree.ok()) return tree.status();
  double unanswerable = 0.0;
  std::vector<WeightedMapping> reps =
      qsharing::Represent(tree.ValueOrDie(), &unanswerable);

  double total = unanswerable;
  for (const auto& r : reps) total += r.probability;

  osharing::OSharingOptions engine_options = options;
  engine_options.visit_partitions_by_probability = true;
  osharing::OSharingEngine engine(info, catalog, engine_options);
  URM_RETURN_NOT_OK(engine.Init());

  ThresholdSink sink(threshold, total);
  sink.DiscountUpfront(unanswerable);
  osharing::TeeVisitor teed(&sink, engine_options.tee);
  URM_RETURN_NOT_OK(engine.Run(reps, &teed));

  result.tuples = sink.Extract();
  result.early_terminated = sink.stopped_early();
  result.leaves_visited = engine.leaves_visited();
  result.stats = engine.stats();
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace topk
}  // namespace urm
