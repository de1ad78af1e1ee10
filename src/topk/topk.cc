#include "topk/topk.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "qsharing/qsharing.h"
#include "reformulation/answer.h"

namespace urm {
namespace topk {

using baselines::WeightedMapping;
using reformulation::AnswerTuple;

namespace {

/// Implements decide_result: maintains tuple lower bounds (the mass
/// seen so far, accumulated in an AnswerSet), the unexplored mass, and
/// the stopping rule.
class TopKSink : public osharing::LeafVisitor {
 public:
  TopKSink(size_t k, double total_mass) : k_(k), remaining_(total_mass) {}

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

  /// True when the scan aborted before exhausting the u-trace.
  bool stopped_early() const { return stopped_early_; }

  /// θ mass known before traversal (unanswerable partitions).
  void DiscountUpfront(double probability) {
    remaining_ -= probability;
    if (remaining_ < 0.0) remaining_ = 0.0;
  }

  bool CanStop() const {
    const std::vector<AnswerTuple>& entries = seen_.tuples();
    if (entries.size() < k_) {
      // With fewer candidates than k every unseen tuple would belong to
      // the answer, so only an exhausted u-trace lets us stop.
      return remaining_ <= kEps;
    }
    // Select the k-th and (k+1)-th largest lower bounds in O(n).
    std::vector<double> lbs;
    lbs.reserve(entries.size());
    for (const auto& e : entries) lbs.push_back(e.probability);
    std::nth_element(lbs.begin(), lbs.begin() + static_cast<long>(k_ - 1),
                     lbs.end(), std::greater<double>());
    double kth = lbs[k_ - 1];
    // 1) no unseen tuple can beat the k-th selected lower bound;
    if (remaining_ > kth + kEps) return false;
    // 2) no tuple outside the selected k (including ties with the k-th)
    //    can end above the k-th selected tuple's guaranteed mass.
    if (entries.size() > k_) {
      double next = *std::max_element(lbs.begin() + static_cast<long>(k_),
                                      lbs.end());
      if (next + remaining_ > kth + kEps) return false;
    }
    return true;
  }

  std::vector<TopKEntry> Extract() const {
    // Only k rows are copied; candidates are ordered by position.
    const std::vector<AnswerTuple>& entries = seen_.tuples();
    std::vector<uint32_t> order(entries.size());
    std::iota(order.begin(), order.end(), 0u);
    seen_.Order(&order, k_);
    const size_t take = std::min(k_, order.size());
    std::vector<TopKEntry> out;
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      const AnswerTuple& e = entries[order[i]];
      out.push_back(
          TopKEntry{e.values, e.probability, e.probability + remaining_});
    }
    return out;
  }

 private:
  static constexpr double kEps = 1e-12;

  size_t k_;
  double remaining_;
  bool stopped_early_ = false;
  reformulation::AnswerSet seen_;  ///< probability = lower bound
};

}  // namespace

Result<TopKResult> RunTopK(const reformulation::TargetQueryInfo& info,
                           const std::vector<mapping::Mapping>& mappings,
                           const relational::Catalog& catalog, size_t k,
                           const TopKOptions& options) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  Timer timer;
  TopKResult result;

  auto tree = qsharing::PartitionTree::Build(info, mappings);
  if (!tree.ok()) return tree.status();
  double unanswerable = 0.0;
  std::vector<WeightedMapping> reps =
      qsharing::Represent(tree.ValueOrDie(), &unanswerable);

  double total = unanswerable;
  for (const auto& r : reps) total += r.probability;

  osharing::OSharingOptions engine_options = options.osharing;
  engine_options.visit_partitions_by_probability =
      options.order_partitions_by_probability;
  osharing::OSharingEngine engine(info, catalog, engine_options);
  URM_RETURN_NOT_OK(engine.Init());

  TopKSink sink(k, total);
  sink.DiscountUpfront(unanswerable);
  // The top-k scan consumes leaves incrementally by design; a tee
  // exposes that stream to callers (service AnswerSink) as-is.
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
