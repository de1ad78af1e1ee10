#include "topk/topk.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "qsharing/qsharing.h"
#include "reformulation/answer.h"

namespace urm {
namespace topk {

using baselines::WeightedMapping;

namespace {

/// Implements decide_result: maintains tuple lower bounds (the mass
/// seen so far, accumulated in an AnswerSet with deferred rows), the
/// unexplored mass, and the stopping rule.
class TopKSink : public osharing::LeafVisitor {
 public:
  TopKSink(size_t k, double total_mass) : k_(k), remaining_(total_mass) {
    seen_.DeferRows();
  }

  bool OnLeaf(const algebra::DistinctCover& cover,
              double probability) override {
    touched_.clear();
    seen_.AddCover(cover, probability, &touched_);
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

  bool CanStop() {
    const size_t n = seen_.size();
    if (n < k_) {
      // With fewer candidates than k every unseen tuple would belong to
      // the answer, so only an exhausted u-trace lets us stop.
      return remaining_ <= kEps;
    }
    UpdateLargest();
    // The k-th and (k+1)-th largest lower bounds: the heap's smallest
    // two of k + 1, or its smallest of k.
    const auto bound = [this](size_t i) {
      return seen_.probability(largest_[i]);
    };
    double kth = bound(0);
    double next = 0.0;
    if (n > k_) {
      next = kth;
      kth = largest_.size() > 2 ? std::min(bound(1), bound(2)) : bound(1);
    }
    // 1) no unseen tuple can beat the k-th selected lower bound;
    if (remaining_ > kth + kEps) return false;
    // 2) no tuple outside the selected k (including ties with the k-th)
    //    can end above the k-th selected tuple's guaranteed mass.
    if (n > k_ && next + remaining_ > kth + kEps) return false;
    return true;
  }

  std::vector<TopKEntry> Extract() const {
    // Candidates are ordered by position; only k rows are built.
    std::vector<uint32_t> order(seen_.size());
    std::iota(order.begin(), order.end(), 0u);
    seen_.Order(&order, k_);
    const size_t take = std::min(k_, order.size());
    std::vector<TopKEntry> out;
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      const double lower = seen_.probability(order[i]);
      out.push_back(
          TopKEntry{seen_.BuildRow(order[i]), lower, lower + remaining_});
    }
    return out;
  }

 private:
  static constexpr double kEps = 1e-12;

  /// Makes largest_ hold k + 1 tuples (or all, when fewer) with the
  /// largest lower bounds. Bounds only grow, so a tuple outside it
  /// can join only when the leaf touched it; the first call, when k
  /// tuples are first seen, considers them all.
  void UpdateLargest() {
    // A min-heap on lower bounds; members' bounds may have grown.
    const auto above = [this](uint32_t a, uint32_t b) {
      return seen_.probability(a) > seen_.probability(b);
    };
    std::make_heap(largest_.begin(), largest_.end(), above);
    in_largest_.resize(seen_.size(), 0);
    const auto consider = [&](uint32_t pos) {
      if (in_largest_[pos]) return;
      if (largest_.size() > k_) {
        if (!(seen_.probability(pos) > seen_.probability(largest_[0]))) {
          return;
        }
        std::pop_heap(largest_.begin(), largest_.end(), above);
        in_largest_[largest_.back()] = 0;
        largest_.pop_back();
      }
      in_largest_[pos] = 1;
      largest_.push_back(pos);
      std::push_heap(largest_.begin(), largest_.end(), above);
    };
    if (!largest_.empty()) {
      for (uint32_t pos : touched_) consider(pos);
      return;
    }
    for (uint32_t pos = 0; pos < seen_.size(); ++pos) consider(pos);
  }

  size_t k_;
  double remaining_;
  bool stopped_early_ = false;
  reformulation::AnswerSet seen_;  ///< probability = lower bound
  std::vector<uint32_t> touched_;  ///< positions the last leaf added to
  /// Positions of the k + 1 largest lower bounds, as a min-heap; filled
  /// at the first leaf after which k tuples have been seen.
  std::vector<uint32_t> largest_;
  std::vector<uint8_t> in_largest_;  ///< per position: in largest_
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
