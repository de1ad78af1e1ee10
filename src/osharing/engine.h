#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/evaluate.h"
#include "common/hash_util.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "osharing/eunit.h"
#include "osharing/operator_store.h"
#include "osharing/query_shape.h"
#include "reformulation/target_query.h"
#include "relational/catalog.h"

/// \file engine.h
/// The o-sharing u-trace executor (paper Algorithm 2 / run_qt) with the
/// three operator-selection strategies of §VI-A. The same engine drives
/// both full evaluation (o-sharing) and the top-k algorithm (§VII) via
/// the LeafVisitor hook.

namespace urm {
namespace osharing {

/// Operator selection strategies (§VI-A).
enum class StrategyKind {
  kRandom,  ///< arbitrary valid operator
  kSNF,     ///< smallest number of mapping partitions first
  kSEF,     ///< smallest entropy first
};

const char* StrategyName(StrategyKind kind);

class LeafVisitor;

struct OSharingOptions {
  StrategyKind strategy = StrategyKind::kSEF;
  uint64_t random_seed = 17;  ///< used by the Random strategy
  /// Visit the partitions of each executed operator in descending
  /// probability-mass order; the top-k algorithm relies on this to
  /// tighten its bounds early. Plain o-sharing is order-insensitive.
  bool visit_partitions_by_probability = false;
  /// Memoize per-(input relation, reformulated predicate) selection
  /// results across u-trace branches. Sibling branches re-execute the
  /// same source operator when the splitting operator did not touch
  /// its input — the paper's §IX "data structures to facilitate
  /// o-sharing evaluation". See bench_ablation for the effect.
  bool enable_operator_cache = true;
  /// Fan u-trace mapping partitions out to `pool` when parallelism > 1
  /// (each subtree is independent by construction — the partitions
  /// disagree on the chosen operator's correspondences, so no e-unit
  /// state is shared between them). Leaf answers are buffered per
  /// partition and replayed in partition order, so deterministic
  /// strategies (SEF/SNF) produce bit-identical results to the
  /// sequential trace; kRandom re-seeds per branch and may take a
  /// different (equally valid) trace.
  int parallelism = 1;
  ThreadPool* pool = nullptr;
  /// How many fan-out levels RunParallel may spawn below the root.
  /// 1 restricts fan-out to the root operator's partitions (the
  /// pre-recursive behavior); larger values let skewed partition trees
  /// load-balance by splitting heavy subtrees again. Single-partition
  /// operators pass through without consuming a level.
  int max_parallel_depth = 4;
  /// Minimum estimated subtree work — mapping count times remaining
  /// operators — required to fan a node out; smaller subtrees run
  /// sequentially on the branch that owns them (spawn overhead would
  /// dominate).
  size_t parallel_grain = 16;
  /// Cross-evaluation memo of materialized selections and scans (see
  /// operator_store.h), shared by all engine clones of one parallel
  /// evaluation and — when the serving tier owns it — by concurrent
  /// queries over the same catalog. When null, RunParallel creates a
  /// store scoped to the one evaluation so sibling branches still
  /// share; Run (sequential) uses the private per-engine memo alone.
  OperatorStore* store = nullptr;
  /// Mapping epoch folded into every store key (Engine::mapping_epoch);
  /// stale entries are unreachable after a reconfiguration even before
  /// the store is fenced.
  uint64_t store_epoch = 0;
  /// Shard-local epoch component folded into every store key
  /// (OperatorKey::shard_epoch): 0 when this evaluation runs over the
  /// whole mapping set; the shard's identity hash
  /// (mapping::MappingShard::hash) when it runs over one shard of a
  /// sharded set. Keeps each shard's materializations in their own key
  /// space (reused by later queries over the same shard, never by
  /// sibling shards) without disturbing the monotonic store_epoch the
  /// fence compares against.
  uint64_t store_shard_epoch = 0;
  /// Secondary observer of the leaf stream: the Run* drivers
  /// (osharing / top-k / threshold) tee every leaf to it alongside
  /// their own accumulating visitor — this is how the serving tier's
  /// core::AnswerSink taps answers as they are produced. A false
  /// return unsubscribes the tee without aborting the primary scan.
  LeafVisitor* tee = nullptr;

  bool parallel() const { return parallelism > 1 && pool != nullptr; }
};

/// \brief Receives each u-trace leaf's answers.
class LeafVisitor {
 public:
  virtual ~LeafVisitor() = default;
  /// `cover` holds the distinct target-level answer rows of one leaf
  /// e-unit, read off its group's final factors (columns =
  /// TargetQueryInfo::output_refs, in order; an aggregate leaf is one
  /// row; the empty cover is the θ outcome), `probability` the leaf's
  /// mapping-partition mass. Visitors read the rows in place
  /// (AnswerSet::AddCover) or build them (DistinctCover::AppendRows); a
  /// copy of the cover shares its factors, so buffering one copies no
  /// rows. Returning false aborts the traversal (top-k early
  /// termination).
  virtual bool OnLeaf(const algebra::DistinctCover& cover,
                      double probability) = 0;
};

/// \brief Forwards each leaf to a primary visitor and a tee. The
/// primary's verdict drives the traversal; a tee that returns false is
/// only unsubscribed. Used by the Run* drivers to stream answers to a
/// core::AnswerSink while their own sink aggregates.
class TeeVisitor : public LeafVisitor {
 public:
  TeeVisitor(LeafVisitor* primary, LeafVisitor* tee)
      : primary_(primary), tee_(tee) {}

  bool OnLeaf(const algebra::DistinctCover& cover,
              double probability) override {
    if (tee_ != nullptr && !tee_->OnLeaf(cover, probability)) {
      tee_ = nullptr;
    }
    return primary_->OnLeaf(cover, probability);
  }

 private:
  LeafVisitor* primary_;
  LeafVisitor* tee_;
};

/// \brief Executes the u-trace for one query over one source instance.
///
/// Thread-safety: one engine instance is single-threaded (Init, then
/// Run or RunParallel once; private memos and stats are unsynchronized
/// by design). Concurrency comes from *clones*: RunParallel spawns one
/// clone per fanned-out branch, and the serving tier runs independent
/// engines per query/shard — all sharing one OperatorStore, which is
/// internally synchronized and epoch/shard-keyed (options.store_epoch,
/// options.store_shard_epoch) so fenced or sibling-shard entries can
/// never be returned.
class OSharingEngine {
 public:
  OSharingEngine(const reformulation::TargetQueryInfo& info,
                 const relational::Catalog& catalog,
                 OSharingOptions options);

  /// Decomposes the query; must be called (and succeed) before Run.
  Status Init();

  /// Runs the u-trace over the representative mappings. The visitor
  /// sees every leaf unless it aborts.
  Status Run(const std::vector<baselines::WeightedMapping>& reps,
             LeafVisitor* visitor);

  /// Like Run, but distributes u-trace mapping partitions over `pool`,
  /// recursively: fan-out happens at every operator whose partition
  /// fan and estimated work clear the OSharingOptions depth/grain
  /// cutoffs, so skewed partition trees load-balance instead of being
  /// bound by the largest root partition. Each spawned subtree executes
  /// in its own engine clone; all clones share one OperatorStore
  /// (options.store, or a store scoped to this call), so sibling
  /// branches reuse selections the sequential trace would have
  /// memoized. The visitor replays the buffered leaves in partition
  /// order — the exact sequential leaf sequence for deterministic
  /// strategies. A visitor abort stops the replay (already-computed
  /// sibling branches are discarded).
  Status RunParallel(const std::vector<baselines::WeightedMapping>& reps,
                     LeafVisitor* visitor, ThreadPool* pool);

  const algebra::EvalStats& stats() const { return stats_; }
  size_t leaves_visited() const { return leaves_; }
  const QueryShape& shape() const { return shape_; }

 private:
  struct Candidate {
    enum Kind { kSelection, kProduct, kTop } kind = kSelection;
    size_t index = 0;
    /// Unresolved target refs this operator's reformulation depends on.
    std::vector<reformulation::SignatureSlot> slots;
  };

  struct OpPartition {
    std::string signature;
    std::vector<const baselines::WeightedMapping*> members;
    double probability = 0.0;
    bool unanswerable = false;
  };

  EUnit MakeRoot(const std::vector<baselines::WeightedMapping>& reps) const;

  std::vector<Candidate> ComputeCandidates(const EUnit& u) const;
  std::vector<OpPartition> PartitionMappings(
      const EUnit& u, const std::vector<reformulation::SignatureSlot>& slots)
      const;
  /// Picks the next operator per the configured strategy; fills
  /// `partitions` with the chosen operator's mapping partitions.
  Result<Candidate> ChooseOperator(const EUnit& u,
                                   std::vector<Candidate> candidates,
                                   std::vector<OpPartition>* partitions);

  /// The Case-3 "pick" step shared by RunEUnit and RunParallel:
  /// candidate enumeration, strategy choice, and the optional
  /// probability-mass partition ordering — one code path so the
  /// bit-identical sequential/parallel guarantee cannot drift.
  Result<Candidate> PickOperator(const EUnit& u,
                                 std::vector<OpPartition>* partitions);

  /// Executes `op` for one partition, deriving the child e-unit.
  Result<EUnit> Execute(const EUnit& u, const Candidate& op,
                        const OpPartition& partition);

  /// The source column `ref` resolves to under `m`,
  /// "<alias>$<relation>.<attr>" as the scan of <relation> for instance
  /// <alias> names it in the factors; nullopt when `m` leaves `ref`
  /// unmapped.
  std::optional<std::string> SourceColumn(const std::string& ref,
                                          const mapping::Mapping& m) const;

  /// The branch read set of `u`: every column a pending selection, a
  /// remaining top or the leaf may still read — a resolved ref's
  /// column, or the column an unresolved ref resolves to under any of
  /// u's mappings. A fused join executed for `u` serves every partition
  /// below it, hence the union (eunit.h).
  algebra::ReadSet BranchReads(const EUnit& u) const;

  /// Ensures `ref`'s source column is materialized in `u` (Case 2/3
  /// extension with new covering scans as needed); returns the column.
  Result<std::string> ResolveRef(EUnit* u, const std::string& ref,
                                 const mapping::Mapping& rep);

  Result<bool> RunEUnit(const EUnit& u, LeafVisitor* visitor);
  /// The answer cover of a fully executed leaf `u`: COUNT / SUM, or the
  /// distinct output rows, over its one group's factors.
  Result<algebra::DistinctCover> LeafCover(const EUnit& u);

  /// Cases 1-2 of the u-trace: when `u` is a leaf (an empty factor's θ
  /// outcome, or fully executed), emits it to `visitor` — counting it
  /// in leaves_ — and returns the visitor's verdict; nullopt when `u`
  /// still has pending operators. The single source of the
  /// leaf-termination rules for both the sequential executor and the
  /// parallel one, so the bit-identical guarantee cannot drift.
  Result<std::optional<bool>> EmitTerminalLeaf(const EUnit& u,
                                               LeafVisitor* visitor);

  class BufferingVisitor;

  /// The recursive half of RunParallel: executes the subtree rooted at
  /// `u`, fanning its partitions out to `pool` when `depth` and the
  /// grain cutoff allow, buffering every leaf into `out` in partition
  /// (= sequential DFS) order. Counts produced leaves into leaves_.
  Status RunSubtreeParallel(const EUnit& u, int depth, ThreadPool* pool,
                            BufferingVisitor* out);

  /// Memoized selection execution (see
  /// OSharingOptions::enable_operator_cache / OSharingOptions::store).
  Result<relational::RelationPtr> RunSelection(
      const relational::RelationPtr& input, const algebra::Predicate& pred);

  /// Memoized aliased base-relation scan.
  Result<relational::RelationPtr> MaterializeScan(
      const std::string& relation, const std::string& scan_alias);

  /// Folds one shared-store lookup outcome into stats_ — the single
  /// source of the hit/miss/bytes-saved accounting for RunSelection
  /// and MaterializeScan.
  void RecordStoreOutcome(bool shared, size_t bytes);

  /// Private selection-memo key: input relation identity plus the
  /// predicate's structural hash (Predicate::CacheHash). Lookups
  /// compare the precomputed hash (and one pointer) instead of
  /// rendering and string-comparing the predicate at every u-trace
  /// level; the entry keeps the predicate to verify candidate hits
  /// with operator==, so a hash collision degrades to a recompute,
  /// never a wrong reuse — and the memo hot path never renders at all
  /// (ToString runs only on the miss path that reaches the shared
  /// store, whose cross-engine entries are render-verified).
  struct SelectionKey {
    const void* input = nullptr;
    uint64_t pred_hash = 0;

    bool operator==(const SelectionKey& other) const {
      return input == other.input && pred_hash == other.pred_hash;
    }
  };
  struct SelectionKeyHash {
    size_t operator()(const SelectionKey& key) const {
      size_t seed = static_cast<size_t>(key.pred_hash);
      HashCombine(seed, std::hash<const void*>{}(key.input));
      return seed;
    }
  };
  struct CachedSelection {
    algebra::Predicate pred;  ///< verified on hit (collision guard)
    /// The keyed input, not pinned: a fused factor dies with its
    /// branch, and a later relation may then reuse its address, so an
    /// entry whose input expired is a miss.
    std::weak_ptr<const relational::Relation> input;
    relational::RelationPtr rel;
    size_t bytes = 0;  ///< ApproxBytes, measured once at insertion
  };
  struct CachedScan {
    relational::RelationPtr rel;
    size_t bytes = 0;  ///< ApproxBytes, measured once at insertion
  };

  const reformulation::TargetQueryInfo& info_;
  const relational::Catalog& catalog_;
  OSharingOptions options_;
  QueryShape shape_;
  algebra::EvalStats stats_;
  size_t leaves_ = 0;
  Rng rng_;
  /// Private per-engine memo in front of the shared store (no locks;
  /// hit => the exact RelationPtr previously returned on this branch).
  std::unordered_map<SelectionKey, CachedSelection, SelectionKeyHash>
      selection_cache_;
  /// scan alias -> materialized (renamed) base relation. Reuse counts
  /// toward the same EvalStats cache counters as selections, so the
  /// reported operator hit rate covers both memo kinds.
  std::unordered_map<std::string, CachedScan> scan_cache_;
};

}  // namespace osharing
}  // namespace urm
