#include "osharing/engine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "algebra/cover.h"
#include "algebra/plan.h"
#include "common/logging.h"
#include "relational/schema.h"

namespace urm {
namespace osharing {

using algebra::MakeProduct;
using algebra::MakeRelationLeaf;
using algebra::MakeSelect;
using baselines::WeightedMapping;
using reformulation::kUnanswerableSignature;
using reformulation::SignatureSlot;
using relational::InstancePart;
using relational::RelationPtr;

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kRandom:
      return "Random";
    case StrategyKind::kSNF:
      return "SNF";
    case StrategyKind::kSEF:
      return "SEF";
  }
  return "?";
}

namespace {

bool InstanceTouched(const EUnit& u, const std::string& alias) {
  const Group* g = u.GroupOfInstance(alias);
  if (g == nullptr) return false;
  std::string prefix = alias + "$";
  for (const auto& f : g->factors) {
    for (const auto& a : f.scan_aliases) {
      if (a.rfind(prefix, 0) == 0) return true;
    }
  }
  return false;
}

/// Factor index inside `group` whose relation contains `column`.
int FactorOfColumn(const Group& group, const std::string& column) {
  for (size_t i = 0; i < group.factors.size(); ++i) {
    if (group.factors[i].rel->schema().IndexOf(column).has_value()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace

OSharingEngine::OSharingEngine(const reformulation::TargetQueryInfo& info,
                               const relational::Catalog& catalog,
                               OSharingOptions options)
    : info_(info),
      catalog_(catalog),
      options_(options),
      rng_(options.random_seed) {}

Status OSharingEngine::Init() {
  auto shape = DecomposeQuery(info_);
  if (!shape.ok()) return shape.status();
  shape_ = std::move(shape).ValueOrDie();
  return Status::OK();
}

EUnit OSharingEngine::MakeRoot(
    const std::vector<WeightedMapping>& reps) const {
  EUnit root;
  for (size_t i = 0; i < shape_.selections.size(); ++i) {
    root.pending_selections.push_back(i);
  }
  for (size_t i = 0; i < shape_.products.size(); ++i) {
    root.pending_products.push_back(i);
  }
  root.next_top = 0;
  for (const auto& inst : info_.instances) {
    Group g;
    g.instances.push_back(inst.alias);
    root.groups.push_back(std::move(g));
  }
  for (const auto& wm : reps) {
    root.mappings.push_back(&wm);
    root.probability += wm.probability;
  }
  return root;
}

Status OSharingEngine::Run(const std::vector<WeightedMapping>& reps,
                           LeafVisitor* visitor) {
  URM_CHECK(visitor != nullptr);
  selection_cache_.clear();
  scan_cache_.clear();
  if (reps.empty()) return Status::OK();
  EUnit root = MakeRoot(reps);
  auto done = RunEUnit(root, visitor);
  if (!done.ok()) return done.status();
  return Status::OK();
}

/// Buffers leaf outcomes for deferred in-order replay (never aborts).
/// A buffered cover shares its factors, so buffering copies no rows.
class OSharingEngine::BufferingVisitor : public LeafVisitor {
 public:
  struct Leaf {
    algebra::DistinctCover cover;
    double probability = 0.0;
  };

  bool OnLeaf(const algebra::DistinctCover& cover,
              double probability) override {
    leaves_.push_back(Leaf{cover, probability});
    return true;
  }

  std::vector<Leaf>& leaves() { return leaves_; }

 private:
  std::vector<Leaf> leaves_;
};

Status OSharingEngine::RunParallel(const std::vector<WeightedMapping>& reps,
                                   LeafVisitor* visitor, ThreadPool* pool) {
  URM_CHECK(visitor != nullptr);
  URM_CHECK(pool != nullptr);
  selection_cache_.clear();
  scan_cache_.clear();
  if (reps.empty()) return Status::OK();
  EUnit root = MakeRoot(reps);

  // Traces with no fan-out (fully executed, or a single pending top)
  // gain nothing from the pool; run them sequentially.
  if (root.pending_selections.empty() && root.pending_products.empty() &&
      root.next_top >= shape_.tops.size()) {
    auto done = RunEUnit(root, visitor);
    if (!done.ok()) return done.status();
    return Status::OK();
  }

  // Without a serving-tier store, scope one to this evaluation so
  // sibling branches share materializations the sequential trace
  // would have memoized (they previously redid them in private
  // caches). Restored on every exit path: the scoped store dies with
  // this call.
  std::unique_ptr<OperatorStore> scoped_store;
  struct StoreGuard {
    OSharingOptions* options;
    OperatorStore* previous;
    ~StoreGuard() { options->store = previous; }
  } guard{&options_, options_.store};
  if (options_.store == nullptr && options_.enable_operator_cache) {
    OperatorStoreOptions store_options;
    store_options.num_shards = 8;
    scoped_store = std::make_unique<OperatorStore>(store_options);
    options_.store = scoped_store.get();
  }

  BufferingVisitor buffer;
  const size_t leaves_before = leaves_;
  URM_RETURN_NOT_OK(RunSubtreeParallel(root, 0, pool, &buffer));
  // leaves_ keeps the sequential contract — leaves *delivered* to the
  // visitor — so rewind the production counting done while buffering:
  // an abort mid-replay must not over-report by the discarded tail.
  leaves_ = leaves_before;
  for (const auto& leaf : buffer.leaves()) {
    leaves_++;
    if (!visitor->OnLeaf(leaf.cover, leaf.probability)) return Status::OK();
  }
  return Status::OK();
}

Status OSharingEngine::RunSubtreeParallel(const EUnit& u, int depth,
                                          ThreadPool* pool,
                                          BufferingVisitor* out) {
  auto leaf = EmitTerminalLeaf(u, out);
  if (!leaf.ok()) return leaf.status();
  if (leaf.ValueOrDie().has_value()) return Status::OK();

  // Case 3: pick as the sequential trace would, then decide whether
  // this node's partitions are worth fanning out.
  std::vector<OpPartition> partitions;
  auto op = PickOperator(u, &partitions);
  if (!op.ok()) return op.status();

  size_t remaining_ops = u.pending_selections.size() +
                         u.pending_products.size() +
                         (shape_.tops.size() - u.next_top);
  bool fan = depth < options_.max_parallel_depth && partitions.size() > 1 &&
             u.mappings.size() * remaining_ops >= options_.parallel_grain;

  if (!fan) {
    for (const auto& p : partitions) {
      if (p.unanswerable) {
        leaves_++;
        out->OnLeaf(algebra::DistinctCover(), p.probability);
        continue;
      }
      auto child = Execute(u, op.ValueOrDie(), p);
      if (!child.ok()) return child.status();
      if (partitions.size() == 1) {
        // A single-partition operator is a pass-through: keep looking
        // for a fan-out point deeper down without consuming depth.
        URM_RETURN_NOT_OK(
            RunSubtreeParallel(child.ValueOrDie(), depth, pool, out));
      } else {
        // Below the depth/grain cutoff: the whole subtree runs
        // sequentially on this engine (RunEUnit counts its leaves; a
        // buffer never aborts).
        auto cont = RunEUnit(child.ValueOrDie(), out);
        if (!cont.ok()) return cont.status();
      }
    }
    return Status::OK();
  }

  struct Branch {
    Status status;
    BufferingVisitor buffer;
    algebra::EvalStats stats;
    size_t leaves = 0;
  };
  std::vector<Branch> branches(partitions.size());
  pool->ParallelFor(partitions.size(), [&](size_t i) {
    const OpPartition& p = partitions[i];
    Branch& branch = branches[i];
    if (p.unanswerable) {
      branch.buffer.OnLeaf(algebra::DistinctCover(), p.probability);
      branch.leaves = 1;
      return;
    }
    // Each branch runs in its own engine clone: private L1 caches and
    // stats, decorrelated rng for the Random strategy — but the same
    // shared OperatorStore, so branches reuse each other's
    // materialized selections and scans. The parent e-unit and the
    // representative mappings are shared read-only.
    OSharingOptions sub_options = options_;
    sub_options.tee = nullptr;  // leaves stream at replay, in order
    // Mix depth and branch index into the reseed (an additive offset
    // collides across recursion levels: parent i=2 and branch i=0's
    // depth-1 child j=1 would draw identical streams).
    size_t reseed = static_cast<size_t>(options_.random_seed);
    HashCombine(reseed, static_cast<size_t>(depth + 1));
    HashCombine(reseed, i + 1);
    sub_options.random_seed = reseed;
    OSharingEngine sub(info_, catalog_, sub_options);
    sub.shape_ = shape_;
    auto child = sub.Execute(u, op.ValueOrDie(), p);
    if (!child.ok()) {
      branch.status = child.status();
      return;
    }
    branch.status =
        sub.RunSubtreeParallel(child.ValueOrDie(), depth + 1, pool,
                               &branch.buffer);
    branch.stats = sub.stats_;
    branch.leaves = sub.leaves_;
  });

  for (Branch& branch : branches) {
    URM_RETURN_NOT_OK(branch.status);
    stats_ += branch.stats;
    leaves_ += branch.leaves;
    for (auto& leaf : branch.buffer.leaves()) {
      out->leaves().push_back(std::move(leaf));
    }
  }
  return Status::OK();
}

Result<relational::RelationPtr> OSharingEngine::RunSelection(
    const RelationPtr& input, const algebra::Predicate& pred) {
  // The store is part of the operator-cache feature: with the feature
  // ablated it is not consulted (and the cache counters stay zero),
  // even when a serving tier wired one in.
  const bool use_l1 = options_.enable_operator_cache;
  const bool use_store = options_.store != nullptr && use_l1;
  SelectionKey key;
  if (use_l1 || use_store) {
    // Structural hash — the memo hot path neither renders nor
    // string-compares the predicate; candidate hits are verified with
    // Predicate::operator==.
    key = SelectionKey{static_cast<const void*>(input.get()),
                       pred.CacheHash()};
  }
  if (use_l1) {
    auto it = selection_cache_.find(key);
    if (it != selection_cache_.end() && it->second.pred == pred &&
        !it->second.input.expired()) {
      stats_.cache_hits++;
      stats_.cache_bytes_saved += it->second.bytes;
      return it->second.rel;
    }
  }

  auto compute = [&]() -> Result<RelationPtr> {
    algebra::EvalContext ctx;
    ctx.catalog = &catalog_;
    ctx.stats = &stats_;
    return algebra::Evaluate(MakeSelect(MakeRelationLeaf(input, "f"), pred),
                             ctx);
  };

  if (use_store) {
    // Selections over per-query intermediates (post factor-fusion
    // relations) land here too: unhittable across queries, but sibling
    // branches of one parallel u-trace share the fused pointer and do
    // reuse them — suppressing the insert would regress cross-branch
    // sharing, and cold entries age out through the LRU anyway.
    OperatorKey store_key;
    // Keyed purely by input identity (the pinned input pointer cannot
    // recycle while its entry lives) — never by catalog address: the
    // engine's catalog is a per-evaluation snapshot whose stack/heap
    // address means nothing across queries. A delta replacing a
    // relation changes the downstream input pointers, so stale entries
    // are unreachable by construction.
    store_key.catalog = nullptr;
    store_key.epoch = options_.store_epoch;
    store_key.shard_epoch = options_.store_shard_epoch;
    store_key.input = input.get();
    store_key.op_hash = key.pred_hash;
    bool shared = false;
    size_t bytes = 0;
    // Rendered only here — once per private-memo miss, never on the
    // hot path — for the store's cross-engine hit verification.
    auto rel = options_.store->GetOrCompute(store_key, pred.ToString(),
                                            input, compute, &shared, &bytes);
    if (!rel.ok()) return rel;
    RecordStoreOutcome(shared, bytes);
    if (use_l1) {
      selection_cache_[key] =
          CachedSelection{pred, input, rel.ValueOrDie(), bytes};
    }
    return rel;
  }

  auto rel = compute();
  if (!rel.ok()) return rel;
  if (use_l1) {
    stats_.cache_misses++;
    selection_cache_[key] = CachedSelection{
        pred, input, rel.ValueOrDie(), rel.ValueOrDie()->ApproxBytes()};
  }
  return rel;
}

Result<RelationPtr> OSharingEngine::MaterializeScan(
    const std::string& relation, const std::string& scan_alias) {
  auto it = scan_cache_.find(scan_alias);
  if (it != scan_cache_.end()) {
    // The scan memo itself always runs, but its reuse is reported
    // through the cache counters only when the operator-cache feature
    // is on — enable_operator_cache=false must keep them at zero (the
    // ablation contract, see OperatorCacheDoesNotChangeAnswers).
    if (options_.enable_operator_cache) {
      stats_.cache_hits++;
      stats_.cache_bytes_saved += it->second.bytes;
    }
    return it->second.rel;
  }

  auto compute = [&]() -> Result<RelationPtr> {
    algebra::EvalContext ctx;
    ctx.catalog = &catalog_;
    ctx.stats = &stats_;
    return algebra::Evaluate(algebra::MakeScan(relation, scan_alias), ctx);
  };

  if (options_.store != nullptr && options_.enable_operator_cache) {
    // Scans share cross-query through the store too — and because a
    // store hit returns the *same* RelationPtr every query saw, the
    // downstream selection keys (input pointer + predicate hash) also
    // match across queries, compounding the sharing.
    //
    // The key carries the *base catalog relation's* identity (pointer,
    // pinned by the entry), not the catalog's address: catalogs are
    // per-evaluation snapshots sharing RelationPtrs, so an unchanged
    // relation hits across snapshots while a delta-replaced one
    // misses — and FenceRelations reclaims the replaced entries.
    auto base = catalog_.Get(relation);
    if (!base.ok()) return base.status();
    std::string render = "scan|" + relation + "|" + scan_alias;
    OperatorKey store_key;
    store_key.catalog = nullptr;
    store_key.epoch = options_.store_epoch;
    store_key.shard_epoch = options_.store_shard_epoch;
    store_key.input = base.ValueOrDie().get();
    store_key.op_hash = HashOperatorRender(render);
    bool shared = false;
    size_t bytes = 0;
    auto rel = options_.store->GetOrCompute(store_key, render,
                                            base.ValueOrDie(), compute,
                                            &shared, &bytes);
    if (!rel.ok()) return rel;
    RecordStoreOutcome(shared, bytes);
    scan_cache_.emplace(scan_alias, CachedScan{rel.ValueOrDie(), bytes});
    return rel;
  }

  auto rel = compute();
  if (!rel.ok()) return rel;
  if (options_.enable_operator_cache) stats_.cache_misses++;
  scan_cache_.emplace(scan_alias,
                      CachedScan{rel.ValueOrDie(),
                                 rel.ValueOrDie()->ApproxBytes()});
  return rel;
}

void OSharingEngine::RecordStoreOutcome(bool shared, size_t bytes) {
  if (shared) {
    stats_.cache_hits++;
    stats_.store_hits++;
    stats_.cache_bytes_saved += bytes;
  } else {
    stats_.cache_misses++;
  }
}

std::vector<OSharingEngine::Candidate> OSharingEngine::ComputeCandidates(
    const EUnit& u) const {
  std::vector<Candidate> out;
  // Selections whose referenced instances live in one group.
  for (size_t idx : u.pending_selections) {
    const algebra::Predicate& pred = shape_.selections[idx];
    const auto refs = pred.ReferencedAttributes();
    size_t group = u.GroupIndexOfInstance(InstancePart(refs[0]));
    bool same_group = group != static_cast<size_t>(-1);
    for (const auto& r : refs) {
      if (u.GroupIndexOfInstance(InstancePart(r)) != group) {
        same_group = false;
      }
    }
    if (!same_group) continue;
    Candidate c;
    c.kind = Candidate::kSelection;
    c.index = idx;
    for (const auto& r : refs) {
      if (u.resolved.count(r) == 0) {
        c.slots.push_back(SignatureSlot{r, true});
      }
    }
    out.push_back(std::move(c));
  }
  // Products whose sides are in different groups.
  for (size_t idx : u.pending_products) {
    const ProductOp& prod = shape_.products[idx];
    size_t gl = u.GroupIndexOfInstance(prod.left_instances[0]);
    size_t gr = u.GroupIndexOfInstance(prod.right_instances[0]);
    if (gl == gr) continue;  // already merged through another product
    Candidate c;
    c.kind = Candidate::kProduct;
    c.index = idx;
    // Reformulating the product materializes the covers of *bare*
    // untouched instances (binary Case 3); their cover attributes are
    // what the reformulation depends on.
    auto add_bare_slots = [&](const std::vector<std::string>& aliases) {
      for (const auto& alias : aliases) {
        auto inst = info_.InstanceForRef(alias + ".x");
        URM_CHECK(inst.ok());
        if (!inst.ValueOrDie()->bare || InstanceTouched(u, alias)) continue;
        for (const auto& attr : inst.ValueOrDie()->needed) {
          c.slots.push_back(SignatureSlot{alias + "." + attr, false});
        }
      }
    };
    add_bare_slots(prod.left_instances);
    add_bare_slots(prod.right_instances);
    out.push_back(std::move(c));
  }
  // The next top op once the body is finished.
  if (u.pending_selections.empty() && u.pending_products.empty() &&
      u.next_top < shape_.tops.size()) {
    const TopOp& top = shape_.tops[u.next_top];
    Candidate c;
    c.kind = Candidate::kTop;
    c.index = u.next_top;
    if (top.is_aggregate) {
      if (!top.agg_ref.empty() && u.resolved.count(top.agg_ref) == 0) {
        c.slots.push_back(SignatureSlot{top.agg_ref, true});
      }
    } else {
      for (const auto& r : top.project_refs) {
        if (u.resolved.count(r) == 0) {
          c.slots.push_back(SignatureSlot{r, true});
        }
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<OSharingEngine::OpPartition> OSharingEngine::PartitionMappings(
    const EUnit& u, const std::vector<SignatureSlot>& slots) const {
  std::vector<OpPartition> partitions;
  std::map<std::string, size_t> by_signature;
  for (const WeightedMapping* wm : u.mappings) {
    std::string sig;
    for (const auto& slot : slots) {
      auto target_attr = info_.TargetAttrForRef(slot.ref);
      URM_CHECK(target_attr.ok()) << target_attr.status().ToString();
      auto src = wm->mapping->SourceFor(target_attr.ValueOrDie());
      if (!src.has_value()) {
        if (slot.required) {
          sig = kUnanswerableSignature;
          break;
        }
        sig += "-|";
        continue;
      }
      sig += *src;
      sig += "|";
    }
    auto [it, inserted] = by_signature.emplace(sig, partitions.size());
    if (inserted) {
      OpPartition p;
      p.signature = sig;
      p.unanswerable = (sig == kUnanswerableSignature);
      partitions.push_back(std::move(p));
    }
    partitions[it->second].members.push_back(wm);
    partitions[it->second].probability += wm->probability;
  }
  return partitions;
}

Result<OSharingEngine::Candidate> OSharingEngine::PickOperator(
    const EUnit& u, std::vector<OpPartition>* partitions) {
  std::vector<Candidate> candidates = ComputeCandidates(u);
  if (candidates.empty()) {
    return Status::Internal("no valid operator for pending query state");
  }
  auto op = ChooseOperator(u, std::move(candidates), partitions);
  if (!op.ok()) return op.status();
  if (options_.visit_partitions_by_probability) {
    std::stable_sort(partitions->begin(), partitions->end(),
                     [](const OpPartition& a, const OpPartition& b) {
                       return a.probability > b.probability;
                     });
  }
  return op;
}

Result<OSharingEngine::Candidate> OSharingEngine::ChooseOperator(
    const EUnit& u, std::vector<Candidate> candidates,
    std::vector<OpPartition>* partitions) {
  URM_CHECK(!candidates.empty());
  if (options_.strategy == StrategyKind::kRandom) {
    size_t pick = static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(candidates.size()) - 1));
    *partitions = PartitionMappings(u, candidates[pick].slots);
    return candidates[pick];
  }

  size_t best = 0;
  double best_score = 0.0;
  std::vector<OpPartition> best_parts;
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::vector<OpPartition> parts = PartitionMappings(u, candidates[i].slots);
    double score;
    if (options_.strategy == StrategyKind::kSNF) {
      score = static_cast<double>(parts.size());
    } else {  // SEF: entropy over mapping-count fractions (Definition 1)
      double total = static_cast<double>(u.mappings.size());
      score = 0.0;
      for (const auto& p : parts) {
        double frac = static_cast<double>(p.members.size()) / total;
        if (frac > 0.0) score -= frac * std::log2(frac);
      }
    }
    if (i == 0 || score < best_score) {
      best = i;
      best_score = score;
      best_parts = std::move(parts);
    }
  }
  *partitions = std::move(best_parts);
  return candidates[best];
}

std::optional<std::string> OSharingEngine::SourceColumn(
    const std::string& ref, const mapping::Mapping& m) const {
  auto target_attr = info_.TargetAttrForRef(ref);
  URM_CHECK(target_attr.ok()) << target_attr.status().ToString();
  auto src = m.SourceFor(target_attr.ValueOrDie());
  if (!src.has_value()) return std::nullopt;
  return InstancePart(ref) + "$" + *src;
}

algebra::ReadSet OSharingEngine::BranchReads(const EUnit& u) const {
  algebra::ReadSet reads;
  auto add = [&](const std::string& ref) {
    auto it = u.resolved.find(ref);
    if (it != u.resolved.end()) {
      reads.insert(it->second);
      return;
    }
    for (const WeightedMapping* wm : u.mappings) {
      auto column = SourceColumn(ref, *wm->mapping);
      if (column.has_value()) reads.insert(std::move(*column));
    }
  };
  for (size_t idx : u.pending_selections) {
    for (const auto& ref : shape_.selections[idx].ReferencedAttributes()) {
      add(ref);
    }
  }
  for (size_t t = u.next_top; t < shape_.tops.size(); ++t) {
    for (const auto& ref : shape_.tops[t].project_refs) add(ref);
    if (!shape_.tops[t].agg_ref.empty()) add(shape_.tops[t].agg_ref);
  }
  if (!info_.is_aggregate) {  // an aggregate's output is no target ref
    for (const auto& ref : info_.output_refs) add(ref);
  }
  return reads;
}

Result<std::string> OSharingEngine::ResolveRef(EUnit* u,
                                               const std::string& ref,
                                               const mapping::Mapping& rep) {
  auto it = u->resolved.find(ref);
  if (it != u->resolved.end()) return it->second;

  auto source = SourceColumn(ref, rep);
  if (!source.has_value()) {
    return Status::Internal("unmapped required ref in partition: " + ref);
  }
  std::string instance = InstancePart(ref);
  std::string column = std::move(*source);
  std::string scan_alias = InstancePart(column);

  size_t gi = u->GroupIndexOfInstance(instance);
  URM_CHECK_NE(gi, static_cast<size_t>(-1));
  Group& group = u->groups[gi];
  bool present = false;
  for (const auto& f : group.factors) {
    if (f.ContainsScan(scan_alias)) {
      present = true;
      break;
    }
  }
  if (!present) {
    // Case 2/3 of §VI-B: extend the intermediate state with the scan
    // covering the needed source attribute.
    auto rel = MaterializeScan(scan_alias.substr(instance.size() + 1),
                               scan_alias);
    if (!rel.ok()) return rel.status();
    group.factors.push_back(
        Factor{std::move(rel).ValueOrDie(), {scan_alias}});
  }
  u->resolved[ref] = column;
  return column;
}

Result<EUnit> OSharingEngine::Execute(const EUnit& u, const Candidate& op,
                                      const OpPartition& partition) {
  EUnit next = u;
  next.mappings = partition.members;
  next.probability = partition.probability;
  const mapping::Mapping& rep = *partition.members.front()->mapping;

  switch (op.kind) {
    case Candidate::kSelection: {
      const algebra::Predicate& pred = shape_.selections[op.index];
      auto lhs = ResolveRef(&next, pred.lhs, rep);
      if (!lhs.ok()) return lhs.status();
      algebra::Predicate bound = pred;
      bound.lhs = lhs.ValueOrDie();
      if (pred.rhs_attr.has_value()) {
        auto rhs = ResolveRef(&next, *pred.rhs_attr, rep);
        if (!rhs.ok()) return rhs.status();
        bound.rhs_attr = rhs.ValueOrDie();
      }
      next.pending_selections.erase(
          std::find(next.pending_selections.begin(),
                    next.pending_selections.end(), op.index));
      size_t gi = next.GroupIndexOfInstance(InstancePart(pred.lhs));
      Group& group = next.groups[gi];
      int fl = FactorOfColumn(group, bound.lhs);
      int fr = bound.rhs_attr.has_value()
                   ? FactorOfColumn(group, *bound.rhs_attr)
                   : fl;
      if (fl < 0 || fr < 0) {
        return Status::Internal("resolved column missing from factors");
      }
      if (fl == fr) {
        Factor& f = group.factors[static_cast<size_t>(fl)];
        auto rel = RunSelection(f.rel, bound);
        if (!rel.ok()) return rel.status();
        f.rel = std::move(rel).ValueOrDie();
      } else {
        // The predicate spans two factors: fuse them (hash join for
        // equality, product+filter otherwise), keeping only the columns
        // the branch below may still read.
        algebra::ReadSet reads = BranchReads(next);
        algebra::EvalContext ctx;
        ctx.catalog = &catalog_;
        ctx.stats = &stats_;
        ctx.reads = &reads;
        Factor& a = group.factors[static_cast<size_t>(fl)];
        Factor& b = group.factors[static_cast<size_t>(fr)];
        auto rel = algebra::Evaluate(
            MakeSelect(MakeProduct(MakeRelationLeaf(a.rel, "l"),
                                   MakeRelationLeaf(b.rel, "r")),
                       bound),
            ctx);
        if (!rel.ok()) return rel.status();
        Factor merged;
        merged.rel = std::move(rel).ValueOrDie();
        merged.scan_aliases = a.scan_aliases;
        merged.scan_aliases.insert(merged.scan_aliases.end(),
                                   b.scan_aliases.begin(),
                                   b.scan_aliases.end());
        size_t lo = static_cast<size_t>(std::min(fl, fr));
        size_t hi = static_cast<size_t>(std::max(fl, fr));
        group.factors.erase(group.factors.begin() + hi);
        group.factors.erase(group.factors.begin() + lo);
        group.factors.push_back(std::move(merged));
      }
      return next;
    }

    case Candidate::kProduct: {
      const ProductOp& prod = shape_.products[op.index];
      // Materialize covers of bare untouched instances (binary Case 3).
      auto materialize_bare = [&](const std::vector<std::string>& aliases)
          -> Status {
        for (const auto& alias : aliases) {
          auto inst = info_.InstanceForRef(alias + ".x");
          if (!inst.ok()) return inst.status();
          if (!inst.ValueOrDie()->bare || InstanceTouched(next, alias)) {
            continue;
          }
          std::set<std::string> cover;
          for (const auto& attr : inst.ValueOrDie()->needed) {
            auto src = rep.SourceFor(inst.ValueOrDie()->table + "." + attr);
            if (src.has_value()) cover.insert(InstancePart(*src));
          }
          if (cover.empty()) {
            return Status::Internal("bare instance has no mapped cover: " +
                                    alias);
          }
          size_t gi = next.GroupIndexOfInstance(alias);
          for (const auto& rel_name : cover) {
            std::string scan_alias = alias + "$" + rel_name;
            auto rel = MaterializeScan(rel_name, scan_alias);
            if (!rel.ok()) return rel.status();
            next.groups[gi].factors.push_back(
                Factor{std::move(rel).ValueOrDie(), {scan_alias}});
          }
        }
        return Status::OK();
      };
      URM_RETURN_NOT_OK(materialize_bare(prod.left_instances));
      URM_RETURN_NOT_OK(materialize_bare(prod.right_instances));

      size_t gl = next.GroupIndexOfInstance(prod.left_instances[0]);
      size_t gr = next.GroupIndexOfInstance(prod.right_instances[0]);
      URM_CHECK_NE(gl, gr);
      Group& keep = next.groups[std::min(gl, gr)];
      Group& drop = next.groups[std::max(gl, gr)];
      keep.instances.insert(keep.instances.end(), drop.instances.begin(),
                            drop.instances.end());
      for (auto& f : drop.factors) keep.factors.push_back(std::move(f));
      next.groups.erase(next.groups.begin() +
                        static_cast<long>(std::max(gl, gr)));
      stats_.operators_executed++;  // the Cartesian product itself
      next.pending_products.erase(std::find(next.pending_products.begin(),
                                            next.pending_products.end(),
                                            op.index));
      return next;
    }

    case Candidate::kTop: {
      // A top only fixes the source columns it reads (SUM's may add its
      // scan to the group); the leaf answers from the final factors.
      const TopOp& top = shape_.tops[op.index];
      std::vector<std::string> refs = top.project_refs;
      if (!top.agg_ref.empty()) refs.push_back(top.agg_ref);
      for (const auto& r : refs) {
        auto col = ResolveRef(&next, r, rep);
        if (!col.ok()) return col.status();
      }
      stats_.operators_executed++;  // the projection or aggregate
      next.next_top++;
      return next;
    }
  }
  return Status::Internal("unreachable");
}

Result<algebra::DistinctCover> OSharingEngine::LeafCover(const EUnit& u) {
  URM_CHECK_EQ(u.groups.size(), 1u);
  auto column_of = [&u](const std::string& ref) -> Result<std::string> {
    auto it = u.resolved.find(ref);
    if (it == u.resolved.end()) {
      return Status::Internal("ref unresolved at leaf: " + ref);
    }
    return it->second;
  };
  std::vector<RelationPtr> cover;  // the group's Cartesian cover
  for (const auto& f : u.groups[0].factors) cover.push_back(f.rel);
  if (info_.is_aggregate) {  // the aggregate is the outermost top
    const TopOp& top = shape_.tops.back();
    std::string column;
    if (top.agg == algebra::AggKind::kSum) {
      auto col = column_of(top.agg_ref);
      if (!col.ok()) return col.status();
      column = std::move(col).ValueOrDie();
    }
    auto rel = algebra::AggregateCover(cover, top.agg, column);
    if (!rel.ok()) return rel.status();
    RelationPtr one_row = std::make_shared<const relational::Relation>(
        std::move(rel).ValueOrDie());
    return algebra::DistinctCover::Make(
        {one_row}, {one_row->schema().column(0).name});
  }
  std::vector<std::string> out_cols;
  for (const auto& ref : info_.output_refs) {
    auto col = column_of(ref);
    if (!col.ok()) return col.status();
    out_cols.push_back(std::move(col).ValueOrDie());
  }
  return algebra::DistinctCover::Make(cover, out_cols);
}

Result<std::optional<bool>> OSharingEngine::EmitTerminalLeaf(
    const EUnit& u, LeafVisitor* visitor) {
  // Case 2: an empty intermediate relation makes the whole answer θ —
  // except for aggregate queries, where the aggregate of an empty input
  // is still a value (COUNT = 0), matching the basic methods.
  bool has_aggregate_top = false;
  for (const auto& top : shape_.tops) {
    if (top.is_aggregate) has_aggregate_top = true;
  }
  if (!has_aggregate_top) {
    for (const auto& g : u.groups) {
      if (g.HasEmptyFactor()) {
        leaves_++;
        return std::optional<bool>(
            visitor->OnLeaf(algebra::DistinctCover(), u.probability));
      }
    }
  }
  // Case 1: fully executed.
  if (u.pending_selections.empty() && u.pending_products.empty() &&
      u.next_top >= shape_.tops.size()) {
    auto cover = LeafCover(u);
    if (!cover.ok()) return cover.status();
    leaves_++;
    return std::optional<bool>(
        visitor->OnLeaf(cover.ValueOrDie(), u.probability));
  }
  return std::optional<bool>();
}

Result<bool> OSharingEngine::RunEUnit(const EUnit& u, LeafVisitor* visitor) {
  auto leaf = EmitTerminalLeaf(u, visitor);
  if (!leaf.ok()) return leaf.status();
  if (leaf.ValueOrDie().has_value()) return *leaf.ValueOrDie();
  // Case 3: pick, partition, execute, recurse.
  std::vector<OpPartition> partitions;
  auto op = PickOperator(u, &partitions);
  if (!op.ok()) return op.status();
  for (const auto& p : partitions) {
    if (p.unanswerable) {
      leaves_++;
      if (!visitor->OnLeaf(algebra::DistinctCover(), p.probability)) {
        return false;
      }
      continue;
    }
    auto child = Execute(u, op.ValueOrDie(), p);
    if (!child.ok()) return child.status();
    auto cont = RunEUnit(child.ValueOrDie(), visitor);
    if (!cont.ok()) return cont.status();
    if (!cont.ValueOrDie()) return false;
  }
  return true;
}

}  // namespace osharing
}  // namespace urm
