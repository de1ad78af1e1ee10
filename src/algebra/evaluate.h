#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "algebra/cover.h"
#include "algebra/plan.h"
#include "common/status.h"
#include "relational/catalog.h"

/// \file evaluate.h
/// Recursive evaluator for algebra plans over a Catalog. It materializes
/// operators, except that COUNT / SUM and distinct projections over a
/// Cartesian cover are answered from its factors (algebra/cover.h, as in
/// o-sharing). A source query evaluates through EvaluateSourceQuery to
/// a DistinctCover that AnswerSet reads in place, and its joins and
/// products emit only the columns the plan reads. Tracks operator/tuple
/// statistics (used by the paper's Table IV) and optionally memoizes
/// subexpression results by canonical form (used by the e-MQO
/// baseline).

namespace urm {
namespace algebra {

/// Counters accumulated during evaluation.
struct EvalStats {
  size_t operators_executed = 0;  ///< Select/Project/Product/Aggregate runs
  size_t scans = 0;               ///< base-table scans
  size_t tuples_produced = 0;     ///< rows emitted by all operators
  /// Memoized operator evaluations reused instead of recomputed: e-MQO
  /// subplan memo hits plus o-sharing operator-cache hits (private
  /// per-engine memo and the cross-query OperatorStore combined).
  size_t cache_hits = 0;
  size_t cache_misses = 0;  ///< operator-cache lookups that computed fresh
  /// Result-relation bytes served from an o-sharing operator cache —
  /// the materialization work sharing saved (ApproxBytes of reused
  /// results). e-MQO memo hits count in cache_hits only: weighing them
  /// would rescan the relation on every hit.
  size_t cache_bytes_saved = 0;
  /// Subset of cache_hits served by the *shared* cross-query
  /// OperatorStore (another query or a sibling parallel branch
  /// materialized the operator), including single-flight waits.
  size_t store_hits = 0;
  /// Selections answered by codec-aware columnar scans (selection
  /// vectors evaluated on the encoded form, no row materialization).
  size_t columnar_scans = 0;
  /// Selections that fell back to the row-at-a-time loop (join
  /// predicates, or inputs without a cached encoding).
  size_t row_scans = 0;
  /// Bytes selections actually read: encoded bytes of the scanned
  /// column(s) on the columnar path, touched-cell bytes on the row
  /// path.
  size_t bytes_scanned = 0;
  /// Row-format bytes of the same cells — what the scans *would* have
  /// read without compression. bytes_scanned / logical_bytes_scanned
  /// is the live compression ratio of the scan mix.
  size_t logical_bytes_scanned = 0;

  EvalStats& operator+=(const EvalStats& other) {
    operators_executed += other.operators_executed;
    scans += other.scans;
    tuples_produced += other.tuples_produced;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_bytes_saved += other.cache_bytes_saved;
    store_hits += other.store_hits;
    columnar_scans += other.columnar_scans;
    row_scans += other.row_scans;
    bytes_scanned += other.bytes_scanned;
    logical_bytes_scanned += other.logical_bytes_scanned;
    return *this;
  }
};

/// Shared-subexpression memo: canonical plan string -> result.
using EvalCache = std::unordered_map<std::string, relational::RelationPtr>;

/// Column names a plan reads (ReferencedAttributes).
using ReadSet = std::unordered_set<std::string>;

/// Evaluation environment. `stats`, `cache` and `reads` may be null.
struct EvalContext {
  const relational::Catalog* catalog = nullptr;
  EvalStats* stats = nullptr;
  EvalCache* cache = nullptr;
  /// When set, only subplans whose canonical form is in this set are
  /// *stored* in the cache (lookups always consult the cache). e-MQO
  /// uses this to memoize exactly its chosen materialization set.
  const std::unordered_set<std::string>* cache_filter = nullptr;
  /// When set, hash joins and materialized products emit only the
  /// columns a name here resolves to, in their usual order; row counts,
  /// row order and statistics do not change. A selection evaluates its
  /// input with its predicate's columns added. Every result stored in
  /// `cache` is pruned the same way, so plans sharing one memo must
  /// share one read set.
  const ReadSet* reads = nullptr;
};

/// Evaluates `plan` bottom-up.
///
/// Scan leaves fetch from the catalog and are re-qualified to the scan
/// alias; RelationLeaf nodes return their payload. An Aggregate (seeing
/// through bag Projects) or a Distinct over a Project evaluates the
/// factors of the Products below it; those Products and the Projects
/// seen through are neither built nor counted. With a cache present,
/// every evaluated subplan is looked up / stored by canonical form.
Result<relational::RelationPtr> Evaluate(const PlanPtr& plan,
                                         const EvalContext& ctx);

/// Evaluates a source query's plan to the cover of its distinct answer
/// rows: a Distinct over a Project becomes the cover of the projection
/// over the factors below it (the Distinct is not looked up in the
/// memo), and any other plan — an Aggregate's one row included — the
/// cover of its evaluated result over all its columns. Joins and
/// products below read only `ctx.reads`, or, when that is null, the
/// attributes the plan references (computed only for plans with a
/// Select over a Product or with a join predicate).
Result<DistinctCover> EvaluateSourceQuery(const PlanPtr& plan,
                                          const EvalContext& ctx);

/// Convenience: evaluate against a catalog without stats or cache.
Result<relational::RelationPtr> Evaluate(
    const PlanPtr& plan, const relational::Catalog& catalog);

}  // namespace algebra
}  // namespace urm
