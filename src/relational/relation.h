#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "columnar/columnar_relation.h"
#include "common/status.h"
#include "relational/schema.h"
#include "relational/value.h"

/// \file relation.h
/// In-memory relations with dual backing: row-major `Value` vectors
/// and/or a compressed column-major encoding (columnar::ColumnarRelation).
/// Relations are the unit of exchange between the algebra evaluator,
/// the o-sharing e-units, and the answer aggregators.
///
/// Storage is shared copy-on-write so that renaming a relation's
/// columns (aliased scans) is O(schema), not O(rows) — and the shared
/// backing carries the columnar encoding across renames, so an aliased
/// scan of an encoded catalog relation still takes the codec-aware
/// selection path. Either form materializes lazily from the other:
/// `rows()` decodes a columnar-only backing on first use; `Columnar()`
/// encodes row storage on first use. Concurrent readers are safe (the
/// lazy step runs under a per-backing mutex and publishes through an
/// atomic pointer); mutation keeps the existing single-owner contract
/// and any write (AddRow / Reserve) invalidates the cached encoding
/// before touching rows, so mixed append/scan use never reads a stale
/// encoding.

namespace urm {
namespace relational {

/// \brief A materialized relation: schema plus shared dual-form
/// (row / compressed columnar) storage.
class Relation {
 public:
  Relation() : backing_(Backing::FromRows({})) {}
  explicit Relation(RelationSchema schema)
      : schema_(std::move(schema)), backing_(Backing::FromRows({})) {}
  Relation(RelationSchema schema, std::vector<Row> rows)
      : schema_(std::move(schema)),
        backing_(Backing::FromRows(std::move(rows))) {}

  /// A relation backed purely by an encoded columnar form; rows
  /// materialize lazily on first row-wise access. `schema` arity must
  /// match the encoding (the relation's schema governs name lookup —
  /// it may be a renamed view of the encoding's schema).
  static Relation FromColumnar(RelationSchema schema,
                               columnar::ColumnarRelationPtr encoded);

  const RelationSchema& schema() const { return schema_; }

  /// Row-major view; materializes from the columnar backing on first
  /// call. The reference stays valid for the lifetime of the backing
  /// (shared by all copies of this relation).
  const std::vector<Row>& rows() const {
    const std::vector<Row>* p =
        backing_->rows_view.load(std::memory_order_acquire);
    return p != nullptr ? *p : MaterializeRowsSlow();
  }

  size_t num_rows() const {
    const std::vector<Row>* p =
        backing_->rows_view.load(std::memory_order_acquire);
    if (p != nullptr) return p->size();
    return backing_->columnar_view.load(std::memory_order_acquire)
        ->num_rows();
  }
  bool empty() const { return num_rows() == 0; }

  /// The compressed encoding, building it from rows on first call
  /// (shared by all copies; survives WithSchema renames). Returns null
  /// only for zero-column schemas, which the encoding cannot represent.
  columnar::ColumnarRelationPtr Columnar() const;

  /// The encoding if (and only if) one is already cached — never
  /// triggers an encode, so intermediate results stay row-only. The
  /// pointer stays valid for the lifetime of the backing.
  const columnar::ColumnarRelation* ColumnarIfEncoded() const {
    return backing_->columnar_view.load(std::memory_order_acquire);
  }

  /// Appends a row; fails if the arity does not match the schema.
  /// Copies shared storage first if needed (copy-on-write) and drops
  /// any cached columnar encoding (it no longer describes the rows).
  Status AddRow(Row row);

  /// Appends a batch of rows after validating every arity, paying the
  /// copy-on-write / encoding-invalidation cost of MutableRows() once
  /// for the whole batch instead of once per row. Nothing is appended
  /// if any row fails validation.
  Status AddRows(std::vector<Row> rows);

  /// Reserves row storage.
  void Reserve(size_t n) { MutableRows()->reserve(n); }

  /// The rows selected by `sel` (indices ascending, from a
  /// Column::EvalPredicate scan), in order. Reads row storage when
  /// materialized, otherwise decodes straight from the encoding.
  Relation Gather(const columnar::SelectionVector& sel) const;

  /// Same rows under a different schema (column rename). O(1) in rows;
  /// shares backing, including any columnar encoding.
  Result<Relation> WithSchema(RelationSchema schema) const;

  /// Relation with duplicate rows removed (order of first occurrence).
  Relation Distinct() const;

  /// Rows projected to the given columns (resolvable names), duplicates
  /// preserved.
  Result<Relation> Project(const std::vector<std::string>& names) const;

  /// Cartesian product with `other`.
  Result<Relation> Product(const Relation& other) const;

  /// Approximate in-memory footprint in bytes (used for |D| sizing).
  /// Counts the row-format (logical) size whichever backing is live.
  size_t ApproxBytes() const;

  /// Multi-line debug rendering, capped at `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  /// The shared storage cell. At least one of {rows, columnar} is
  /// non-null at all times; the missing form is derived lazily under
  /// `mu` and published through the corresponding *_view atomic (the
  /// store-release / load-acquire pair orders the fill before any
  /// reader's use). Copies of a Relation share one Backing; writers
  /// replace the whole Backing (copy-on-write), never mutate a shared
  /// one.
  struct Backing {
    std::mutex mu;
    std::shared_ptr<std::vector<Row>> rows;
    columnar::ColumnarRelationPtr columnar;
    std::atomic<const std::vector<Row>*> rows_view{nullptr};
    std::atomic<const columnar::ColumnarRelation*> columnar_view{nullptr};

    static std::shared_ptr<Backing> FromRows(std::vector<Row> r);
    static std::shared_ptr<Backing> FromColumnar(
        columnar::ColumnarRelationPtr c);
  };

  const std::vector<Row>& MaterializeRowsSlow() const;
  std::vector<Row>* MutableRows();

  RelationSchema schema_;
  std::shared_ptr<Backing> backing_;
};

using RelationPtr = std::shared_ptr<const Relation>;

/// Approximate in-memory footprint of one row (the per-row unit behind
/// Relation::ApproxBytes; also used to weigh cached answer sets).
size_t ApproxRowBytes(const Row& row);

/// The seed HashRow starts from: it folds each cell's Value::Hash into
/// it with HashCombine, in order. Code that caches cell hashes chains
/// them the same way to get HashRow of the row they form.
inline constexpr size_t kRowHashSeed = 0x51ed270b;

/// Hash of a full row, consistent with row equality via Value::operator==.
size_t HashRow(const Row& row);

/// Row equality via Value::operator==.
bool RowsEqual(const Row& a, const Row& b);

/// Hash and equality of rows named by their position in `*rows`: the
/// functors of an unordered_set<size_t> of positions, which keeps
/// working while `*rows` grows (first-occurrence dedup, membership).
struct RowRefHash {
  const std::vector<Row>* rows;
  size_t operator()(size_t i) const { return HashRow((*rows)[i]); }
};

struct RowRefEq {
  const std::vector<Row>* rows;
  bool operator()(size_t a, size_t b) const {
    return RowsEqual((*rows)[a], (*rows)[b]);
  }
};

/// Deterministic total order over rows (for stable output).
bool RowLess(const Row& a, const Row& b);

}  // namespace relational
}  // namespace urm
