#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algebra/plan.h"
#include "common/status.h"
#include "relational/relation.h"

/// \file cover.h
/// Answers over a Cartesian cover — the product F₀ × F₁ × … of evaluated
/// factor relations, in list order — from the factors, without building
/// the product. The evaluator and o-sharing's factored e-units both
/// answer COUNT, SUM and distinct projections here, and AnswerSet reads
/// a source query's answer rows off a DistinctCover in place
/// (docs/ARCHITECTURE.md, "Cartesian covers").

namespace urm {
namespace algebra {

/// COUNT(*) or SUM(column) over the cover, as the one-row relation an
/// Aggregate yields (column "count" or "sum"). COUNT = Π|Fᵢ|. SUM = (SUM
/// of the column over the factor holding it) × (Π|Fⱼ| over the other
/// factors), one multiplication; NULL and non-numeric cells add nothing
/// (a mapping may match SUM's attribute to a string column), and it is
/// INT64 when every numeric cell is, DOUBLE otherwise.
Result<relational::Relation> AggregateCover(
    const std::vector<relational::RelationPtr>& factors, AggKind agg,
    const std::string& column);

/// \brief distinct(π_columns(F₀ × F₁ × …)) as a view over the factors.
///
/// Each factor holding some of the columns keeps the rows whose
/// projection onto its share occurs first (its "picks"), with the
/// Value::Hash of every picked cell computed once; a factor holding
/// none of them only has to be non-empty. The rows are the product of
/// the picks in Relation::Product order (the last factor turning
/// fastest), with values in `columns` order — the rows Project(columns)
/// + Distinct of the materialized product would keep, in the same
/// order. Rows are built only by AppendRows; ForEachRow and RowAt read
/// them in place. Copies share the factors.
class DistinctCover {
 public:
  /// The empty cover: no columns and no rows (the θ outcome).
  DistinctCover() = default;

  /// Fails when a column is in no factor.
  static Result<DistinctCover> Make(
      const std::vector<relational::RelationPtr>& factors,
      const std::vector<std::string>& columns);

  /// The projected columns, in `columns` order.
  const relational::RelationSchema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Appends the rows to `*rows`, in order.
  void AppendRows(std::vector<relational::Row>* rows) const;

  /// The picks behind the rows. The factors holding projected columns
  /// are the cover's shares, in factor order; projected column `c` lies
  /// in share share_of(c), and its cell in that share's pick `p` is
  /// pick_cell(c, p), with Value::Hash pick_hash(c, p). A row is one
  /// pick per share, so a consumer can work per picked cell (AnswerSet
  /// codes each once) and read each row's picks off its Cursor.
  size_t share_of(size_t c) const { return where_[c].first; }
  size_t num_picks(size_t share) const { return shares_[share].picks; }
  const relational::Value& pick_cell(size_t c, size_t pick) const {
    const auto [share, slot] = where_[c];
    return *shares_[share].cells[pick * shares_[share].width + slot];
  }
  size_t pick_hash(size_t c, size_t pick) const {
    const auto [share, slot] = where_[c];
    return shares_[share].hashes[pick * shares_[share].width + slot];
  }

  /// One row of the enumeration: each share's pick in it, and projected
  /// column `c` of it, read in place.
  class Cursor {
   public:
    size_t pick(size_t share) const { return picks_[share]; }
    const relational::Value& cell(size_t c) const {
      const auto [share, slot] = cover_->where_[c];
      const Share& picks = cover_->shares_[share];
      return *picks.cells[picks_[share] * picks.width + slot];
    }

   private:
    friend class DistinctCover;
    explicit Cursor(const DistinctCover* cover)
        : cover_(cover), picks_(cover->shares_.size(), 0) {}
    /// Steps to the next row (odometer, the last share fastest).
    void Advance() {
      for (size_t s = picks_.size(); s-- > 0;) {
        if (++picks_[s] < cover_->shares_[s].picks) return;
        picks_[s] = 0;
      }
    }

    const DistinctCover* cover_;
    std::vector<size_t> picks_;  ///< per share: its pick in this row
  };

  /// Calls `visit(cursor)` for every row, in order.
  template <typename Visit>
  void ForEachRow(const Visit& visit) const {
    Cursor cursor(this);
    for (size_t n = 0; n < num_rows_; ++n) {
      visit(static_cast<const Cursor&>(cursor));
      cursor.Advance();
    }
  }

  /// The row ForEachRow visits `n`-th (n < num_rows()): each share's
  /// pick is one digit of `n`, the last share the lowest.
  Cursor RowAt(size_t n) const {
    Cursor cursor(this);
    for (size_t s = shares_.size(); s-- > 0;) {
      cursor.picks_[s] = n % shares_[s].picks;
      n /= shares_[s].picks;
    }
    return cursor;
  }

 private:
  /// The picks of one factor holding some of the columns.
  struct Share {
    relational::RelationPtr rel;  ///< keeps `cells` alive
    size_t width = 0;             ///< projected columns it holds
    size_t picks = 0;             ///< cells.size() / width
    /// Picked cells, pick-major: width entries per pick.
    std::vector<const relational::Value*> cells;
    std::vector<size_t> hashes;  ///< Value::Hash of each entry of cells
  };

  /// The picks of `factor` on its `columns`: the rows whose projection
  /// onto them occurs first, ascending — the rows Project(columns)
  /// .Distinct() would keep. Each cell of the columns is hashed once.
  static Share PickFirstOccurrences(const relational::RelationPtr& factor,
                                    const std::vector<int>& columns);

  relational::RelationSchema schema_;
  std::vector<Share> shares_;  ///< in factor order
  /// Per projected column: its share and its slot within a pick.
  std::vector<std::pair<uint32_t, uint32_t>> where_;
  size_t num_rows_ = 0;
};

}  // namespace algebra
}  // namespace urm
