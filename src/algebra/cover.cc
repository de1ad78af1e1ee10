#include "algebra/cover.h"

#include <optional>
#include <unordered_set>

#include "common/hash_util.h"

namespace urm {
namespace algebra {

using relational::Relation;
using relational::RelationPtr;
using relational::RelationSchema;
using relational::Row;
using relational::Value;
using relational::ValueType;

namespace {

/// Where a column lives in a cover: factor and position in its schema.
struct ColumnRef {
  size_t factor;
  size_t index;
};

/// The first factor holding `column`.
std::optional<ColumnRef> Locate(const std::vector<RelationPtr>& factors,
                                const std::string& column) {
  for (size_t f = 0; f < factors.size(); ++f) {
    if (auto idx = factors[f]->schema().IndexOf(column)) {
      return ColumnRef{f, *idx};
    }
  }
  return std::nullopt;
}

}  // namespace

Result<Relation> AggregateCover(const std::vector<RelationPtr>& factors,
                                AggKind agg, const std::string& column) {
  // COUNT is 1 × Π|Fᵢ|; SUM replaces the summed factor's |F| by its SUM.
  std::optional<ColumnRef> at;
  if (agg == AggKind::kSum) {
    at = Locate(factors, column);
    if (!at) return Status::NotFound("SUM attribute not found: " + column);
  }
  double others = 1.0;
  for (size_t f = 0; f < factors.size(); ++f) {
    if (!at || f != at->factor) {
      others *= static_cast<double>(factors[f]->num_rows());
    }
  }
  double value = 1.0;
  bool all_int = true;
  if (at) {
    value = 0.0;
    for (const Row& r : factors[at->factor]->rows()) {
      const Value& v = r[at->index];
      if (v.is_null() || !v.is_numeric()) continue;
      if (v.type() != ValueType::kInt64) all_int = false;
      value += v.NumericValue();
    }
  }
  value *= others;
  RelationSchema schema;
  URM_RETURN_NOT_OK(schema.AddColumn(
      {agg == AggKind::kCount ? "count" : "sum",
       all_int ? ValueType::kInt64 : ValueType::kDouble}));
  Relation out(std::move(schema));
  if (all_int) {
    URM_RETURN_NOT_OK(out.AddRow({Value(static_cast<int64_t>(value))}));
  } else {
    URM_RETURN_NOT_OK(out.AddRow({Value(value)}));
  }
  return out;
}

DistinctCover::Share DistinctCover::PickFirstOccurrences(
    const RelationPtr& factor, const std::vector<int>& columns) {
  const std::vector<Row>& rows = factor->rows();
  const size_t width = columns.size();
  std::vector<size_t> cell_hashes(rows.size() * width);
  std::vector<size_t> row_hashes(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    size_t seed = relational::kRowHashSeed;
    for (size_t k = 0; k < width; ++k) {
      size_t h = rows[i][static_cast<size_t>(columns[k])].Hash();
      cell_hashes[i * width + k] = h;
      HashCombine(seed, h);
    }
    row_hashes[i] = seed;
  }
  auto hash = [&](size_t i) { return row_hashes[i]; };
  auto equal = [&](size_t a, size_t b) {
    for (int c : columns) {
      size_t col = static_cast<size_t>(c);
      if (!(rows[a][col] == rows[b][col])) return false;
    }
    return true;
  };
  std::unordered_set<size_t, decltype(hash), decltype(equal)> seen(
      16, hash, equal);
  Share share;
  share.rel = factor;
  share.width = width;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!seen.insert(i).second) continue;
    for (size_t k = 0; k < width; ++k) {
      share.cells.push_back(&rows[i][static_cast<size_t>(columns[k])]);
      share.hashes.push_back(cell_hashes[i * width + k]);
    }
    ++share.picks;
  }
  return share;
}

Result<DistinctCover> DistinctCover::Make(
    const std::vector<RelationPtr>& factors,
    const std::vector<std::string>& columns) {
  DistinctCover cover;
  struct Slot {
    size_t factor;
    size_t slot;
  };
  std::vector<Slot> slots;
  std::vector<std::vector<int>> shares(factors.size());
  for (const auto& c : columns) {
    auto at = Locate(factors, c);
    if (!at) return Status::NotFound("projected column in no factor: " + c);
    URM_RETURN_NOT_OK(cover.schema_.AddColumn(
        factors[at->factor]->schema().column(at->index)));
    slots.push_back(Slot{at->factor, shares[at->factor].size()});
    shares[at->factor].push_back(static_cast<int>(at->index));
  }
  // A factor sharing no column only has to be non-empty.
  for (size_t f = 0; f < factors.size(); ++f) {
    if (shares[f].empty() && factors[f]->empty()) return cover;
  }
  std::vector<uint32_t> share_of(factors.size(), 0);
  cover.num_rows_ = 1;
  for (size_t f = 0; f < factors.size(); ++f) {
    if (shares[f].empty()) continue;
    share_of[f] = static_cast<uint32_t>(cover.shares_.size());
    cover.shares_.push_back(PickFirstOccurrences(factors[f], shares[f]));
    cover.num_rows_ *= cover.shares_.back().picks;
  }
  for (const Slot& s : slots) {
    cover.where_.emplace_back(share_of[s.factor],
                              static_cast<uint32_t>(s.slot));
  }
  return cover;
}

void DistinctCover::AppendRows(std::vector<Row>* rows) const {
  const size_t width = where_.size();
  rows->reserve(rows->size() + num_rows_);
  ForEachRow([&](const Cursor& row) {
    Row out;
    out.reserve(width);
    for (size_t c = 0; c < width; ++c) out.push_back(row.cell(c));
    rows->push_back(std::move(out));
  });
}

}  // namespace algebra
}  // namespace urm
