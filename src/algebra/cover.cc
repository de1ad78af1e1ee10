#include "algebra/cover.h"

#include <optional>
#include <unordered_set>

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

/// Positions of the rows whose projection onto `columns` occurs first,
/// ascending — the rows Project(columns).Distinct() would keep.
std::vector<size_t> FirstOccurrences(const std::vector<Row>& rows,
                                     const std::vector<int>& columns) {
  auto hash = [&](size_t i) {
    return relational::HashProjectedRow(rows[i], columns);
  };
  auto equal = [&](size_t a, size_t b) {
    for (int c : columns) {
      size_t col = static_cast<size_t>(c);
      if (!(rows[a][col] == rows[b][col])) return false;
    }
    return true;
  };
  std::unordered_set<size_t, decltype(hash), decltype(equal)> seen(
      16, hash, equal);
  std::vector<size_t> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (seen.insert(i).second) out.push_back(i);
  }
  return out;
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

Result<RelationSchema> DistinctProjectCover(
    const std::vector<RelationPtr>& factors,
    const std::vector<std::string>& columns, std::vector<Row>* rows) {
  RelationSchema schema;
  std::vector<ColumnRef> refs;
  std::vector<std::vector<int>> shares(factors.size());
  for (const auto& c : columns) {
    auto at = Locate(factors, c);
    if (!at) return Status::NotFound("projected column in no factor: " + c);
    URM_RETURN_NOT_OK(
        schema.AddColumn(factors[at->factor]->schema().column(at->index)));
    refs.push_back(*at);
    shares[at->factor].push_back(static_cast<int>(at->index));
  }

  // Each sharing factor's distinct rows; the others must be non-empty.
  std::vector<std::vector<size_t>> picks(factors.size());
  size_t total = 1;
  for (size_t f = 0; f < factors.size(); ++f) {
    if (shares[f].empty()) {
      if (factors[f]->empty()) return schema;
      continue;
    }
    picks[f] = FirstOccurrences(factors[f]->rows(), shares[f]);
    total *= picks[f].size();
  }

  // Odometer over the sharing factors, the last one turning fastest.
  std::vector<size_t> at(factors.size(), 0);
  rows->reserve(rows->size() + total);
  for (size_t n = 0; n < total; ++n) {
    Row row;
    row.reserve(refs.size());
    for (const ColumnRef& ref : refs) {
      size_t f = ref.factor;
      row.push_back(factors[f]->rows()[picks[f][at[f]]][ref.index]);
    }
    rows->push_back(std::move(row));
    for (size_t f = factors.size(); f-- > 0;) {
      if (picks[f].empty()) continue;
      if (++at[f] < picks[f].size()) break;
      at[f] = 0;
    }
  }
  return schema;
}

}  // namespace algebra
}  // namespace urm
