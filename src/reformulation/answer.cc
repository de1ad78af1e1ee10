#include "reformulation/answer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/hash_util.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace urm {
namespace reformulation {

using relational::HashRow;
using relational::Row;
using relational::RowLess;
using relational::RowsEqual;

namespace {

/// Home slot of `hash` in a table of `mask` + 1 slots: the high half of
/// a Fibonacci-hashing product, so all bits of the row hash count.
size_t HomeSlot(size_t hash, size_t mask) {
  return static_cast<size_t>(
             (static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >> 32) &
         mask;
}

}  // namespace

template <typename Equal>
size_t AnswerSet::Find(size_t hash, const Equal& equal) const {
  if (slots_.empty()) return tuples_.size();
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(hash, mask);; i = (i + 1) & mask) {
    uint32_t slot = slots_[i];
    if (slot == 0) return tuples_.size();
    size_t pos = slot - 1;
    if (meta_[pos].hash == hash && equal(tuples_[pos].values)) return pos;
  }
}

void AnswerSet::Insert(size_t hash, Row values, double prob) {
  URM_CHECK(tuples_.size() < UINT32_MAX) << "answer set too large";
  tuples_.push_back(AnswerTuple{std::move(values), prob});
  meta_.push_back(TupleMeta{hash, stamp_});
  auto place = [this](size_t pos) {
    const size_t mask = slots_.size() - 1;
    size_t i = HomeSlot(meta_[pos].hash, mask);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(pos + 1);
  };
  if (tuples_.size() * 2 <= slots_.size()) {
    place(tuples_.size() - 1);
    return;
  }
  // Double the table (at least 16 slots) and re-place every tuple.
  slots_.assign(std::max<size_t>(16, slots_.size() * 2), 0);
  for (size_t pos = 0; pos < tuples_.size(); ++pos) place(pos);
}

template <typename RowRef>
void AnswerSet::Accumulate(RowRef&& row, double prob) {
  size_t hash = HashRow(row);
  size_t pos =
      Find(hash, [&row](const Row& values) { return RowsEqual(values, row); });
  if (pos < tuples_.size()) {
    tuples_[pos].probability += prob;
  } else {
    Insert(hash, std::forward<RowRef>(row), prob);
  }
}

void AnswerSet::Add(const Row& row, double prob) { Accumulate(row, prob); }

void AnswerSet::Add(Row&& row, double prob) {
  Accumulate(std::move(row), prob);
}

void AnswerSet::AddCover(const algebra::DistinctCover& cover,
                         const std::vector<int>& columns, double prob) {
  if (cover.empty()) {
    AddNull(prob);
    return;
  }
  // The stamp marks the tuples this partition has already counted, so a
  // repeated answer row adds nothing (set semantics per partition).
  ++stamp_;
  const size_t null_hash = relational::Value::Null().Hash();
  cover.ForEachRow([&](const algebra::DistinctCover::Cursor& row) {
    size_t hash = relational::kRowHashSeed;
    for (int c : columns) {
      HashCombine(hash, c < 0 ? null_hash : row.hash(static_cast<size_t>(c)));
    }
    size_t pos = Find(hash, [&](const Row& values) {
      if (values.size() != columns.size()) return false;
      for (size_t i = 0; i < columns.size(); ++i) {
        const int c = columns[i];
        if (c < 0 ? !values[i].is_null()
                  : !(values[i] == row.cell(static_cast<size_t>(c)))) {
          return false;
        }
      }
      return true;
    });
    if (pos < tuples_.size()) {
      if (meta_[pos].stamp != stamp_) {
        meta_[pos].stamp = stamp_;
        tuples_[pos].probability += prob;
      }
      return;
    }
    Row values;
    values.reserve(columns.size());
    for (int c : columns) {
      values.push_back(c < 0 ? relational::Value::Null()
                             : row.cell(static_cast<size_t>(c)));
    }
    Insert(hash, std::move(values), prob);
  });
}

void AnswerSet::AddCover(const algebra::DistinctCover& cover, double prob) {
  std::vector<int> columns(cover.schema().num_columns());
  std::iota(columns.begin(), columns.end(), 0);
  AddCover(cover, columns, prob);
}

double AnswerSet::TotalProbability() const {
  double total = null_probability_;
  for (const auto& t : tuples_) total += t.probability;
  return total;
}

size_t AnswerSet::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& t : tuples_) {
    bytes += relational::ApproxRowBytes(t.values) + sizeof(double);
  }
  return bytes;
}

std::vector<AnswerTuple> AnswerSet::Sorted() const {
  std::vector<AnswerTuple> out = tuples_;
  std::sort(out.begin(), out.end(),
            [](const AnswerTuple& a, const AnswerTuple& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return RowLess(a.values, b.values);
            });
  return out;
}

std::vector<AnswerTuple> AnswerSet::TopK(size_t k) const {
  std::vector<AnswerTuple> out = Sorted();
  if (out.size() > k) out.resize(k);
  return out;
}

bool AnswerSet::ApproxEquals(const AnswerSet& other, double eps) const {
  if (std::fabs(null_probability_ - other.null_probability_) > eps) {
    return false;
  }
  if (tuples_.size() != other.tuples_.size()) return false;
  // Neither set holds two equal tuples, so equal sizes plus a partner
  // for every tuple here make a one-to-one match. A NaN row finds none.
  for (size_t pos = 0; pos < tuples_.size(); ++pos) {
    const Row& row = tuples_[pos].values;
    size_t match = other.Find(meta_[pos].hash, [&row](const Row& values) {
      return RowsEqual(values, row);
    });
    if (match == other.tuples_.size()) return false;
    if (std::fabs(tuples_[pos].probability -
                  other.tuples_[match].probability) > eps) {
      return false;
    }
  }
  return true;
}

std::string AnswerSet::ToString(size_t max_rows) const {
  std::string out = "(" + Join(column_names_, ", ") + ") [" +
                    std::to_string(tuples_.size()) + " tuples, P(θ)=" +
                    std::to_string(null_probability_) + "]\n";
  auto sorted = Sorted();
  size_t shown = std::min(max_rows, sorted.size());
  for (size_t i = 0; i < shown; ++i) {
    out += "  (";
    for (size_t j = 0; j < sorted[i].values.size(); ++j) {
      if (j > 0) out += ", ";
      out += sorted[i].values[j].ToString();
    }
    out += ") p=" + std::to_string(sorted[i].probability) + "\n";
  }
  if (shown < sorted.size()) out += "  ...\n";
  return out;
}

}  // namespace reformulation
}  // namespace urm
