#include "reformulation/answer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace urm {
namespace reformulation {

using relational::Row;
using relational::Value;
using relational::ValueType;

namespace {

/// The code past the end of a row, so rows of different widths differ.
constexpr uint32_t kAbsent = UINT32_MAX;

/// Home slot of `hash` in a table of `mask` + 1 slots: the high half of
/// a Fibonacci-hashing product, so all bits of the hash count.
size_t HomeSlot(size_t hash, size_t mask) {
  return static_cast<size_t>(
             (static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >> 32) &
         mask;
}

/// Open addressing with linear probing: each slot holds an entry plus
/// one, 0 marking an empty slot. The entry on `hash`'s probe path that
/// satisfies `match`, or `none` when an empty slot comes first.
template <typename Match>
uint32_t Probe(const std::vector<uint32_t>& slots, size_t hash, uint32_t none,
               const Match& match) {
  if (slots.empty()) return none;
  const size_t mask = slots.size() - 1;
  for (size_t i = HomeSlot(hash, mask);; i = (i + 1) & mask) {
    const uint32_t slot = slots[i];
    if (slot == 0) return none;
    if (match(slot - 1)) return slot - 1;
  }
}

/// Puts `entry` in the first empty slot on `hash`'s probe path.
void Place(std::vector<uint32_t>* slots, size_t hash, uint32_t entry) {
  const size_t mask = slots->size() - 1;
  size_t i = HomeSlot(hash, mask);
  while ((*slots)[i] != 0) i = (i + 1) & mask;
  (*slots)[i] = entry + 1;
}

size_t HashCodes(const uint32_t* codes, size_t n) {
  uint64_t h = 0x51ed270b;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ codes[i]) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  }
  return static_cast<size_t>(h);
}

bool IsNaN(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.AsDouble());
}

/// The order Value::operator< puts one column's codes in: the rank of
/// each code among the column's classes, NaN codes apart. Ranks below
/// `numbers_begin` are NULL, ranks from `numbers_end` on are strings.
struct ColumnRanks {
  static constexpr uint32_t kNaN = UINT32_MAX;

  std::vector<uint32_t> rank;
  uint32_t numbers_begin = 0;
  uint32_t numbers_end = 0;
  uint32_t num_ranks = 0;  ///< non-NaN classes
  bool has_nan = false;    ///< some code is a NaN

  /// The type rank Value::operator< gives the code ranked `r`: NULL 0,
  /// numbers (NaN included) 1, strings 2.
  int Type(uint32_t r) const {
    if (r == kNaN) return 1;
    return r < numbers_begin ? 0 : r < numbers_end ? 1 : 2;
  }
};

/// Ranks the codes whose first members are `values`. Distinct non-NaN
/// classes are never equivalent under Value::operator< (oracle_test), so
/// their ranks are distinct and compare as their members do.
ColumnRanks RankCodes(const std::vector<Value>& values) {
  std::vector<uint32_t> order;
  order.reserve(values.size());
  ColumnRanks out;
  for (uint32_t code = 0; code < values.size(); ++code) {
    const Value& v = values[code];
    if (IsNaN(v)) continue;
    order.push_back(code);
    if (v.is_null()) ++out.numbers_begin;
    if (v.is_numeric()) ++out.numbers_end;
  }
  out.numbers_end += out.numbers_begin;
  std::sort(order.begin(), order.end(), [&values](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  out.rank.assign(values.size(), ColumnRanks::kNaN);
  for (uint32_t r = 0; r < order.size(); ++r) out.rank[order[r]] = r;
  out.num_ranks = static_cast<uint32_t>(order.size());
  out.has_nan = order.size() < values.size();
  return out;
}

/// Bits that hold every value up to `n`.
unsigned BitsFor(uint64_t n) {
  unsigned bits = 0;
  for (; n != 0; n >>= 1) ++bits;
  return bits;
}

/// The answer row of cover row `row` under `columns`, as AddCover builds
/// it: the cell at each entry, NULL where an entry is negative.
Row CoverRow(const algebra::DistinctCover::Cursor& row,
             const std::vector<int>& columns) {
  Row values;
  values.reserve(columns.size());
  for (int c : columns) {
    values.push_back(c < 0 ? Value::Null() : row.cell(static_cast<size_t>(c)));
  }
  return values;
}

}  // namespace

uint32_t AnswerSet::Column::Find(const Value& value, size_t hash) const {
  return Probe(slots, hash, kNoCode, [&](uint32_t code) {
    return hashes[code] == hash && values[code] == value;
  });
}

uint32_t AnswerSet::Column::Add(const Value& value, size_t hash) {
  URM_CHECK(values.size() < kNoCode) << "answer column has too many values";
  const uint32_t code = static_cast<uint32_t>(values.size());
  values.push_back(value);
  hashes.push_back(hash);
  if (IsNaN(value)) return code;
  if (values.size() * 2 <= slots.size()) {
    Place(&slots, hash, code);
    return code;
  }
  // Double the table (at least 16 slots) and re-place every indexed code.
  slots.assign(std::max<size_t>(16, slots.size() * 2), 0);
  for (uint32_t c = 0; c < values.size(); ++c) {
    if (!IsNaN(values[c])) Place(&slots, hashes[c], c);
  }
  return code;
}

size_t AnswerSet::Find(const uint32_t* key, size_t hash) const {
  const size_t width = this->width();
  return Probe(slots_, hash, static_cast<uint32_t>(tuples_.size()),
               [&](uint32_t pos) {
                 return std::equal(key, key + width, codes(pos));
               });
}

size_t AnswerSet::FindRow(const Row& row, std::vector<uint32_t>* key) const {
  if (row.size() > width()) return tuples_.size();
  key->assign(width(), kAbsent);
  for (size_t i = 0; i < row.size(); ++i) {
    const uint32_t code = columns_[i].Find(row[i], row[i].Hash());
    if (code == kNoCode) return tuples_.size();
    (*key)[i] = code;
  }
  return Find(key->data(), HashCodes(key->data(), width()));
}

void AnswerSet::Rehash(size_t num_slots) {
  slots_.assign(num_slots, 0);
  for (uint32_t pos = 0; pos < tuples_.size(); ++pos) {
    Place(&slots_, HashCodes(codes(pos), width()), pos);
  }
}

void AnswerSet::Insert(const uint32_t* key, size_t hash, Row values,
                       double prob) {
  URM_CHECK(tuples_.size() < UINT32_MAX) << "answer set too large";
  tuples_.push_back(AnswerTuple{std::move(values), prob});
  entries_.push_back(stamp_);
  for (size_t i = 0, n = width(); i < n; ++i) entries_.push_back(key[i]);
  if (tuples_.size() * 2 <= slots_.size()) {
    Place(&slots_, hash, static_cast<uint32_t>(tuples_.size() - 1));
    return;
  }
  Rehash(std::max<size_t>(16, slots_.size() * 2));
}

void AnswerSet::Widen(size_t cells) {
  const size_t from = width() + 1, to = cells + 1;
  if (to <= from) return;
  columns_.resize(cells);
  if (tuples_.empty()) return;
  std::vector<uint32_t> entries(tuples_.size() * to, kAbsent);
  for (size_t pos = 0; pos < tuples_.size(); ++pos) {
    std::copy_n(&entries_[pos * from], from, &entries[pos * to]);
  }
  entries_ = std::move(entries);
  Rehash(slots_.size());
}

void AnswerSet::NextStamp() {
  if (++stamp_ != 0) return;
  for (size_t pos = 0; pos < tuples_.size(); ++pos) {
    entries_[pos * (width() + 1)] = 0;
  }
  stamp_ = 1;
}

template <typename RowRef>
void AnswerSet::Accumulate(RowRef&& row, double prob) {
  CheckRows();
  Widen(row.size());
  std::vector<uint32_t> key(width(), kAbsent);
  for (size_t i = 0; i < row.size(); ++i) {
    key[i] = columns_[i].Code(row[i], row[i].Hash());
  }
  const size_t hash = HashCodes(key.data(), key.size());
  const size_t pos = Find(key.data(), hash);
  if (pos < tuples_.size()) {
    tuples_[pos].probability += prob;
  } else {
    Insert(key.data(), hash, std::forward<RowRef>(row), prob);
  }
}

void AnswerSet::Add(const Row& row, double prob) { Accumulate(row, prob); }

void AnswerSet::Add(Row&& row, double prob) {
  Accumulate(std::move(row), prob);
}

void AnswerSet::CheckRows() const {
  URM_CHECK(!defer_rows_) << "rows are deferred: read them through BuildRow";
}

void AnswerSet::DeferRows() {
  URM_CHECK(tuples_.empty()) << "rows can be deferred only on an empty set";
  defer_rows_ = true;
}

const std::vector<AnswerTuple>& AnswerSet::tuples() const {
  CheckRows();
  return tuples_;
}

Row AnswerSet::BuildRow(size_t pos) const {
  URM_CHECK(defer_rows_) << "rows are built only when deferred";
  const RowSource& source = sources_[pos];
  const KeptCover& kept = kept_[source.cover];
  return CoverRow(kept.cover.RowAt(source.ordinal), kept.columns);
}

std::vector<AnswerTuple> AnswerSet::TakeTuples() && {
  CheckRows();
  std::vector<AnswerTuple> out = std::move(tuples_);
  *this = AnswerSet(std::move(column_names_));
  return out;
}

void AnswerSet::AddCover(const algebra::DistinctCover& cover,
                         const std::vector<int>& columns, double prob,
                         std::vector<uint32_t>* touched) {
  if (cover.empty()) {
    AddNull(prob);
    return;
  }
  // The stamp marks the tuples this partition has already counted, so a
  // repeated answer row adds nothing (set semantics per partition).
  NextStamp();
  Widen(columns.size());
  std::vector<uint32_t> key(width(), kAbsent);
  // Code every picked cell of each answer column once; a row's codes are
  // then its picks' codes. A NaN pick stays kNoCode until its row
  // becomes a tuple, so it matches nothing.
  struct Read {
    size_t column;  ///< answer column
    size_t cell;    ///< cover column
    size_t share;   ///< the cover share holding it
    size_t first;   ///< its first pick's code in pick_codes
  };
  std::vector<Read> reads;
  std::vector<uint32_t> pick_codes;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] < 0) {
      key[i] = columns_[i].Code(Value::Null(), Value::Null().Hash());
      continue;
    }
    const size_t c = static_cast<size_t>(columns[i]);
    const size_t share = cover.share_of(c);
    reads.push_back(Read{i, c, share, pick_codes.size()});
    Column& column = columns_[i];
    for (size_t p = 0; p < cover.num_picks(share); ++p) {
      const Value& cell = cover.pick_cell(c, p);
      const size_t hash = cover.pick_hash(c, p);
      uint32_t code = column.Find(cell, hash);
      if (code == kNoCode && !IsNaN(cell)) code = column.Add(cell, hash);
      pick_codes.push_back(code);
    }
  }
  const size_t stride = width() + 1;
  // Consecutive cover rows mostly land on consecutive tuples (a
  // partition repeats an earlier one's rows in the same order), so the
  // tuple after the previous row's is tried before the table.
  size_t last = SIZE_MAX;
  size_t ordinal = 0;  // of the row in ForEachRow order
  bool kept = false;   // whether kept_ holds this cover yet
  cover.ForEachRow([&](const algebra::DistinctCover::Cursor& row) {
    const size_t n = ordinal++;
    for (const Read& r : reads) {
      key[r.column] = pick_codes[r.first + row.pick(r.share)];
    }
    size_t pos = last + 1;
    size_t hash = 0;
    if (pos >= tuples_.size() ||
        !std::equal(key.begin(), key.end(),
                    entries_.data() + pos * stride + 1)) {
      hash = HashCodes(key.data(), key.size());
      pos = Find(key.data(), hash);
    }
    last = pos;
    if (pos < tuples_.size()) {
      uint32_t& stamp = entries_[pos * stride];
      if (stamp != stamp_) {
        stamp = stamp_;
        tuples_[pos].probability += prob;
        if (touched != nullptr) touched->push_back(static_cast<uint32_t>(pos));
      }
      return;
    }
    bool nan = false;
    for (const Read& r : reads) {
      if (key[r.column] != kNoCode) continue;
      const Value& cell = row.cell(r.cell);
      key[r.column] = columns_[r.column].Add(cell, cell.Hash());
      nan = true;
    }
    if (nan) hash = HashCodes(key.data(), key.size());
    if (touched != nullptr) {
      touched->push_back(static_cast<uint32_t>(tuples_.size()));
    }
    if (!defer_rows_) {
      Insert(key.data(), hash, CoverRow(row, columns), prob);
      return;
    }
    if (!kept) {
      URM_CHECK(kept_.size() < UINT32_MAX) << "too many kept covers";
      kept_.push_back(KeptCover{cover, columns});
      kept = true;
    }
    sources_.push_back(
        RowSource{static_cast<uint32_t>(kept_.size() - 1), n});
    Insert(key.data(), hash, Row(), prob);
  });
}

void AnswerSet::AddCover(const algebra::DistinctCover& cover, double prob,
                         std::vector<uint32_t>* touched) {
  std::vector<int> columns(cover.schema().num_columns());
  std::iota(columns.begin(), columns.end(), 0);
  AddCover(cover, columns, prob, touched);
}

double AnswerSet::TotalProbability() const {
  double total = null_probability_;
  for (const auto& t : tuples_) total += t.probability;
  return total;
}

size_t AnswerSet::ApproxBytes() const {
  CheckRows();
  size_t bytes = 0;
  for (const auto& t : tuples_) {
    bytes += relational::ApproxRowBytes(t.values) + sizeof(double);
  }
  return bytes;
}

void AnswerSet::Order(std::vector<uint32_t>* positions,
                      std::optional<size_t> k) const {
  if (positions->size() < 2) return;
  std::vector<ColumnRanks> ranks;
  ranks.reserve(columns_.size());
  for (const Column& column : columns_) {
    ranks.push_back(RankCodes(column.values));
  }
  const size_t width = this->width();
  // RowLess of two code tuples, equal before column `from`.
  auto row_less = [&ranks, width](const uint32_t* ca, const uint32_t* cb,
                                  size_t from) {
    for (size_t i = from; i < width; ++i) {
      const uint32_t x = ca[i], y = cb[i];
      if (x == y) continue;
      // Equal up to here: the row that ends first is the smaller.
      if (x == kAbsent || y == kAbsent) return x == kAbsent;
      const ColumnRanks& column = ranks[i];
      const uint32_t rx = column.rank[x], ry = column.rank[y];
      if (rx != ColumnRanks::kNaN && ry != ColumnRanks::kNaN) return rx < ry;
      // NaN is equivalent to every number, above NULL, below strings.
      const int tx = column.Type(rx), ty = column.Type(ry);
      if (tx != ty) return tx < ty;
    }
    return false;
  };
  if (k) {
    // A few tuples are wanted, so most are compared only against the
    // k-th: keys would cost more than they save.
    auto less = [this, &row_less](uint32_t a, uint32_t b) {
      const double pa = tuples_[a].probability, pb = tuples_[b].probability;
      if (pa != pb) return pa > pb;
      return row_less(codes(a), codes(b), 0);
    };
    const auto middle =
        positions->begin() +
        static_cast<std::ptrdiff_t>(std::min(*k, positions->size()));
    std::partial_sort(positions->begin(), middle, positions->end(), less);
    return;
  }
  // The leading NaN-free columns whose ranks fit in 64 bits, each rank
  // plus one (0 past the end of a row), packed first column highest:
  // keys compare as those columns compare under row_less, so sorting
  // (probability, key, position) entries takes the same comparator
  // outcomes as sorting positions, and the same permutation.
  std::vector<unsigned> bits;
  for (size_t i = 0, total = 0; i < width && !ranks[i].has_nan; ++i) {
    const unsigned need = BitsFor(ranks[i].num_ranks);
    if (total + need > 64) break;
    total += need;
    bits.push_back(need);
  }
  const size_t packed = bits.size();
  struct Entry {
    double probability;
    uint64_t key;
    uint32_t pos;
  };
  std::vector<Entry> entries;
  entries.reserve(positions->size());
  for (uint32_t pos : *positions) {
    const uint32_t* c = codes(pos);
    uint64_t key = 0;
    for (size_t i = 0; i < packed; ++i) {
      key = (key << bits[i]) | (c[i] == kAbsent ? 0 : ranks[i].rank[c[i]] + 1);
    }
    entries.push_back(Entry{tuples_[pos].probability, key, pos});
  }
  std::sort(entries.begin(), entries.end(),
            [this, &row_less, packed](const Entry& a, const Entry& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              if (a.key != b.key) return a.key < b.key;
              return row_less(codes(a.pos), codes(b.pos), packed);
            });
  for (size_t i = 0; i < entries.size(); ++i) {
    (*positions)[i] = entries[i].pos;
  }
}

std::vector<AnswerTuple> AnswerSet::Sorted() const {
  return TopK(tuples_.size());
}

std::vector<AnswerTuple> AnswerSet::TopK(size_t k) const {
  CheckRows();
  std::vector<uint32_t> order(tuples_.size());
  std::iota(order.begin(), order.end(), 0u);
  Order(&order);
  order.resize(std::min(k, order.size()));
  std::vector<AnswerTuple> out;
  out.reserve(order.size());
  for (uint32_t pos : order) out.push_back(tuples_[pos]);
  return out;
}

bool AnswerSet::ApproxEquals(const AnswerSet& other, double eps) const {
  CheckRows();
  if (std::fabs(null_probability_ - other.null_probability_) > eps) {
    return false;
  }
  if (tuples_.size() != other.tuples_.size()) return false;
  // Neither set holds two equal tuples, so equal sizes plus a partner
  // for every tuple here make a one-to-one match. A NaN cell has no code
  // in the other set, so a NaN row finds none.
  std::vector<uint32_t> key;
  for (const AnswerTuple& t : tuples_) {
    const size_t match = other.FindRow(t.values, &key);
    if (match == other.tuples_.size()) return false;
    if (std::fabs(t.probability - other.tuples_[match].probability) > eps) {
      return false;
    }
  }
  return true;
}

std::string AnswerSet::ToString(size_t max_rows) const {
  CheckRows();
  std::string out = "(" + Join(column_names_, ", ") + ") [" +
                    std::to_string(tuples_.size()) + " tuples, P(θ)=" +
                    std::to_string(null_probability_) + "]\n";
  std::vector<uint32_t> order(tuples_.size());
  std::iota(order.begin(), order.end(), 0u);
  Order(&order);
  const size_t shown = std::min(max_rows, order.size());
  for (size_t i = 0; i < shown; ++i) {
    const AnswerTuple& t = tuples_[order[i]];
    out += "  (";
    for (size_t j = 0; j < t.values.size(); ++j) {
      if (j > 0) out += ", ";
      out += t.values[j].ToString();
    }
    out += ") p=" + std::to_string(t.probability) + "\n";
  }
  if (shown < order.size()) out += "  ...\n";
  return out;
}

}  // namespace reformulation
}  // namespace urm
