#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algebra/cover.h"
#include "relational/relation.h"

/// \file answer.h
/// Probabilistic query answers: a set of (tuple, probability) pairs as
/// defined in the paper's §III. Tuples produced under several mutually
/// exclusive mappings accumulate their mappings' probabilities; the
/// "no answer" outcome (the paper's null tuple θ) is tracked separately.

namespace urm {
namespace reformulation {

/// One answer tuple with its accumulated probability.
struct AnswerTuple {
  relational::Row values;
  double probability = 0.0;
};

/// \brief Accumulator and container for probabilistic answers.
///
/// Rows are compared by value (Value::operator==); answers are keyed on
/// the target-level output layout, so rows produced through different
/// mappings (different source attributes) merge when their values agree.
/// A row holding NaN equals nothing, so it never merges, and rows of
/// different widths never merge. Every method, top-k, threshold, set ops
/// and the sharded merge accumulate through this one class: tuples keep
/// their first-insertion order and each tuple's probability is summed in
/// call order, so the same sequence of calls yields the same bits.
///
/// Tuples are indexed by per-column dense codes: each answer column maps
/// the value classes of its cells (as Value::operator== and Value::Hash
/// define them) to uint32 codes, and a tuple is found by its code tuple,
/// never by comparing Values. Ordering runs on the same codes through
/// per-column ranks (Order).
class AnswerSet {
 public:
  AnswerSet() = default;
  explicit AnswerSet(std::vector<std::string> column_names)
      : column_names_(std::move(column_names)) {}

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }

  /// Accumulates `prob` onto the tuple equal to `row` (inserting it if
  /// new).
  void Add(const relational::Row& row, double prob);
  /// As above; `row` is moved in only when it starts a new tuple.
  void Add(relational::Row&& row, double prob);

  /// Accumulates one mapping partition's answer, read off its source
  /// query's `cover`: the answer row of a cover row holds its values at
  /// `columns` (positions in the cover's schema), NULL where an entry is
  /// negative. Each distinct answer row accumulates `prob` once, however
  /// many cover rows produce it (set semantics within a partition); new
  /// tuples append in first-occurrence order. Each picked cell of the
  /// cover is coded once per call and a row is found by its codes, so a
  /// row is built, from the cover's cells, only when it starts a new
  /// tuple (and not even then when rows are deferred). An empty cover is
  /// the θ outcome. With `touched`, appends the position of every tuple
  /// the call added `prob` to, new ones included, each once.
  void AddCover(const algebra::DistinctCover& cover,
                const std::vector<int>& columns, double prob,
                std::vector<uint32_t>* touched = nullptr);
  /// As above, reading every column of the cover in its own order.
  void AddCover(const algebra::DistinctCover& cover, double prob,
                std::vector<uint32_t>* touched = nullptr);

  /// Defers rows, for a set that returns few of its tuples (the top-k and
  /// threshold sinks): AddCover then keeps each cover that adds a tuple
  /// (a copy shares its factors) and records a new tuple's cover and row
  /// ordinal instead of building its row, and BuildRow builds the row
  /// from the cells AddCover would have copied. Every other reader of
  /// rows (tuples, Sorted, TopK, ToString, ApproxEquals, ApproxBytes,
  /// TakeTuples) and Add fail on such a set. Call on an empty set.
  void DeferRows();

  /// Accumulates onto the θ (empty result) outcome.
  void AddNull(double prob) { null_probability_ += prob; }

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  double null_probability() const { return null_probability_; }

  /// Tuples in first-insertion (accumulation) order — the deterministic
  /// raw view the sharded-evaluation merge replays, reweighting each
  /// shard's tuples by its probability mass in shard order.
  const std::vector<AnswerTuple>& tuples() const;

  /// The probability of the tuple at `pos` (an index into tuples()).
  double probability(size_t pos) const { return tuples_[pos].probability; }
  /// The row of the tuple at `pos`, built from its cover; rows must be
  /// deferred.
  relational::Row BuildRow(size_t pos) const;
  /// Moves the tuples out, in first-insertion order, and leaves the set
  /// empty.
  std::vector<AnswerTuple> TakeTuples() &&;

  /// Sum over tuples plus θ; ~1 for a complete evaluation.
  double TotalProbability() const;

  /// Puts tuple positions (indexes into tuples()) in presentation order:
  /// probability descending, ties by RowLess of the rows ascending. With
  /// `k`, std::partial_sort puts the first min(k, size) in order, else
  /// std::sort orders them all; either way the result is the
  /// permutation that sort gives over copied tuples compared the same
  /// way, NaN cells included (a NaN is equivalent to every number, above
  /// NULL and below strings, as under Value::operator<). Rows are
  /// compared through per-column ranks of their codes; a full order
  /// first compares the ranks of the leading NaN-free columns, packed
  /// into one 64-bit key per tuple.
  void Order(std::vector<uint32_t>* positions,
             std::optional<size_t> k = std::nullopt) const;

  /// Tuples sorted by probability (descending), ties broken by row
  /// order — a deterministic presentation (Order).
  std::vector<AnswerTuple> Sorted() const;

  /// The first k tuples of Sorted(); only those are copied.
  std::vector<AnswerTuple> TopK(size_t k) const;

  /// Approximate in-memory footprint of the answer tuples (used by the
  /// serving tier to weigh cached responses by bytes, not entry count).
  size_t ApproxBytes() const;

  /// Value-equality within `eps` on probabilities, order-insensitive.
  /// Used by tests to assert all evaluation methods agree.
  bool ApproxEquals(const AnswerSet& other, double eps = 1e-9) const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  /// No code: a class not seen yet, or a NaN cell, which gets a fresh
  /// code only when its row becomes a tuple. Real codes stay below it.
  static constexpr uint32_t kNoCode = UINT32_MAX - 1;

  /// The value classes of one answer column, each a dense code: `2` and
  /// `2.0` share one and NULL has one, while every NaN occurrence gets a
  /// fresh code that is never indexed, so a row holding NaN equals
  /// nothing.
  struct Column {
    /// The code of `value`'s class (`hash` = value.Hash()), added if new.
    uint32_t Code(const relational::Value& value, size_t hash) {
      const uint32_t code = Find(value, hash);
      return code != kNoCode ? code : Add(value, hash);
    }
    /// The code of `value`'s class, or kNoCode (always for NaN).
    uint32_t Find(const relational::Value& value, size_t hash) const;
    /// A new code for `value`, whose class has none: indexed, unless
    /// `value` is NaN.
    uint32_t Add(const relational::Value& value, size_t hash);

    std::vector<relational::Value> values;  ///< per code: its first member
    std::vector<size_t> hashes;             ///< per code: Value::Hash
    /// Open-addressing table (linear probing) of codes plus one; 0 marks
    /// an empty slot. Zero or a power of two, at least twice the codes.
    std::vector<uint32_t> slots;
  };

  /// Cells in the widest row so far: the codes per tuple.
  size_t width() const { return columns_.size(); }
  /// Code tuple of the tuple at `pos` (width() entries; kAbsent past the
  /// end of its row).
  const uint32_t* codes(size_t pos) const {
    return entries_.data() + pos * (width() + 1) + 1;
  }
  /// Position of the tuple whose codes are `key` (width() entries), hashed
  /// `hash`, or tuples_.size() when there is none.
  size_t Find(const uint32_t* key, size_t hash) const;
  /// Position of the tuple equal to `row`, found through the column
  /// dictionaries without adding to them, or tuples_.size(). `key` is
  /// scratch space.
  size_t FindRow(const relational::Row& row, std::vector<uint32_t>* key) const;
  /// Appends `values`, coded `key` and equal to no tuple yet, as a new
  /// tuple hashed `hash`, doubling the table when it would pass half full.
  void Insert(const uint32_t* key, size_t hash, relational::Row values,
              double prob);
  /// Rebuilds slots_ at `num_slots` slots.
  void Rehash(size_t num_slots);
  /// Makes room for rows `cells` wide: a wider row than any so far adds
  /// columns, and every tuple's codes are padded with kAbsent.
  void Widen(size_t cells);
  /// Starts a partition: a fresh stamp, clearing every tuple's stamp
  /// when the counter wraps.
  void NextStamp();
  /// Accumulates onto the tuple equal to `row`, or inserts it.
  template <typename RowRef>
  void Accumulate(RowRef&& row, double prob);
  /// Fails when rows are deferred: only BuildRow reads them then.
  void CheckRows() const;

  std::vector<std::string> column_names_;
  std::vector<AnswerTuple> tuples_;  ///< rows left empty when deferred
  /// Per tuple, width() + 1 entries: the partition stamp (the last
  /// AddCover call that counted it), then its code tuple.
  std::vector<uint32_t> entries_;
  std::vector<Column> columns_;  ///< one per cell of the widest row
  /// Open-addressing hash table (linear probing) of tuple positions
  /// plus one; 0 marks an empty slot. Its size is zero or a power of
  /// two, at least twice the tuple count.
  std::vector<uint32_t> slots_;
  uint32_t stamp_ = 0;  ///< AddCover calls so far, modulo the wrap
  double null_probability_ = 0.0;

  /// A cover that added tuples to a set with deferred rows, and the
  /// answer layout it was read with.
  struct KeptCover {
    algebra::DistinctCover cover;
    std::vector<int> columns;
  };
  /// Where a deferred tuple's row is: row `ordinal` of kept_[cover].
  struct RowSource {
    uint32_t cover;
    size_t ordinal;
  };
  bool defer_rows_ = false;
  std::vector<KeptCover> kept_;
  std::vector<RowSource> sources_;  ///< per tuple, when rows are deferred
};

}  // namespace reformulation
}  // namespace urm
