#pragma once

#include <cstdint>
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
/// A row holding NaN equals nothing, so it never merges. Every method,
/// top-k, threshold, set ops and the sharded merge accumulate through
/// this one class: tuples keep their first-insertion order and each
/// tuple's probability is summed in call order, so the same sequence of
/// calls yields the same bits.
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
  /// tuples append in first-occurrence order. A row is hashed by
  /// chaining the cover's cached cell hashes (HashRow of the answer
  /// row) and compared in place, so it is built only when it starts a
  /// new tuple. An empty cover is the θ outcome.
  void AddCover(const algebra::DistinctCover& cover,
                const std::vector<int>& columns, double prob);
  /// As above, reading every column of the cover in its own order.
  void AddCover(const algebra::DistinctCover& cover, double prob);

  /// Accumulates onto the θ (empty result) outcome.
  void AddNull(double prob) { null_probability_ += prob; }

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  double null_probability() const { return null_probability_; }

  /// Tuples in first-insertion (accumulation) order — the deterministic
  /// raw view the sharded-evaluation merge replays, reweighting each
  /// shard's tuples by its probability mass in shard order.
  const std::vector<AnswerTuple>& tuples() const { return tuples_; }

  /// Sum over tuples plus θ; ~1 for a complete evaluation.
  double TotalProbability() const;

  /// Tuples sorted by probability (descending), ties broken by row
  /// order — a deterministic presentation.
  std::vector<AnswerTuple> Sorted() const;

  /// The k highest-probability tuples (ties broken deterministically).
  std::vector<AnswerTuple> TopK(size_t k) const;

  /// Approximate in-memory footprint of the answer tuples (used by the
  /// serving tier to weigh cached responses by bytes, not entry count).
  size_t ApproxBytes() const;

  /// Value-equality within `eps` on probabilities, order-insensitive.
  /// Used by tests to assert all evaluation methods agree.
  bool ApproxEquals(const AnswerSet& other, double eps = 1e-9) const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Index data of one tuple, parallel to tuples_.
  struct TupleMeta {
    size_t hash = 0;     ///< HashRow(values), reused on probe and growth
    uint64_t stamp = 0;  ///< the last AddCover call that counted it
  };

  /// Position of the tuple whose hash is `hash` and whose values satisfy
  /// `equal`, or tuples_.size() when there is none.
  template <typename Equal>
  size_t Find(size_t hash, const Equal& equal) const;
  /// Appends `values`, which equal no tuple yet, as a new tuple hashed
  /// `hash`, doubling the table when it would pass half full.
  void Insert(size_t hash, relational::Row values, double prob);
  /// Accumulates onto the tuple equal to `row`, or inserts it.
  template <typename RowRef>
  void Accumulate(RowRef&& row, double prob);

  std::vector<std::string> column_names_;
  std::vector<AnswerTuple> tuples_;
  std::vector<TupleMeta> meta_;
  /// Open-addressing hash table (linear probing) of tuple positions
  /// plus one; 0 marks an empty slot. Its size is zero or a power of
  /// two, at least twice the tuple count.
  std::vector<uint32_t> slots_;
  uint64_t stamp_ = 0;  ///< AddCover calls so far
  double null_probability_ = 0.0;
};

}  // namespace reformulation
}  // namespace urm
