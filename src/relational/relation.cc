#include "relational/relation.h"

#include <unordered_set>

#include "common/hash_util.h"
#include "common/logging.h"

namespace urm {
namespace relational {

size_t HashRow(const Row& row) {
  size_t seed = kRowHashSeed;
  for (const Value& v : row) {
    HashCombine(seed, v.Hash());
  }
  return seed;
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

bool RowLess(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return a.size() < b.size();
}

std::shared_ptr<Relation::Backing> Relation::Backing::FromRows(
    std::vector<Row> r) {
  auto backing = std::make_shared<Backing>();
  backing->rows = std::make_shared<std::vector<Row>>(std::move(r));
  backing->rows_view.store(backing->rows.get(), std::memory_order_release);
  return backing;
}

std::shared_ptr<Relation::Backing> Relation::Backing::FromColumnar(
    columnar::ColumnarRelationPtr c) {
  auto backing = std::make_shared<Backing>();
  backing->columnar = std::move(c);
  backing->columnar_view.store(backing->columnar.get(),
                               std::memory_order_release);
  return backing;
}

Relation Relation::FromColumnar(RelationSchema schema,
                                columnar::ColumnarRelationPtr encoded) {
  URM_CHECK(encoded != nullptr);
  URM_CHECK(schema.num_columns() == encoded->num_columns())
      << "FromColumnar schema arity mismatch";
  Relation out;
  out.schema_ = std::move(schema);
  out.backing_ = Backing::FromColumnar(std::move(encoded));
  return out;
}

const std::vector<Row>& Relation::MaterializeRowsSlow() const {
  Backing& b = *backing_;
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.rows == nullptr) {
    auto rows = std::make_shared<std::vector<Row>>();
    b.columnar->MaterializeRows(rows.get());
    b.rows = std::move(rows);
    b.rows_view.store(b.rows.get(), std::memory_order_release);
  }
  return *b.rows;
}

columnar::ColumnarRelationPtr Relation::Columnar() const {
  if (backing_->columnar_view.load(std::memory_order_acquire) != nullptr) {
    return backing_->columnar;
  }
  // The encoding carries no row count of its own for 0-column shapes.
  if (schema_.num_columns() == 0) return nullptr;
  const std::vector<Row>& r = rows();  // materialize outside the lock
  Backing& b = *backing_;
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.columnar == nullptr) {
    // Assign the shared_ptr BEFORE publishing the view: the unlocked
    // fast path above acquire-loads the view and then copies
    // b.columnar without the mutex, so the copy must happen-after the
    // assignment (mirrors MaterializeRowsSlow).
    b.columnar = columnar::ColumnarRelation::Encode(schema_, r);
    b.columnar_view.store(b.columnar.get(), std::memory_order_release);
  }
  return b.columnar;
}

std::vector<Row>* Relation::MutableRows() {
  if (backing_.use_count() > 1) {
    // Shared with other relations (or caches): copy-on-write into a
    // fresh row-only backing. The cached encoding stays with the old
    // backing's other holders; it does not describe the rows about to
    // change.
    const std::vector<Row>& current = rows();
    backing_ = Backing::FromRows(current);
  } else {
    if (backing_->rows_view.load(std::memory_order_acquire) == nullptr) {
      rows();  // sole owner, but rows not yet materialized
    }
    if (backing_->columnar_view.load(std::memory_order_acquire) != nullptr) {
      // Invalidate the encoding before mutating: steal the row vector
      // into a fresh backing.
      auto fresh = std::make_shared<Backing>();
      fresh->rows = std::move(backing_->rows);
      fresh->rows_view.store(fresh->rows.get(), std::memory_order_release);
      backing_ = std::move(fresh);
    }
  }
  return backing_->rows.get();
}

Status Relation::AddRow(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()));
  }
  MutableRows()->push_back(std::move(row));
  return Status::OK();
}

Status Relation::AddRows(std::vector<Row> rows) {
  for (const Row& row : rows) {
    if (row.size() != schema_.num_columns()) {
      return Status::InvalidArgument(
          "row arity " + std::to_string(row.size()) + " != schema arity " +
          std::to_string(schema_.num_columns()));
    }
  }
  if (rows.empty()) return Status::OK();
  std::vector<Row>* dst = MutableRows();
  dst->reserve(dst->size() + rows.size());
  for (Row& row : rows) {
    dst->push_back(std::move(row));
  }
  return Status::OK();
}

Relation Relation::Gather(const columnar::SelectionVector& sel) const {
  Relation out(schema_);
  std::vector<Row>* dst = out.MutableRows();
  dst->reserve(sel.size());
  const std::vector<Row>* src =
      backing_->rows_view.load(std::memory_order_acquire);
  if (src != nullptr) {
    for (uint32_t i : sel) {
      URM_CHECK(i < src->size());
      dst->push_back((*src)[i]);
    }
    return out;
  }
  const columnar::ColumnarRelation* enc =
      backing_->columnar_view.load(std::memory_order_acquire);
  for (uint32_t i : sel) {
    dst->push_back(enc->MaterializeRow(i));
  }
  return out;
}

Result<Relation> Relation::WithSchema(RelationSchema schema) const {
  if (schema.num_columns() != schema_.num_columns()) {
    return Status::InvalidArgument("WithSchema arity mismatch");
  }
  Relation out = *this;
  out.schema_ = std::move(schema);
  return out;
}

Relation Relation::Distinct() const {
  Relation out(schema_);
  const std::vector<Row>& in = rows();
  std::unordered_set<size_t, RowRefHash, RowRefEq> seen(
      16, RowRefHash{&in}, RowRefEq{&in});
  for (size_t i = 0; i < in.size(); ++i) {
    if (seen.insert(i).second) {
      URM_CHECK_OK(out.AddRow(in[i]));
    }
  }
  return out;
}

Result<Relation> Relation::Project(
    const std::vector<std::string>& names) const {
  auto sub = schema_.Select(names);
  if (!sub.ok()) return sub.status();
  std::vector<size_t> idx;
  idx.reserve(names.size());
  for (const auto& n : names) {
    idx.push_back(*schema_.IndexOf(n));
  }
  Relation out(std::move(sub).ValueOrDie());
  out.Reserve(num_rows());
  for (const Row& r : rows()) {
    Row proj;
    proj.reserve(idx.size());
    for (size_t i : idx) proj.push_back(r[i]);
    URM_CHECK_OK(out.AddRow(std::move(proj)));
  }
  return out;
}

Result<Relation> Relation::Product(const Relation& other) const {
  auto schema = schema_.Concat(other.schema_);
  if (!schema.ok()) return schema.status();
  Relation out(std::move(schema).ValueOrDie());
  out.Reserve(num_rows() * other.num_rows());
  for (const Row& a : rows()) {
    for (const Row& b : other.rows()) {
      Row combined = a;
      combined.insert(combined.end(), b.begin(), b.end());
      URM_CHECK_OK(out.AddRow(std::move(combined)));
    }
  }
  return out;
}

size_t ApproxRowBytes(const Row& row) {
  size_t bytes = 0;
  for (const Value& v : row) bytes += ApproxValueBytes(v);
  return bytes;
}

size_t Relation::ApproxBytes() const {
  const std::vector<Row>* p =
      backing_->rows_view.load(std::memory_order_acquire);
  if (p == nullptr) {
    return backing_->columnar_view.load(std::memory_order_acquire)
        ->LogicalBytes();
  }
  size_t bytes = 0;
  for (const Row& r : *p) bytes += ApproxRowBytes(r);
  return bytes;
}

std::string Relation::ToString(size_t max_rows) const {
  std::string out = schema_.ToString();
  out += " [" + std::to_string(num_rows()) + " rows]\n";
  size_t shown = std::min(max_rows, num_rows());
  for (size_t i = 0; i < shown; ++i) {
    out += "  ";
    const Row& r = rows()[i];
    for (size_t j = 0; j < r.size(); ++j) {
      if (j > 0) out += " | ";
      out += r[j].ToString();
    }
    out += "\n";
  }
  if (shown < num_rows()) out += "  ...\n";
  return out;
}

}  // namespace relational
}  // namespace urm
