#include "exec/operator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "exec/agg_state.h"

namespace aidb::exec {

namespace {

/// Integral values print without a fraction so deterministic EXPLAIN
/// ANALYZE output stays byte-stable.
std::string FormatDouble(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

std::string Operator::Describe(bool analyze, bool zero_time, int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Name();
  out += analyze ? " (" + AnalyzeStats(zero_time) + ")"
                 : " [rows=" + std::to_string(rows_produced_) + "]";
  out += "\n";
  for (const auto& c : children_) {
    out += c->Describe(analyze, zero_time, indent + 1);
  }
  return out;
}

std::string Operator::AnalyzeStats(bool zero_time) const {
  std::string out = "est=";
  out += est_rows_ < 0 ? "?" : FormatDouble(est_rows_);
  out += " rows=" + std::to_string(rows_produced_);
  out += " batches=" + std::to_string(next_calls_);
  out += " time=" + FormatDouble(zero_time ? 0.0 : elapsed_us_) + "us";
  for (size_t i = 0; i < worker_rows_.size(); ++i) {
    out += i == 0 ? " workers=" : "+";
    out += std::to_string(worker_rows_[i]);
  }
  return out;
}

size_t Operator::TotalWork() const {
  size_t w = rows_produced_ + fused_work_;
  for (const auto& c : children_) w += c->TotalWork();
  return w;
}

Status Operator::FirstError() const {
  if (!error_.ok()) return error_;
  for (const auto& c : children_) {
    Status s = c->FirstError();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// ----- SeqScan -----

SeqScanOp::SeqScanOp(const Table* table, std::string effective_name)
    : table_(table), label_(std::move(effective_name)) {
  for (const auto& col : table->schema().columns()) {
    output_.push_back({label_, col.name, col.type});
  }
}

bool SeqScanOp::NextImpl(Tuple* out) {
  while (cursor_ < table_->NumSlots()) {
    RowId id = cursor_++;
    // Poll the statement's cancel flag at a coarse stride: SeqScan feeds
    // every serial pipeline, so this bounds cancellation latency without a
    // per-row atomic load.
    if ((id & 511) == 0 && IsCancelled()) {
      return Fail(Status::Cancelled("query cancelled during scan"));
    }
    const Tuple* row = table_->VisibleAt(id, snap_);
    if (row == nullptr) continue;
    *out = *row;
    ++rows_produced_;
    return true;
  }
  return false;
}

// ----- IndexScan -----

IndexScanOp::IndexScanOp(const Table* table, const BTree* index,
                         std::shared_mutex* latch, std::string effective_name,
                         int key_col, int64_t lo, int64_t hi)
    : table_(table),
      index_(index),
      latch_(latch),
      label_(std::move(effective_name)),
      key_col_(key_col),
      lo_(lo),
      hi_(hi) {
  for (const auto& col : table->schema().columns()) {
    output_.push_back({label_, col.name, col.type});
  }
}

void IndexScanOp::OpenImpl() {
  {
    std::shared_lock<std::shared_mutex> latch;
    if (latch_ != nullptr) latch = std::shared_lock<std::shared_mutex>(*latch_);
    matches_ = index_->RangeScan(lo_, hi_);
  }
  cursor_ = 0;
  // Entries are never erased, and an update that moves a row back to a key
  // it once held re-adds the pair, so one row id can surface twice in one
  // probe (stale key + current key, or a duplicate pair). Emitting a row
  // once per id is the operator's contract; dedupe preserving probe order.
  std::unordered_set<RowId> seen;
  size_t w = 0;
  for (RowId id : matches_) {
    if (seen.insert(id).second) matches_[w++] = id;
  }
  matches_.resize(w);
}

bool IndexScanOp::NextImpl(Tuple* out) {
  while (cursor_ < matches_.size()) {
    RowId id = matches_[cursor_++];
    const Tuple* row = table_->VisibleAt(id, snap_);
    if (row == nullptr) continue;  // lazy-deleted / not visible to snapshot
    // The entry may index a different version's key than the one this
    // snapshot sees; the range predicate was consumed by the index probe, so
    // it must hold on the visible tuple.
    const Value& key = (*row)[static_cast<size_t>(key_col_)];
    if (key.is_null()) continue;
    int64_t k = key.type() == ValueType::kInt
                    ? key.AsInt()
                    : static_cast<int64_t>(key.AsDouble());
    if (k < lo_ || k > hi_) continue;
    *out = *row;
    ++rows_produced_;
    return true;
  }
  return false;
}

std::string IndexScanOp::Name() const {
  return "IndexScan(" + label_ + " [" + std::to_string(lo_) + "," +
         std::to_string(hi_) + "])";
}

// ----- Filter -----

FilterOp::FilterOp(std::unique_ptr<Operator> child, BoundExpr predicate,
                   std::string predicate_text)
    : predicate_(std::move(predicate)), text_(std::move(predicate_text)) {
  output_ = child->output();
  children_.push_back(std::move(child));
}

bool FilterOp::NextImpl(Tuple* out) {
  while (children_[0]->Next(out)) {
    Result<bool> keep = predicate_.EvalBool(*out);
    if (!keep.ok()) return Fail(keep.status());
    if (keep.ValueOrDie()) {
      ++rows_produced_;
      return true;
    }
  }
  return false;
}

// ----- Project -----

ProjectOp::ProjectOp(std::unique_ptr<Operator> child, std::vector<BoundExpr> exprs,
                     std::vector<OutputCol> out_schema)
    : exprs_(std::move(exprs)) {
  output_ = std::move(out_schema);
  children_.push_back(std::move(child));
}

bool ProjectOp::NextImpl(Tuple* out) {
  Tuple in;
  if (!children_[0]->Next(&in)) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const auto& e : exprs_) {
    Result<Value> v = e.Eval(in);
    if (!v.ok()) return Fail(v.status());
    out->push_back(std::move(v).ValueOrDie());
  }
  ++rows_produced_;
  return true;
}

// ----- NestedLoopJoin -----

NestedLoopJoinOp::NestedLoopJoinOp(std::unique_ptr<Operator> left,
                                   std::unique_ptr<Operator> right,
                                   std::optional<BoundExpr> condition)
    : condition_(std::move(condition)) {
  output_ = left->output();
  for (const auto& c : right->output()) output_.push_back(c);
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

void NestedLoopJoinOp::OpenImpl() {
  children_[0]->Open();
  children_[1]->Open();
  inner_rows_.clear();
  Tuple row;
  while (children_[1]->Next(&row)) inner_rows_.push_back(row);
  outer_valid_ = false;
  inner_cursor_ = 0;
}

bool NestedLoopJoinOp::NextImpl(Tuple* out) {
  for (;;) {
    if (!outer_valid_) {
      if (!children_[0]->Next(&outer_row_)) return false;
      outer_valid_ = true;
      inner_cursor_ = 0;
    }
    while (inner_cursor_ < inner_rows_.size()) {
      const Tuple& inner = inner_rows_[inner_cursor_++];
      *out = outer_row_;
      out->insert(out->end(), inner.begin(), inner.end());
      bool keep = true;
      if (condition_) {
        Result<bool> k = condition_->EvalBool(*out);
        if (!k.ok()) return Fail(k.status());
        keep = k.ValueOrDie();
      }
      if (keep) {
        ++rows_produced_;
        return true;
      }
    }
    outer_valid_ = false;
  }
}

void NestedLoopJoinOp::CloseImpl() {
  children_[0]->Close();
  children_[1]->Close();
  inner_rows_.clear();
}

// ----- HashJoin -----

uint64_t JoinKeyHash(const Value& v) {
  // Numeric values that compare equal must hash equal across INT/DOUBLE.
  if (v.type() == ValueType::kInt || v.type() == ValueType::kDouble) {
    return std::hash<double>{}(v.AsDouble());
  }
  return v.Hash();
}

HashJoinOp::HashJoinOp(std::unique_ptr<Operator> left,
                       std::unique_ptr<Operator> right, size_t left_key,
                       size_t right_key)
    : left_key_(left_key), right_key_(right_key) {
  output_ = left->output();
  for (const auto& c : right->output()) output_.push_back(c);
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

void HashJoinOp::OpenImpl() {
  children_[0]->Open();
  children_[1]->Open();
  build_.clear();
  Tuple row;
  while (children_[1]->Next(&row)) {
    const Value& key = row[right_key_];
    if (key.is_null()) continue;
    build_[JoinKeyHash(key)].push_back(row);
  }
  matches_ = nullptr;
  match_cursor_ = 0;
}

bool HashJoinOp::NextImpl(Tuple* out) {
  for (;;) {
    if (matches_ != nullptr) {
      while (match_cursor_ < matches_->size()) {
        const Tuple& inner = (*matches_)[match_cursor_++];
        // Re-check equality (hash collisions).
        if (inner[right_key_].Compare(probe_row_[left_key_]) != 0) continue;
        *out = probe_row_;
        out->insert(out->end(), inner.begin(), inner.end());
        ++rows_produced_;
        return true;
      }
      matches_ = nullptr;
    }
    if (!children_[0]->Next(&probe_row_)) return false;
    const Value& key = probe_row_[left_key_];
    if (key.is_null()) continue;
    auto it = build_.find(JoinKeyHash(key));
    if (it == build_.end()) continue;
    matches_ = &it->second;
    match_cursor_ = 0;
  }
}

void HashJoinOp::CloseImpl() {
  children_[0]->Close();
  children_[1]->Close();
  build_.clear();
}

// ----- HashAggregate -----

HashAggregateOp::HashAggregateOp(std::unique_ptr<Operator> child,
                                 std::vector<BoundExpr> keys,
                                 std::vector<OutputCol> key_cols,
                                 std::vector<AggSpec> aggs)
    : keys_(std::move(keys)), aggs_(std::move(aggs)) {
  output_ = std::move(key_cols);
  for (const auto& a : aggs_) {
    output_.push_back({"", a.out_name, ValueType::kDouble});
  }
  children_.push_back(std::move(child));
}

void HashAggregateOp::OpenImpl() {
  children_[0]->Open();
  results_.clear();
  cursor_ = 0;

  GroupTable groups(keys_.size());
  // A no-key aggregate has its one group even over empty input: finalizing
  // its empty accumulators yields COUNT 0 and NULL for the rest.
  if (keys_.empty()) groups.FindOrInsert(Tuple{});
  std::vector<std::vector<AggAcc>> accs(aggs_.size());
  Tuple row;
  Tuple key;
  while (children_[0]->Next(&row)) {
    key.clear();
    for (const auto& k : keys_) {
      Result<Value> v = k.Eval(row);
      if (!v.ok()) {
        Fail(v.status());
        return;  // results_ stays empty; the executor sees FirstError()
      }
      key.push_back(std::move(v).ValueOrDie());
    }
    const uint32_t g = groups.FindOrInsert(key);
    for (size_t i = 0; i < aggs_.size(); ++i) {
      if (accs[i].size() <= g) accs[i].resize(groups.size());
      double v = 0.0;  // COUNT(*)
      if (aggs_[i].arg) {
        Result<Value> val = aggs_[i].arg->Eval(row);
        if (!val.ok()) {
          Fail(val.status());
          return;
        }
        if (val.ValueOrDie().is_null()) continue;  // NULL arguments skipped
        v = val.ValueOrDie().AsFeature();
      }
      accs[i][g].Fold(v);
    }
  }

  results_.reserve(groups.size());
  for (uint32_t g = 0; g < groups.size(); ++g) {
    Tuple out;
    out.reserve(keys_.size() + aggs_.size());
    for (size_t k = 0; k < keys_.size(); ++k) out.push_back(groups.KeyAt(k, g));
    for (size_t i = 0; i < aggs_.size(); ++i) {
      out.push_back(FinalizeAgg(aggs_[i].func,
                                g < accs[i].size() ? accs[i][g] : AggAcc{}));
    }
    results_.push_back(std::move(out));
  }
}

bool HashAggregateOp::NextImpl(Tuple* out) {
  if (cursor_ >= results_.size()) return false;
  *out = results_[cursor_++];
  ++rows_produced_;
  return true;
}

// ----- Sort -----

SortOp::SortOp(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
               size_t limit)
    : keys_(std::move(keys)), limit_(limit) {
  output_ = child->output();
  children_.push_back(std::move(child));
}

namespace {

bool IsNaN(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.AsDouble());
}

/// Value::Compare made a total order for sorting (see SortOp): a NaN sorts
/// after every other number, before every string, and ties with a NaN.
int SortCompare(const Value& a, const Value& b) {
  const bool an = IsNaN(a), bn = IsNaN(b);
  if (!an && !bn) return a.Compare(b);
  if (an && bn) return 0;
  const Value& other = an ? b : a;
  const int nan_vs_other = other.type() == ValueType::kString ? -1 : 1;
  return an ? nan_vs_other : -nan_vs_other;
}

}  // namespace

void SortOp::OpenImpl() {
  children_[0]->Open();
  rows_.clear();
  cursor_ = 0;
  auto before = [this](const Tuple& a, const Tuple& b) {
    for (const SortKey& k : keys_) {
      int c = SortCompare(a[k.column], b[k.column]);
      if (c != 0) return k.desc ? c > 0 : c < 0;
    }
    return false;
  };
  auto sort_rows = [&] {
    std::stable_sort(rows_.begin(), rows_.end(), before);
    if (rows_.size() > limit_) rows_.resize(limit_);
  };
  // Top-N: under a LIMIT, the buffer is sorted and cut back to its first
  // `limit_` rows whenever it reaches twice that. After a cut, a row that is
  // not before the last kept one cannot be among the first `limit_` (every
  // kept row precedes it, by key or by arrival), so it is skipped. A cut row
  // already trailed `limit_` others, and the stable sort keeps ties in
  // arrival order, so the output is exactly the unbounded sort's prefix.
  const size_t cut_at = limit_ == kNoLimit ? kNoLimit : 2 * limit_;
  bool cut = limit_ == 0;  // LIMIT 0 keeps nothing
  Tuple row;
  while (children_[0]->Next(&row)) {
    if (cut && (limit_ == 0 || !before(row, rows_[limit_ - 1]))) continue;
    rows_.push_back(std::move(row));
    if (rows_.size() >= cut_at) {
      sort_rows();
      cut = true;
    }
  }
  sort_rows();
}

bool SortOp::NextImpl(Tuple* out) {
  if (cursor_ >= rows_.size()) return false;
  *out = rows_[cursor_++];
  ++rows_produced_;
  return true;
}

// ----- Limit -----

LimitOp::LimitOp(std::unique_ptr<Operator> child, size_t limit) : limit_(limit) {
  output_ = child->output();
  children_.push_back(std::move(child));
}

bool LimitOp::NextImpl(Tuple* out) {
  if (seen_ >= limit_) return false;
  if (!children_[0]->Next(out)) return false;
  ++seen_;
  ++rows_produced_;
  return true;
}

// ----- Distinct -----

DistinctOp::DistinctOp(std::unique_ptr<Operator> child) {
  output_ = child->output();
  children_.push_back(std::move(child));
}

bool DistinctOp::NextImpl(Tuple* out) {
  while (children_[0]->Next(out)) {
    // Serialized-value key: exact (ToString is injective enough because it
    // quotes strings and tags NULLs).
    std::string key;
    for (const Value& v : *out) {
      key += v.ToString();
      key += '\x1f';
    }
    if (seen_.insert(std::move(key)).second) {
      ++rows_produced_;
      return true;
    }
  }
  return false;
}

// ----- Values -----

ValuesOp::ValuesOp(std::vector<Tuple> rows, std::vector<OutputCol> schema)
    : rows_(std::move(rows)) {
  output_ = std::move(schema);
}

bool ValuesOp::NextImpl(Tuple* out) {
  if (cursor_ >= rows_.size()) return false;
  *out = rows_[cursor_++];
  ++rows_produced_;
  return true;
}

}  // namespace aidb::exec
