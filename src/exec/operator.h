#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/timer.h"
#include "exec/expr.h"
#include "storage/btree.h"
#include "storage/hash_index.h"
#include "storage/table.h"

namespace aidb::exec {

/// \brief Volcano-style physical operator.
///
/// Open -> Next* -> Close. Every operator tracks rows produced so the learned
/// optimizer and the performance-prediction monitor can harvest true
/// cardinalities and per-operator work after execution.
///
/// The public Open/Next/Close entry points are thin non-virtual wrappers
/// around the OpenImpl/NextImpl/CloseImpl virtuals: with tracing enabled
/// (EXPLAIN ANALYZE, or Database::EnableTracing) they additionally accumulate
/// per-operator wall time and call counts; with tracing off the wrapper is a
/// single predictable branch, keeping the instrumentation off the hot path.
class Operator {
 public:
  virtual ~Operator() = default;

  void Open() {
    // Plans are reused across executions (plan cache, EXECUTE): every run
    // must start from a clean slate or counters/errors from the previous
    // execution leak into this one.
    rows_produced_ = 0;
    fused_work_ = 0;
    next_calls_ = 0;
    elapsed_us_ = 0.0;
    error_ = Status::OK();
    worker_rows_.clear();
    if (!tracing_) {
      OpenImpl();
      return;
    }
    Timer t;
    OpenImpl();
    elapsed_us_ += t.ElapsedMicros();
  }

  /// Produces the next row into *out. Returns false at end of stream.
  bool Next(Tuple* out) {
    if (!tracing_) return NextImpl(out);
    Timer t;
    bool more = NextImpl(out);
    elapsed_us_ += t.ElapsedMicros();
    if (!counts_batches_) ++next_calls_;
    return more;
  }

  void Close() {
    if (!tracing_) {
      CloseImpl();
      return;
    }
    Timer t;
    CloseImpl();
    elapsed_us_ += t.ElapsedMicros();
  }

  const std::vector<OutputCol>& output() const { return output_; }
  const std::vector<std::unique_ptr<Operator>>& children() const {
    return children_;
  }
  virtual std::string Name() const = 0;
  /// Multi-line plan rendering, one line per operator indented two spaces
  /// per depth level: `Name [rows=N]` for EXPLAIN, `Name (AnalyzeStats)` for
  /// EXPLAIN ANALYZE (`analyze`), read from the run that just finished.
  std::string Describe(bool analyze = false, bool zero_time = false,
                       int indent = 0) const;
  /// EXPLAIN ANALYZE's per-operator fields, also the `detail` of the
  /// operator's `op:` span: `est=... rows=... batches=... time=...us`, plus
  /// ` workers=a+b+...` on a parallel scan. `zero_time` prints time=0us
  /// (deterministic-timing mode).
  std::string AnalyzeStats(bool zero_time) const;

  /// Enables/disables per-call timing on this operator and all children.
  void SetTracing(bool on) {
    tracing_ = on;
    for (auto& c : children_) c->SetTracing(on);
  }
  bool tracing() const { return tracing_; }

  /// Installs (or clears, with nullptr) a cancellation flag on this operator
  /// and all children. Injected at execution time — never baked into cached
  /// plans — so one physical plan can serve many statements, each with its
  /// own flag. Operators poll it at morsel/row-batch boundaries and end the
  /// stream with Status::Cancelled.
  void SetCancel(const std::atomic<bool>* cancel) {
    cancel_ = cancel;
    for (auto& c : children_) c->SetCancel(cancel);
  }

  /// Installs the statement's MVCC snapshot on this operator and all
  /// children. Injected per execution exactly like the cancel flag (and reset
  /// to the default latest-committed snapshot when a plan is checked back
  /// into the cache): scans filter version chains through it, so one cached
  /// physical plan serves statements from any transaction.
  void SetSnapshot(const txn::Snapshot& snap) {
    snap_ = snap;
    for (auto& c : children_) c->SetSnapshot(snap);
  }
  const txn::Snapshot& snapshot() const { return snap_; }

  size_t rows_produced() const { return rows_produced_; }
  /// Next() invocations while traced; on batch operators, batches pulled,
  /// whether a batch parent or a row parent pulls them (per-worker row
  /// counts of a parallel scan live in worker_rows()).
  uint64_t next_calls() const { return next_calls_; }
  /// Inclusive wall time (this operator and its children) while traced.
  double elapsed_us() const { return elapsed_us_; }

  /// Planner-estimated output cardinality; negative when unknown.
  double est_rows() const { return est_rows_; }
  void set_est_rows(double rows) { est_rows_ = rows; }

  /// Base relation this operator's rows_produced gives true cardinality for
  /// (set by the planner on the top of each scan chain); empty otherwise.
  /// The estimated-vs-actual feedback loop reads this after execution.
  const std::string& feedback_table() const { return feedback_table_; }
  void set_feedback_table(std::string table) { feedback_table_ = std::move(table); }

  /// Rows each worker of a parallel scan produced (empty on serial
  /// operators); the per-worker counts sum to rows_produced.
  const std::vector<uint64_t>& worker_rows() const { return worker_rows_; }

  /// Executed work of this operator and all its children: rows produced,
  /// plus the rows a fused scan handled internally (fused_work_). Both
  /// engines therefore count a drained scan-and-filter chain the same way.
  size_t TotalWork() const;

  /// First runtime error hit by this operator or any child. Next() ends the
  /// stream (returns false) when evaluation fails, so the executor must check
  /// this after draining a plan; a non-OK status invalidates the rows seen.
  Status FirstError() const;

 protected:
  virtual void OpenImpl() = 0;
  virtual bool NextImpl(Tuple* out) = 0;
  virtual void CloseImpl() {}

  /// Records a runtime error (first one wins) and ends the stream.
  bool Fail(Status s) {
    if (error_.ok()) error_ = std::move(s);
    return false;
  }

  /// True when the statement's cancellation flag is set.
  bool IsCancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  std::vector<OutputCol> output_;
  std::vector<std::unique_ptr<Operator>> children_;
  size_t rows_produced_ = 0;
  /// Rows a fused scan handled that a SeqScan+Filter chain would have
  /// produced from separate operators: each batch's visible rows and each
  /// non-final filter's survivors. Counted in TotalWork() only; EXPLAIN
  /// ANALYZE, op: spans and cardinality feedback read rows_produced_.
  size_t fused_work_ = 0;
  Status error_;
  bool tracing_ = false;
  /// Set by batch operators, which count next_calls_ per batch themselves.
  bool counts_batches_ = false;
  uint64_t next_calls_ = 0;
  double elapsed_us_ = 0.0;
  double est_rows_ = -1.0;
  std::string feedback_table_;
  std::vector<uint64_t> worker_rows_;
  const std::atomic<bool>* cancel_ = nullptr;  ///< not owned; per statement
  /// Statement snapshot; default-constructed = latest committed, which
  /// reproduces pre-MVCC behavior for plans run outside any transaction.
  txn::Snapshot snap_;

  friend class PlanVisitor;
};

/// Full-table scan.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(const Table* table, std::string effective_name);
  std::string Name() const override { return "SeqScan(" + label_ + ")"; }

 protected:
  void OpenImpl() override { cursor_ = 0; }
  bool NextImpl(Tuple* out) override;

 private:
  const Table* table_;
  std::string label_;
  RowId cursor_ = 0;
};

/// B+tree range scan: key in [lo, hi]. B+tree entries are never removed
/// eagerly (deletes are lazy, and version chains keep superseded keys
/// reachable for older snapshots), so the scan re-checks both visibility and
/// the key range against the tuple its snapshot actually sees — stale
/// entries degrade to wasted probes, never wrong rows.
class IndexScanOp : public Operator {
 public:
  /// `latch` (nullable) is the owning IndexInfo's content latch: the probe
  /// takes it shared because DML statements mutate the tree concurrently.
  IndexScanOp(const Table* table, const BTree* index, std::shared_mutex* latch,
              std::string effective_name, int key_col, int64_t lo, int64_t hi);
  std::string Name() const override;

 protected:
  void OpenImpl() override;
  bool NextImpl(Tuple* out) override;

 private:
  const Table* table_;
  const BTree* index_;
  std::shared_mutex* latch_;
  std::string label_;
  int key_col_;
  int64_t lo_, hi_;
  std::vector<RowId> matches_;
  size_t cursor_ = 0;
};

/// Predicate filter.
class FilterOp : public Operator {
 public:
  FilterOp(std::unique_ptr<Operator> child, BoundExpr predicate,
           std::string predicate_text);
  std::string Name() const override { return "Filter(" + text_ + ")"; }

 protected:
  void OpenImpl() override { children_[0]->Open(); }
  bool NextImpl(Tuple* out) override;
  void CloseImpl() override { children_[0]->Close(); }

 private:
  BoundExpr predicate_;
  std::string text_;
};

/// Computes a new row from expressions over the child row.
class ProjectOp : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, std::vector<BoundExpr> exprs,
            std::vector<OutputCol> out_schema);
  std::string Name() const override { return "Project"; }

 protected:
  void OpenImpl() override { children_[0]->Open(); }
  bool NextImpl(Tuple* out) override;
  void CloseImpl() override { children_[0]->Close(); }

 private:
  std::vector<BoundExpr> exprs_;
};

/// Tuple-nested-loop join with optional residual predicate (bound over the
/// concatenated schema). Inner side is materialized once.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
                   std::optional<BoundExpr> condition);
  std::string Name() const override { return "NestedLoopJoin"; }

 protected:
  void OpenImpl() override;
  bool NextImpl(Tuple* out) override;
  void CloseImpl() override;

 private:
  std::optional<BoundExpr> condition_;
  std::vector<Tuple> inner_rows_;
  Tuple outer_row_;
  bool outer_valid_ = false;
  size_t inner_cursor_ = 0;
};

/// Join-key hash used by every hash-join variant: numeric values that
/// compare equal hash equal across INT/DOUBLE.
uint64_t JoinKeyHash(const Value& v);

/// Hash join on a single equi-key per side; build side is the right child.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
             size_t left_key, size_t right_key);
  std::string Name() const override { return "HashJoin"; }

 protected:
  void OpenImpl() override;
  bool NextImpl(Tuple* out) override;
  void CloseImpl() override;

 private:
  size_t left_key_, right_key_;
  std::unordered_map<uint64_t, std::vector<Tuple>> build_;
  Tuple probe_row_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_cursor_ = 0;
};

/// Aggregate spec for HashAggregateOp.
struct AggSpec {
  sql::AggFunc func = sql::AggFunc::kCount;
  std::optional<BoundExpr> arg;  ///< empty for COUNT(*)
  std::string out_name;
};

/// Hash aggregation: GROUP BY key exprs, computing aggregate columns.
/// Output rows are [group keys..., aggregates...].
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(std::unique_ptr<Operator> child, std::vector<BoundExpr> keys,
                  std::vector<OutputCol> key_cols, std::vector<AggSpec> aggs);
  std::string Name() const override { return "HashAggregate"; }

 protected:
  void OpenImpl() override;
  bool NextImpl(Tuple* out) override;

 private:
  std::vector<BoundExpr> keys_;
  std::vector<AggSpec> aggs_;
  std::vector<Tuple> results_;
  size_t cursor_ = 0;
};

/// One sort key: column index + direction.
struct SortKey {
  size_t column;
  bool desc = false;
};

/// In-memory sort on one or more columns: rows in sort-key order, ties in
/// arrival order (a stable sort). Keys compare by Value::Compare, except
/// that a NaN, which Value::Compare finds unequal to everything, sorts
/// after every other number and ties with another NaN.
class SortOp : public Operator {
 public:
  static constexpr size_t kNoLimit = SIZE_MAX;

  /// `limit` bounds the rows anyone will pull (the statement's LIMIT, when
  /// the planner puts a LimitOp above the sort with at most a projection
  /// between them): the sort then emits only the first `limit` rows of the
  /// sorted order and holds at most twice that many at a time, instead of
  /// holding all of them. The child is drained either way, so its work and
  /// errors are the same.
  SortOp(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
         size_t limit = kNoLimit);
  std::string Name() const override {
    return "Sort(" + std::to_string(keys_.size()) + " keys)";
  }

 protected:
  void OpenImpl() override;
  bool NextImpl(Tuple* out) override;

 private:
  std::vector<SortKey> keys_;
  size_t limit_;
  std::vector<Tuple> rows_;
  size_t cursor_ = 0;
};

/// Removes duplicate rows (hash-based, preserves first-seen order).
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(std::unique_ptr<Operator> child);
  std::string Name() const override { return "Distinct"; }

 protected:
  void OpenImpl() override {
    children_[0]->Open();
    seen_.clear();
  }
  bool NextImpl(Tuple* out) override;
  void CloseImpl() override {
    children_[0]->Close();
    seen_.clear();
  }

 private:
  std::unordered_set<std::string> seen_;
};

/// LIMIT n.
class LimitOp : public Operator {
 public:
  LimitOp(std::unique_ptr<Operator> child, size_t limit);
  std::string Name() const override { return "Limit(" + std::to_string(limit_) + ")"; }

 protected:
  void OpenImpl() override {
    children_[0]->Open();
    seen_ = 0;
  }
  bool NextImpl(Tuple* out) override;
  void CloseImpl() override { children_[0]->Close(); }

 private:
  size_t limit_;
  size_t seen_ = 0;
};

/// In-memory materialized rows as a scan source (used for views and tests).
class ValuesOp : public Operator {
 public:
  ValuesOp(std::vector<Tuple> rows, std::vector<OutputCol> schema);
  std::string Name() const override { return "Values"; }

 protected:
  void OpenImpl() override { cursor_ = 0; }
  bool NextImpl(Tuple* out) override;

 private:
  std::vector<Tuple> rows_;
  size_t cursor_ = 0;
};

}  // namespace aidb::exec
