#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exec/agg_state.h"
#include "exec/parallel.h"
#include "exec/vec/batch.h"
#include "exec/vec/vec_expr.h"

namespace aidb::exec {

class ColumnCache;
struct MirrorColumn;
struct LivenessMap;

/// \brief Base of the batch-at-a-time operators.
///
/// A VecOperator is still an Operator: it plugs into the same plan trees,
/// EXPLAIN rendering, tracing, cancellation and FirstError() machinery, and
/// any row operator (Sort, Distinct, Limit, the executor's drain loop) can
/// sit on top of one — NextImpl transparently drains batches row by row. The
/// batch protocol is the public NextBatch(), which vectorized parents call
/// instead, so a chain of VecOperators moves whole columns and touches no
/// Tuple until the first row consumer.
///
/// Error protocol: a per-row evaluation failure never aborts a kernel
/// mid-batch. The operator that owns the expressions finds the lowest
/// *selected* errored row, emits the rows before it (exactly what the scalar
/// engine would have produced before failing), stores the scalar twin's
/// Status, and Fails with it on the next NextBatch call. Deferring the Fail
/// keeps LIMIT semantics identical to volcano: if the consumer stops pulling
/// before the error row would have been reached, no error surfaces — same as
/// a volcano pipeline that never evaluates that row.
class VecOperator : public Operator {
 public:
  VecOperator() { counts_batches_ = true; }

  /// Produces the next batch. Returns false at end of stream (or on error —
  /// check FirstError()). Mirrors Operator::Next's tracing wrapper;
  /// next_calls() counts batches for vectorized operators.
  bool NextBatch(Batch* out) {
    if (!tracing_) return NextBatchImpl(out);
    Timer t;
    bool more = NextBatchImpl(out);
    elapsed_us_ += t.ElapsedMicros();
    ++next_calls_;
    return more;
  }

 protected:
  void OpenImpl() final {
    drain_.Clear();
    drain_pos_ = 0;
    drain_valid_ = false;
    VecOpenImpl();
  }

  /// Row-at-a-time view for row parents: drains batches internally. Calls
  /// NextBatchImpl directly (not NextBatch) so traced time is not counted
  /// twice, and does not bump rows_produced_ — NextBatchImpl already counts
  /// the batch's rows. next_calls_ counts the batches pulled, as NextBatch
  /// does, not the rows handed out.
  bool NextImpl(Tuple* out) final {
    for (;;) {
      if (drain_valid_ && drain_pos_ < drain_.ActiveCount()) {
        *out = drain_.MaterializeRow(drain_.ActiveRow(drain_pos_++));
        return true;
      }
      if (tracing_) ++next_calls_;
      drain_valid_ = NextBatchImpl(&drain_);
      drain_pos_ = 0;
      if (!drain_valid_) return false;
    }
  }

  virtual void VecOpenImpl() = 0;
  virtual bool NextBatchImpl(Batch* out) = 0;

  /// Pulls one batch from `child`, whichever protocol it speaks: vectorized
  /// children hand over their batch; row children are drained up to
  /// kBatchRows rows into generic columns. Returns false at end of stream.
  bool FetchChildBatch(Operator* child, Batch* out);

 private:
  Batch drain_;
  size_t drain_pos_ = 0;
  bool drain_valid_ = false;
};

/// Working storage of one scanning thread, reused window after window so the
/// steady state of a scan allocates nothing.
struct ScanScratch {
  /// The window's live slots, refined to its survivors, in a prefix.
  std::vector<RowId> live;
  std::vector<const Tuple*> rows;  ///< visible tuple per live slot
  /// One dictionary index per table column (string columns use theirs).
  std::vector<std::unordered_map<std::string, int32_t>> dicts;
  std::vector<uint32_t> sel;
};

/// Sequential scan with every local predicate fused in. Where a window's
/// column mirrors and liveness bitmap are fresh, it selects first and
/// gathers second: the leading `column <cmp> numeric-literal` filters refine
/// the window's live slot list straight from the mirrors, and only the
/// survivors are gathered into a dense batch. Elsewhere it builds typed
/// columns from the table and refines a selection vector per filter.
class VecScanOp : public VecOperator {
 public:
  /// `used_cols` is the planner's column-pruning mask (empty = materialize
  /// everything): columns with a 0 slot become all-NULL placeholder columns
  /// the statement provably never reads. `cache` (optional) supplies
  /// slot-major column mirrors; columns it covers are gathered from
  /// contiguous arrays instead of extracted tuple by tuple.
  VecScanOp(const Table* table, std::string effective_name,
            std::vector<VecExpr> filters, std::vector<BoundExpr> scalar_filters,
            std::vector<std::string> filter_texts,
            std::vector<uint8_t> used_cols = {}, ColumnCache* cache = nullptr);
  std::string Name() const override;

 protected:
  void VecOpenImpl() override;
  bool NextBatchImpl(Batch* out) override;

 private:
  const Table* table_;
  std::string label_;
  std::vector<VecExpr> filters_;
  std::vector<BoundExpr> scalar_filters_;  ///< twins, for exact error Statuses
  std::vector<std::string> filter_texts_;
  RowId cursor_ = 0;
  Status deferred_;  ///< error to surface once the rows before it are emitted
  /// Indices of the columns to materialize (from the pruning mask).
  std::vector<size_t> active_cols_;
  std::vector<uint8_t> used_cols_;
  ColumnCache* cache_ = nullptr;
  /// Per table column: the slot-major mirror to gather from (null = extract
  /// from the row store). Resolved per execution in VecOpenImpl so a
  /// prepared statement re-executed after DML picks up a fresh mirror.
  std::vector<std::shared_ptr<const MirrorColumn>> cached_cols_;
  /// The active columns without a mirror — the row-major extraction set.
  std::vector<size_t> row_cols_;
  /// Cached slot-major liveness bitmap (null = per-slot chain walk); only
  /// resolved when row_cols_ is empty, and honored per batch — for morsels
  /// whose stamp is fresh and which are quiescent for the snapshot.
  std::shared_ptr<const LivenessMap> liveness_;
  /// Whole-table fast path: the table is quiescent for the snapshot and every
  /// resolved source is fully stamped at the current data version, so every
  /// batch may use the mirrors without per-morsel checks.
  bool table_quiescent_ = false;
  ScanScratch scratch_;
};

/// Morsel-parallel vectorized scan: workers claim kMorselRows-slot morsels
/// and build the same batch windows the serial VecScanOp would (kMorselRows
/// is a multiple of kBatchRows), then batches stream in morsel order — so
/// row order, and the first error surfaced, are identical to the serial scan
/// at any dop. The buffered batches hold only the rows that passed the
/// fused filters.
class VecParallelScanOp : public VecOperator {
 public:
  VecParallelScanOp(const Table* table, std::string effective_name,
                    std::vector<VecExpr> filters,
                    std::vector<BoundExpr> scalar_filters,
                    std::vector<std::string> filter_texts,
                    std::vector<uint8_t> used_cols, ColumnCache* cache,
                    ParallelContext ctx);
  std::string Name() const override;

 protected:
  void VecOpenImpl() override;
  bool NextBatchImpl(Batch* out) override;
  void CloseImpl() override;

 private:
  const Table* table_;
  std::string label_;
  std::vector<VecExpr> filters_;
  std::vector<BoundExpr> scalar_filters_;
  std::vector<std::string> filter_texts_;
  std::vector<size_t> active_cols_;  ///< columns to materialize (shared, const)
  std::vector<uint8_t> used_cols_;
  ColumnCache* cache_ = nullptr;
  /// Mirrors + row-extraction set, resolved once per execution; workers read
  /// them concurrently (shared_ptr copies are not needed — the vector lives
  /// for the whole scan).
  std::vector<std::shared_ptr<const MirrorColumn>> cached_cols_;
  std::vector<size_t> row_cols_;
  std::shared_ptr<const LivenessMap> liveness_;
  bool table_quiescent_ = false;
  ParallelContext ctx_;
  std::vector<std::vector<Batch>> morsels_;  ///< buffered batches, per morsel
  size_t morsel_cursor_ = 0;
  size_t batch_cursor_ = 0;
  Status deferred_;
};

/// Predicate filter over batches: refines the child's selection vector in
/// place — no row data moves.
class VecFilterOp : public VecOperator {
 public:
  VecFilterOp(std::unique_ptr<Operator> child, VecExpr predicate,
              BoundExpr scalar_predicate, std::string predicate_text);
  std::string Name() const override { return "VecFilter(" + text_ + ")"; }

 protected:
  void VecOpenImpl() override {
    deferred_ = Status::OK();
    children_[0]->Open();
  }
  bool NextBatchImpl(Batch* out) override;
  void CloseImpl() override { children_[0]->Close(); }

 private:
  VecExpr predicate_;
  BoundExpr scalar_predicate_;
  std::string text_;
  Status deferred_;
  VecColumn pred_scratch_;
  std::vector<uint32_t> sel_scratch_;
};

/// Computes output columns from expressions over the child batch; the child's
/// selection vector carries through.
class VecProjectOp : public VecOperator {
 public:
  VecProjectOp(std::unique_ptr<Operator> child, std::vector<VecExpr> exprs,
               std::vector<BoundExpr> scalar_exprs,
               std::vector<OutputCol> out_schema);
  std::string Name() const override { return "VecProject"; }

 protected:
  void VecOpenImpl() override {
    deferred_ = Status::OK();
    children_[0]->Open();
  }
  bool NextBatchImpl(Batch* out) override;
  void CloseImpl() override { children_[0]->Close(); }

 private:
  std::vector<VecExpr> exprs_;
  std::vector<BoundExpr> scalar_exprs_;
  Status deferred_;
  Batch input_;
};

/// Hash join consuming and producing batches; the build side is the right
/// child.
///
/// The build drains the right child once into a columnar store (typed
/// columns stay typed; string codes re-map into one store dictionary),
/// grouped by join key with each key's rows in arrival order — the order
/// HashJoinOp's buckets hold them in. Key equality is Value::Compare's,
/// which HashJoinOp re-checks within its JoinKeyHash buckets: numbers meet
/// in double space (INT 1 joins DOUBLE 1.0), strings by bytes, NULL and NaN
/// never. A probe batch is looked up whole and expanded into (probe row,
/// build row) index pairs — probe rows in order, each one's matches in
/// arrival order, so rows come out in HashJoinOp's order — and every output
/// column is gathered from those pairs, at most kBatchRows at a time;
/// pruned all-NULL columns cost nothing.
class VecHashJoinOp : public VecOperator {
 public:
  VecHashJoinOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
                size_t left_key, size_t right_key);
  std::string Name() const override { return "VecHashJoin"; }

 protected:
  void VecOpenImpl() override;
  bool NextBatchImpl(Batch* out) override;
  void CloseImpl() override;

 private:
  /// One join key, unboxed: a number (as the double it compares as) or a
  /// string.
  struct Key {
    bool is_string = false;
    double num = 0.0;
    std::string_view str;
  };

  /// The build side. Key ids are dense, in first-arrival order; the store
  /// rows of key id k are [begin[k], begin[k + 1]).
  struct BuildSide {
    std::vector<VecColumn> cols;
    HashIdIndex index;  ///< key hash -> key id
    std::vector<uint8_t> key_is_string;
    std::vector<double> key_nums;
    std::vector<std::string> key_strs;
    std::vector<uint32_t> begin;
    DirectIds direct;  ///< key id per integral key below kDirectKeys
  };

  /// Reads the join key at row r of c; false for NULL and NaN, which never
  /// join (Value::Compare finds a NaN equal to nothing).
  static bool KeyAt(const VecColumn& c, size_t r, Key* k);
  static uint64_t KeyHash(const Key& k);
  /// The key id of `k` (hashing to h), or HashIdIndex::kNone.
  uint32_t FindKey(uint64_t h, const Key& k) const;
  /// Drains the right child into build_.
  void Build();
  /// keys_[s] = the key id of the s-th selected probe row (kNone: no match).
  void LookupProbe();
  /// Drops the build store and the probe state, releasing their memory.
  void Reset();

  size_t left_key_, right_key_;
  BuildSide build_;
  // Probe side: the current batch, its rows' key ids, and the resume point.
  Batch probe_;
  std::vector<uint32_t> keys_;
  size_t probe_pos_ = 0;
  uint32_t match_pos_ = HashIdIndex::kNone;  ///< next build row of probe_pos_
  std::vector<uint32_t> probe_rows_, build_rows_;  ///< the output's pairs
  std::vector<int32_t> remap_;  ///< gather scratch
};

/// Hash aggregation over batches. Keys and arguments evaluate column-wise;
/// each selected row maps to a dense group id through the GroupTable the
/// serial operator also uses, then every aggregate folds its column in one
/// typed loop, rows in order, so group output order and every sum equal
/// HashAggregateOp's. A no-key aggregate skips the table and folds into one
/// accumulator per aggregate.
class VecHashAggregateOp : public VecOperator {
 public:
  /// `args` parallels `aggs`: slot i is the vectorized twin of aggs[i].arg
  /// (a default VecExpr placeholder when aggs[i] is COUNT(*)).
  VecHashAggregateOp(std::unique_ptr<Operator> child, std::vector<VecExpr> keys,
                     std::vector<BoundExpr> scalar_keys,
                     std::vector<OutputCol> key_cols, std::vector<AggSpec> aggs,
                     std::vector<VecExpr> args);
  std::string Name() const override { return "VecHashAggregate"; }

 protected:
  void VecOpenImpl() override;
  bool NextBatchImpl(Batch* out) override;
  void CloseImpl() override;

 private:
  /// The scalar Status for the aggregate error at physical row r of `in`
  /// (keys in order, then arguments in order — the volcano evaluation order).
  Status ScalarErrorAt(const Batch& in, size_t r) const;

  std::vector<VecExpr> keys_;
  std::vector<BoundExpr> scalar_keys_;
  std::vector<AggSpec> aggs_;
  std::vector<VecExpr> args_;  ///< arg expression per agg (placeholder if none)
  /// Per aggregate, the first aggregate over the same column: it folds the
  /// same values, so only that one folds, and this one finalizes from its
  /// accumulators (SUM, MIN and MAX of one column fold once).
  std::vector<size_t> fold_source_;
  GroupTable groups_;
  std::vector<std::vector<AggAcc>> accs_;  ///< per aggregate, per group
  uint32_t cursor_ = 0;                    ///< next group to emit
};

}  // namespace aidb::exec
