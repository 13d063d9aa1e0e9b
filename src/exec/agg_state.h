#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"

namespace aidb::exec {

/// \brief Accumulator for one group: running SUM/MIN/MAX/COUNT per aggregate
/// column, from which every AggFunc finalizes.
///
/// Shared by HashAggregateOp and VecHashAggregateOp so their SQL semantics
/// (NULL skipping, empty-group rules) cannot drift apart.
struct GroupState {
  Tuple key_values;
  std::vector<double> sums;
  std::vector<double> mins;
  std::vector<double> maxs;
  std::vector<size_t> counts;

  void Init(Tuple key, size_t num_aggs) {
    key_values = std::move(key);
    sums.assign(num_aggs, 0.0);
    mins.assign(num_aggs, 0.0);
    maxs.assign(num_aggs, 0.0);
    counts.assign(num_aggs, 0);
  }

  /// Folds one already-evaluated (non-NULL) argument into aggregate slot i.
  /// The vectorized aggregate evaluates arguments column-wise and calls this
  /// directly; Accumulate routes through it so the fold arithmetic has one
  /// definition.
  void FoldOne(size_t i, double v) {
    if (counts[i] == 0) {
      mins[i] = v;
      maxs[i] = v;
    } else {
      mins[i] = std::min(mins[i], v);
      maxs[i] = std::max(maxs[i], v);
    }
    sums[i] += v;
    ++counts[i];
  }

  /// Folds one input row into the running state (NULL arguments skipped, per
  /// SQL aggregate semantics). Fails if an aggregate argument fails to
  /// evaluate; the group state is then unusable.
  Status Accumulate(const std::vector<AggSpec>& aggs, const Tuple& row) {
    for (size_t i = 0; i < aggs.size(); ++i) {
      double v = 0.0;
      if (aggs[i].arg) {
        Value val;
        AIDB_ASSIGN_OR_RETURN(val, aggs[i].arg->Eval(row));
        if (val.is_null()) continue;
        v = val.AsFeature();
      }
      FoldOne(i, v);
    }
    return Status::OK();
  }

  /// The output row: group keys followed by finalized aggregates.
  Tuple Finalize(const std::vector<AggSpec>& aggs) const {
    Tuple out = key_values;
    for (size_t i = 0; i < aggs.size(); ++i) {
      switch (aggs[i].func) {
        case sql::AggFunc::kCount:
          out.push_back(Value(static_cast<int64_t>(counts[i])));
          break;
        case sql::AggFunc::kSum:
          out.push_back(counts[i] ? Value(sums[i]) : Value::Null());
          break;
        case sql::AggFunc::kAvg:
          out.push_back(counts[i]
                            ? Value(sums[i] / static_cast<double>(counts[i]))
                            : Value::Null());
          break;
        case sql::AggFunc::kMin:
          out.push_back(counts[i] ? Value(mins[i]) : Value::Null());
          break;
        case sql::AggFunc::kMax:
          out.push_back(counts[i] ? Value(maxs[i]) : Value::Null());
          break;
        case sql::AggFunc::kNone:
          out.push_back(Value::Null());
          break;
      }
    }
    return out;
  }
};

/// \brief Hash-bucketed map from group key to GroupState; buckets chain on
/// the full key comparison so hash collisions stay correct.
class GroupMap {
 public:
  /// Evaluates the key expressions over `row` and folds the row into its
  /// group's state. Fails on a key or aggregate-argument evaluation error.
  Status Accumulate(const std::vector<BoundExpr>& keys,
                    const std::vector<AggSpec>& aggs, const Tuple& row) {
    Tuple key;
    key.reserve(keys.size());
    uint64_t h = 1469598103934665603ULL;
    for (const auto& k : keys) {
      Value v;
      AIDB_ASSIGN_OR_RETURN(v, k.Eval(row));
      key.push_back(std::move(v));
      h = (h ^ key.back().Hash()) * 1099511628211ULL;
    }
    return FindOrCreate(h, std::move(key), aggs.size())->Accumulate(aggs, row);
  }

  size_t num_groups() const { return num_groups_; }

  /// Bucket lookup with a precomputed key and hash, for callers that evaluate
  /// keys themselves (the vectorized aggregate materializes keys column-wise
  /// and folds rows directly). `h` must be the same FNV-1a fold over the key
  /// values' Hash() that Accumulate computes, or serial and vectorized
  /// executions would bucket — and thus order — groups differently.
  GroupState* GetOrCreate(uint64_t h, Tuple key, size_t num_aggs) {
    return FindOrCreate(h, std::move(key), num_aggs);
  }

  /// Invokes fn(state) for every group.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [h, chain] : buckets_) {
      for (const auto& state : chain) fn(state);
    }
  }

 private:
  GroupState* Find(uint64_t h, const Tuple& key) {
    auto it = buckets_.find(h);
    if (it == buckets_.end()) return nullptr;
    for (auto& state : it->second) {
      bool same = state.key_values.size() == key.size();
      for (size_t i = 0; same && i < key.size(); ++i) {
        if (state.key_values[i].Compare(key[i]) != 0) same = false;
      }
      if (same) return &state;
    }
    return nullptr;
  }

  GroupState* FindOrCreate(uint64_t h, Tuple key, size_t num_aggs) {
    GroupState* found = Find(h, key);
    if (found != nullptr) return found;
    auto& chain = buckets_[h];
    chain.push_back(GroupState{});
    chain.back().Init(std::move(key), num_aggs);
    ++num_groups_;
    return &chain.back();
  }

  std::unordered_map<uint64_t, std::vector<GroupState>> buckets_;
  size_t num_groups_ = 0;
};

}  // namespace aidb::exec
