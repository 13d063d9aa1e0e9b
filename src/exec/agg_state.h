#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/operator.h"
#include "exec/vec/batch.h"

namespace aidb::exec {

/// \brief Running SUM/MIN/MAX/COUNT of one aggregate over one group, from
/// which every AggFunc finalizes.
///
/// Shared by HashAggregateOp and VecHashAggregateOp so their SQL semantics
/// (NULL skipping, empty-group rules) and fold arithmetic cannot drift
/// apart: both fold each group's values in input order, so sums are
/// bit-identical across engines.
struct AggAcc {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  uint64_t count = 0;

  /// Folds one already-evaluated, non-NULL argument (COUNT(*) folds 0.0).
  void Fold(double v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    sum += v;
    ++count;
  }
};

/// The output value of `func` over `acc`: COUNT is an INT, the others a
/// DOUBLE, or NULL over no values.
Value FinalizeAgg(sql::AggFunc func, const AggAcc& acc);

/// 64-bit finalizer (MurmurHash3 fmix64): spreads a key hash over the low
/// bits HashIdIndex probes with.
inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// \brief Open-addressing index from a 64-bit key hash to a dense id.
///
/// The caller owns the keys (ids index its key arrays) and supplies
/// equality, so one index serves typed, string and multi-column keys alike.
/// Hashes must already be mixed (MixHash): slots are probed linearly from
/// the hash's low bits.
class HashIdIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The id stored under `h` whose key `eq(id)` accepts, or kNone.
  template <typename Eq>
  uint32_t Find(uint64_t h, Eq&& eq) const {
    if (slots_.empty()) return kNone;
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.hash == h && eq(s.id)) return s.id;
    }
  }

  /// Adds `id` under `h`; the caller has checked that its key is absent.
  void Insert(uint64_t h, uint32_t id) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t i = h & mask_;
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    slots_[i] = {h, id};
    ++size_;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kNone;
  };

  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Keys below this bound are small enough to index by value (DirectIds).
inline constexpr uint64_t kDirectKeys = 65536;

/// \brief Dense ids of small non-negative integer keys, indexed by value:
/// the lookup in front of a HashIdIndex for INT key columns, which skips
/// the hash for surrogate ids and small codes.
///
/// The owner records a new key's id here when it inserts the key into its
/// HashIdIndex and the key is an integer below kDirectKeys; a lookup that
/// finds kNone here falls back to the hash index, so ids are the same
/// either way.
class DirectIds {
 public:
  /// The id recorded for `x`, or HashIdIndex::kNone.
  uint32_t Find(uint64_t x) const {
    return x < ids_.size() ? ids_[x] : HashIdIndex::kNone;
  }

  /// Records `id` for `x`; keys from kDirectKeys up are not recorded.
  void Insert(uint64_t x, uint32_t id) {
    if (x >= kDirectKeys) return;
    if (x >= ids_.size()) {
      const uint64_t grown = std::max<uint64_t>(x + 1, 2 * ids_.size());
      ids_.resize(std::min(grown, kDirectKeys), HashIdIndex::kNone);
    }
    ids_[x] = id;
  }

 private:
  std::vector<uint32_t> ids_;
};

/// \brief The group table of both hash-aggregate engines: maps each distinct
/// GROUP BY key to a dense group id, handed out in first-seen order, so
/// groups emit in the order their first row arrived, whichever engine fed
/// them.
///
/// Key equality is typed: two keys are one group when every column pair is
/// both NULL, or of one type and equal — INT by value, DOUBLE by `==` (so
/// -0.0 meets 0.0 and a NaN meets nothing), STRING by bytes. INT 1 and
/// DOUBLE 1.0 are distinct groups, as they are distinct rows to DISTINCT.
/// Keys are stored column-wise as a type tag plus a 64-bit payload (the
/// INT, the DOUBLE's bits, or an index into the column's string pool), so
/// the batch path maps typed columns to group ids without boxing a Value.
class GroupTable {
 public:
  explicit GroupTable(size_t num_keys = 0) : cols_(num_keys) {}

  /// Number of groups; ids are [0, size()).
  size_t size() const { return size_; }

  /// Row path: the group of `key` (one value per key column), created if new.
  uint32_t FindOrInsert(const Tuple& key);

  /// Batch path: (*gids)[s] is the group of the s-th selected row of `in`,
  /// whose key columns `keys` evaluated to. New groups are created in
  /// selected-row order, exactly as FindOrInsert over the same rows would.
  void Map(const std::vector<const VecColumn*>& keys, const Batch& in,
           std::vector<uint32_t>* gids);

  /// Group g's value in key column k.
  Value KeyAt(size_t k, uint32_t g) const;

 private:
  /// One key value, unboxed: `bits` holds the INT or the DOUBLE's bits;
  /// `str` views a STRING's bytes.
  struct Cell {
    ValueType type = ValueType::kNull;
    uint64_t bits = 0;
    std::string_view str;
  };

  /// A key column: per group a type tag and payload (a pool index for
  /// STRING keys).
  struct KeyColumn {
    std::vector<ValueType> types;
    std::vector<uint64_t> bits;
    std::vector<std::string> pool;
  };

  static Cell CellOf(const Value& v);
  static Cell CellAt(const VecColumn& c, size_t r);
  static uint64_t CellHash(const Cell& c);
  bool CellEquals(size_t k, uint32_t g, const Cell& c) const;

  /// The group of the key `cells` (one per key column), created if new.
  uint32_t FindOrInsert(const Cell* cells);
  uint32_t Add(uint64_t h, const Cell* cells);

  std::vector<KeyColumn> cols_;
  HashIdIndex index_;
  size_t size_ = 0;
  std::vector<Cell> cells_;  ///< Map scratch: one row's key
  DirectIds direct_;         ///< group per small key of one INT key column
};

}  // namespace aidb::exec
