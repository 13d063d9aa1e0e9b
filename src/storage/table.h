#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/schema.h"
#include "txn/types.h"

namespace aidb {

/// \brief One tuple version in a slot's newest-first version chain.
///
/// `data` is immutable after the version is published; only the timestamp
/// atomics and the chain link change afterwards (commit stamping, rollback,
/// GC unlinking). Readers therefore never need a lock: they walk `head ->
/// older -> ...` through atomic loads and apply txn::Snapshot::Sees to the
/// stamps they find.
struct Version {
  Tuple data;
  std::atomic<uint64_t> begin_ts;
  std::atomic<uint64_t> end_ts;
  std::atomic<Version*> older{nullptr};

  Version(Tuple d, uint64_t b, uint64_t e)
      : data(std::move(d)), begin_ts(b), end_ts(e) {}
};

/// \brief Read-side contract of a disk-resident cold tier attached beneath a
/// table (the LSM storage engine's per-table state implements it).
///
/// A paged slot's head holds a sentinel instead of a version chain; readers
/// resolve the slot through ColdVersion and writers re-home it through
/// MaterializeCold. Pointers returned by ColdVersion stay valid for as long
/// as the caller's read registration (pin or active transaction): the
/// backing decoded runs are disposed through the TransactionManager's
/// serial-fenced retire list, exactly like unlinked warm versions.
class ColdTier {
 public:
  /// Comparison shapes the zone maps can refute (the fused vectorized
  /// filters; they never error, so pruning preserves first-error parity).
  enum class Cmp { kEq, kLt, kLe, kGt, kGe };

  virtual ~ColdTier() = default;

  /// Newest persisted version of a paged slot (nullptr only transiently,
  /// while a concurrent materialize+compact cycle races the caller — re-load
  /// the slot head and retry).
  virtual const Version* ColdVersion(RowId id) = 0;

  /// Fresh heap copy of the paged slot's version for a writer about to
  /// mutate the slot; ownership passes to the caller. nullptr under the same
  /// transient race as ColdVersion.
  virtual Version* MaterializeCold(RowId id) = 0;

  /// Bookkeeping after a successful materialize CAS (the persisted entry is
  /// now shadowed; the next compaction drops it).
  virtual void NoteMaterialized(RowId id) = 0;

  /// Zone-map check: may any paged row with slot in [begin, end) satisfy
  /// `column <cmp> lit`? Conservative — returns true whenever a block's
  /// bounds cannot refute the predicate (or the column is non-numeric).
  virtual bool ColdRangeMayMatch(RowId begin, RowId end, size_t col, Cmp op,
                                 double lit) = 0;
};

/// \brief Multi-versioned slotted in-memory row store (MVCC).
///
/// Rows live in insertion slots; a slot holds a newest-first chain of
/// `Version` nodes stamped with [begin_ts, end_ts) validity intervals (see
/// txn/types.h for the timestamp space). RowIds are slot numbers and stay
/// stable for indexes; a "deleted" row is a version whose end_ts committed,
/// and a slot that never had a committed version reads as dead.
///
/// Concurrency model:
///  - Readers are lock-free: slot lookup goes through a fixed segment
///    directory (segments are never reallocated, so no pointer ever moves),
///    `num_slots_` is release-published after the slot's head version is in
///    place, and chain walks are acquire loads. Version nodes unlinked by
///    rollback or GC are handed to a retire callback and must outlive any
///    concurrent walker (the TransactionManager's serial-fenced retire list).
///  - Writers (transactional and bootstrap alike) serialize on `write_mu_`.
///    Commit stamping (StampCommit) intentionally does NOT take `write_mu_`:
///    it only flips timestamp atomics on versions the committing transaction
///    owns, and the TransactionManager's commit lock already serializes
///    commits against each other.
///
/// The legacy non-transactional API (Insert/Update/Delete/IsLive/RowAt/
/// ForEach) is preserved with "latest committed state" semantics:
/// bootstrap writes stamp txn::kBootstrapTs, so recovery replay, snapshot
/// restore and direct-API tests behave exactly as the single-version store
/// did.
class Table {
 public:
  static constexpr size_t kRowsPerPage = 64;
  /// Granularity of the per-morsel write metadata: equals one segment-
  /// directory base unit (so segment k holds exactly 1<<k morsels) and the
  /// vectorized engine's batch size (vec_ops.cc statically asserts the
  /// match, and the column cache stamps its mirrors per morsel).
  static constexpr size_t kMorselRows = 1024;

  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)), uid_(NextUid()) {}
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Process-unique identity, distinct across DROP/CREATE cycles even when a
  /// new table reuses the name (or the heap address) of a dead one. Caches
  /// keyed by uid can never alias stale data onto a recreated table.
  uint64_t uid() const { return uid_; }

  /// Data-change counter: bumped whenever the committed-visible contents can
  /// have changed (bootstrap writes, commit stamping, rollback slot
  /// reclamation). Version-stamped derived structures (the vectorized
  /// engine's column cache) compare it to detect staleness.
  uint64_t data_version() const {
    return data_version_.load(std::memory_order_acquire);
  }

  // --- Non-transactional (bootstrap) writes --------------------------------
  // Stamped txn::kBootstrapTs, i.e. committed-for-everyone immediately.
  // Recovery replay, snapshot restore and tests use these.

  /// Appends a row; validates arity and types (NULL always allowed).
  Result<RowId> Insert(Tuple row);
  Status Delete(RowId id);
  Status Update(RowId id, Tuple row);

  /// Appends an already-dead slot. Snapshot restore uses this to reproduce
  /// the exact slot layout (RowIds are slot numbers, and WAL records replayed
  /// on top of a snapshot address rows by RowId), without retaining the dead
  /// tuple's bytes.
  RowId AppendTombstone();

  /// Places a committed row at exactly slot `id`, padding any gap below it
  /// with tombstones. Recovery replays inserts in commit order, which can
  /// differ from the execution order that assigned the slots when
  /// transactions interleaved — the recorded id, not append order, is
  /// authoritative (later update/delete records address it). Gap slots are
  /// either filled by a not-yet-replayed commit or stay dead, exactly
  /// mirroring aborted-insert holes in the pre-crash table. Errors if the
  /// slot is already occupied.
  Status InsertAtSlot(RowId id, Tuple row);

  /// Arity/type check without inserting. Multi-row INSERT validates every
  /// row up front so a bad row cannot leave a statement half-applied.
  Status ValidateRow(const Tuple& row) const;

  // --- Transactional writes ------------------------------------------------
  // Callers hold the row lock (TransactionManager::TryRowLock) before
  // Update/Delete; on success `*undo` describes how to commit-stamp or roll
  // the write back and must be recorded in the transaction's undo log.
  // A Status::kAborted return is a first-committer-wins write-write conflict:
  // the whole transaction must roll back.

  Result<RowId> InsertTxn(Tuple row, txn::TxnId t, txn::TxnWrite* undo);
  Status UpdateTxn(RowId id, Tuple row, const txn::Snapshot& snap,
                   txn::TxnWrite* undo);
  Status DeleteTxn(RowId id, const txn::Snapshot& snap, txn::TxnWrite* undo);

  /// Stamps one undo entry's version(s) with commit timestamp `cts`. Called
  /// under the TransactionManager's commit lock; does not take write_mu_.
  void StampCommit(const txn::TxnWrite& w, uint64_t cts);

  /// Reverses one undo entry (newest-first order across the transaction's
  /// log). Unlinked version nodes go to `retire` — the caller must keep them
  /// alive until no concurrent chain walker can still reference them.
  void UndoWrite(const txn::TxnWrite& w,
                 const std::function<void(Version*)>& retire);

  // --- Reads ---------------------------------------------------------------

  /// Fetches the latest committed row.
  Result<Tuple> Get(RowId id) const;

  /// True if the slot has a version visible to the latest-committed snapshot.
  bool IsLive(RowId id) const {
    return VisibleVersion(id, txn::Snapshot{}) != nullptr;
  }
  bool IsVisible(RowId id, const txn::Snapshot& snap) const {
    return VisibleVersion(id, snap) != nullptr;
  }

  /// The snapshot-visible tuple of a slot, or nullptr when no version is
  /// visible. The pointee stays valid for the duration of the reader's
  /// retire-list registration (or, for non-concurrent callers, until the
  /// next write to the table).
  const Tuple* VisibleAt(RowId id, const txn::Snapshot& snap) const {
    const Version* v = VisibleVersion(id, snap);
    return v != nullptr ? &v->data : nullptr;
  }

  /// Direct slot access for scans; caller must check IsLive first (returns
  /// an empty tuple for dead slots).
  const Tuple& RowAt(RowId id) const {
    const Version* v = VisibleVersion(id, txn::Snapshot{});
    if (v != nullptr) return v->data;
    static const Tuple kDead;
    return kDead;
  }

  /// Number of committed live rows (approximate while transactions are in
  /// flight; exact when quiescent). Cost modeling / planner input.
  size_t NumRows() const {
    int64_t n = live_count_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<size_t>(n) : 0;
  }
  /// Number of slots, including tombstones (scan upper bound).
  size_t NumSlots() const { return num_slots_.load(std::memory_order_acquire); }
  /// Logical pages occupied (for cost modeling).
  size_t NumPages() const {
    return (NumSlots() + kRowsPerPage - 1) / kRowsPerPage;
  }

  /// Invokes fn(id, row) for every row visible to `snap`. Safe against
  /// concurrent committers.
  template <typename Fn>
  void ForEachVisible(const txn::Snapshot& snap, Fn&& fn) const {
    const RowId limit = NumSlots();
    for (RowId id = 0; id < limit; ++id) {
      const Version* v = VisibleVersion(id, snap);
      if (v != nullptr) fn(id, v->data);
    }
  }

  /// Invokes fn(id, row) for every latest-committed live row.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachVisible(txn::Snapshot{}, std::forward<Fn>(fn));
  }

  // --- MVCC bookkeeping ----------------------------------------------------

  /// Undo entries written but not yet committed or rolled back.
  uint64_t uncommitted_writes() const {
    return uncommitted_writes_.load(std::memory_order_acquire);
  }
  /// Largest commit timestamp ever stamped into this table.
  uint64_t max_commit_ts() const {
    return max_commit_ts_.load(std::memory_order_acquire);
  }
  /// True when the latest-committed state *is* the state `snap` sees: no
  /// in-flight writes and nothing committed after snap.read_ts. Gates the
  /// column-cache mirror, which always materializes latest-committed data.
  bool QuiescentFor(const txn::Snapshot& snap) const {
    return uncommitted_writes() == 0 && max_commit_ts() <= snap.read_ts;
  }

  // --- Per-morsel write metadata -------------------------------------------
  // kMorselRows-slot morsels carry their own change counter, max commit
  // timestamp, and in-flight write count, so the vectorized scan can keep
  // using cached mirrors for the untouched morsels of a non-quiescent table
  // and fall back to chain walks only where writes actually landed.

  size_t NumMorsels() const {
    return (NumSlots() + kMorselRows - 1) / kMorselRows;
  }
  /// Change counter of morsel `m`: bumped whenever the morsel's committed-
  /// visible contents or slot layout can have changed (slot allocation,
  /// bootstrap writes, commit stamping, rollback). Vacuum never bumps it.
  uint64_t MorselVersion(size_t m) const {
    return MorselAt(m)->version.load(std::memory_order_acquire);
  }
  /// QuiescentFor at morsel granularity: no in-flight write touches morsel
  /// `m` and nothing committed into it after snap.read_ts.
  bool MorselQuiescentFor(size_t m, const txn::Snapshot& snap) const {
    const MorselMeta* mm = MorselAt(m);
    return mm->uncommitted.load(std::memory_order_acquire) == 0 &&
           mm->max_commit_ts.load(std::memory_order_acquire) <= snap.read_ts;
  }

  /// Unlinks version nodes no snapshot at or after `watermark` can see
  /// (including aborted leftovers), handing each to `retire`. Returns the
  /// number of versions unlinked. Safe against concurrent readers; excludes
  /// writers via write_mu_.
  size_t Vacuum(uint64_t watermark,
                const std::function<void(Version*)>& retire);

  /// Total version nodes currently reachable (observability; O(slots)).
  size_t CountVersions() const;

  // --- Cold tier (pluggable storage engine) --------------------------------
  // A storage engine attaches per-table cold-tier state here; frozen slots
  // are then paged out (head -> sentinel) and read back through the
  // ColdTier. With no tier attached every method below is a cheap no-op
  // path and the table behaves exactly as the pure in-memory row store.

  /// Installs (or, with nullptr, removes) the cold tier. The caller owns the
  /// tier object and must keep it alive while any reader can observe a
  /// paged slot.
  void SetColdTier(ColdTier* cold) {
    cold_.store(cold, std::memory_order_release);
  }
  ColdTier* cold_tier() const { return cold_.load(std::memory_order_acquire); }

  /// True when the slot's head is the paged sentinel.
  bool IsPaged(RowId id) const;

  /// Slots currently paged out (approximate under concurrency).
  size_t PagedCount() const {
    int64_t n = paged_count_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<size_t>(n) : 0;
  }
  /// Paged slots inside morsel `m` — the quick gate for zone-map pruning.
  uint32_t MorselPagedCount(size_t m) const {
    return MorselAt(m)->paged.load(std::memory_order_acquire);
  }

  /// Every slot in [begin, end) is dead or paged — no warm version exists,
  /// so the cold tier's zone maps fully describe the range's visible rows.
  bool RangeAllColdOrDead(RowId begin, RowId end) const;

  /// Appends every frozen slot (id, untagged head) to `out` — the flush
  /// candidates. Lock-free snapshot; PageOutIfFrozen revalidates per slot.
  void CollectFrozen(std::vector<std::pair<RowId, Version*>>* out) const;

  /// Pages slot `id` out: CASes the frozen head Tag(v) to the sentinel and
  /// hands `v` to `retire` (concurrent readers may still hold it). False
  /// when the head changed since CollectFrozen — the slot is skipped and its
  /// persisted entry simply shadows nothing.
  bool PageOutIfFrozen(RowId id, Version* v,
                       const std::function<void(Version*)>& retire);

 private:
  // Fixed segment directory: segment k holds (kSegBase << k) slots, so 22
  // segments cover ~4.3B rows while slot addresses never move (readers keep
  // raw Slot pointers across growth).
  static constexpr size_t kSegBaseLog2 = 10;
  static constexpr size_t kSegBase = 1ull << kSegBaseLog2;
  static constexpr size_t kNumSegments = 22;
  static_assert(kMorselRows == kSegBase,
                "morsels must tile segments exactly (1<<k morsels each)");

  /// `head` carries a low-bit "frozen" tag (see table.cc): a tagged head is
  /// a slot whose sole version is committed at or below a past vacuum
  /// watermark with an open end_ts — visible to every snapshot with a single
  /// load, no chain walk. Writers clear the tag (under write_mu_) before any
  /// timestamp mutation.
  struct Slot {
    std::atomic<Version*> head{nullptr};
  };

  struct MorselMeta {
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> max_commit_ts{0};
    std::atomic<uint64_t> uncommitted{0};
    std::atomic<uint32_t> paged{0};  ///< slots of this morsel in the cold tier
  };

  static uint64_t NextUid();

  static size_t SegmentOf(RowId id) {
    return 63 - static_cast<size_t>(
                    __builtin_clzll((id >> kSegBaseLog2) + 1));
  }
  static RowId SegmentBase(size_t k) {
    return ((RowId{1} << k) - 1) << kSegBaseLog2;
  }

  Slot* SlotFor(RowId id) const {
    size_t k = SegmentOf(id);
    return segments_[k].load(std::memory_order_acquire) + (id - SegmentBase(k));
  }

  /// Metadata of morsel `m` (allocated with its segment; segment k's array
  /// holds its 1<<k morsels).
  MorselMeta* MorselAt(size_t m) const {
    RowId first = static_cast<RowId>(m) * kMorselRows;
    size_t k = SegmentOf(first);
    return morsel_meta_[k].load(std::memory_order_acquire) +
           (m - (SegmentBase(k) >> kSegBaseLog2));
  }
  MorselMeta* MorselFor(RowId id) const { return MorselAt(id >> kSegBaseLog2); }
  void BumpMorselVersion(RowId id) {
    MorselFor(id)->version.fetch_add(1, std::memory_order_release);
  }
  void NoteMorselCommitTs(RowId id, uint64_t cts) {
    std::atomic<uint64_t>& mc = MorselFor(id)->max_commit_ts;
    uint64_t cur = mc.load(std::memory_order_relaxed);
    while (cur < cts &&
           !mc.compare_exchange_weak(cur, cts, std::memory_order_release,
                                     std::memory_order_relaxed)) {
    }
  }

  /// Appends a slot whose head is `head` (may be null for tombstone slots,
  /// or frozen-tagged for born-frozen bootstrap rows). Caller holds
  /// write_mu_; publication is the release store of num_slots_.
  Result<RowId> AllocateSlot(Version* head);

  /// Loads a slot head for a writer, clearing the frozen tag first (under
  /// write_mu_) so no timestamp mutation ever happens behind a tagged head.
  /// A paged slot is materialized from the cold tier back into a warm
  /// version before the writer proceeds.
  Version* LoadHeadForWrite(Slot* s, RowId id);

  const Version* VisibleVersion(RowId id, const txn::Snapshot& snap) const;

  void BumpDataVersion() {
    data_version_.fetch_add(1, std::memory_order_release);
  }
  void NoteCommitTs(uint64_t cts) {
    uint64_t cur = max_commit_ts_.load(std::memory_order_relaxed);
    while (cur < cts && !max_commit_ts_.compare_exchange_weak(
                            cur, cts, std::memory_order_release,
                            std::memory_order_relaxed)) {
    }
  }

  std::string name_;
  Schema schema_;
  uint64_t uid_;
  std::atomic<uint64_t> data_version_{0};

  mutable std::mutex write_mu_;
  std::array<std::atomic<Slot*>, kNumSegments> segments_{};
  std::array<std::atomic<MorselMeta*>, kNumSegments> morsel_meta_{};
  std::atomic<size_t> num_slots_{0};
  std::atomic<int64_t> live_count_{0};
  std::atomic<uint64_t> uncommitted_writes_{0};
  std::atomic<uint64_t> max_commit_ts_{0};
  std::atomic<ColdTier*> cold_{nullptr};
  std::atomic<int64_t> paged_count_{0};
};

}  // namespace aidb
