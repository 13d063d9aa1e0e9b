#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "monitor/metrics.h"
#include "txn/lock_manager.h"
#include "txn/types.h"

namespace aidb::txn {

/// Hash of (table uid, row id) into the lock-manager key space. A collision
/// only ever causes a spurious first-committer-wins abort, never a missed
/// conflict (the timestamp checks in Table::UpdateTxn/DeleteTxn are the
/// ground truth; the lock is the fast no-wait gate).
inline KeyId RowLockKey(uint64_t table_uid, uint64_t row) {
  uint64_t h = table_uid * 0x9e3779b97f4a7c15ull;
  h ^= row + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// One row of the `aidb_transactions` system view.
struct TxnInfo {
  TxnId id = kInvalidTxnId;
  uint64_t read_ts = 0;
  size_t writes = 0;
};

/// \brief MVCC transaction manager: monotonic begin/commit timestamps,
/// snapshot handout, per-transaction undo logs, first-committer-wins row
/// locks, and serial-fenced garbage reclamation of unlinked versions.
///
/// Timestamp protocol: the commit clock starts at kBootstrapTs; every commit
/// takes the next tick under commit_mu_, stamps its undo log, appends its
/// WAL commit record (still under commit_mu_, so WAL commit order equals
/// commit-timestamp order), and only then publishes last_commit_ts_ (a
/// seq_cst store — the epoch-slot watermark proof below needs the clock's
/// loads and stores in the single total order). A snapshot's read_ts is a
/// load of last_commit_ts_, which guarantees every version stamp of every
/// commit at or before read_ts is visible to the snapshot holder.
///
/// Read registration: autocommit readers pin a latest-committed snapshot
/// through a fixed array of cache-line-sized epoch slots — claim one slot
/// with a single CAS, publish the read_ts with a hazard-pointer validate
/// loop against the commit clock, release with two plain stores. No mutex
/// is taken anywhere on that path. WatermarkTs() loads the clock FIRST and
/// then scans the slots (all seq_cst): if a reader validated a read_ts R
/// below the loaded clock value, its slot store of R is already ordered
/// before the scan, so the scan sees it; otherwise the reader's validated
/// read_ts is at or above the loaded clock — either way the watermark never
/// exceeds a pinned reader's read_ts. A full ring (more than kReadSlots
/// concurrent pinners) falls back to the mutex-guarded overflow map, which
/// is the pre-epoch registration path.
///
/// Reclamation: rollback and vacuum unlink version nodes from chains that
/// lock-free readers may still be walking. Unlinked nodes are retired with a
/// fence drawn from next_serial_ by a seq_cst RMW; they are freed only once
/// every reader registered before the fence has finished. A reader whose
/// serial is at or above the fence performed its serial RMW after the
/// fence's RMW in the release sequence on next_serial_, so the unlink stores
/// (sequenced before Retire) are visible to its chain walk — it can never
/// reach a retired node. A reader below the fence is still published in its
/// slot (the slot is claimed, with serial 0 as a claim-in-progress sentinel
/// that conservatively blocks all frees, before the serial is drawn), so
/// FreeRetired's slot scan blocks the free.
class TransactionManager {
 public:
  /// Epoch-slot capacity: pinners beyond this fall back to the mutex path.
  static constexpr size_t kReadSlots = 64;
  /// Slots per shard: a pinner probes its shard first, then the whole ring,
  /// so unrelated threads rarely contend on one cache line.
  static constexpr size_t kReadSlotsPerShard = 4;
  static constexpr uint64_t kSlotFree = ~0ull;     ///< min-scans skip it
  static constexpr uint64_t kSlotClaiming = 0;     ///< blocks every free

  /// A registered latest-committed read window (see PinLatestRead). POD so
  /// the RAII wrapper below stays trivially movable.
  struct PinnedRead {
    uint64_t read_ts = 0;
    uint64_t serial = 0;
    int32_t slot = -1;  ///< epoch slot index; -1 = overflow map entry
  };

  TransactionManager() = default;
  /// Runs the disposals and frees the versions still on the retire list.
  /// Defined out of line, where aidb::Version is complete, so deleting a
  /// retired version runs its destructor.
  ~TransactionManager();

  /// Wires txn.* counters/gauges; also forwards to the wrapped LockManager.
  /// Pointers are cached — the registry must outlive this object.
  void set_metrics(monitor::MetricsRegistry* metrics);

  // --- Transaction id allocation -------------------------------------------
  // One allocator for every statement (recovery seeds it): WAL records are
  // tagged with these ids, and recovery's replay keying depends on them
  // being unique across the log.

  void SeedNextTxnId(TxnId next) {
    next_txn_id_.store(next, std::memory_order_relaxed);
  }
  TxnId next_txn_id() const {
    return next_txn_id_.load(std::memory_order_relaxed);
  }
  /// Hands out an id without registering an active transaction — for
  /// statements that log + commit atomically outside the MVCC write path
  /// (DDL, model training).
  TxnId AllocateTxnId() {
    return next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Lifecycle -----------------------------------------------------------

  /// Starts a transaction: allocates its id and fixes its snapshot at the
  /// current last_commit_ts.
  TxnId Begin();

  bool IsActive(TxnId t) const;
  /// The transaction's snapshot; a latest-committed snapshot when `t` is not
  /// active (kInvalidTxnId included). Note an inactive-txn fallback snapshot
  /// is NOT watermark-registered — executor read paths must instead pin one
  /// via PinLatestRead/ReadPin, or run inside an active transaction.
  Snapshot SnapshotFor(TxnId t) const;
  uint64_t last_commit_ts() const {
    return last_commit_ts_.load(std::memory_order_acquire);
  }

  // --- Writes --------------------------------------------------------------

  /// No-wait exclusive row lock (re-entrant). False → write-write conflict;
  /// the caller aborts the transaction.
  bool TryRowLock(TxnId t, KeyId key);

  /// Appends an undo entry to the transaction's log.
  void RecordWrite(TxnId t, TxnWrite w);

  /// Current undo-log length — the statement-rollback high-water mark.
  size_t UndoSize(TxnId t) const;

  /// Removes and returns undo entries from `mark` on, newest first
  /// (statement-level rollback; the transaction stays active).
  std::vector<TxnWrite> TakeUndoFrom(TxnId t, size_t mark);

  /// Removes and returns the whole undo log, newest first. The transaction
  /// stays registered until Forget() so its snapshot keeps protecting the
  /// versions being rolled back.
  std::vector<TxnWrite> TakeUndoAll(TxnId t);

  // --- Commit / abort ------------------------------------------------------

  /// Commits `t`: allocates the commit timestamp, stamps every undo entry's
  /// versions, runs `wal_hook(cts)` (nullable) before publishing — all under
  /// the commit lock — then publishes last_commit_ts, releases row locks and
  /// forgets the transaction. Returns the commit timestamp.
  ///
  /// If `wal_hook` fails nothing has been stamped yet: the error is returned
  /// and the transaction is left active for the caller to roll back.
  Result<uint64_t> Commit(TxnId t,
                          const std::function<Status(uint64_t)>& wal_hook);

  /// Marks `t`'s id as referenced by a durable WAL record (a DDL commit
  /// logged under it, or an abort record). Forget() then retires the id
  /// permanently instead of recycling it.
  void PinId(TxnId t);

  /// Records that kTxnOp records were appended under `t` (also pins the id).
  /// An abort must then log kTxnAbort so recovery discards those ops.
  void NoteOpsLogged(TxnId t);
  bool OpsLogged(TxnId t) const;

  /// Releases row locks and erases transaction state. The caller must have
  /// undone (or committed) every write first. If no WAL record ever
  /// referenced the id (not pinned) and it is still the most recently
  /// allocated one, the id is recycled: statements that neither log nor
  /// abort durably consume no id, which keeps committed WAL ids dense in
  /// serial histories (recovery and the crash-recovery oracle count
  /// committed statements as max-id).
  void Forget(TxnId t);

  /// Ids of active transactions whose undo log touches `table_uid` (DDL uses
  /// this to roll back writers of a table it is about to drop/reindex).
  std::vector<TxnId> TxnsTouching(uint64_t table_uid) const;

  // --- Read registration & garbage collection ------------------------------

  /// Registers a latest-committed read window without taking any mutex
  /// (epoch slot claim + hazard-pointer read_ts publish; mutex overflow only
  /// when all kReadSlots are taken). The returned pin's read_ts caps what
  /// vacuum may reclaim, and its serial blocks FreeRetired, until Unpin.
  /// Prefer the ReadPin RAII wrapper.
  PinnedRead PinLatestRead();
  void Unpin(const PinnedRead& pin);

  /// Oldest read_ts any live snapshot (open transaction or pinned read) may
  /// use; last_commit_ts when none are live. Versions dead at or before the
  /// watermark are unreachable.
  uint64_t WatermarkTs() const;

  /// Takes ownership of an unlinked version node; it is freed by a later
  /// FreeRetired() once all possible concurrent walkers have drained. Must
  /// be called by the unlinking thread (the fence RMW is what publishes the
  /// unlink stores to later-registered readers).
  void Retire(aidb::Version* v);

  /// Defers an arbitrary disposal until every reader registered before the
  /// fence has drained — the same guarantee Retire() gives version nodes.
  /// The storage engine uses this to drop decoded cold-tier runs that
  /// lock-free readers may still hold ColdVersion pointers into.
  void RetireDisposal(std::function<void()> dispose);

  /// Frees retired nodes whose fence has drained. Returns the number freed.
  size_t FreeRetired();

  size_t RetiredCount() const;
  size_t NumActive() const;
  /// True while any active transaction has undo entries (checkpoints defer:
  /// a fuzzy snapshot must not split a transaction's ops from its commit).
  bool HasActiveWriters() const;
  std::vector<TxnInfo> ListActive() const;

  /// Metric hooks for the abort paths the manager itself cannot see
  /// (the Database orchestrates rollback because index unwind needs the
  /// catalog).
  void NoteConflict() {
    if (conflicts_ != nullptr) conflicts_->Add();
  }
  void NoteAbort() {
    if (aborts_ != nullptr) aborts_->Add();
  }

 private:
  uint64_t MinActiveSerialLocked() const;  // callers hold mu_

  /// One epoch read slot. `serial` doubles as the claim token: kSlotFree =
  /// unclaimed, kSlotClaiming = claimed but serial not yet drawn (blocks all
  /// frees), else the pinner's read serial. `ts` is the published read_ts
  /// (kSlotFree until the validate loop lands). One cache line per slot so
  /// concurrent pinners never false-share.
  struct alignas(64) ReadSlot {
    std::atomic<uint64_t> serial{kSlotFree};
    std::atomic<uint64_t> ts{kSlotFree};
  };

  mutable std::mutex mu_;  ///< active txns, overflow reads, retire list
  std::mutex commit_mu_;   ///< serializes commit stamping + WAL commit append
  std::mutex lock_mu_;     ///< LockManager is not internally synchronized
  LockManager locks_;

  std::atomic<uint64_t> clock_{kBootstrapTs};
  std::atomic<uint64_t> last_commit_ts_{kBootstrapTs};
  std::atomic<TxnId> next_txn_id_{1};

  struct ActiveTxn {
    uint64_t read_ts = 0;
    uint64_t serial = 0;  ///< read-serial held for the txn's whole lifetime
    bool pinned = false;      ///< a WAL record references this id; no recycle
    bool ops_logged = false;  ///< unresolved kTxnOp records exist in the WAL
    std::vector<TxnWrite> undo;
  };
  std::unordered_map<TxnId, ActiveTxn> active_;

  /// Read-serial allocator. Atomic (not mu_-guarded) because epoch pinners
  /// draw serials lock-free; Retire's fence RMW on the same atomic is what
  /// gives later pinners visibility of the unlinks (see class comment).
  std::atomic<uint64_t> next_serial_{1};
  std::array<ReadSlot, kReadSlots> read_slots_;
  std::map<uint64_t, uint64_t> overflow_reads_;  ///< serial -> read_ts

  struct Retired {
    aidb::Version* v;  ///< nullptr for pure-disposal entries
    uint64_t fence;
    std::function<void()> dispose;  ///< runs (once) when the fence drains
  };
  std::deque<Retired> retired_;

  monitor::Counter* begins_ = nullptr;
  monitor::Counter* commits_ = nullptr;
  monitor::Counter* aborts_ = nullptr;
  monitor::Counter* conflicts_ = nullptr;
  monitor::Counter* versions_retired_ = nullptr;
  monitor::Counter* versions_freed_ = nullptr;
  monitor::Counter* read_pins_ = nullptr;
  monitor::Counter* read_pin_overflows_ = nullptr;
  monitor::Gauge* active_gauge_ = nullptr;
};

/// RAII wrapper over PinLatestRead/Unpin: pins a registered latest-committed
/// snapshot for exactly the scope's lifetime. This is the ONLY sanctioned way
/// to obtain a latest-committed snapshot for executor read paths — a
/// fabricated Snapshot{last_commit_ts(), kInvalidTxnId} is not watermark-
/// registered, so a concurrent vacuum could reclaim versions mid-walk.
class ReadPin {
 public:
  ReadPin() = default;
  explicit ReadPin(TransactionManager* tm)
      : tm_(tm), pin_(tm->PinLatestRead()) {}
  ~ReadPin() {
    if (tm_ != nullptr) tm_->Unpin(pin_);
  }
  ReadPin(const ReadPin&) = delete;
  ReadPin& operator=(const ReadPin&) = delete;
  ReadPin(ReadPin&& o) noexcept : tm_(o.tm_), pin_(o.pin_) { o.tm_ = nullptr; }
  ReadPin& operator=(ReadPin&& o) noexcept {
    if (this != &o) {
      if (tm_ != nullptr) tm_->Unpin(pin_);
      tm_ = o.tm_;
      pin_ = o.pin_;
      o.tm_ = nullptr;
    }
    return *this;
  }

  uint64_t read_ts() const { return pin_.read_ts; }
  Snapshot snapshot() const { return Snapshot{pin_.read_ts, kInvalidTxnId}; }

 private:
  TransactionManager* tm_ = nullptr;
  TransactionManager::PinnedRead pin_;
};

}  // namespace aidb::txn
