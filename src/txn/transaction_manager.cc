#include "txn/transaction_manager.h"

#include <algorithm>

#include "storage/table.h"

namespace aidb::txn {

TransactionManager::~TransactionManager() {
  for (const Retired& r : retired_) {
    if (r.dispose) r.dispose();
    delete r.v;
  }
}

void TransactionManager::set_metrics(monitor::MetricsRegistry* metrics) {
  begins_ = metrics != nullptr ? metrics->GetCounter("txn.begins") : nullptr;
  commits_ = metrics != nullptr ? metrics->GetCounter("txn.commits") : nullptr;
  aborts_ = metrics != nullptr ? metrics->GetCounter("txn.aborts") : nullptr;
  conflicts_ =
      metrics != nullptr ? metrics->GetCounter("txn.conflicts") : nullptr;
  versions_retired_ =
      metrics != nullptr ? metrics->GetCounter("mvcc.versions_retired")
                         : nullptr;
  versions_freed_ =
      metrics != nullptr ? metrics->GetCounter("mvcc.versions_freed") : nullptr;
  read_pins_ =
      metrics != nullptr ? metrics->GetCounter("mvcc.read_pins") : nullptr;
  read_pin_overflows_ =
      metrics != nullptr ? metrics->GetCounter("mvcc.read_pin_overflows")
                         : nullptr;
  active_gauge_ = metrics != nullptr ? metrics->GetGauge("txn.active") : nullptr;
  std::lock_guard<std::mutex> lock(lock_mu_);
  locks_.set_metrics(metrics);
}

TxnId TransactionManager::Begin() {
  TxnId t = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  ActiveTxn at;
  // read_ts is fixed under mu_ so it can never trail a vacuum that already
  // computed a higher watermark (WatermarkTs also holds mu_ for active_).
  at.read_ts = last_commit_ts();
  // seq_cst RMW: continues the release sequence on next_serial_, so a serial
  // drawn at or after a Retire fence implies visibility of that unlink.
  at.serial = next_serial_.fetch_add(1, std::memory_order_seq_cst);
  active_.emplace(t, std::move(at));
  if (begins_ != nullptr) begins_->Add();
  if (active_gauge_ != nullptr) {
    active_gauge_->Set(static_cast<int64_t>(active_.size()));
  }
  return t;
}

bool TransactionManager::IsActive(TxnId t) const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.count(t) != 0;
}

Snapshot TransactionManager::SnapshotFor(TxnId t) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(t);
  if (it == active_.end()) return Snapshot{last_commit_ts(), kInvalidTxnId};
  return Snapshot{it->second.read_ts, t};
}

bool TransactionManager::TryRowLock(TxnId t, KeyId key) {
  std::lock_guard<std::mutex> lock(lock_mu_);
  return locks_.TryLock(t, key, LockMode::kExclusive);
}

void TransactionManager::RecordWrite(TxnId t, TxnWrite w) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(t);
  if (it != active_.end()) it->second.undo.push_back(std::move(w));
}

size_t TransactionManager::UndoSize(TxnId t) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(t);
  return it != active_.end() ? it->second.undo.size() : 0;
}

std::vector<TxnWrite> TransactionManager::TakeUndoFrom(TxnId t, size_t mark) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TxnWrite> out;
  auto it = active_.find(t);
  if (it == active_.end()) return out;
  auto& undo = it->second.undo;
  if (mark >= undo.size()) return out;
  out.assign(undo.rbegin(), undo.rend() - static_cast<ptrdiff_t>(mark));
  undo.resize(mark);
  return out;
}

std::vector<TxnWrite> TransactionManager::TakeUndoAll(TxnId t) {
  return TakeUndoFrom(t, 0);
}

Result<uint64_t> TransactionManager::Commit(
    TxnId t, const std::function<Status(uint64_t)>& wal_hook) {
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  ActiveTxn* at = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(t);
    if (it == active_.end()) {
      return Status::NotFound("transaction " + std::to_string(t) +
                              " is not active");
    }
    at = &it->second;  // node-based map: stable across inserts by others
  }
  uint64_t cts = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (wal_hook) {
    // Durability first: if the commit record cannot be appended, nothing has
    // been stamped and the caller rolls the transaction back intact.
    AIDB_RETURN_NOT_OK(wal_hook(cts));
  }
  for (const TxnWrite& w : at->undo) {
    w.table->StampCommit(w, cts);
  }
  // Publish: snapshots taken from here on see every stamp above. seq_cst, not
  // just release: the epoch-pin validate loop and WatermarkTs reason about a
  // single total order over this clock's stores and loads.
  last_commit_ts_.store(cts, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(lock_mu_);
    locks_.ReleaseAll(t);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.erase(t);
    if (active_gauge_ != nullptr) {
      active_gauge_->Set(static_cast<int64_t>(active_.size()));
    }
  }
  if (commits_ != nullptr) commits_->Add();
  return cts;
}

void TransactionManager::PinId(TxnId t) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(t);
  if (it != active_.end()) it->second.pinned = true;
}

void TransactionManager::NoteOpsLogged(TxnId t) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(t);
  if (it != active_.end()) {
    it->second.pinned = true;
    it->second.ops_logged = true;
  }
}

bool TransactionManager::OpsLogged(TxnId t) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(t);
  return it != active_.end() && it->second.ops_logged;
}

void TransactionManager::Forget(TxnId t) {
  {
    std::lock_guard<std::mutex> lock(lock_mu_);
    locks_.ReleaseAll(t);
  }
  bool recycle = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(t);
    if (it != active_.end()) {
      recycle = !it->second.pinned;
      active_.erase(it);
    }
    if (active_gauge_ != nullptr) {
      active_gauge_->Set(static_cast<int64_t>(active_.size()));
    }
  }
  if (recycle) {
    // Return the id if nothing was allocated after it. Failure just wastes
    // one id (safe: nothing references it) — but in serial histories the
    // exchange always succeeds, so statements that never reached the WAL
    // leave no gap in the committed id sequence.
    TxnId expected = t + 1;
    next_txn_id_.compare_exchange_strong(expected, t,
                                         std::memory_order_relaxed);
  }
}

std::vector<TxnId> TransactionManager::TxnsTouching(uint64_t table_uid) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TxnId> out;
  for (const auto& [id, at] : active_) {
    for (const TxnWrite& w : at.undo) {
      if (w.table_uid == table_uid) {
        out.push_back(id);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// Each thread probes from its own shard so unrelated pinners touch disjoint
/// cache lines; shards are assigned round-robin at first pin per thread.
size_t PinProbeStart() {
  static std::atomic<size_t> next_shard{0};
  thread_local size_t shard =
      next_shard.fetch_add(1, std::memory_order_relaxed);
  constexpr size_t kShards = TransactionManager::kReadSlots /
                             TransactionManager::kReadSlotsPerShard;
  return (shard % kShards) * TransactionManager::kReadSlotsPerShard;
}

}  // namespace

TransactionManager::PinnedRead TransactionManager::PinLatestRead() {
  PinnedRead pin;
  const size_t start = PinProbeStart();
  for (size_t probe = 0; probe < kReadSlots; ++probe) {
    const size_t idx = (start + probe) % kReadSlots;
    ReadSlot& s = read_slots_[idx];
    uint64_t expect = kSlotFree;
    if (!s.serial.compare_exchange_strong(expect, kSlotClaiming,
                                          std::memory_order_seq_cst)) {
      continue;  // taken; probe the next slot
    }
    // Slot claimed. kSlotClaiming blocks FreeRetired until the real serial
    // lands, so the fence scan can never miss this pinner's serial.
    pin.slot = static_cast<int32_t>(idx);
    pin.serial = next_serial_.fetch_add(1, std::memory_order_seq_cst);
    s.serial.store(pin.serial, std::memory_order_seq_cst);
    // Hazard-pointer publish of the read_ts: store a candidate, re-check the
    // commit clock, repeat until they agree. WatermarkTs loads the clock
    // before scanning slots, so once a candidate survives the re-check, any
    // vacuum that could compute a higher watermark has already seen it.
    uint64_t ts = last_commit_ts_.load(std::memory_order_seq_cst);
    for (;;) {
      s.ts.store(ts, std::memory_order_seq_cst);
      uint64_t now = last_commit_ts_.load(std::memory_order_seq_cst);
      if (now == ts) break;
      ts = now;
    }
    pin.read_ts = ts;
    if (read_pins_ != nullptr) read_pins_->Add();
    return pin;
  }
  // Every slot taken (more than kReadSlots concurrent pinners): fall back to
  // the mutex-guarded overflow map — correctness never depends on a free slot.
  std::lock_guard<std::mutex> lock(mu_);
  pin.slot = -1;
  pin.read_ts = last_commit_ts();
  pin.serial = next_serial_.fetch_add(1, std::memory_order_seq_cst);
  overflow_reads_.emplace(pin.serial, pin.read_ts);
  if (read_pins_ != nullptr) read_pins_->Add();
  if (read_pin_overflows_ != nullptr) read_pin_overflows_->Add();
  return pin;
}

void TransactionManager::Unpin(const PinnedRead& pin) {
  if (pin.slot >= 0) {
    ReadSlot& s = read_slots_[static_cast<size_t>(pin.slot)];
    s.ts.store(kSlotFree, std::memory_order_seq_cst);
    // serial is the claim token: releasing it LAST keeps the ts reset above
    // ordered before any re-claim of this slot.
    s.serial.store(kSlotFree, std::memory_order_seq_cst);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  overflow_reads_.erase(pin.serial);
}

uint64_t TransactionManager::WatermarkTs() const {
  // Clock FIRST, then the slot scan (all seq_cst). If a pinner validated a
  // read_ts R below the value loaded here, its slot store of R precedes this
  // scan in the seq_cst order, so the scan sees R; otherwise the pinner's
  // validated read_ts is at or above the loaded value. Either way the result
  // never exceeds any pinned read_ts.
  uint64_t wm = last_commit_ts_.load(std::memory_order_seq_cst);
  for (const ReadSlot& s : read_slots_) {
    wm = std::min(wm, s.ts.load(std::memory_order_seq_cst));  // free = ~0
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, at] : active_) {
    wm = std::min(wm, at.read_ts);
  }
  for (const auto& [serial, ts] : overflow_reads_) {
    wm = std::min(wm, ts);
  }
  return wm;
}

uint64_t TransactionManager::MinActiveSerialLocked() const {
  uint64_t min_serial = next_serial_.load(std::memory_order_seq_cst);
  for (const ReadSlot& s : read_slots_) {
    // kSlotClaiming (0) undercuts every fence, deferring all frees to a later
    // round; the claim window is a handful of instructions, so this never
    // starves reclamation. kSlotFree (~0) is a no-op in the min.
    min_serial = std::min(min_serial, s.serial.load(std::memory_order_seq_cst));
  }
  if (!overflow_reads_.empty()) {
    min_serial = std::min(min_serial, overflow_reads_.begin()->first);
  }
  for (const auto& [id, at] : active_) {
    min_serial = std::min(min_serial, at.serial);
  }
  return min_serial;
}

void TransactionManager::Retire(aidb::Version* v) {
  // fetch_add(0): an RMW, not a plain load, so it heads a release sequence on
  // next_serial_ — any reader whose serial RMW comes later in that sequence
  // synchronizes with it and therefore sees the unlink stores the retiring
  // thread performed just before this call. Readers with serials below the
  // fence are instead held in FreeRetired by their slot/txn registration.
  uint64_t fence = next_serial_.fetch_add(0, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(mu_);
  retired_.push_back({v, fence, {}});
  if (versions_retired_ != nullptr) versions_retired_->Add();
}

void TransactionManager::RetireDisposal(std::function<void()> dispose) {
  // Same fence protocol as Retire: the RMW publishes whatever unlink/unmap
  // stores preceded this call to every later-registered reader.
  uint64_t fence = next_serial_.fetch_add(0, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(mu_);
  retired_.push_back({nullptr, fence, std::move(dispose)});
}

size_t TransactionManager::FreeRetired() {
  std::vector<Retired> to_free;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t min_serial = MinActiveSerialLocked();
    while (!retired_.empty() && retired_.front().fence <= min_serial) {
      to_free.push_back(std::move(retired_.front()));
      retired_.pop_front();
    }
  }
  size_t versions = 0;
  for (Retired& r : to_free) {
    if (r.dispose) r.dispose();
    if (r.v != nullptr) {
      delete r.v;
      ++versions;
    }
  }
  if (versions_freed_ != nullptr && versions != 0) {
    versions_freed_->Add(versions);
  }
  return to_free.size();
}

size_t TransactionManager::RetiredCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_.size();
}

size_t TransactionManager::NumActive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

bool TransactionManager::HasActiveWriters() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, at] : active_) {
    if (!at.undo.empty()) return true;
  }
  return false;
}

std::vector<TxnInfo> TransactionManager::ListActive() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TxnInfo> out;
  out.reserve(active_.size());
  for (const auto& [id, at] : active_) {
    out.push_back({id, at.read_ts, at.undo.size()});
  }
  std::sort(out.begin(), out.end(),
            [](const TxnInfo& a, const TxnInfo& b) { return a.id < b.id; });
  return out;
}

}  // namespace aidb::txn
