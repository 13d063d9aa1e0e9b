#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/engine/engine.h"
#include "storage/engine/sst.h"
#include "storage/fault_injector.h"
#include "storage/lsm.h"
#include "storage/table.h"

namespace aidb::monitor {
class MetricsRegistry;
class Counter;
}  // namespace aidb::monitor

namespace aidb::txn {
class TransactionManager;
}

namespace aidb::storage {

/// \brief The real LSM storage engine: a disk-resident cold tier beneath the
/// MVCC tables.
///
/// The warm row store *is* the memtable. Vacuum freezes slots whose single
/// committed open version is below the watermark; a maintenance pass collects
/// the frozen set and, once it reaches `memtable_capacity`, flushes it as a
/// slot-sorted level-0 SST (block-based, per-block zone maps, bloom over slot
/// ids — see sst.h), then CASes each flushed head to the paged sentinel.
/// Reads resolve paged slots through the ColdTier hooks (newest-first run
/// probe); writers materialize the slot back to a warm version first.
/// Leveled or tiered compaction (LsmOptions::leveling) merges runs downward,
/// dropping entries whose slot is no longer paged (shadowed by a rematerialized
/// warm version). Commit timestamps persist in the SST entries, so MVCC
/// visibility is byte-identical to the row store.
///
/// Durability contract: the WAL + snapshot remain authoritative (snapshots
/// read through the cold tier, so they always carry full data). SSTs are a
/// rebuildable cache, validated whole at load; after recovery, persisted
/// entries are re-adopted only when byte-equal to the recovered frozen row.
/// A half-flushed run can therefore never surface: it either fails
/// validation, is an orphan the manifest never referenced, or disagrees with
/// the recovered state and is dropped at the next compaction.
class LsmEngine final : public StorageEngine {
 public:
  /// `dir` is created if missing. `tm` provides the serial-fenced retire
  /// lists that keep retired versions/run sets alive for concurrent readers.
  /// `fault` (optional) arms the crash matrix; `sync` false skips the
  /// physical fsyncs of SSTs and the manifest (DurabilityOptions::sync);
  /// `metrics` (optional) meters storage.* counters.
  LsmEngine(std::string dir, LsmOptions opts, txn::TransactionManager* tm,
            FaultInjector* fault, bool sync, monitor::MetricsRegistry* metrics);
  ~LsmEngine() override;

  LsmEngine(const LsmEngine&) = delete;
  LsmEngine& operator=(const LsmEngine&) = delete;

  const char* name() const override { return "lsm"; }
  void AttachTable(const std::string& name, Table* t) override;
  void DetachTable(const std::string& name, Table* t) override;
  bool NeedsMaintenance() const override;
  Status Maintain() override;

  /// Flushes `name`'s frozen slots regardless of the memtable threshold,
  /// then runs its compaction loop (test / bench hook).
  Status FlushTable(const std::string& name);

  /// Unlinks every SST not referenced by an attached table and rewrites the
  /// manifest when stale entries (dropped-table leftovers, crashed-flush
  /// orphans) were found. Call once after recovery attach.
  Status GarbageCollect();

  /// Aggregate I/O counters (LsmStats accounting), so measured write/read
  /// amplification is directly comparable to the analytic cost model.
  LsmStats StatsSnapshot() const;

  const LsmOptions& options() const { return opts_; }
  const std::string& dir() const { return dir_; }

  /// One row per attached table for the aidb_storage system view.
  struct TableInfo {
    std::string table;
    uint64_t runs = 0;
    uint64_t max_level = 0;
    uint64_t entries = 0;      ///< persisted entries across runs (incl. stale)
    uint64_t file_bytes = 0;
    uint64_t paged_slots = 0;  ///< slots currently reading from the cold tier
    uint64_t frozen_slots = 0; ///< flush candidates still warm
  };
  std::vector<TableInfo> TableInfos() const;

 private:
  using RunVec = std::vector<std::shared_ptr<SstRun>>;

  /// Per-table engine state; implements the read-side ColdTier contract the
  /// Table consults for paged slots. Reads are lock-free: `runs` is an
  /// atomically published immutable vector (newest-first), replaced wholesale
  /// by flush/compaction and reclaimed through the TransactionManager's
  /// serial-fenced disposal list.
  struct TableState : ColdTier {
    LsmEngine* engine = nullptr;
    Table* table = nullptr;
    std::string name;
    std::atomic<const RunVec*> runs{nullptr};
    uint64_t next_file_id = 0;  ///< under the engine mutex

    const Version* ColdVersion(RowId id) override;
    Version* MaterializeCold(RowId id) override;
    void NoteMaterialized(RowId id) override;
    bool ColdRangeMayMatch(RowId begin, RowId end, size_t col, Cmp op,
                           double lit) override;

    const Version* FindNewest(const RunVec& rv, RowId id) const;
  };

  /// Flush + compaction for one table; caller holds mu_.
  Status MaintainTable(TableState* st, bool force_flush);
  Status FlushLocked(TableState* st, bool force);
  Status CompactLocked(TableState* st);
  /// Swaps in a new run vector (retiring the old through the txn fence).
  void PublishRuns(TableState* st, std::unique_ptr<RunVec> next);
  /// Rewrites dir_/MANIFEST (tmp + fsync + rename) from the current attached
  /// states; fires FaultPoint::kManifestUpdate.
  Status WriteManifestLocked();
  std::string SstPath(const TableState& st, uint64_t file_id) const;
  bool Crashed() const { return fault_ != nullptr && fault_->crashed(); }

  /// Reads dir_/MANIFEST into manifest_ (called once at construction; a
  /// missing or damaged manifest is an empty engine — SSTs are a cache).
  void LoadManifest();

  const std::string dir_;
  const LsmOptions opts_;
  txn::TransactionManager* const tm_;
  FaultInjector* const fault_;
  const bool sync_;

  /// Serializes attach/detach/flush/compaction/manifest writes. Never held
  /// by readers.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<TableState>> tables_;
  /// Recovered manifest image: table -> (file basename, level), newest-first;
  /// consumed by AttachTable for re-adoption.
  std::map<std::string, std::vector<std::pair<std::string, uint32_t>>> manifest_;

  // I/O counters (LsmStats accounting scheme; see lsm.h).
  std::atomic<uint64_t> entries_written_{0};
  std::atomic<uint64_t> entries_compacted_{0};
  std::atomic<uint64_t> runs_probed_{0};
  std::atomic<uint64_t> bloom_probes_{0};
  std::atomic<uint64_t> bloom_negatives_{0};
  std::atomic<uint64_t> gets_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> blocks_written_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> zone_checks_{0};
  std::atomic<uint64_t> zone_prunes_{0};
  std::atomic<uint64_t> materialized_{0};
  std::atomic<uint64_t> adopted_{0};

  // Cached storage.* metric pointers (null when metering is off).
  monitor::Counter* m_flushes_ = nullptr;
  monitor::Counter* m_compactions_ = nullptr;
  monitor::Counter* m_paged_out_ = nullptr;
  monitor::Counter* m_materialized_ = nullptr;
  monitor::Counter* m_cold_gets_ = nullptr;
  monitor::Counter* m_zone_prunes_ = nullptr;
  monitor::Counter* m_sst_bytes_ = nullptr;
  monitor::Counter* m_adopted_ = nullptr;
};

}  // namespace aidb::storage
