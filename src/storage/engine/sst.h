#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/fault_injector.h"
#include "storage/table.h"

namespace aidb::storage {

/// One entry to persist: a paged-out slot's frozen version.
struct SstEntry {
  RowId slot = 0;
  uint64_t begin_ts = 0;      ///< commit timestamp of the frozen version
  const Tuple* row = nullptr; ///< borrowed; valid for the Write call only
};

/// Per-block metadata decoded from the footer: slot range, file extent, and
/// per-column zone maps (double min/max; non-numeric or NULL columns carry
/// [-inf, +inf] so they can never refute a predicate).
struct SstBlockMeta {
  RowId first_slot = 0;
  RowId last_slot = 0;
  uint64_t offset = 0;  ///< block frame start within the file
  uint32_t length = 0;  ///< frame length (header + body)
  uint32_t entries = 0;
  std::vector<std::pair<double, double>> zones;  ///< per column (min, max)
};

/// Knobs of one SST write (subset of LsmOptions the format cares about).
struct SstWriteOptions {
  size_t bloom_bits_per_key = 8;  ///< 0 disables the bloom filter
  size_t level = 0;
  size_t block_entries = 256;  ///< entries per data block
  bool compaction = false;     ///< fire kCompactionWrite instead of kSstBlockWrite
  FaultInjector* fault = nullptr;
  bool sync = true;  ///< false skips the physical fsyncs (DurabilityOptions::sync)
};

/// Counters reported back by WriteSst.
struct SstWriteResult {
  uint64_t blocks = 0;
  uint64_t bytes = 0;
  uint64_t entries = 0;
};

/// Writes a slot-sorted SST file: magic, CRC-framed data blocks, a CRC-framed
/// footer (block index + zone maps + bloom over slot ids), and a fixed
/// trailer locating the footer. The file is fsynced (when opts.sync) before
/// returning OK; any
/// fired fault leaves deterministic damage and returns Aborted, exactly like
/// the WAL writer's crash simulation.
Status WriteSst(const std::string& path, const std::vector<SstEntry>& entries,
                size_t num_columns, const SstWriteOptions& opts,
                SstWriteResult* out);

/// \brief One immutable sorted run, loaded and validated from disk.
///
/// Load() re-reads the whole file, checks the trailer, footer CRC and every
/// data-block CRC — a half-flushed or bit-rotted file never yields a run.
/// Entry decode is lazy per block; decoded Version nodes live in per-block
/// deques whose addresses are stable for the run's lifetime, so ColdVersion
/// pointers handed to readers stay valid until the run itself is disposed
/// (through the TransactionManager's serial-fenced retire list).
class SstRun {
 public:
  /// `adopted`: decode every entry at txn::kBootstrapTs instead of its
  /// persisted commit timestamp — the timestamp space recovered rows live in
  /// (recovery reseeds the commit clock, so pre-crash timestamps no longer
  /// mean anything to post-crash snapshots).
  static Result<std::shared_ptr<SstRun>> Load(const std::string& path,
                                              bool adopted);

  /// Newest persisted version of `slot`, or nullptr when absent. Thread-safe;
  /// the returned pointer stays valid while the run is alive.
  const Version* Find(RowId slot);
  /// Find() plus probe accounting into the caller's counters.
  const Version* Find(RowId slot, std::atomic<uint64_t>* bloom_probes,
                      std::atomic<uint64_t>* bloom_negatives,
                      std::atomic<uint64_t>* runs_probed);

  /// Bloom check only (no decode); true when the run may hold `slot`.
  bool MayContain(RowId slot) const;

  /// May any entry with slot in [begin, end) satisfy `column <cmp> lit`?
  /// Conservative per-block zone-map refutation.
  bool RangeMayMatch(RowId begin, RowId end, size_t col, ColdTier::Cmp op,
                     double lit) const;

  /// Invokes fn(slot, begin_ts, row) for every entry, slot-ascending
  /// (compaction input). Decodes every block through the shared cache.
  void ForEach(const std::function<void(RowId, uint64_t, const Tuple&)>& fn);

  const std::string& path() const { return path_; }
  size_t level() const { return level_; }
  uint64_t entry_count() const { return entry_count_; }
  RowId min_slot() const { return min_slot_; }
  RowId max_slot() const { return max_slot_; }
  uint64_t file_bytes() const { return file_bytes_; }
  bool adopted() const { return adopted_; }
  size_t num_columns() const { return num_columns_; }

 private:
  SstRun() = default;

  struct DecodedBlock {
    std::vector<RowId> slots;     ///< ascending, parallel to versions
    std::deque<Version> versions; ///< address-stable
  };
  /// Decodes block `b` (once; later calls return the cache).
  const DecodedBlock* Block(size_t b);

  std::string path_;
  std::string raw_;  ///< whole validated file
  size_t level_ = 0;
  size_t num_columns_ = 0;
  uint64_t entry_count_ = 0;
  RowId min_slot_ = 0;
  RowId max_slot_ = 0;
  uint64_t file_bytes_ = 0;
  bool adopted_ = false;
  size_t bloom_bits_per_key_ = 0;
  std::vector<uint64_t> bloom_;
  std::vector<SstBlockMeta> blocks_;
  std::mutex decode_mu_;
  std::vector<std::unique_ptr<DecodedBlock>> decoded_;
};

}  // namespace aidb::storage
