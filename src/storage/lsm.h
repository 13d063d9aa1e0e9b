#pragma once

#include <cstddef>
#include <cstdint>

namespace aidb {

/// Tunable design knobs of the LSM storage engine (storage/engine/lsm_engine)
/// — the "design continuum" axes the design tuners (design/lsm_tuner and
/// advisor/knob/storage_env; E10, E10b) search over.
struct LsmOptions {
  size_t memtable_capacity = 4096;  ///< frozen slots collected per flush
  size_t size_ratio = 4;            ///< level growth factor T
  size_t bloom_bits_per_key = 8;    ///< 0 disables bloom filters
  bool leveling = true;             ///< leveling (read-opt) vs tiering (write-opt)
};

/// I/O counters of the LSM storage engine, read by the measured design tuner
/// and the benchmarks. entries_written counts each paged-out slot once and
/// entries_compacted each entry rewritten by a flush *and* by compaction, so
/// the amplification figures are directly comparable to the analytic cost
/// model's predictions (design/lsm_tuner).
struct LsmStats {
  uint64_t entries_written = 0;       ///< slots paged out
  uint64_t entries_compacted = 0;     ///< entries rewritten by flush/compaction
  uint64_t runs_probed = 0;           ///< sorted runs touched by cold gets
  uint64_t bloom_negatives = 0;       ///< probes skipped by bloom filters
  uint64_t gets = 0;
  uint64_t flushes = 0;               ///< immutable-run flushes
  uint64_t compactions = 0;           ///< merge passes
  uint64_t blocks_written = 0;        ///< SST data blocks persisted
  uint64_t bytes_written = 0;         ///< SST bytes persisted (incl. rewrite)
  uint64_t bloom_probes = 0;          ///< bloom filter consultations
  uint64_t zone_checks = 0;           ///< zone-map range interrogations
  uint64_t zone_prunes = 0;           ///< ranges refuted by zone maps
  uint64_t materialized = 0;          ///< cold slots pulled warm for writers
  uint64_t adopted = 0;               ///< persisted entries re-adopted at recovery

  /// Write amplification: total entries rewritten per entry ingested.
  double WriteAmplification() const {
    return entries_written ? static_cast<double>(entries_compacted) /
                                 static_cast<double>(entries_written)
                           : 0.0;
  }
  /// Average sorted runs probed per point lookup.
  double ReadAmplification() const {
    return gets ? static_cast<double>(runs_probed) / static_cast<double>(gets) : 0.0;
  }
};

}  // namespace aidb
