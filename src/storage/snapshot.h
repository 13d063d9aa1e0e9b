#pragma once

#include <cstdint>
#include <string>

#include "catalog/catalog.h"
#include "common/result.h"
#include "db4ai/model_registry.h"
#include "storage/fault_injector.h"

namespace aidb::storage {

/// Header/trailer facts of one snapshot file.
struct SnapshotMeta {
  uint64_t checkpoint_lsn = 0;  ///< every WAL record <= this LSN is folded in
  uint64_t next_txn_id = 1;     ///< statement-transaction counter to resume
};

/// \brief Versioned full-state checkpoint files.
///
/// Format (single machine, native byte order; CRC-32 over the whole body as
/// a trailer):
///   magic "AIDBSNAP" | u32 version | u64 checkpoint_lsn | u64 next_txn_id
///   | tables (schema + every slot, tombstones included, so RowIds survive)
///   | index metadata (rebuilt by backfill on load)
///   | model registry (metadata + parameter blobs)
///   | u32 crc
///
/// Files are named snapshot-<lsn>.snap and written via temp-file + rename,
/// so a crash mid-checkpoint leaves the previous snapshot untouched; the
/// loader picks the newest file whose CRC validates and falls back to older
/// ones otherwise.
class Snapshot {
 public:
  /// Serializes catalog + models at `meta` into dir/snapshot-<lsn>.snap,
  /// fsynced unless `sync` is false (DurabilityOptions::sync).
  /// Injection points: mid temp-file write and post-rename (see
  /// FaultPoint); on a fired fault returns Status::Aborted.
  static Result<std::string> Write(const std::string& dir, const SnapshotMeta& meta,
                                   const Catalog& catalog,
                                   const db4ai::ModelRegistry& models,
                                   FaultInjector* fault, bool sync);

  /// Loads the newest valid snapshot in `dir` into the (empty) catalog and
  /// registry. Returns false when no valid snapshot exists (fresh database
  /// or all candidates corrupt — recovery then replays the WAL from LSN 0).
  static Result<bool> LoadLatest(const std::string& dir, Catalog* catalog,
                                 db4ai::ModelRegistry* models, SnapshotMeta* meta);

  /// Deletes all but the `keep` newest snapshot files (checkpoint GC).
  static void RemoveOld(const std::string& dir, size_t keep);
};

}  // namespace aidb::storage
