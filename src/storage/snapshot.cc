#include "storage/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "storage/serde.h"

namespace aidb::storage {

namespace {

constexpr char kMagic[8] = {'A', 'I', 'D', 'B', 'S', 'N', 'A', 'P'};
constexpr uint32_t kVersion = 1;

std::string SnapshotPath(const std::string& dir, uint64_t lsn) {
  return dir + "/snapshot-" + std::to_string(lsn) + ".snap";
}

/// snapshot-<lsn>.snap files in `dir`, newest (highest LSN) first.
std::vector<std::pair<uint64_t, std::string>> ListSnapshots(const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) != 0 || name.size() < 15) continue;
    if (name.substr(name.size() - 5) != ".snap") continue;
    errno = 0;
    char* end = nullptr;
    uint64_t lsn = std::strtoull(name.c_str() + 9, &end, 10);
    if (errno != 0 || end == nullptr || std::string(end) != ".snap") continue;
    out.emplace_back(lsn, entry.path().string());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

Status WriteFileDurably(const std::string& path, const std::string& bytes,
                        FaultInjector* fault, bool sync) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return Status::Internal("snapshot: open " + path + ": " + std::strerror(errno));
  size_t to_write = bytes.size();
  if (fault != nullptr) {
    FaultKind kind = fault->Fire(FaultPoint::kSnapshotWrite);
    if (kind != FaultKind::kNone) {
      // Crash mid temp-file write: a truncated .tmp that is never renamed.
      size_t torn = bytes.empty() ? 0 : fault->rng().Uniform(bytes.size());
      [[maybe_unused]] ssize_t w = ::write(fd, bytes.data(), torn);
      ::close(fd);
      return Status::Aborted("snapshot: simulated crash (" +
                             std::string(FaultKindName(kind)) + ")");
    }
  }
  size_t done = 0;
  while (done < to_write) {
    ssize_t w = ::write(fd, bytes.data() + done, to_write - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal("snapshot: write: " + std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(w);
  }
  if (sync && ::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("snapshot: fsync: " + std::string(std::strerror(errno)));
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

Result<std::string> Snapshot::Write(const std::string& dir, const SnapshotMeta& meta,
                                    const Catalog& catalog,
                                    const db4ai::ModelRegistry& models,
                                    FaultInjector* fault, bool sync) {
  std::string body;
  body.append(kMagic, sizeof(kMagic));
  serde::PutU32(&body, kVersion);
  serde::PutU64(&body, meta.checkpoint_lsn);
  serde::PutU64(&body, meta.next_txn_id);

  // Tables: name, schema, then every slot in RowId order. Tombstoned slots
  // are kept (flag only) so replayed WAL records hit the right RowIds.
  std::vector<std::string> names = catalog.TableNames();
  std::sort(names.begin(), names.end());
  serde::PutU32(&body, static_cast<uint32_t>(names.size()));
  for (const auto& name : names) {
    const Table* t = std::move(catalog.GetTable(name)).ValueOrDie();
    serde::PutString(&body, name);
    t->schema().AppendTo(&body);
    serde::PutU64(&body, t->NumSlots());
    for (RowId id = 0; id < t->NumSlots(); ++id) {
      if (t->IsLive(id)) {
        serde::PutU8(&body, 1);
        AppendTuple(&body, t->RowAt(id));
      } else {
        serde::PutU8(&body, 0);
      }
    }
  }

  // Index metadata only: contents are rebuilt by CreateIndex backfill.
  auto indexes = catalog.AllIndexes();
  serde::PutU32(&body, static_cast<uint32_t>(indexes.size()));
  for (const IndexInfo* idx : indexes) {
    serde::PutString(&body, idx->name);
    serde::PutString(&body, idx->table);
    serde::PutString(&body, idx->column);
    serde::PutU8(&body, idx->is_btree ? 1 : 0);
  }

  // Models: metadata + parameter blobs.
  auto serialized = models.Snapshot();
  serde::PutU32(&body, static_cast<uint32_t>(serialized.size()));
  for (const auto& m : serialized) m.AppendTo(&body);

  serde::PutU32(&body, serde::Crc32(body.data(), body.size()));

  std::string final_path = SnapshotPath(dir, meta.checkpoint_lsn);
  std::string tmp_path = final_path + ".tmp";
  AIDB_RETURN_NOT_OK(WriteFileDurably(tmp_path, body, fault, sync));
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0)
    return Status::Internal("snapshot: rename: " + std::string(std::strerror(errno)));
  if (fault != nullptr) {
    FaultKind kind = fault->Fire(FaultPoint::kPostSnapshotRename);
    if (kind != FaultKind::kNone) {
      // Snapshot is durable but the WAL was not reset: recovery must skip
      // records with lsn <= checkpoint_lsn instead of replaying them twice.
      return Status::Aborted("snapshot: simulated crash after rename (" +
                             std::string(FaultKindName(kind)) + ")");
    }
  }
  return final_path;
}

namespace {

Status LoadOne(const std::string& path, Catalog* catalog,
               db4ai::ModelRegistry* models, SnapshotMeta* meta) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    return Status::Internal("snapshot: open " + path + ": " + std::strerror(errno));
  std::string data;
  char chunk[1 << 16];
  ssize_t n = 0;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) data.append(chunk, n);
  ::close(fd);
  if (n < 0)
    return Status::Internal("snapshot: read: " + std::string(std::strerror(errno)));

  if (data.size() < sizeof(kMagic) + 4 + 4 ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
    return Status::Internal("snapshot: bad magic in " + path);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data.data() + data.size() - 4, 4);
  if (serde::Crc32(data.data(), data.size() - 4) != stored_crc)
    return Status::Internal("snapshot: CRC mismatch in " + path);

  serde::Reader r(data.data() + sizeof(kMagic), data.size() - sizeof(kMagic) - 4);
  uint32_t version = 0;
  if (!r.ReadU32(&version)) return Status::Internal("snapshot: truncated header");
  if (version != kVersion)
    return Status::Internal("snapshot: unsupported version " +
                            std::to_string(version));
  if (!r.ReadU64(&meta->checkpoint_lsn) || !r.ReadU64(&meta->next_txn_id))
    return Status::Internal("snapshot: truncated meta");

  uint32_t ntables = 0;
  if (!r.ReadU32(&ntables)) return Status::Internal("snapshot: truncated tables");
  for (uint32_t i = 0; i < ntables; ++i) {
    std::string name;
    if (!r.ReadString(&name)) return Status::Internal("snapshot: truncated table");
    Schema schema;
    AIDB_ASSIGN_OR_RETURN(schema, Schema::Deserialize(&r));
    Table* t = nullptr;
    AIDB_ASSIGN_OR_RETURN(t, catalog->CreateTable(name, std::move(schema)));
    uint64_t nslots = 0;
    if (!r.ReadU64(&nslots)) return Status::Internal("snapshot: truncated slots");
    for (uint64_t s = 0; s < nslots; ++s) {
      uint8_t live = 0;
      if (!r.ReadU8(&live)) return Status::Internal("snapshot: truncated slot");
      if (live) {
        Tuple row;
        AIDB_ASSIGN_OR_RETURN(row, DeserializeTuple(&r));
        AIDB_RETURN_NOT_OK(t->Insert(std::move(row)).status());
      } else {
        t->AppendTombstone();
      }
    }
  }

  uint32_t nindexes = 0;
  if (!r.ReadU32(&nindexes)) return Status::Internal("snapshot: truncated indexes");
  for (uint32_t i = 0; i < nindexes; ++i) {
    std::string iname, table, column;
    uint8_t btree = 1;
    if (!r.ReadString(&iname) || !r.ReadString(&table) || !r.ReadString(&column) ||
        !r.ReadU8(&btree))
      return Status::Internal("snapshot: truncated index");
    AIDB_RETURN_NOT_OK(
        catalog->CreateIndex(iname, table, column, btree != 0).status());
  }

  uint32_t nmodels = 0;
  if (!r.ReadU32(&nmodels)) return Status::Internal("snapshot: truncated models");
  for (uint32_t i = 0; i < nmodels; ++i) {
    db4ai::SerializedModel m;
    AIDB_ASSIGN_OR_RETURN(m, db4ai::SerializedModel::Deserialize(&r));
    AIDB_RETURN_NOT_OK(models->Restore(m));
  }
  return Status::OK();
}

}  // namespace

Result<bool> Snapshot::LoadLatest(const std::string& dir, Catalog* catalog,
                                  db4ai::ModelRegistry* models,
                                  SnapshotMeta* meta) {
  for (const auto& [lsn, path] : ListSnapshots(dir)) {
    // Load into scratch state first: a corrupt candidate must not leave the
    // real catalog half-populated before we fall back to an older snapshot.
    Catalog scratch_catalog;
    db4ai::ModelRegistry scratch_models;
    SnapshotMeta scratch_meta;
    if (LoadOne(path, &scratch_catalog, &scratch_models, &scratch_meta).ok()) {
      AIDB_RETURN_NOT_OK(LoadOne(path, catalog, models, meta));
      return true;
    }
  }
  return false;
}

void Snapshot::RemoveOld(const std::string& dir, size_t keep) {
  auto snaps = ListSnapshots(dir);
  for (size_t i = keep; i < snaps.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(snaps[i].second, ec);
  }
  // Stray temp files from crashed checkpoints are garbage by definition.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp")
      std::filesystem::remove(entry.path(), ec);
  }
}

}  // namespace aidb::storage
