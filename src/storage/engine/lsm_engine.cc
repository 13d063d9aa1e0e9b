#include "storage/engine/lsm_engine.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "monitor/metrics.h"
#include "storage/serde.h"
#include "txn/transaction_manager.h"

namespace aidb::storage {

namespace {

constexpr char kManifestMagic[8] = {'A', 'I', 'D', 'B', 'M', 'A', 'N', 'I'};
constexpr const char* kManifestName = "MANIFEST";

Status WriteFileDurably(const std::string& path, const std::string& bytes,
                        bool sync) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return Status::Internal("lsm: open " + path + ": " + std::strerror(errno));
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t w = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal("lsm: write: " + std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(w);
  }
  if (sync && ::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("lsm: fsync: " + std::string(std::strerror(errno)));
  }
  ::close(fd);
  return Status::OK();
}

/// Damage for a crash fired at the manifest update, applied to the temp file
/// (the real MANIFEST is replaced only by a completed rename, so torn /
/// corrupt / dropped-fsync damage always leaves the previous manifest
/// intact). kCleanCrash crashes *after* the durable rename: the new manifest
/// is visible but the caller died before doing anything with it.
Status DamageManifestTmp(const std::string& tmp, const std::string& bytes,
                         FaultKind kind, FaultInjector* fault, bool sync) {
  std::string damaged = bytes;
  switch (kind) {
    case FaultKind::kTornWrite:
      if (!damaged.empty())
        damaged.resize(std::min<size_t>(1 + fault->rng().Uniform(damaged.size()),
                                        damaged.size()));
      break;
    case FaultKind::kCorruptByte:
      if (!damaged.empty()) {
        size_t at = fault->rng().Uniform(damaged.size());
        damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
      }
      break;
    case FaultKind::kDroppedFsync:
      damaged.clear();
      break;
    default:
      break;
  }
  WriteFileDurably(tmp, damaged, sync).ok();
  return Status::Aborted("lsm: simulated crash (" +
                         std::string(FaultKindName(kind)) + ")");
}

bool SameTupleBytes(const Tuple& a, const Tuple& b) {
  std::string ea, eb;
  AppendTuple(&ea, a);
  AppendTuple(&eb, b);
  return ea == eb;
}

}  // namespace

// --- TableState: the ColdTier read side -------------------------------------

const Version* LsmEngine::TableState::FindNewest(const RunVec& rv, RowId id) const {
  for (const std::shared_ptr<SstRun>& run : rv) {
    const Version* v = run->Find(id, &engine->bloom_probes_,
                                 &engine->bloom_negatives_,
                                 &engine->runs_probed_);
    if (v != nullptr) return v;
  }
  return nullptr;
}

const Version* LsmEngine::TableState::ColdVersion(RowId id) {
  engine->gets_.fetch_add(1, std::memory_order_relaxed);
  if (engine->m_cold_gets_ != nullptr) engine->m_cold_gets_->Add(1);
  const RunVec* rv = runs.load(std::memory_order_acquire);
  if (rv == nullptr) return nullptr;
  return FindNewest(*rv, id);
}

Version* LsmEngine::TableState::MaterializeCold(RowId id) {
  const RunVec* rv = runs.load(std::memory_order_acquire);
  if (rv == nullptr) return nullptr;
  const Version* cv = FindNewest(*rv, id);
  if (cv == nullptr) return nullptr;
  return new Version(cv->data, cv->begin_ts.load(std::memory_order_relaxed),
                     txn::kInfinityTs);
}

void LsmEngine::TableState::NoteMaterialized(RowId) {
  engine->materialized_.fetch_add(1, std::memory_order_relaxed);
  if (engine->m_materialized_ != nullptr) engine->m_materialized_->Add(1);
}

bool LsmEngine::TableState::ColdRangeMayMatch(RowId begin, RowId end,
                                              size_t col, Cmp op, double lit) {
  engine->zone_checks_.fetch_add(1, std::memory_order_relaxed);
  const RunVec* rv = runs.load(std::memory_order_acquire);
  if (rv != nullptr) {
    for (const std::shared_ptr<SstRun>& run : *rv) {
      if (run->RangeMayMatch(begin, end, col, op, lit)) return true;
    }
  }
  engine->zone_prunes_.fetch_add(1, std::memory_order_relaxed);
  if (engine->m_zone_prunes_ != nullptr) engine->m_zone_prunes_->Add(1);
  return false;
}

// --- Engine lifecycle -------------------------------------------------------

LsmEngine::LsmEngine(std::string dir, LsmOptions opts,
                     txn::TransactionManager* tm, FaultInjector* fault,
                     bool sync, monitor::MetricsRegistry* metrics)
    : dir_(std::move(dir)), opts_(opts), tm_(tm), fault_(fault), sync_(sync) {
  ::mkdir(dir_.c_str(), 0755);
  if (metrics != nullptr) {
    m_flushes_ = metrics->GetCounter("storage.flushes");
    m_compactions_ = metrics->GetCounter("storage.compactions");
    m_paged_out_ = metrics->GetCounter("storage.paged_out");
    m_materialized_ = metrics->GetCounter("storage.materialized");
    m_cold_gets_ = metrics->GetCounter("storage.cold_gets");
    m_zone_prunes_ = metrics->GetCounter("storage.zone_prunes");
    m_sst_bytes_ = metrics->GetCounter("storage.sst_bytes");
    m_adopted_ = metrics->GetCounter("storage.adopted_slots");
  }
  LoadManifest();
}

LsmEngine::~LsmEngine() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, st] : tables_) {
    st->table->SetColdTier(nullptr);
    delete st->runs.load(std::memory_order_relaxed);
  }
  tables_.clear();
}

void LsmEngine::LoadManifest() {
  int fd = ::open((dir_ + "/" + kManifestName).c_str(), O_RDONLY);
  if (fd < 0) return;  // fresh engine
  std::string data;
  char chunk[1 << 16];
  ssize_t n = 0;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) data.append(chunk, n);
  ::close(fd);
  // Magic + CRC frame; any damage means "no cache" — the SSTs it referenced
  // become orphans GarbageCollect unlinks.
  if (data.size() < sizeof(kManifestMagic) + 8 ||
      std::memcmp(data.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return;
  }
  uint32_t len = 0, crc = 0;
  std::memcpy(&len, data.data() + 8, 4);
  std::memcpy(&crc, data.data() + 12, 4);
  if (16 + static_cast<size_t>(len) > data.size() ||
      serde::Crc32(data.data() + 16, len) != crc) {
    return;
  }
  serde::Reader r(data.data() + 16, len);
  uint32_t ntables = 0;
  if (!r.ReadU32(&ntables)) return;
  std::map<std::string, std::vector<std::pair<std::string, uint32_t>>> parsed;
  for (uint32_t t = 0; t < ntables; ++t) {
    std::string name;
    uint32_t nruns = 0;
    if (!r.ReadString(&name) || !r.ReadU32(&nruns)) return;
    auto& runs = parsed[name];
    for (uint32_t i = 0; i < nruns; ++i) {
      std::string file;
      uint32_t level = 0;
      if (!r.ReadString(&file) || !r.ReadU32(&level)) return;
      runs.emplace_back(std::move(file), level);
    }
  }
  manifest_ = std::move(parsed);
}

Status LsmEngine::WriteManifestLocked() {
  std::string body;
  serde::PutU32(&body, static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, st] : tables_) {
    serde::PutString(&body, name);
    const RunVec* rv = st->runs.load(std::memory_order_acquire);
    serde::PutU32(&body, rv ? static_cast<uint32_t>(rv->size()) : 0);
    if (rv != nullptr) {
      for (const std::shared_ptr<SstRun>& run : *rv) {
        const std::string& p = run->path();
        size_t slash = p.find_last_of('/');
        serde::PutString(&body,
                         slash == std::string::npos ? p : p.substr(slash + 1));
        serde::PutU32(&body, static_cast<uint32_t>(run->level()));
      }
    }
  }
  std::string bytes(kManifestMagic, sizeof(kManifestMagic));
  serde::PutU32(&bytes, static_cast<uint32_t>(body.size()));
  serde::PutU32(&bytes, serde::Crc32(body.data(), body.size()));
  bytes.append(body);

  const std::string tmp = dir_ + "/" + kManifestName + ".tmp";
  const std::string real = dir_ + "/" + kManifestName;
  FaultKind kind = fault_ ? fault_->Fire(FaultPoint::kManifestUpdate)
                          : FaultKind::kNone;
  if (kind != FaultKind::kNone && kind != FaultKind::kCleanCrash) {
    return DamageManifestTmp(tmp, bytes, kind, fault_, sync_);
  }
  AIDB_RETURN_NOT_OK(WriteFileDurably(tmp, bytes, sync_));
  if (::rename(tmp.c_str(), real.c_str()) != 0) {
    return Status::Internal("lsm: rename manifest: " +
                            std::string(std::strerror(errno)));
  }
  if (kind == FaultKind::kCleanCrash) {
    return Status::Aborted("lsm: simulated crash (clean-crash)");
  }
  return Status::OK();
}

std::string LsmEngine::SstPath(const TableState& st, uint64_t file_id) const {
  return dir_ + "/" + st.name + "-" + std::to_string(file_id) + ".sst";
}

void LsmEngine::PublishRuns(TableState* st, std::unique_ptr<RunVec> next) {
  const RunVec* old = st->runs.exchange(next.release(), std::memory_order_acq_rel);
  if (old != nullptr) {
    // Readers may still be probing the old vector (and holding Version
    // pointers into its runs' decoded blocks): dispose through the same
    // serial fence that protects unlinked warm versions.
    tm_->RetireDisposal([old] { delete old; });
  }
}

void LsmEngine::AttachTable(const std::string& name, Table* t) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) != 0) return;
  auto st = std::make_unique<TableState>();
  st->engine = this;
  st->table = t;
  st->name = name;

  // Re-adopt the manifest's runs for this table (recovery attach). Runs load
  // whole-file-validated; a damaged file is simply a lost cache entry.
  auto mit = manifest_.find(name);
  auto rv = std::make_unique<RunVec>();
  if (mit != manifest_.end()) {
    for (const auto& [file, level] : mit->second) {
      // File ids in names stay monotone across restarts.
      size_t dash = file.find_last_of('-');
      if (dash != std::string::npos) {
        uint64_t id = std::strtoull(file.c_str() + dash + 1, nullptr, 10);
        st->next_file_id = std::max(st->next_file_id, id + 1);
      }
      auto run = SstRun::Load(dir_ + "/" + file, /*adopted=*/true);
      if (run.ok()) rv->push_back(std::move(run).ValueOrDie());
      (void)level;  // the run's footer carries its level
    }
    manifest_.erase(mit);
  }
  const bool had_runs = !rv->empty();
  st->runs.store(rv.release(), std::memory_order_release);
  t->SetColdTier(st.get());

  if (had_runs) {
    // Page back out every recovered slot whose frozen version is byte-equal
    // to its newest persisted entry (both sides live at kBootstrapTs after
    // recovery). Anything else is a stale entry the next compaction drops.
    const RunVec* runs = st->runs.load(std::memory_order_acquire);
    std::vector<std::pair<RowId, Version*>> frozen;
    t->CollectFrozen(&frozen);
    uint64_t adopted_slots = 0;
    for (const auto& [id, v] : frozen) {
      const Version* cv = st->FindNewest(*runs, id);
      if (cv == nullptr || !SameTupleBytes(cv->data, v->data)) continue;
      if (t->PageOutIfFrozen(id, v, [this](Version* dead) { tm_->Retire(dead); })) {
        ++adopted_slots;
      }
    }
    adopted_.fetch_add(adopted_slots, std::memory_order_relaxed);
    if (m_adopted_ != nullptr && adopted_slots > 0) m_adopted_->Add(adopted_slots);
  }
  tables_[name] = std::move(st);
}

void LsmEngine::DetachTable(const std::string& name, Table* t) {
  std::unique_ptr<TableState> st;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end()) return;
    st = std::move(it->second);
    tables_.erase(it);
    t->SetColdTier(nullptr);
    // Dropped tables leave the manifest now; their files go at the next
    // GarbageCollect (unlinking here would race readers only on pathological
    // filesystems, but the manifest must not dangle either way).
    WriteManifestLocked().ok();
    const RunVec* rv = st->runs.exchange(nullptr, std::memory_order_acq_rel);
    if (rv != nullptr) {
      for (const std::shared_ptr<SstRun>& run : *rv) ::unlink(run->path().c_str());
      tm_->RetireDisposal([rv] { delete rv; });
    }
  }
  // A racing reader may have loaded the ColdTier* before SetColdTier(nullptr)
  // landed: the state object itself drains through the same fence.
  TableState* raw = st.release();
  tm_->RetireDisposal([raw] { delete raw; });
}

Status LsmEngine::GarbageCollect() {
  std::lock_guard<std::mutex> lock(mu_);
  // Everything an attached table references survives; all other .sst files
  // (crashed-flush orphans, dropped or never-reattached tables) go.
  std::map<std::string, bool> referenced;
  for (const auto& [name, st] : tables_) {
    const RunVec* rv = st->runs.load(std::memory_order_acquire);
    if (rv == nullptr) continue;
    for (const std::shared_ptr<SstRun>& run : *rv) referenced[run->path()] = true;
  }
  bool removed_any = !manifest_.empty();
  manifest_.clear();
  DIR* d = ::opendir(dir_.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      std::string f = e->d_name;
      if (f.size() < 4 || f.substr(f.size() - 4) != ".sst") continue;
      std::string full = dir_ + "/" + f;
      if (referenced.count(full) == 0) {
        ::unlink(full.c_str());
        removed_any = true;
      }
    }
    ::closedir(d);
  }
  if (removed_any) return WriteManifestLocked();
  return Status::OK();
}

// --- Maintenance ------------------------------------------------------------

bool LsmEngine::NeedsMaintenance() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !tables_.empty();
}

Status LsmEngine::Maintain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (Crashed()) return Status::Aborted("lsm: crashed");
  for (auto& [name, st] : tables_) {
    AIDB_RETURN_NOT_OK(MaintainTable(st.get(), /*force_flush=*/false));
  }
  return Status::OK();
}

Status LsmEngine::FlushTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Crashed()) return Status::Aborted("lsm: crashed");
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("lsm: table " + name);
  return MaintainTable(it->second.get(), /*force_flush=*/true);
}

Status LsmEngine::MaintainTable(TableState* st, bool force_flush) {
  AIDB_RETURN_NOT_OK(FlushLocked(st, force_flush));
  return CompactLocked(st);
}

Status LsmEngine::FlushLocked(TableState* st, bool force) {
  std::vector<std::pair<RowId, Version*>> frozen;
  st->table->CollectFrozen(&frozen);
  if (frozen.empty() || (!force && frozen.size() < opts_.memtable_capacity)) {
    return Status::OK();
  }
  std::sort(frozen.begin(), frozen.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<SstEntry> entries;
  entries.reserve(frozen.size());
  for (const auto& [id, v] : frozen) {
    entries.push_back(
        {id, v->begin_ts.load(std::memory_order_relaxed), &v->data});
  }
  const std::string path = SstPath(*st, st->next_file_id);
  SstWriteOptions wopts;
  wopts.bloom_bits_per_key = opts_.bloom_bits_per_key;
  wopts.level = 0;
  wopts.fault = fault_;
  wopts.sync = sync_;
  SstWriteResult wres;
  AIDB_RETURN_NOT_OK(WriteSst(path, entries, st->table->schema().NumColumns(),
                              wopts, &wres));
  ++st->next_file_id;

  auto loaded = SstRun::Load(path, /*adopted=*/false);
  if (!loaded.ok()) return loaded.status();

  // New run enters the published set (and the manifest) BEFORE any head is
  // CASed to the paged sentinel: a reader that observes a sentinel always
  // finds the entry in whatever run vector it loads afterwards.
  const RunVec* cur = st->runs.load(std::memory_order_acquire);
  auto next = std::make_unique<RunVec>();
  next->push_back(std::move(loaded).ValueOrDie());
  if (cur != nullptr) next->insert(next->end(), cur->begin(), cur->end());
  PublishRuns(st, std::move(next));
  AIDB_RETURN_NOT_OK(WriteManifestLocked());

  uint64_t paged = 0;
  for (const auto& [id, v] : frozen) {
    if (st->table->PageOutIfFrozen(
            id, v, [this](Version* dead) { tm_->Retire(dead); })) {
      ++paged;
    }
  }

  entries_written_.fetch_add(paged, std::memory_order_relaxed);
  entries_compacted_.fetch_add(entries.size(), std::memory_order_relaxed);
  blocks_written_.fetch_add(wres.blocks, std::memory_order_relaxed);
  bytes_written_.fetch_add(wres.bytes, std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  if (m_flushes_ != nullptr) m_flushes_->Add(1);
  if (m_paged_out_ != nullptr) m_paged_out_->Add(paged);
  if (m_sst_bytes_ != nullptr) m_sst_bytes_->Add(wres.bytes);
  return Status::OK();
}

Status LsmEngine::CompactLocked(TableState* st) {
  // Per level, leveling triggers at 2 runs and absorbs the level below;
  // tiering triggers at size_ratio runs.
  const size_t trigger = opts_.leveling ? 2 : std::max<size_t>(2, opts_.size_ratio);
  bool progress = true;
  while (progress) {
    progress = false;
    const RunVec* cur = st->runs.load(std::memory_order_acquire);
    if (cur == nullptr || cur->size() < trigger) return Status::OK();

    std::map<size_t, size_t> per_level;
    for (const auto& run : *cur) ++per_level[run->level()];
    size_t level = SIZE_MAX;
    for (const auto& [l, n] : per_level) {
      if (n >= trigger) {
        level = l;
        break;
      }
    }
    if (level == SIZE_MAX) return Status::OK();

    std::vector<std::shared_ptr<SstRun>> inputs;  // newest-first, like cur
    auto keep = std::make_unique<RunVec>();
    for (const auto& run : *cur) {
      bool take = run->level() == level ||
                  (opts_.leveling && run->level() == level + 1);
      if (take) {
        inputs.push_back(run);
      } else {
        keep->push_back(run);
      }
    }

    // Merge newest-first precedence; drop entries whose slot is no longer
    // paged (dead, or rematerialized by a writer — its warm version shadows
    // the stale bytes, and post-recovery disagreements land here too).
    std::map<RowId, std::pair<uint64_t, const Tuple*>> merged;
    for (const std::shared_ptr<SstRun>& run : inputs) {
      run->ForEach([&](RowId id, uint64_t ts, const Tuple& row) {
        if (merged.count(id) != 0) return;  // a newer run already spoke
        if (!st->table->IsPaged(id)) return;
        merged.emplace(id, std::make_pair(ts, &row));
      });
    }

    std::shared_ptr<SstRun> out_run;
    SstWriteResult wres;
    if (!merged.empty()) {
      std::vector<SstEntry> entries;
      entries.reserve(merged.size());
      for (const auto& [id, e] : merged) entries.push_back({id, e.first, e.second});
      const std::string path = SstPath(*st, st->next_file_id);
      SstWriteOptions wopts;
      wopts.bloom_bits_per_key = opts_.bloom_bits_per_key;
      wopts.level = level + 1;
      wopts.compaction = true;
      wopts.fault = fault_;
      wopts.sync = sync_;
      AIDB_RETURN_NOT_OK(WriteSst(path, entries,
                                  st->table->schema().NumColumns(), wopts,
                                  &wres));
      ++st->next_file_id;
      auto loaded = SstRun::Load(path, /*adopted=*/false);
      if (!loaded.ok()) return loaded.status();
      out_run = std::move(loaded).ValueOrDie();
      entries_compacted_.fetch_add(entries.size(), std::memory_order_relaxed);
      blocks_written_.fetch_add(wres.blocks, std::memory_order_relaxed);
      bytes_written_.fetch_add(wres.bytes, std::memory_order_relaxed);
      if (m_sst_bytes_ != nullptr) m_sst_bytes_->Add(wres.bytes);
    }

    // The merged run is newer than every run already at level + 1 (tiering
    // keeps those), so it goes first: the stable sort then keeps each level
    // newest-first, and deeper levels hold strictly older data.
    if (out_run != nullptr) keep->insert(keep->begin(), out_run);
    std::stable_sort(keep->begin(), keep->end(),
                     [](const std::shared_ptr<SstRun>& a,
                        const std::shared_ptr<SstRun>& b) {
                       return a->level() < b->level();
                     });
    PublishRuns(st, std::move(keep));
    AIDB_RETURN_NOT_OK(WriteManifestLocked());
    for (const std::shared_ptr<SstRun>& run : inputs) {
      ::unlink(run->path().c_str());
    }
    compactions_.fetch_add(1, std::memory_order_relaxed);
    if (m_compactions_ != nullptr) m_compactions_->Add(1);
    progress = true;
  }
  return Status::OK();
}

// --- Introspection ----------------------------------------------------------

LsmStats LsmEngine::StatsSnapshot() const {
  LsmStats s;
  s.entries_written = entries_written_.load(std::memory_order_relaxed);
  s.entries_compacted = entries_compacted_.load(std::memory_order_relaxed);
  s.runs_probed = runs_probed_.load(std::memory_order_relaxed);
  s.bloom_negatives = bloom_negatives_.load(std::memory_order_relaxed);
  s.gets = gets_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.blocks_written = blocks_written_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.bloom_probes = bloom_probes_.load(std::memory_order_relaxed);
  s.zone_checks = zone_checks_.load(std::memory_order_relaxed);
  s.zone_prunes = zone_prunes_.load(std::memory_order_relaxed);
  s.materialized = materialized_.load(std::memory_order_relaxed);
  s.adopted = adopted_.load(std::memory_order_relaxed);
  return s;
}

std::vector<LsmEngine::TableInfo> LsmEngine::TableInfos() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TableInfo> out;
  out.reserve(tables_.size());
  for (const auto& [name, st] : tables_) {
    TableInfo info;
    info.table = name;
    const RunVec* rv = st->runs.load(std::memory_order_acquire);
    if (rv != nullptr) {
      info.runs = rv->size();
      for (const std::shared_ptr<SstRun>& run : *rv) {
        info.max_level = std::max<uint64_t>(info.max_level, run->level());
        info.entries += run->entry_count();
        info.file_bytes += run->file_bytes();
      }
    }
    info.paged_slots = st->table->PagedCount();
    std::vector<std::pair<RowId, Version*>> frozen;
    st->table->CollectFrozen(&frozen);
    info.frozen_slots = frozen.size();
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace aidb::storage
