#include "storage/engine/sst.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include "storage/serde.h"
#include "txn/types.h"

namespace aidb::storage {

namespace {

constexpr char kMagic[8] = {'A', 'I', 'D', 'B', 'S', 'S', 'T', '1'};
constexpr char kTrailerMagic[8] = {'A', 'I', 'D', 'B', 'S', 'S', 'T', 'F'};
constexpr size_t kTrailerSize = 8 + sizeof(kTrailerMagic);  // footer offset + magic
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bloom probe hash: a 64-bit mixer over the slot id, three salted probes.
uint64_t BloomHash(uint64_t key, uint64_t salt) {
  uint64_t x = key * 0x9E3779B97F4A7C15ULL + salt;
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  return x;
}

void BloomAdd(std::vector<uint64_t>* bloom, uint64_t key) {
  uint64_t nbits = bloom->size() * 64;
  for (uint64_t i = 0; i < 3; ++i) {
    uint64_t bit = BloomHash(key, i) % nbits;
    (*bloom)[bit / 64] |= (1ULL << (bit % 64));
  }
}

bool BloomTest(const std::vector<uint64_t>& bloom, uint64_t key) {
  if (bloom.empty()) return true;
  uint64_t nbits = bloom.size() * 64;
  for (uint64_t i = 0; i < 3; ++i) {
    uint64_t bit = BloomHash(key, i) % nbits;
    if (!(bloom[bit / 64] & (1ULL << (bit % 64)))) return false;
  }
  return true;
}

/// Appends a CRC-framed body: [u32 body_len][u32 crc32(body)][body].
void AppendFrame(std::string* out, const std::string& body) {
  serde::PutU32(out, static_cast<uint32_t>(body.size()));
  serde::PutU32(out, serde::Crc32(body.data(), body.size()));
  out->append(body);
}

Status PhysicalWrite(int fd, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("sst: write: " + std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

/// Applies the armed fault's file damage for a buffer about to be written,
/// mirroring WalWriter::SimulateCrash: torn = a prefix lands, corrupt = all
/// lands with one byte flipped, dropped-fsync = everything since the last
/// durable sync (here: the whole file, synced only at the end) vanishes.
Status SimulateCrash(int fd, const std::string& buf, FaultKind kind,
                     const SstWriteOptions& opts) {
  FaultInjector* fault = opts.fault;
  switch (kind) {
    case FaultKind::kTornWrite: {
      size_t torn = buf.empty() ? 0 : 1 + fault->rng().Uniform(buf.size());
      PhysicalWrite(fd, buf.data(), std::min(torn, buf.size())).ok();
      if (opts.sync) ::fsync(fd);
      break;
    }
    case FaultKind::kCorruptByte: {
      std::string damaged = buf;
      if (!damaged.empty()) {
        size_t at = fault->rng().Uniform(damaged.size());
        damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
      }
      PhysicalWrite(fd, damaged.data(), damaged.size()).ok();
      if (opts.sync) ::fsync(fd);
      break;
    }
    case FaultKind::kDroppedFsync: {
      PhysicalWrite(fd, buf.data(), buf.size()).ok();
      ::ftruncate(fd, 0);
      break;
    }
    case FaultKind::kCleanCrash:
    case FaultKind::kNone:
      break;
  }
  ::close(fd);
  return Status::Aborted("sst: simulated crash (" +
                         std::string(FaultKindName(kind)) + ")");
}

/// Per-column zone bounds over one block of entries. Bounds are widened one
/// ulp outward so a lossy int64 -> double cast can never exclude a real key;
/// NULL, string or NaN values poison the column to [-inf, +inf] (a NaN
/// passes `v > x` for every x, and min/max would skip it).
std::vector<std::pair<double, double>> ComputeZones(
    const std::vector<SstEntry>& entries, size_t lo, size_t hi, size_t ncols) {
  std::vector<std::pair<double, double>> zones(ncols, {kInf, -kInf});
  std::vector<bool> poisoned(ncols, false);
  for (size_t i = lo; i < hi; ++i) {
    const Tuple& row = *entries[i].row;
    for (size_t c = 0; c < ncols && c < row.size(); ++c) {
      const Value& v = row[c];
      if (v.is_null() || v.type() == ValueType::kString || std::isnan(v.AsDouble())) {
        poisoned[c] = true;
        continue;
      }
      double d = v.AsDouble();
      zones[c].first = std::min(zones[c].first, d);
      zones[c].second = std::max(zones[c].second, d);
    }
    for (size_t c = row.size(); c < ncols; ++c) poisoned[c] = true;
  }
  for (size_t c = 0; c < ncols; ++c) {
    if (poisoned[c] || zones[c].first > zones[c].second) {
      zones[c] = {-kInf, kInf};
    } else {
      zones[c].first = std::nextafter(zones[c].first, -kInf);
      zones[c].second = std::nextafter(zones[c].second, kInf);
    }
  }
  return zones;
}

bool ZoneMayMatch(const std::pair<double, double>& z, ColdTier::Cmp op,
                  double lit) {
  const double mn = z.first, mx = z.second;
  switch (op) {
    case ColdTier::Cmp::kEq: return lit >= mn && lit <= mx;
    case ColdTier::Cmp::kLt: return mn < lit;
    case ColdTier::Cmp::kLe: return mn <= lit;
    case ColdTier::Cmp::kGt: return mx > lit;
    case ColdTier::Cmp::kGe: return mx >= lit;
  }
  return true;
}

}  // namespace

Status WriteSst(const std::string& path, const std::vector<SstEntry>& entries,
                size_t num_columns, const SstWriteOptions& opts,
                SstWriteResult* out) {
  if (entries.empty()) return Status::InvalidArgument("sst: empty run");
  const size_t per_block = std::max<size_t>(1, opts.block_entries);
  const FaultPoint block_point =
      opts.compaction ? FaultPoint::kCompactionWrite : FaultPoint::kSstBlockWrite;

  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return Status::Internal("sst: open " + path + ": " + std::strerror(errno));

  std::string head(kMagic, sizeof(kMagic));
  Status st = PhysicalWrite(fd, head.data(), head.size());
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  uint64_t offset = head.size();

  std::vector<SstBlockMeta> blocks;
  std::string footer;
  for (size_t lo = 0; lo < entries.size(); lo += per_block) {
    const size_t hi = std::min(lo + per_block, entries.size());
    std::string body;
    serde::PutU32(&body, static_cast<uint32_t>(hi - lo));
    for (size_t i = lo; i < hi; ++i) {
      serde::PutU64(&body, entries[i].slot);
      serde::PutU64(&body, entries[i].begin_ts);
      AppendTuple(&body, *entries[i].row);
    }
    std::string frame;
    AppendFrame(&frame, body);

    if (opts.fault != nullptr) {
      FaultKind kind = opts.fault->Fire(block_point);
      if (kind != FaultKind::kNone) return SimulateCrash(fd, frame, kind, opts);
    }
    st = PhysicalWrite(fd, frame.data(), frame.size());
    if (!st.ok()) {
      ::close(fd);
      return st;
    }

    SstBlockMeta meta;
    meta.first_slot = entries[lo].slot;
    meta.last_slot = entries[hi - 1].slot;
    meta.offset = offset;
    meta.length = static_cast<uint32_t>(frame.size());
    meta.entries = static_cast<uint32_t>(hi - lo);
    meta.zones = ComputeZones(entries, lo, hi, num_columns);
    offset += frame.size();
    blocks.push_back(std::move(meta));
    if (out != nullptr) {
      ++out->blocks;
      out->bytes += frame.size();
      out->entries += hi - lo;
    }
  }

  // Footer: counts, bloom over slot ids, block index with zone maps.
  std::string body;
  serde::PutU64(&body, entries.size());
  serde::PutU64(&body, entries.front().slot);
  serde::PutU64(&body, entries.back().slot);
  serde::PutU32(&body, static_cast<uint32_t>(opts.level));
  serde::PutU32(&body, static_cast<uint32_t>(num_columns));
  serde::PutU32(&body, static_cast<uint32_t>(opts.bloom_bits_per_key));
  std::vector<uint64_t> bloom;
  if (opts.bloom_bits_per_key > 0) {
    size_t bits = std::max<size_t>(64, entries.size() * opts.bloom_bits_per_key);
    bloom.assign((bits + 63) / 64, 0);
    for (const SstEntry& e : entries) BloomAdd(&bloom, e.slot);
  }
  serde::PutU32(&body, static_cast<uint32_t>(bloom.size()));
  for (uint64_t w : bloom) serde::PutU64(&body, w);
  serde::PutU32(&body, static_cast<uint32_t>(blocks.size()));
  for (const SstBlockMeta& b : blocks) {
    serde::PutU64(&body, b.first_slot);
    serde::PutU64(&body, b.last_slot);
    serde::PutU64(&body, b.offset);
    serde::PutU32(&body, b.length);
    serde::PutU32(&body, b.entries);
    for (const auto& [mn, mx] : b.zones) {
      serde::PutDouble(&body, mn);
      serde::PutDouble(&body, mx);
    }
  }
  AppendFrame(&footer, body);
  serde::PutU64(&footer, offset);  // trailer: footer frame offset + magic
  footer.append(kTrailerMagic, sizeof(kTrailerMagic));

  if (opts.fault != nullptr) {
    FaultKind kind = opts.fault->Fire(FaultPoint::kSstFooter);
    if (kind == FaultKind::kCleanCrash) {
      // The file completes durably but the caller dies before the manifest
      // references it: a valid orphan recovery must garbage-collect.
      PhysicalWrite(fd, footer.data(), footer.size()).ok();
      if (opts.sync) ::fsync(fd);
      ::close(fd);
      return Status::Aborted("sst: simulated crash (clean-crash)");
    }
    if (kind != FaultKind::kNone) return SimulateCrash(fd, footer, kind, opts);
  }
  st = PhysicalWrite(fd, footer.data(), footer.size());
  if (st.ok() && opts.sync && ::fsync(fd) != 0) {
    st = Status::Internal("sst: fsync: " + std::string(std::strerror(errno)));
  }
  ::close(fd);
  if (out != nullptr) out->bytes += footer.size();
  return st;
}

Result<std::shared_ptr<SstRun>> SstRun::Load(const std::string& path,
                                             bool adopted) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    return Status::Internal("sst: open " + path + ": " + std::strerror(errno));
  std::string data;
  char chunk[1 << 16];
  ssize_t n = 0;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) data.append(chunk, n);
  ::close(fd);
  if (n < 0)
    return Status::Internal("sst: read: " + std::string(std::strerror(errno)));

  if (data.size() < sizeof(kMagic) + kTrailerSize ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0 ||
      std::memcmp(data.data() + data.size() - sizeof(kTrailerMagic),
                  kTrailerMagic, sizeof(kTrailerMagic)) != 0) {
    return Status::Internal("sst: bad magic/trailer in " + path);
  }
  uint64_t footer_off = 0;
  std::memcpy(&footer_off, data.data() + data.size() - kTrailerSize, 8);
  if (footer_off < sizeof(kMagic) || footer_off + 8 > data.size() - kTrailerSize)
    return Status::Internal("sst: footer offset out of range in " + path);

  auto read_frame = [&](uint64_t off, uint64_t limit,
                        serde::Reader* out_r) -> Status {
    if (off + 8 > limit) return Status::Internal("sst: truncated frame");
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, data.data() + off, 4);
    std::memcpy(&crc, data.data() + off + 4, 4);
    if (off + 8 + len > limit) return Status::Internal("sst: truncated frame");
    if (serde::Crc32(data.data() + off + 8, len) != crc)
      return Status::Internal("sst: frame CRC mismatch");
    *out_r = serde::Reader(data.data() + off + 8, len);
    return Status::OK();
  };

  serde::Reader fr(nullptr, 0);
  AIDB_RETURN_NOT_OK(read_frame(footer_off, data.size() - kTrailerSize, &fr));

  auto run = std::shared_ptr<SstRun>(new SstRun());
  uint64_t entry_count = 0;
  uint32_t level = 0, ncols = 0, bloom_bits = 0, bloom_words = 0, nblocks = 0;
  if (!fr.ReadU64(&entry_count) || !fr.ReadU64(&run->min_slot_) ||
      !fr.ReadU64(&run->max_slot_) || !fr.ReadU32(&level) ||
      !fr.ReadU32(&ncols) || !fr.ReadU32(&bloom_bits) ||
      !fr.ReadU32(&bloom_words)) {
    return Status::Internal("sst: truncated footer in " + path);
  }
  run->bloom_.resize(bloom_words);
  for (uint32_t i = 0; i < bloom_words; ++i) {
    if (!fr.ReadU64(&run->bloom_[i]))
      return Status::Internal("sst: truncated bloom in " + path);
  }
  if (!fr.ReadU32(&nblocks))
    return Status::Internal("sst: truncated block index in " + path);
  run->blocks_.reserve(nblocks);
  for (uint32_t b = 0; b < nblocks; ++b) {
    SstBlockMeta m;
    if (!fr.ReadU64(&m.first_slot) || !fr.ReadU64(&m.last_slot) ||
        !fr.ReadU64(&m.offset) || !fr.ReadU32(&m.length) ||
        !fr.ReadU32(&m.entries)) {
      return Status::Internal("sst: truncated block meta in " + path);
    }
    m.zones.resize(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      if (!fr.ReadDouble(&m.zones[c].first) ||
          !fr.ReadDouble(&m.zones[c].second)) {
        return Status::Internal("sst: truncated zone map in " + path);
      }
    }
    if (m.offset < sizeof(kMagic) || m.offset + m.length > footer_off)
      return Status::Internal("sst: block extent out of range in " + path);
    // Validate the data block's CRC eagerly: a run is either fully sound at
    // load or rejected whole — recovery never surfaces a half-flushed run.
    serde::Reader check(nullptr, 0);
    AIDB_RETURN_NOT_OK(read_frame(m.offset, footer_off, &check));
    run->blocks_.push_back(std::move(m));
  }

  run->path_ = path;
  run->raw_ = std::move(data);
  run->level_ = level;
  run->num_columns_ = ncols;
  run->entry_count_ = entry_count;
  run->file_bytes_ = run->raw_.size();
  run->adopted_ = adopted;
  run->bloom_bits_per_key_ = bloom_bits;
  run->decoded_.resize(run->blocks_.size());
  return run;
}

const SstRun::DecodedBlock* SstRun::Block(size_t b) {
  std::lock_guard<std::mutex> lock(decode_mu_);
  if (decoded_[b] != nullptr) return decoded_[b].get();
  const SstBlockMeta& m = blocks_[b];
  auto db = std::make_unique<DecodedBlock>();
  serde::Reader r(raw_.data() + m.offset + 8, m.length - 8);
  uint32_t nentries = 0;
  if (!r.ReadU32(&nentries)) return nullptr;  // cannot happen: CRC-validated
  for (uint32_t i = 0; i < nentries; ++i) {
    uint64_t slot = 0, ts = 0;
    if (!r.ReadU64(&slot) || !r.ReadU64(&ts)) return nullptr;
    auto row = DeserializeTuple(&r);
    if (!row.ok()) return nullptr;
    db->slots.push_back(slot);
    db->versions.emplace_back(std::move(row).ValueOrDie(),
                              adopted_ ? txn::kBootstrapTs : ts,
                              txn::kInfinityTs);
  }
  decoded_[b] = std::move(db);
  return decoded_[b].get();
}

bool SstRun::MayContain(RowId slot) const {
  if (slot < min_slot_ || slot > max_slot_) return false;
  if (bloom_bits_per_key_ == 0) return true;
  return BloomTest(bloom_, slot);
}

const Version* SstRun::Find(RowId slot) {
  return Find(slot, nullptr, nullptr, nullptr);
}

const Version* SstRun::Find(RowId slot, std::atomic<uint64_t>* bloom_probes,
                            std::atomic<uint64_t>* bloom_negatives,
                            std::atomic<uint64_t>* runs_probed) {
  if (slot < min_slot_ || slot > max_slot_) return nullptr;
  if (bloom_bits_per_key_ > 0) {
    if (bloom_probes != nullptr)
      bloom_probes->fetch_add(1, std::memory_order_relaxed);
    if (!BloomTest(bloom_, slot)) {
      if (bloom_negatives != nullptr)
        bloom_negatives->fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
  }
  if (runs_probed != nullptr)
    runs_probed->fetch_add(1, std::memory_order_relaxed);
  auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), slot,
      [](const SstBlockMeta& m, RowId s) { return m.last_slot < s; });
  if (it == blocks_.end() || it->first_slot > slot) return nullptr;
  const DecodedBlock* db = Block(static_cast<size_t>(it - blocks_.begin()));
  if (db == nullptr) return nullptr;
  auto sit = std::lower_bound(db->slots.begin(), db->slots.end(), slot);
  if (sit == db->slots.end() || *sit != slot) return nullptr;
  return &db->versions[static_cast<size_t>(sit - db->slots.begin())];
}

bool SstRun::RangeMayMatch(RowId begin, RowId end, size_t col,
                           ColdTier::Cmp op, double lit) const {
  if (col >= num_columns_) return true;
  for (const SstBlockMeta& m : blocks_) {
    if (m.last_slot < begin || m.first_slot >= end) continue;
    if (ZoneMayMatch(m.zones[col], op, lit)) return true;
  }
  return false;
}

void SstRun::ForEach(
    const std::function<void(RowId, uint64_t, const Tuple&)>& fn) {
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const DecodedBlock* db = Block(b);
    if (db == nullptr) continue;
    for (size_t i = 0; i < db->slots.size(); ++i) {
      fn(db->slots[i],
         db->versions[i].begin_ts.load(std::memory_order_relaxed),
         db->versions[i].data);
    }
  }
}

}  // namespace aidb::storage
