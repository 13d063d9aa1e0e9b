#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "storage/engine/lsm_engine.h"

namespace e2e {

const char* KindName(Kind k) {
  static constexpr const char* kNames[kNumKinds] = {
      "select",  "execute",  "update",   "insert", "begin",     "commit",
      "scan_agg", "group_agg", "join_agg", "topk",   "range_agg", "ddl"};
  return kNames[static_cast<int>(k)];
}

bool IsRead(Kind k) {
  switch (k) {
    case Kind::kSelect:
    case Kind::kExecute:
    case Kind::kScanAgg:
    case Kind::kGroupAgg:
    case Kind::kJoinAgg:
    case Kind::kTopK:
    case Kind::kRangeAgg:
      return true;
    default:
      return false;
  }
}

bool IsWrite(Kind k) {
  return k == Kind::kUpdate || k == Kind::kInsert || k == Kind::kBegin ||
         k == Kind::kCommit;
}

void Failures::Add(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (list_.size() < 20) list_.push_back(what);
}

bool Failures::any() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !list_.empty();
}

std::vector<std::string> Failures::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  return list_;
}

Client::Client(aidb::server::Service* svc, Clock::time_point epoch,
               SpanRecorder* spans, bool keep_texts)
    : svc_(svc),
      session_(svc->OpenSession()->id()),
      epoch_(epoch),
      spans_(spans),
      keep_texts_(keep_texts) {}

aidb::Result<aidb::QueryResult> Client::Exec(Kind kind, std::string sql,
                                             std::string plan_sql) {
  StmtRecord rec;
  rec.kind = kind;
  const bool in_run = phase_ == Phase::kRun;
  if (keep_texts_ && in_run) {
    rec.text = static_cast<int64_t>(texts_.size());
    texts_.push_back({sql, std::move(plan_sql)});
  }
  const Clock::time_point t0 = Clock::now();
  std::future<aidb::Result<aidb::QueryResult>> fut =
      svc_->Submit(session_, std::move(sql));
  const Clock::time_point t1 = Clock::now();
  aidb::Result<aidb::QueryResult> result = fut.get();
  const Clock::time_point t2 = Clock::now();

  rec.start_us = std::chrono::duration<double, std::micro>(t0 - epoch_).count();
  rec.submit_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  rec.total_us = std::chrono::duration<double, std::micro>(t2 - t0).count();
  rec.ok = result.ok();
  if (rec.ok) {
    rec.engine_us = result.ValueOrDie().elapsed_ms * 1e3;
    rec.cache_hit = result.ValueOrDie().plan_cache_hit;
  }
  if (spans_ != nullptr && in_run) {
    // request = submit + queue + exec.stmt. The engine reports only its own
    // duration, so exec.stmt is placed at the end of the request. It can
    // start before Submit returns (a worker picks the job up at once), so
    // server.queue, the remainder, is queue wait plus worker hand-off and
    // is absent when there is none.
    Span root;
    root.id = spans_->NextId();
    root.request = root.id;
    root.name = "request";
    root.kind = KindName(kind);
    root.start_us = spans_->Us(t0);
    root.dur_us = rec.total_us;
    spans_->Add(root);
    rec.request = root.id;
    Span child = root;
    child.parent = root.id;
    child.id = spans_->NextId();
    child.name = "server.submit";
    child.dur_us = rec.submit_us;
    spans_->Add(child);
    const double engine = std::min(rec.engine_us, rec.total_us);
    const double queue = QueueUs(rec);
    if (queue > 0.0) {
      child.id = spans_->NextId();
      child.name = "server.queue";
      child.start_us = root.start_us + rec.submit_us;
      child.dur_us = queue;
      spans_->Add(child);
    }
    if (rec.ok) {
      child.id = spans_->NextId();
      child.name = "exec.stmt";
      child.start_us = root.start_us + rec.total_us - engine;
      child.dur_us = engine;
      child.cache = IsRead(kind) ? (rec.cache_hit ? 1 : 0) : -1;
      spans_->Add(child);
      rec.exec_span = child.id;
    }
  }
  if (phase_ != Phase::kRamp) (in_run ? run_ : setup_).push_back(rec);
  return result;
}

double QueueUs(const StmtRecord& r) {
  return r.total_us - r.submit_us - r.engine_us;
}

bool Client::MustExec(Kind kind, std::string sql, Failures* failures) {
  std::string shown = sql.substr(0, 80);
  aidb::Result<aidb::QueryResult> r = Exec(kind, std::move(sql));
  if (r.ok()) return true;
  failures->Add("statement failed: " + shown + ": " + r.status().ToString());
  return false;
}

double Counters::Reg(const std::string& name) const {
  for (const auto& m : registry) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

Counters ReadCounters(aidb::Database* db, const aidb::server::Service& svc) {
  Counters c;
  c.registry = db->metrics().Snapshot();
  c.plan_hits = db->plan_cache().hits();
  c.plan_misses = db->plan_cache().misses();
  c.durability = db->durability_stats();
  if (db->lsm_engine() != nullptr) c.lsm = db->lsm_engine()->StatsSnapshot();
  c.total_work = db->total_work();
  c.wal_flush = db->metrics().GetHistogram("wal.flush_us")->Snap();
  c.shed = svc.shed_overloaded() + svc.shed_timeout();
  return c;
}

namespace {
uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x2545f4914f6cdd1dull + stream * 0x9e3779b97f4a7c15ull;
  for (uint64_t& s : s_) s = SplitMix(&x);
}

uint64_t Rng::Next() {  // xoshiro256**
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

Zipf::Zipf(uint64_t n, double theta, Rng* rng) : cdf_(n), perm_(n) {
  double sum = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
  std::iota(perm_.begin(), perm_.end(), 0u);
  for (uint64_t i = n; i > 1; --i) std::swap(perm_[i - 1], perm_[rng->Below(i)]);
}

uint64_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Unit();
  size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return perm_[std::min(rank, perm_.size() - 1)];
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string FsType(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

bool Query(aidb::Database* db, const std::string& sql, aidb::QueryResult* out,
           Failures* f) {
  aidb::Result<aidb::QueryResult> r = db->Execute(sql);
  if (!r.ok()) {
    f->Add("check query failed: " + sql.substr(0, 80) + ": " + r.status().ToString());
    return false;
  }
  *out = std::move(r).ValueOrDie();
  return true;
}

bool CellDouble(const aidb::QueryResult& r, size_t row, size_t col, double* out) {
  if (row >= r.rows.size() || col >= r.rows[row].size()) return false;
  const aidb::Value& v = r.rows[row][col];
  if (v.type() != aidb::ValueType::kInt && v.type() != aidb::ValueType::kDouble) {
    return false;
  }
  *out = v.AsDouble();
  return true;
}

bool CellInt(const aidb::QueryResult& r, size_t row, size_t col, int64_t* out) {
  if (row >= r.rows.size() || col >= r.rows[row].size()) return false;
  const aidb::Value& v = r.rows[row][col];
  if (v.type() == aidb::ValueType::kInt) {
    *out = v.AsInt();
    return true;
  }
  if (v.type() == aidb::ValueType::kDouble && std::isfinite(v.AsDouble()) &&
      std::floor(v.AsDouble()) == v.AsDouble()) {
    *out = static_cast<int64_t>(v.AsDouble());
    return true;
  }
  return false;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace e2e
