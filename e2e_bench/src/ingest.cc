// ingest: one session on a durable LSM database (default LsmOptions). The
// stream appends multi-row INSERT batches, so the table outgrows many
// memtables, and interleaves point SELECTs and UPDATEs on the older half of
// the table (paged out to SSTs) with a periodic aggregate over recent ids.

#include <cmath>

#include "workloads.h"

namespace e2e {
namespace {

constexpr int64_t kPreloadRows = 16384;
constexpr int64_t kPreloadBatch = 256;
constexpr int64_t kBatch = 64;          ///< rows per INSERT in the run
constexpr int kReadsPerTick = 8;        ///< point SELECTs per INSERT
constexpr double kUpdateShare = 0.6;    ///< UPDATEs per INSERT
constexpr int kRangeEvery = 6;          ///< ticks per range aggregate
constexpr int64_t kRangeSpan = 4096;    ///< recent ids the aggregate covers
constexpr size_t kPadLen = 24;
/// Ticks (one INSERT batch with its reads and updates) per second the fixed
/// stream is sized by.
constexpr double kTicksPerSecond = 120.0;
constexpr int kWarmupReads = 32;

class Ingest final : public Workload {
 public:
  Ingest(uint64_t seed, double seconds)
      : seed_(seed),
        ticks_(static_cast<size_t>(std::ceil(seconds * kTicksPerSecond))),
        rng_(seed, 1) {}

  std::string knobs() const override {
    return "lsm = true, default LsmOptions (memtable 4096, size ratio 4, "
           "leveling, bloom 8 bits/key); no SetDop, so storage maintenance "
           "runs inline";
  }
  aidb::DurabilityOptions durability() const override {
    aidb::DurabilityOptions o;
    o.lsm = true;
    return o;
  }

  void Setup(const std::vector<Client*>& clients, Failures* f) override {
    Client* c = clients[0];
    c->MustExec(Kind::kDdl, "CREATE TABLE ev (id INT, k INT, v INT, pad STRING)", f);
    c->MustExec(Kind::kDdl, "CREATE INDEX ev_id ON ev (id)", f);
    while (static_cast<int64_t>(v_.size()) < kPreloadRows) {
      c->MustExec(Kind::kInsert, InsertBatch(kPreloadBatch, nullptr), f);
    }
    c->MustExec(Kind::kDdl, "ANALYZE ev", f);
    Rng warm(seed_, 3);
    for (int i = 0; i < kWarmupReads; ++i) PointRead(c, &warm, nullptr);
  }

  void RunSession(size_t /*i*/, Client* c, Failures* f) override {
    Rng rng(seed_, 100);
    c->Reserve(ticks_ * (2 + kReadsPerTick));
    const uint64_t rows_before = v_.size();
    for (size_t tick = 0; tick < ticks_; ++tick) {
      uint64_t bytes = 0;
      if (c->Exec(Kind::kInsert, InsertBatch(kBatch, &bytes)).ok()) {
        user_bytes_ += bytes;
      } else {
        // The model already holds the batch; a lost INSERT fails the checks.
        f->Add("ingest INSERT batch failed");
      }
      for (int r = 0; r < kReadsPerTick; ++r) PointRead(c, &rng, f);
      if (rng.Unit() < kUpdateShare) Update(c, &rng, f);
      if (tick % kRangeEvery == kRangeEvery - 1) RangeAgg(c, f);
    }
    rows_inserted_ = v_.size() - rows_before;
  }

  void CheckState(aidb::Database* db, const std::string& when,
                  Failures* f) override {
    aidb::QueryResult q;
    if (!Query(db, "SELECT COUNT(*), SUM(v) FROM ev", &q, f)) return;
    int64_t count = 0, sum = 0, want = 0;
    for (int64_t v : v_) want += v;
    if (!CellInt(q, 0, 0, &count) || !CellInt(q, 0, 1, &sum) ||
        count != static_cast<int64_t>(v_.size()) || sum != want) {
      f->Add("ingest " + when + ": COUNT/SUM " + std::to_string(count) + "/" +
             std::to_string(sum) + ", model " + std::to_string(v_.size()) + "/" +
             std::to_string(want));
      return;
    }
    if (!Query(db, "SELECT id, k, v FROM ev", &q, f)) return;
    std::vector<bool> seen(v_.size(), false);
    for (size_t i = 0; i < q.rows.size(); ++i) {
      int64_t id = -1, k = 0, v = 0;
      if (!CellInt(q, i, 0, &id) || !CellInt(q, i, 1, &k) || !CellInt(q, i, 2, &v) ||
          id < 0 || id >= static_cast<int64_t>(v_.size()) || seen[id] ||
          k != k_[id] || v != v_[id]) {
        f->Add("ingest " + when + ": row-by-row state differs from the model");
        return;
      }
      seen[id] = true;
    }
  }

  double LogicalBytes() const override {
    return static_cast<double>(v_.size()) * (24.0 + kPadLen);
  }

  RunFacts facts() const override {
    return {rows_inserted_, updates_, user_bytes_};
  }

 private:
  static std::string Pad(int64_t id, uint64_t seed) {
    static constexpr char kHex[] = "0123456789abcdef";
    uint64_t h = (static_cast<uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ull ^ seed;
    std::string s(kPadLen, '0');
    for (size_t i = 0; i < kPadLen; ++i) {
      s[i] = kHex[h & 15];
      h = (h >> 4) | (h << 60);
      if (i % 16 == 15) h *= 0xbf58476d1ce4e5b9ull;
    }
    return s;
  }

  /// Next `n` rows into the model, as one INSERT statement.
  std::string InsertBatch(int64_t n, uint64_t* bytes) {
    std::string sql = "INSERT INTO ev VALUES ";
    for (int64_t i = 0; i < n; ++i) {
      const int64_t id = static_cast<int64_t>(v_.size());
      k_.push_back(static_cast<int64_t>(rng_.Below(1000)));
      v_.push_back(static_cast<int64_t>(rng_.Below(1000)));
      if (i) sql += ",";
      sql += '(';
      sql += std::to_string(id);
      sql += ',';
      sql += std::to_string(k_.back());
      sql += ',';
      sql += std::to_string(v_.back());
      sql += ",'";
      sql += Pad(id, seed_);
      sql += "')";
    }
    if (bytes != nullptr) *bytes = static_cast<uint64_t>(n) * (24 + kPadLen);
    return sql;
  }

  /// An id in the older half of the table, which the LSM has paged out.
  int64_t OldId(Rng* rng) const {
    return static_cast<int64_t>(rng->Below(std::max<uint64_t>(1, v_.size() / 2)));
  }

  void PointRead(Client* c, Rng* rng, Failures* f) {
    const int64_t id = OldId(rng);
    const std::string sql = "SELECT v, k FROM ev WHERE id = " + std::to_string(id);
    auto res = c->Exec(Kind::kSelect, sql, sql);
    if (!res.ok()) {
      if (f == nullptr) return;
      f->Add("ingest point read failed: " + res.status().ToString());
      return;
    }
    const aidb::QueryResult& q = res.ValueOrDie();
    int64_t v = 0, k = 0;
    if (q.rows.size() != 1 || !CellInt(q, 0, 0, &v) || !CellInt(q, 0, 1, &k) ||
        v != v_[id] || k != k_[id]) {
      if (f != nullptr) f->Add("ingest point read of " + std::to_string(id) +
                               " differs from the model");
    }
  }

  void Update(Client* c, Rng* rng, Failures* f) {
    const int64_t id = OldId(rng);
    const int64_t d = 1 + static_cast<int64_t>(rng->Below(9));
    auto res = c->Exec(Kind::kUpdate, "UPDATE ev SET v = v + " + std::to_string(d) +
                                          " WHERE id = " + std::to_string(id));
    ++updates_;
    if (!res.ok()) return;
    if (res.ValueOrDie().affected_rows != 1) {
      f->Add("ingest UPDATE of " + std::to_string(id) + " touched " +
             std::to_string(res.ValueOrDie().affected_rows) + " rows");
      return;
    }
    v_[id] += d;
    user_bytes_ += 24 + kPadLen;
  }

  void RangeAgg(Client* c, Failures* f) {
    const int64_t lo = std::max<int64_t>(0, static_cast<int64_t>(v_.size()) - kRangeSpan);
    const std::string sql =
        "SELECT COUNT(*), SUM(v) FROM ev WHERE id >= " + std::to_string(lo);
    auto res = c->Exec(Kind::kRangeAgg, sql, sql);
    if (!res.ok()) return;
    int64_t count = 0, sum = 0, want = 0;
    for (size_t id = static_cast<size_t>(lo); id < v_.size(); ++id) want += v_[id];
    const aidb::QueryResult& q = res.ValueOrDie();
    if (!CellInt(q, 0, 0, &count) || !CellInt(q, 0, 1, &sum) ||
        count != static_cast<int64_t>(v_.size()) - lo || sum != want) {
      f->Add("ingest range aggregate from " + std::to_string(lo) +
             " differs from the model");
    }
  }

  const uint64_t seed_;
  const size_t ticks_;
  Rng rng_;  ///< row contents, in insertion order
  std::vector<int64_t> k_, v_;  ///< model, indexed by id
  uint64_t rows_inserted_ = 0;
  uint64_t updates_ = 0;
  uint64_t user_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngest(uint64_t seed, double seconds) {
  return std::make_unique<Ingest>(seed, seconds);
}

}  // namespace e2e
