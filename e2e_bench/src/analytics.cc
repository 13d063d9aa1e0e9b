// analytics: one session on a durable database with SetDop(4). A 1M-row fact
// table and a 256-row dim table are loaded through SQL; the run issues
// reports of four queries whose literals come from a seeded set of four per
// query, so the 16 plans stay in the plan cache after warm-up.

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <numeric>

#include "workloads.h"

namespace e2e {
namespace {

constexpr int64_t kFactRows = 1000000;
constexpr int64_t kDimRows = 256;
constexpr int64_t kGroups = 16;  ///< dim.grp values
constexpr int64_t kLoadBatch = 1000;
constexpr int kVariants = 4;  ///< literals per query class
constexpr int kTopK = 10;
/// Reports per second the fixed stream is sized by, and its floor: the
/// report tail needs more than kTailBeyond samples. The count is rounded up
/// to whole blocks of kVariants reports.
constexpr double kReportsPerSecond = 2.5;
constexpr size_t kMinReports = 20;

struct Agg {
  int64_t count = 0;
  double sum = 0.0;
};

class Analytics final : public Workload {
 public:
  Analytics(uint64_t seed, double seconds)
      : seed_(seed),
        reports_n_(kVariants *
                   ((std::max(kMinReports, static_cast<size_t>(std::ceil(
                                               seconds * kReportsPerSecond))) +
                     kVariants - 1) /
                    kVariants)) {
    Rng rng(seed_, 1);
    dim_id_.resize(kFactRows);
    a_.resize(kFactRows);
    cents_.resize(kFactRows);
    b_.resize(kFactRows);
    c_.resize(kFactRows);
    for (int64_t i = 0; i < kFactRows; ++i) {
      dim_id_[i] = static_cast<int32_t>(rng.Below(kDimRows));
      a_[i] = static_cast<int32_t>(rng.Below(1000));
      cents_[i] = static_cast<int32_t>(rng.Below(100000));
      // The model uses the double the SQL literal denotes, as the engine does.
      const std::string text = BText(i);
      std::from_chars(text.data(), text.data() + text.size(), b_[i]);
      c_[i] = static_cast<int32_t>(rng.Below(100));
    }
    // Literal sets, stratified with a narrow seeded jitter so every seed's
    // variant v selects nearly the same share of the rows.
    Rng lit(seed_, 2);
    for (int v = 0; v < kVariants; ++v) {
      scan_lit_[v] = 300 + 100 * v + static_cast<int>(lit.Below(10));
      group_lit_[v] = 400 + 50 * v + static_cast<int>(lit.Below(5));
      join_lit_[v] = 200 + 50 * v + static_cast<int>(lit.Below(5));
      topk_lit_[v] = 25 * v + static_cast<int>(lit.Below(25));
    }
  }

  std::string knobs() const override {
    return "SetDop(4); other knobs at defaults (row store, volcano)";
  }
  void ApplyKnobs(aidb::Database* db) override { db->SetDop(4); }
  bool writes_in_setup() const override { return true; }

  void Setup(const std::vector<Client*>& clients, Failures* f) override {
    Client* c = clients[0];
    c->MustExec(Kind::kDdl, "CREATE TABLE dim (id INT, grp INT, region STRING)", f);
    c->MustExec(Kind::kDdl,
                "CREATE TABLE fact (id INT, dim_id INT, a INT, b DOUBLE, c INT)", f);
    std::string dim = "INSERT INTO dim VALUES ";
    for (int64_t i = 0; i < kDimRows; ++i) {
      if (i) dim += ",";
      dim += '(';
      dim += std::to_string(i);
      dim += ',';
      dim += std::to_string(i % kGroups);
      dim += ",'r";
      dim += std::to_string(i % 7);
      dim += "')";
    }
    c->MustExec(Kind::kInsert, std::move(dim), f);
    for (int64_t base = 0; base < kFactRows; base += kLoadBatch) {
      std::string sql = "INSERT INTO fact VALUES ";
      sql.reserve(32 * kLoadBatch);
      for (int64_t i = base; i < base + kLoadBatch; ++i) {
        sql += i == base ? "(" : ",(";
        sql += std::to_string(i);
        sql += ',';
        sql += std::to_string(dim_id_[i]);
        sql += ',';
        sql += std::to_string(a_[i]);
        sql += ',';
        sql += BText(i);
        sql += ',';
        sql += std::to_string(c_[i]);
        sql += ')';
      }
      c->MustExec(Kind::kInsert, std::move(sql), f);
    }
    c->MustExec(Kind::kDdl, "ANALYZE fact", f);
    c->MustExec(Kind::kDdl, "ANALYZE dim", f);
    // Warm-up: one report per literal variant puts all 16 plans in the cache.
    for (int v = 0; v < kVariants; ++v) Report(c, {v, v, v, v}, nullptr, nullptr);
  }

  void Prepare() override {
    for (int v = 0; v < kVariants; ++v) {
      scan_expect_[v] = Agg{};
      group_expect_[v].assign(100, Agg{});
      join_expect_[v].assign(kGroups, Agg{});
    }
    for (int64_t i = 0; i < kFactRows; ++i) {
      for (int v = 0; v < kVariants; ++v) {
        if (a_[i] < scan_lit_[v]) Add(&scan_expect_[v], b_[i]);
        if (a_[i] < group_lit_[v]) Add(&group_expect_[v][c_[i]], b_[i]);
        if (a_[i] < join_lit_[v]) Add(&join_expect_[v][dim_id_[i] % kGroups], b_[i]);
      }
    }
    for (int v = 0; v < kVariants; ++v) {
      std::vector<int64_t> ids;
      for (int64_t i = 0; i < kFactRows; ++i) {
        if (c_[i] == topk_lit_[v]) ids.push_back(i);
      }
      std::partial_sort(ids.begin(), ids.begin() + kTopK, ids.end(),
                        [&](int64_t x, int64_t y) {
                          return b_[x] != b_[y] ? b_[x] > b_[y] : x < y;
                        });
      ids.resize(kTopK);
      topk_expect_[v] = ids;
    }
  }

  void RunSession(size_t /*i*/, Client* c, Failures* f) override {
    Rng rng(seed_, 100);
    c->Reserve(4 * reports_n_);
    report_us_.reserve(reports_n_);
    // Every block of kVariants reports runs each variant of each query class
    // once, in a seeded order, so every seed's run does the same work.
    std::array<std::array<int, kVariants>, 4> order;
    for (size_t r = 0; r < reports_n_; ++r) {
      if (r % kVariants == 0) {
        for (auto& o : order) {
          std::iota(o.begin(), o.end(), 0);
          for (size_t i = kVariants; i > 1; --i) std::swap(o[i - 1], o[rng.Below(i)]);
        }
      }
      std::array<int, 4> pick;
      for (size_t q = 0; q < pick.size(); ++q) pick[q] = order[q][r % kVariants];
      Report(c, pick, f, &report_us_);
    }
  }

  void CheckState(aidb::Database* db, const std::string& when,
                  Failures* f) override {
    aidb::QueryResult q;
    if (!Query(db, "SELECT COUNT(*), SUM(b) FROM fact", &q, f)) return;
    Agg all;
    for (int64_t i = 0; i < kFactRows; ++i) Add(&all, b_[i]);
    CheckAgg(q, 0, 0, all, "analytics " + when + " fact COUNT/SUM", f);
    if (!Query(db, "SELECT COUNT(*) FROM dim", &q, f)) return;
    int64_t dims = 0;
    if (!CellInt(q, 0, 0, &dims) || dims != kDimRows) {
      f->Add("analytics " + when + ": dim has " + std::to_string(dims) + " rows");
    }
  }

  double LogicalBytes() const override {
    // fact: five 8-byte columns; dim: id, grp and a two-letter region.
    return 40.0 * static_cast<double>(kFactRows) + 18.0 * kDimRows;
  }

  RunFacts facts() const override { return {}; }
  std::vector<double> reports() const override { return report_us_; }

 private:
  static void Add(Agg* g, double b) {
    ++g->count;
    g->sum += b;
  }

  static bool CheckAgg(const aidb::QueryResult& q, size_t row, size_t col,
                       const Agg& want, const std::string& what, Failures* f) {
    int64_t count = 0;
    double sum = 0.0;
    if (CellInt(q, row, col, &count) && CellDouble(q, row, col + 1, &sum) &&
        count == want.count && NearlyEqual(sum, want.sum)) {
      return true;
    }
    f->Add(what + ": got " + std::to_string(count) + "/" + std::to_string(sum) +
           ", model " + std::to_string(want.count) + "/" + std::to_string(want.sum));
    return false;
  }

  /// Grouped answers: one row per key with (key, COUNT, SUM).
  static void CheckGroups(const aidb::QueryResult& q, const std::vector<Agg>& want,
                          const std::string& what, Failures* f) {
    size_t nonempty = 0;
    for (const Agg& g : want) nonempty += g.count > 0 ? 1 : 0;
    if (q.rows.size() != nonempty) {
      f->Add(what + ": " + std::to_string(q.rows.size()) + " groups, model " +
             std::to_string(nonempty));
      return;
    }
    for (size_t i = 0; i < q.rows.size(); ++i) {
      int64_t key = -1;
      if (!CellInt(q, i, 0, &key) || key < 0 ||
          key >= static_cast<int64_t>(want.size()) ||
          !CheckAgg(q, i, 1, want[key], what + " group " + std::to_string(key), f)) {
        return;
      }
    }
  }

  /// Runs one report (scan_agg, group_agg, join_agg, topk with the picked
  /// literal variants). With `f` set, answers are checked against the model.
  void Report(Client* c, const std::array<int, 4>& v, Failures* f,
              std::vector<double>* latency) {
    const Clock::time_point t0 = Clock::now();
    auto scan = c->Exec(Kind::kScanAgg, ScanSql(v[0]), ScanSql(v[0]));
    auto group = c->Exec(Kind::kGroupAgg, GroupSql(v[1]), GroupSql(v[1]));
    auto join = c->Exec(Kind::kJoinAgg, JoinSql(v[2]), JoinSql(v[2]));
    auto topk = c->Exec(Kind::kTopK, TopKSql(v[3]), TopKSql(v[3]));
    if (latency != nullptr) {
      latency->push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    if (f == nullptr) return;
    if (!scan.ok() || !group.ok() || !join.ok() || !topk.ok()) return;
    CheckAgg(scan.ValueOrDie(), 0, 0, scan_expect_[v[0]], "scan_agg", f);
    CheckGroups(group.ValueOrDie(), group_expect_[v[1]], "group_agg", f);
    CheckGroups(join.ValueOrDie(), join_expect_[v[2]], "join_agg", f);
    const aidb::QueryResult& t = topk.ValueOrDie();
    bool ok = t.rows.size() == static_cast<size_t>(kTopK);
    for (size_t i = 0; ok && i < t.rows.size(); ++i) {
      int64_t id = -1;
      double b = 0.0;
      ok = CellInt(t, i, 0, &id) && CellDouble(t, i, 1, &b) &&
           id == topk_expect_[v[3]][i] && b == b_[id];
    }
    if (!ok) f->Add("topk: rows differ from the model");
  }

  /// Column b of row i as a SQL literal with two decimals.
  std::string BText(int64_t i) const {
    const int32_t c = cents_[i];
    return std::to_string(c / 100) + (c % 100 < 10 ? ".0" : ".") +
           std::to_string(c % 100);
  }

  std::string ScanSql(int v) const {
    return "SELECT COUNT(*), SUM(b) FROM fact WHERE a < " +
           std::to_string(scan_lit_[v]);
  }
  std::string GroupSql(int v) const {
    return "SELECT c, COUNT(*), SUM(b) FROM fact WHERE a < " +
           std::to_string(group_lit_[v]) + " GROUP BY c";
  }
  std::string JoinSql(int v) const {
    return "SELECT dim.grp, COUNT(*), SUM(fact.b) FROM fact JOIN dim ON "
           "fact.dim_id = dim.id WHERE fact.a < " +
           std::to_string(join_lit_[v]) + " GROUP BY dim.grp";
  }
  std::string TopKSql(int v) const {
    return "SELECT id, b FROM fact WHERE c = " + std::to_string(topk_lit_[v]) +
           " ORDER BY b DESC, id LIMIT " + std::to_string(kTopK);
  }

  const uint64_t seed_;
  const size_t reports_n_;
  std::vector<int32_t> dim_id_, a_, c_, cents_;
  std::vector<double> b_;
  std::array<int, kVariants> scan_lit_{}, group_lit_{}, join_lit_{}, topk_lit_{};
  std::array<Agg, kVariants> scan_expect_{};
  std::array<std::vector<Agg>, kVariants> group_expect_, join_expect_;
  std::array<std::vector<int64_t>, kVariants> topk_expect_;
  std::vector<double> report_us_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytics(uint64_t seed, double seconds) {
  return std::make_unique<Analytics>(seed, seconds);
}

}  // namespace e2e
