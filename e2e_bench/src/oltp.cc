// oltp: four closed-loop sessions on a durable 100k-row indexed table. Point
// reads (prepared EXECUTE and direct SELECT) draw Zipf-skewed keys; writes
// draw uniform keys from the session's own residue class, so no two sessions
// ever write one row and the model of every row is exact.

#include <array>
#include <cmath>
#include <map>
#include <utility>

#include "workloads.h"

namespace e2e {
namespace {

constexpr int64_t kRows = 100000;
constexpr size_t kSessions = 4;
constexpr int64_t kLoadBatch = 1000;
constexpr double kZipfTheta = 0.99;
/// Operations per second per session the fixed stream is sized by
/// (`--seconds` x this); one operation is one statement, or four for a
/// transfer.
constexpr double kOpsPerSecond = 8000.0;
enum class Op : uint8_t { kExecute, kSelect, kInsert, kUpdate, kTransfer };
/// The mix of every block of kBlock operations, in a seeded order: 95% point
/// reads (70% of them prepared EXECUTE), 4.8% INSERTs, one UPDATE and one
/// transfer. INSERTs are most of the writes, so the write median is an
/// INSERT; the UPDATEs' full table scans set the write tail and take about
/// 40% of the sessions' time, so they move throughput without drowning the
/// per-statement path. Exact counts per block give every seed the same work.
constexpr size_t kBlock = 1000;
constexpr std::array<std::pair<Op, size_t>, 5> kMix = {{{Op::kExecute, 665},
                                                       {Op::kSelect, 285},
                                                       {Op::kInsert, 48},
                                                       {Op::kUpdate, 1},
                                                       {Op::kTransfer, 1}}};
static_assert(665 + 285 + 48 + 1 + 1 == kBlock);
constexpr int kWarmupReads = 64;
/// Fresh-id INSERTs per session in the warm-up. Vacuum runs every 64
/// commits and freezes quiescent rows; without these commits the run's first
/// UPDATEs would scan the just-loaded, not yet frozen rows several times
/// slower than in steady state.
constexpr int kWarmupInserts = 32;

std::string Note(Rng* rng) {
  static constexpr char kAlpha[] = "abcdefghijklmnopqrstuvwxyz";
  std::string s(12, 'a');
  for (char& c : s) c = kAlpha[rng->Below(26)];
  return s;
}

/// Appends "(id,bal,branch,'note')".
void AppendRow(std::string* sql, int64_t id, int64_t bal, int64_t branch,
               const std::string& note) {
  *sql += '(';
  *sql += std::to_string(id);
  *sql += ',';
  *sql += std::to_string(bal);
  *sql += ',';
  *sql += std::to_string(branch);
  *sql += ",'";
  *sql += note;
  *sql += "')";
}

class Oltp final : public Workload {
 public:
  Oltp(uint64_t seed, double seconds)
      : seed_(seed),
        ops_per_session_(
            kBlock * static_cast<size_t>(std::ceil(seconds * kOpsPerSecond / kBlock))) {
    Rng rng(seed_, 1);
    bal_.resize(kRows);
    branch_.resize(kRows);
    note_.resize(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      bal_[i] = 1000 + static_cast<int64_t>(rng.Below(9000));
      branch_[i] = static_cast<int64_t>(rng.Below(64));
      note_[i] = Note(&rng);
    }
    Rng zrng(seed_, 2);
    zipf_ = std::make_unique<Zipf>(kRows, kZipfTheta, &zrng);
    inserted_.resize(kSessions);
    warmup_inserts_.assign(kSessions, 0);
    updates_.assign(kSessions, 0);
    user_bytes_.assign(kSessions, 0);
  }

  std::string knobs() const override {
    return "defaults (row store, volcano, dop 1)";
  }
  size_t sessions() const override { return kSessions; }

  void Setup(const std::vector<Client*>& clients, Failures* f) override {
    Client* c = clients[0];
    c->MustExec(Kind::kDdl,
                "CREATE TABLE acct (id INT, bal INT, branch INT, note STRING)", f);
    for (int64_t base = 0; base < kRows; base += kLoadBatch) {
      std::string sql = "INSERT INTO acct VALUES ";
      for (int64_t i = base; i < base + kLoadBatch; ++i) {
        if (i != base) sql += ",";
        AppendRow(&sql, i, bal_[i], branch_[i], note_[i]);
      }
      c->MustExec(Kind::kInsert, std::move(sql), f);
    }
    c->MustExec(Kind::kDdl, "CREATE INDEX acct_id ON acct (id)", f);
    c->MustExec(Kind::kDdl, "ANALYZE acct", f);
    Rng warm(seed_, 3);
    for (size_t i = 0; i < clients.size(); ++i) {
      Client* s = clients[i];
      for (int k = 0; k < kWarmupInserts; ++k) {
        if (!Insert(i, s, &warm)) f->Add("oltp warm-up INSERT failed");
      }
      s->MustExec(Kind::kDdl, "PREPARE rd AS SELECT bal FROM acct WHERE id = $1", f);
      for (int i = 0; i < kWarmupReads; ++i) {
        const std::string key = std::to_string(zipf_->Sample(&warm));
        if (i % 2 == 0) {
          s->MustExec(Kind::kExecute, "EXECUTE rd (" + key + ")", f);
        } else {
          s->MustExec(Kind::kSelect, "SELECT bal FROM acct WHERE id = " + key, f);
        }
      }
    }
  }

  void Ramp(size_t s, Client* c, Clock::time_point until) override {
    Rng rng(seed_, 200 + s);
    while (Clock::now() < until) {
      c->Exec(Kind::kExecute,
              "EXECUTE rd (" + std::to_string(zipf_->Sample(&rng)) + ")");
    }
  }

  void RunSession(size_t s, Client* c, Failures* f) override {
    Rng rng(seed_, 100 + s);
    c->Reserve(ops_per_session_ + ops_per_session_ / 8);
    warmup_inserts_[s] = inserted_[s].size();
    user_bytes_[s] = 0;
    // A key this session owns: uniform over its residue class mod kSessions.
    auto own_key = [&] {
      return static_cast<int64_t>(rng.Below(kRows / kSessions)) *
                 static_cast<int64_t>(kSessions) +
             static_cast<int64_t>(s);
    };
    std::vector<Op> block;
    for (const auto& [kind, n] : kMix) block.insert(block.end(), n, kind);
    for (size_t op = 0; op < ops_per_session_; ++op) {
      if (op % kBlock == 0) {
        for (size_t i = kBlock; i > 1; --i) std::swap(block[i - 1], block[rng.Below(i)]);
      }
      const Op next = block[op % kBlock];
      if (next == Op::kExecute || next == Op::kSelect) {
        const int64_t key = static_cast<int64_t>(zipf_->Sample(&rng));
        const std::string k = std::to_string(key);
        const std::string select = "SELECT bal FROM acct WHERE id = " + k;
        aidb::Result<aidb::QueryResult> res =
            next == Op::kExecute
                ? c->Exec(Kind::kExecute, "EXECUTE rd (" + k + ")", select)
                : c->Exec(Kind::kSelect, select, select);
        if (!res.ok()) continue;
        const aidb::QueryResult& q = res.ValueOrDie();
        int64_t got = 0;
        if (q.rows.size() != 1 || !CellInt(q, 0, 0, &got)) {
          f->Add("oltp point read of " + k + " returned " +
                 std::to_string(q.rows.size()) + " rows");
        } else if (key % static_cast<int64_t>(kSessions) ==
                       static_cast<int64_t>(s) &&
                   got != bal_[key]) {
          f->Add("oltp read of own key " + k + " saw " + std::to_string(got) +
                 ", model " + std::to_string(bal_[key]));
        }
      } else if (next == Op::kInsert) {
        Insert(s, c, &rng);
      } else if (next == Op::kUpdate) {
        const int64_t key = own_key();
        auto res = c->Exec(Kind::kUpdate, "UPDATE acct SET bal = bal + 1 WHERE id = " +
                                              std::to_string(key));
        ++updates_[s];
        if (res.ok() && CheckAffected(res.ValueOrDie(), key, f)) {
          ++bal_[key];
          user_bytes_[s] += RowBytes(key);
        }
      } else {
        Transfer(s, c, own_key(), own_key(), 1 + static_cast<int64_t>(rng.Below(50)),
                 f);
      }
    }
  }

  void CheckState(aidb::Database* db, const std::string& when,
                  Failures* f) override {
    std::map<int64_t, int64_t> expect;
    int64_t count = 0, sum = 0;
    for (int64_t i = 0; i < kRows; ++i) expect[i] = bal_[i];
    for (const auto& rows : inserted_) {
      for (const Row& r : rows) expect[r.id] = r.bal;
    }
    for (const auto& [id, bal] : expect) {
      ++count;
      sum += bal;
    }
    aidb::QueryResult q;
    if (!Query(db, "SELECT COUNT(*), SUM(bal) FROM acct", &q, f)) return;
    int64_t got_count = 0, got_sum = 0;
    if (!CellInt(q, 0, 0, &got_count) || !CellInt(q, 0, 1, &got_sum) ||
        got_count != count || got_sum != sum) {
      f->Add("oltp " + when + ": COUNT/SUM " + std::to_string(got_count) + "/" +
             std::to_string(got_sum) + ", model " + std::to_string(count) + "/" +
             std::to_string(sum));
      return;
    }
    if (!Query(db, "SELECT id, bal FROM acct", &q, f)) return;
    size_t matched = 0;
    for (size_t i = 0; i < q.rows.size(); ++i) {
      int64_t id = 0, bal = 0;
      if (!CellInt(q, i, 0, &id) || !CellInt(q, i, 1, &bal)) break;
      auto it = expect.find(id);
      if (it == expect.end() || it->second != bal) break;
      ++matched;
    }
    if (matched != expect.size() || q.rows.size() != expect.size()) {
      f->Add("oltp " + when + ": row-by-row state differs from the model");
    }
  }

  double LogicalBytes() const override {
    double total = 0.0;
    for (int64_t i = 0; i < kRows; ++i) total += static_cast<double>(RowBytes(i));
    for (const auto& rows : inserted_) {
      for (const Row& r : rows) total += 24.0 + static_cast<double>(r.note.size());
    }
    return total;
  }

  RunFacts facts() const override {
    RunFacts out;
    for (size_t s = 0; s < kSessions; ++s) {
      out.rows_inserted += inserted_[s].size() - warmup_inserts_[s];
      out.updates += updates_[s];
      out.user_bytes += user_bytes_[s];
    }
    return out;
  }

 private:
  struct Row {
    int64_t id;
    int64_t bal;
    std::string note;
  };

  uint64_t RowBytes(int64_t id) const { return 24 + note_[id].size(); }

  static bool CheckAffected(const aidb::QueryResult& q, int64_t key, Failures* f) {
    if (q.affected_rows == 1) return true;
    f->Add("oltp UPDATE of " + std::to_string(key) + " touched " +
           std::to_string(q.affected_rows) + " rows");
    return false;
  }

  /// INSERT of a fresh id from session `s`'s residue class; the model keeps
  /// the row once the INSERT is acknowledged.
  bool Insert(size_t s, Client* c, Rng* rng) {
    const int64_t id =
        kRows + static_cast<int64_t>(inserted_[s].size() * kSessions + s);
    const int64_t bal = 1000 + static_cast<int64_t>(rng->Below(9000));
    const int64_t branch = static_cast<int64_t>(rng->Below(64));
    const std::string note = Note(rng);
    std::string sql = "INSERT INTO acct VALUES ";
    AppendRow(&sql, id, bal, branch, note);
    if (!c->Exec(Kind::kInsert, std::move(sql)).ok()) return false;
    inserted_[s].push_back({id, bal, note});
    user_bytes_[s] += 24 + note.size();
    return true;
  }

  /// BEGIN / debit / credit / COMMIT between two keys this session owns.
  void Transfer(size_t s, Client* c, int64_t from, int64_t to, int64_t amount,
                Failures* f) {
    if (from == to) to = (to + static_cast<int64_t>(kSessions)) % kRows;
    bool ok = c->Exec(Kind::kBegin, "BEGIN").ok();
    auto debit = c->Exec(Kind::kUpdate, "UPDATE acct SET bal = bal - " +
                                            std::to_string(amount) +
                                            " WHERE id = " + std::to_string(from));
    auto credit = c->Exec(Kind::kUpdate, "UPDATE acct SET bal = bal + " +
                                             std::to_string(amount) +
                                             " WHERE id = " + std::to_string(to));
    updates_[s] += 2;
    ok = ok && debit.ok() && credit.ok() &&
         CheckAffected(debit.ValueOrDie(), from, f) &&
         CheckAffected(credit.ValueOrDie(), to, f);
    if (!ok) {
      c->Exec(Kind::kCommit, "ROLLBACK");
      return;
    }
    if (c->Exec(Kind::kCommit, "COMMIT").ok()) {
      bal_[from] -= amount;
      bal_[to] += amount;
      user_bytes_[s] += RowBytes(from) + RowBytes(to);
    }
  }

  const uint64_t seed_;
  const size_t ops_per_session_;
  /// Row model: a row is only ever written by the session that owns its
  /// residue class, so sessions touch disjoint entries.
  std::vector<int64_t> bal_;
  std::vector<int64_t> branch_;
  std::vector<std::string> note_;
  std::unique_ptr<Zipf> zipf_;
  std::vector<std::vector<Row>> inserted_;  ///< per session
  std::vector<size_t> warmup_inserts_;      ///< per session, before the run
  std::vector<uint64_t> updates_;           ///< per session
  std::vector<uint64_t> user_bytes_;        ///< per session
};

}  // namespace

std::unique_ptr<Workload> MakeOltp(uint64_t seed, double seconds) {
  return std::make_unique<Oltp>(seed, seconds);
}

}  // namespace e2e
