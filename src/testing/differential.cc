#include "testing/differential.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "sql/parser.h"
#include "storage/recovery.h"

namespace aidb::testing {

namespace {

std::string RenderRow(const Tuple& row) {
  std::string out;
  for (const auto& v : row) {
    switch (v.type()) {
      case ValueType::kNull: out += "N"; break;
      case ValueType::kInt: out += "I:" + v.ToString(); break;
      case ValueType::kDouble: out += "D:" + v.ToString(); break;
      case ValueType::kString: out += "S:" + v.ToString(); break;
    }
    out += "|";
  }
  return out;
}

/// True when the statement kind appends a WAL transaction on success.
/// UPDATE/DELETE additionally require affected rows (a no-op DML statement
/// logs nothing and consumes no transaction id).
bool KindLogsTxn(sql::StatementKind kind, size_t affected) {
  switch (kind) {
    case sql::StatementKind::kCreateTable:
    case sql::StatementKind::kDropTable:
    case sql::StatementKind::kCreateIndex:
    case sql::StatementKind::kDropIndex:
    case sql::StatementKind::kCreateModel:
    case sql::StatementKind::kInsert:
      return true;
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete:
      return affected > 0;
    default:
      return false;
  }
}

/// Makes `opts` LSM-backed with the fuzz legs' design: an 8-slot memtable,
/// so rows page out beneath even the generator's small tables.
void EnableFuzzLsm(DurabilityOptions* opts) {
  opts->lsm = true;
  opts->lsm_design.memtable_capacity = 8;
}

DurabilityOptions DurableOpts(storage::FaultInjector* fault) {
  DurabilityOptions opts;
  opts.wal_flush_interval = 1;  // flush per record: maximal injection surface
  opts.checkpoint_every_n_records = 24;  // exercise snapshot points too
  opts.sync = false;  // damage is simulated; skip physical fsyncs
  opts.fault = fault;
  if (LsmFuzzDefault()) {
    // Every durable leg runs LSM-backed: rows page out beneath the workload
    // and the fault surface extends over SST/manifest/compaction writes.
    EnableFuzzLsm(&opts);
  }
  return opts;
}

/// Cadence at which the LSM legs force a freeze-flush-compact cycle. Prime,
/// so it drifts against the WAL/checkpoint cadences instead of locking to
/// them.
constexpr size_t kLsmFlushEvery = 5;

/// At dop > 1, plans every batch scan morsel-parallel, however small the
/// table: the generator's tables sit far below the planner's
/// parallel_threshold_rows, so the dop > 1 legs would otherwise never run a
/// VecParallelScanOp against the serial oracle.
void ForceParallelScans(Database* db, size_t dop) {
  if (dop > 1) db->mutable_planner_options().parallel_threshold_rows = 0;
}

Divergence Mismatch(const std::string& what, size_t index, const std::string& sql,
                    const std::string& expected, const std::string& actual) {
  Divergence d;
  d.diverged = true;
  d.detail = what + " diverged at statement " + std::to_string(index) + ": " +
             sql + "\n--- expected ---\n" + expected + "\n--- actual ---\n" +
             actual;
  return d;
}

}  // namespace

std::string DigestResult(const Result<QueryResult>& r) {
  if (!r.ok()) return "ERROR: " + r.status().ToString();
  const QueryResult& q = r.ValueOrDie();
  std::string out = "cols:";
  for (const auto& c : q.columns) out += c + ",";
  out += " msg:" + q.message;
  out += " affected:" + std::to_string(q.affected_rows);
  std::vector<std::string> rows;
  rows.reserve(q.rows.size());
  for (const auto& row : q.rows) rows.push_back(RenderRow(row));
  std::sort(rows.begin(), rows.end());
  for (const auto& row : rows) out += "\n" + row;
  return out;
}

bool SpansFuzzDefault() {
  static const bool on = [] {
    const char* env = std::getenv("AIDB_FUZZ_SPANS");
    return env != nullptr && std::atol(env) != 0;
  }();
  return on;
}

bool LsmFuzzDefault() {
  static const bool on = [] {
    const char* env = std::getenv("AIDB_FUZZ_LSM");
    return env != nullptr && std::atol(env) != 0;
  }();
  return on;
}

WorkloadTrace RunWorkload(const std::vector<std::string>& workload, size_t dop,
                          bool vectorized) {
  Database db;
  db.SetDop(dop);
  ForceParallelScans(&db, dop);
  db.SetVectorized(vectorized);
  // The oracle runs with per-operator tracing ON and wall-clock observables
  // zeroed: any tracing-induced nondeterminism (a counter leaking into
  // results, a trace-driven reorder) becomes a digest divergence.
  db.EnableTracing(true);
  db.SetDeterministicTiming(true);
  db.EnableSpans(SpansFuzzDefault());
  WorkloadTrace trace;
  trace.digests.reserve(workload.size());
  trace.logs_txn.reserve(workload.size());
  for (const auto& sql : workload) {
    Result<QueryResult> r = db.Execute(sql);
    trace.digests.push_back(DigestResult(r));
    bool logs = false;
    if (r.ok()) {
      auto stmt = sql::Parser::Parse(sql);
      if (stmt.ok()) {
        logs = KindLogsTxn(stmt.ValueOrDie()->kind(), r.ValueOrDie().affected_rows);
      }
    }
    trace.logs_txn.push_back(logs);
  }
  trace.state_digest = storage::StateDigest(db.catalog(), db.models());
  return trace;
}

WorkloadTrace RunWorkloadLsm(const std::vector<std::string>& workload,
                             size_t dop, const std::string& dir) {
  std::filesystem::remove_all(dir);
  WorkloadTrace trace;
  DurabilityOptions opts;
  opts.sync = false;
  opts.wal_flush_interval = 16;
  opts.checkpoint_every_n_records = 0;
  EnableFuzzLsm(&opts);
  auto opened = Database::Open(dir, opts);
  if (!opened.ok()) {
    // Surfaces as a guaranteed divergence at statement 0.
    trace.digests.assign(workload.size(),
                         "ERROR: lsm leg open failed: " +
                             opened.status().ToString());
    trace.logs_txn.assign(workload.size(), false);
    return trace;
  }
  auto db = std::move(opened).ValueOrDie();
  db->SetDop(dop);
  ForceParallelScans(db.get(), dop);
  db->EnableTracing(true);
  db->SetDeterministicTiming(true);
  db->EnableSpans(SpansFuzzDefault());
  trace.digests.reserve(workload.size());
  trace.logs_txn.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    const std::string& sql = workload[i];
    Result<QueryResult> r = db->Execute(sql);
    trace.digests.push_back(DigestResult(r));
    bool logs = false;
    if (r.ok()) {
      auto stmt = sql::Parser::Parse(sql);
      if (stmt.ok()) {
        logs = KindLogsTxn(stmt.ValueOrDie()->kind(),
                           r.ValueOrDie().affected_rows);
      }
    }
    trace.logs_txn.push_back(logs);
    if ((i + 1) % kLsmFlushEvery == 0) (void)db->FlushColdStorage();
  }
  trace.state_digest = storage::StateDigest(db->catalog(), db->models());
  db.reset();
  std::filesystem::remove_all(dir);
  return trace;
}

WorkloadTrace RunWorkloadPrepared(const std::vector<std::string>& workload,
                                  size_t dop) {
  Database db;
  db.SetDop(dop);
  ForceParallelScans(&db, dop);
  db.EnableTracing(true);
  db.SetDeterministicTiming(true);
  db.EnableSpans(SpansFuzzDefault());
  WorkloadTrace trace;
  trace.digests.reserve(workload.size());
  trace.logs_txn.reserve(workload.size());
  size_t counter = 0;
  for (const auto& sql : workload) {
    auto parsed = sql::Parser::Parse(sql);
    bool route_prepared = false;
    if (parsed.ok()) {
      auto kind = parsed.ValueOrDie()->kind();
      route_prepared = kind != sql::StatementKind::kPrepare &&
                       kind != sql::StatementKind::kExecute &&
                       kind != sql::StatementKind::kDeallocate;
    }
    Result<QueryResult> r = [&]() -> Result<QueryResult> {
      if (!route_prepared) return db.Execute(sql);
      std::string name = "fz" + std::to_string(counter++);
      Result<QueryResult> prep = db.Execute("PREPARE " + name + " AS " + sql);
      if (!prep.ok()) return db.Execute(sql);  // conservative fallback
      Result<QueryResult> exec = db.Execute("EXECUTE " + name);
      Result<QueryResult> dealloc = db.Execute("DEALLOCATE " + name);
      (void)dealloc;
      return exec;
    }();
    trace.digests.push_back(DigestResult(r));
    bool logs = false;
    if (r.ok() && parsed.ok()) {
      logs = KindLogsTxn(parsed.ValueOrDie()->kind(),
                         r.ValueOrDie().affected_rows);
    }
    trace.logs_txn.push_back(logs);
  }
  trace.state_digest = storage::StateDigest(db.catalog(), db.models());
  return trace;
}

Divergence CompareTraces(const std::vector<std::string>& workload,
                         const WorkloadTrace& expected,
                         const WorkloadTrace& actual, const std::string& what) {
  size_t n = std::min(expected.digests.size(), actual.digests.size());
  for (size_t i = 0; i < n; ++i) {
    if (expected.digests[i] != actual.digests[i]) {
      return Mismatch(what, i, workload[i], expected.digests[i],
                      actual.digests[i]);
    }
  }
  if (expected.state_digest != actual.state_digest) {
    Divergence d;
    d.diverged = true;
    d.detail = what + ": final state digests differ";
    return d;
  }
  return {};
}

Divergence RunCrashRecoveryLeg(const std::vector<std::string>& workload,
                               const WorkloadTrace& serial,
                               const std::string& dir,
                               const CrashLegOptions& opts,
                               uint64_t* total_points) {
  std::filesystem::remove_all(dir);
  storage::FaultInjector fault(opts.fault_seed);
  if (opts.crash_point > 0) fault.ArmCrash(opts.crash_point, opts.kind);

  bool crashed = false;
  {
    auto opened = Database::Open(dir, DurableOpts(&fault));
    if (!opened.ok()) {
      Divergence d;
      d.diverged = true;
      d.detail = "crash leg: open failed: " + opened.status().ToString();
      return d;
    }
    auto db = std::move(opened).ValueOrDie();
    for (size_t i = 0; i < workload.size(); ++i) {
      Result<QueryResult> r = db->Execute(workload[i]);
      if (db->crashed()) {
        crashed = true;
        break;  // the statement that hit the fault digests as a crash error
      }
      std::string digest = DigestResult(r);
      if (digest != serial.digests[i]) {
        return Mismatch("durable-vs-serial", i, workload[i], serial.digests[i],
                        digest);
      }
      if (LsmFuzzDefault() && (i + 1) % kLsmFlushEvery == 0) {
        // Page out mid-workload so the armed fault can land inside an SST
        // block, footer, manifest or compaction write, not just the WAL.
        (void)db->FlushColdStorage();
        if (db->crashed()) {
          crashed = true;
          break;
        }
      }
    }
  }
  if (total_points != nullptr) *total_points = fault.points_seen();

  if (!crashed) {
    // Uncrashed durable execution reached the end; its state must match the
    // in-memory engine's (checked per-statement above, and as a whole here).
    // Reopening in LSM mode re-adopts the persisted runs, so the digest also
    // checks adoption did not resurrect or lose anything.
    DurabilityOptions copts;
    if (LsmFuzzDefault()) EnableFuzzLsm(&copts);
    auto reopened = Database::Open(dir, copts);
    if (!reopened.ok()) {
      Divergence d;
      d.diverged = true;
      d.detail = "crash leg: clean reopen failed: " + reopened.status().ToString();
      return d;
    }
    auto db = std::move(reopened).ValueOrDie();
    if (storage::StateDigest(db->catalog(), db->models()) != serial.state_digest) {
      Divergence d;
      d.diverged = true;
      d.detail = "crash leg: uncrashed durable state differs from serial state";
      return d;
    }
    return {};
  }

  // Reboot. Recovery reports how many statement-transactions committed;
  // committed transaction k is the k-th workload statement that logs a txn
  // (failed statements and no-op DML consume no transaction id).
  DurabilityOptions ropts;
  ropts.wal_flush_interval = 1;
  ropts.sync = false;
  if (LsmFuzzDefault()) {
    // Recover in LSM mode too: adoption must cope with whatever the crash
    // left behind (half-written runs are rejected, orphans re-adopted), and
    // the replayed tail then reads through the cold tier.
    EnableFuzzLsm(&ropts);
  }
  auto reopened = Database::Open(dir, ropts);
  if (!reopened.ok()) {
    Divergence d;
    d.diverged = true;
    d.detail = "crash leg: recovery failed: " + reopened.status().ToString();
    return d;
  }
  auto db = std::move(reopened).ValueOrDie();
  uint64_t committed = db->last_recovery().next_txn_id - 1;

  size_t seen = 0, resume = 0;
  while (resume < workload.size() && seen < committed) {
    if (serial.logs_txn[resume]) ++seen;
    ++resume;
  }
  if (seen < committed) {
    Divergence d;
    d.diverged = true;
    d.detail = "crash leg: recovery reports " + std::to_string(committed) +
               " committed txns but the workload only logs " +
               std::to_string(seen);
    return d;
  }

  // Replay the uncommitted tail: with statement-level atomicity the recovered
  // state equals the serial state after statement `resume`, so every replayed
  // statement — including reads and statements that failed mid-evaluation —
  // must reproduce the serial digest exactly.
  for (size_t i = resume; i < workload.size(); ++i) {
    std::string digest = DigestResult(db->Execute(workload[i]));
    if (digest != serial.digests[i]) {
      return Mismatch("post-recovery replay", i, workload[i], serial.digests[i],
                      digest);
    }
  }
  if (storage::StateDigest(db->catalog(), db->models()) != serial.state_digest) {
    Divergence d;
    d.diverged = true;
    d.detail = "crash leg: replayed state differs from serial state (crash at point " +
               std::to_string(opts.crash_point) + ")";
    return d;
  }
  return {};
}

namespace {

/// One generated transaction: the statements between BEGIN and COMMIT.
struct TxnScript {
  std::vector<std::string> stmts;
};

/// One transaction that committed during the concurrent run, with the
/// digests its statements produced there.
struct CommittedTxn {
  uint64_t commit_ts = 0;
  const TxnScript* script = nullptr;
  std::vector<std::string> digests;
};

/// Per-session transaction scripts over the interleaving-deterministic
/// fragment: a private table per session plus blind constant updates on one
/// shared table (see the header comment on RunConcurrentTxnLeg).
std::vector<std::vector<TxnScript>> GenTxnScripts(uint64_t seed,
                                                  size_t num_sessions) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  auto r = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<std::vector<TxnScript>> scripts(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    std::string priv = "p" + std::to_string(s);
    size_t next_a = 4;  // rows 0..3 are seeded by the setup prefix
    size_t num_txns = 3 + r(4);
    for (size_t t = 0; t < num_txns; ++t) {
      TxnScript txn;
      size_t num_stmts = 1 + r(3);
      for (size_t i = 0; i < num_stmts; ++i) {
        switch (r(5)) {
          case 0:
            txn.stmts.push_back("INSERT INTO " + priv + " VALUES (" +
                                std::to_string(next_a++) + ", " +
                                std::to_string(r(90)) + ")");
            break;
          case 1:
            txn.stmts.push_back("UPDATE " + priv + " SET b = b + " +
                                std::to_string(1 + r(5)) + " WHERE a <= " +
                                std::to_string(r(next_a)));
            break;
          case 2:
            txn.stmts.push_back("DELETE FROM " + priv + " WHERE a = " +
                                std::to_string(r(next_a)));
            break;
          case 3:
            // Blind constant write on the hot shared rows: conflicts abort a
            // whole transaction, and committed outcomes replay exactly.
            txn.stmts.push_back("UPDATE shared SET v = " +
                                std::to_string(r(1000)) + " WHERE k = " +
                                std::to_string(r(4)));
            break;
          default:
            // Private read: exercises read-your-own-writes inside the open
            // transaction; deterministic because no other session writes priv.
            txn.stmts.push_back("SELECT a, b FROM " + priv + " WHERE a <= " +
                                std::to_string(r(next_a)));
            break;
        }
      }
      scripts[s].push_back(std::move(txn));
    }
  }
  return scripts;
}

/// The schema + seed rows both the concurrent run and the serial replay
/// start from.
void SetupConcurrentSchema(Database* db, size_t num_sessions) {
  (void)db->Execute("CREATE TABLE shared (k INT, v INT)");
  for (int k = 0; k < 4; ++k) {
    (void)db->Execute("INSERT INTO shared VALUES (" + std::to_string(k) +
                      ", 0)");
  }
  for (size_t s = 0; s < num_sessions; ++s) {
    std::string priv = "p" + std::to_string(s);
    (void)db->Execute("CREATE TABLE " + priv + " (a INT, b INT)");
    for (int a = 0; a < 4; ++a) {
      (void)db->Execute("INSERT INTO " + priv + " VALUES (" +
                        std::to_string(a) + ", 0)");
    }
  }
}

}  // namespace

Divergence RunConcurrentTxnLeg(uint64_t seed, size_t num_sessions,
                               ConcurrentTxnReport* report) {
  const auto scripts = GenTxnScripts(seed, num_sessions);

  // Under AIDB_FUZZ_LSM the concurrent run happens on a durable LSM-backed
  // database while a background thread forces freeze-flush-compact cycles —
  // sessions race page-out and materialization, and snapshot isolation must
  // still replay byte-equal against the in-memory commit-order oracle.
  std::unique_ptr<Database> durable;
  std::string lsm_dir;
  if (LsmFuzzDefault()) {
    lsm_dir = (std::filesystem::temp_directory_path() /
               ("aidb_fuzz_lsm_txn_" + std::to_string(seed)))
                  .string();
    std::filesystem::remove_all(lsm_dir);
    DurabilityOptions opts;
    opts.sync = false;
    opts.wal_flush_interval = 16;
    opts.checkpoint_every_n_records = 0;
    EnableFuzzLsm(&opts);
    auto opened = Database::Open(lsm_dir, opts);
    if (!opened.ok()) {
      Divergence d;
      d.diverged = true;
      d.detail = "concurrent leg: lsm open failed: " + opened.status().ToString();
      return d;
    }
    durable = std::move(opened).ValueOrDie();
  }
  struct LsmCleanup {
    std::unique_ptr<Database>* db;
    std::string dir;
    ~LsmCleanup() {
      if (dir.empty()) return;
      db->reset();
      std::filesystem::remove_all(dir);
    }
  } lsm_cleanup{&durable, lsm_dir};

  Database mem;
  Database& db = durable != nullptr ? *durable : mem;
  db.EnableTracing(true);
  db.SetDeterministicTiming(true);
  SetupConcurrentSchema(&db, num_sessions);

  // One thread per session, each with its own transaction slot — the same
  // shape the service gives real sessions.
  std::vector<std::vector<CommittedTxn>> committed(num_sessions);
  std::atomic<size_t> conflicts{0};
  std::vector<std::thread> threads;
  threads.reserve(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    threads.emplace_back([&, s] {
      std::atomic<uint64_t> slot{0};
      ExecSettings settings = db.SnapshotSettings();
      settings.txn_slot = &slot;
      settings.session_id = s + 1;
      for (const TxnScript& txn : scripts[s]) {
        (void)db.Execute("BEGIN", settings);
        std::vector<std::string> digests;
        digests.reserve(txn.stmts.size());
        bool aborted = false;
        for (const auto& sql : txn.stmts) {
          Result<QueryResult> r = db.Execute(sql, settings);
          digests.push_back(DigestResult(r));
          if (!r.ok() && r.status().code() == StatusCode::kAborted) {
            aborted = true;  // write-write conflict: whole-txn abort
            break;
          }
        }
        if (aborted) {
          conflicts.fetch_add(1, std::memory_order_relaxed);
          (void)db.Execute("ROLLBACK", settings);  // benign no-op: slot is clear
          continue;
        }
        Result<QueryResult> c = db.Execute("COMMIT", settings);
        if (!c.ok()) {
          conflicts.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (c.ValueOrDie().commit_ts == 0) continue;  // read-only: no effect
        committed[s].push_back(
            {c.ValueOrDie().commit_ts, &txn, std::move(digests)});
      }
    });
  }
  std::atomic<bool> sessions_done{false};
  std::thread flusher;
  if (durable != nullptr) {
    flusher = std::thread([&] {
      while (!sessions_done.load(std::memory_order_acquire)) {
        (void)db.FlushColdStorage();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (auto& t : threads) t.join();
  sessions_done.store(true, std::memory_order_release);
  if (flusher.joinable()) flusher.join();
  // One last full cycle with the sessions quiesced, so the final StateDigest
  // comparison reads a maximally paged-out state.
  if (durable != nullptr) (void)db.FlushColdStorage();

  // The oracle history: committed transactions, serially, in commit order.
  std::vector<const CommittedTxn*> order;
  for (const auto& per_session : committed) {
    for (const auto& ct : per_session) order.push_back(&ct);
  }
  std::sort(order.begin(), order.end(),
            [](const CommittedTxn* a, const CommittedTxn* b) {
              return a->commit_ts < b->commit_ts;
            });

  Database replay;
  replay.EnableTracing(true);
  replay.SetDeterministicTiming(true);
  SetupConcurrentSchema(&replay, num_sessions);
  for (size_t t = 0; t < order.size(); ++t) {
    const CommittedTxn& ct = *order[t];
    (void)replay.Execute("BEGIN");
    for (size_t i = 0; i < ct.script->stmts.size(); ++i) {
      std::string digest = DigestResult(replay.Execute(ct.script->stmts[i]));
      if (digest != ct.digests[i]) {
        return Mismatch("concurrent-vs-commit-order(cts=" +
                            std::to_string(ct.commit_ts) + ")",
                        i, ct.script->stmts[i], ct.digests[i], digest);
      }
    }
    Result<QueryResult> c = replay.Execute("COMMIT");
    if (!c.ok()) {
      Divergence d;
      d.diverged = true;
      d.detail = "concurrent leg: serial replay COMMIT " + std::to_string(t) +
                 " failed: " + c.status().ToString();
      return d;
    }
  }
  if (storage::StateDigest(db.catalog(), db.models()) !=
      storage::StateDigest(replay.catalog(), replay.models())) {
    Divergence d;
    d.diverged = true;
    d.detail =
        "concurrent leg: final state differs from the serial commit-order "
        "replay (seed " +
        std::to_string(seed) + ", " + std::to_string(order.size()) +
        " committed txns)";
    return d;
  }
  if (report != nullptr) {
    report->sessions = num_sessions;
    report->committed = order.size();
    report->conflicts = conflicts.load(std::memory_order_relaxed);
  }
  return {};
}

}  // namespace aidb::testing
