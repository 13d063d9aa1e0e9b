// aidb_e2e: one run of one workload. Sets up a database, drives a fixed
// seeded statement stream through server::Service, checks every answer,
// closes, reopens, and prints its metrics: human-readable lines, then one
// JSON line with every metric it measured. run.py picks the metrics
// BENCHMARK.json names and combines several processes.
//
//   aidb_e2e --workload oltp|analytics|ingest --seed N --seconds S
//            --trace 0|1 --data-root DIR [--out-dir DIR]
//            [--git-sha X] [--src-digest X]

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "sql/ast.h"
#include "sql/parser.h"
#include "workloads.h"

namespace e2e {
namespace {

/// Untimed ramp between set-up and the run (Workload::Ramp). With every CPU
/// of a shared virtual machine busy after an idle spell, the first second or
/// so runs several times slower.
constexpr auto kRamp = std::chrono::milliseconds(1500);
/// Slices of each session's stream the throughput median is taken over.
constexpr size_t kThroughputSlices = 20;
/// Database::Open calls on the closed run's directory, recovery_s being
/// the fastest: at least kMinRecoveryOpens, more while they took less than
/// kRecoveryBudget in all, at most kMaxRecoveryOpens. The host only ever
/// adds time, and its speed drifts within a second, so the fastest open is
/// steadier between processes than their median.
constexpr int kMinRecoveryOpens = 5;
constexpr int kMaxRecoveryOpens = 15;
constexpr double kRecoveryBudget = 1.0;  // seconds

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_root;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--data-root") a->data_root = v;
    else if (k == "--out-dir") a->out_dir = v;
    else if (k == "--git-sha") a->git_sha = v;
    else if (k == "--src-digest") a->src_digest = v;
    else return false;
  }
  return !a->workload.empty() && !a->data_root.empty() && a->seconds > 0.0;
}

/// Metrics in print order. Every metric goes into the JSON line; the text
/// lines also carry sample counts and bases.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!ValidMetricName(name)) {
      std::fprintf(stderr, "invalid metric name %s\n", name.c_str());
      std::abort();
    }
    rows_.push_back({name, unit, value, note});
  }
  /// A ratio and its base, both as metrics; a zero base prints n/a.
  void AddRatio(const std::string& name, const Ratio& r, const std::string& unit,
                const std::string& base_name, const std::string& base_unit) {
    const std::string base_note = "base " + base_name + " = " + Num(r.base);
    Add(name, r.value, unit, r.na ? "n/a (" + base_note + ")" : base_note);
    if (!Has(base_name)) Add(base_name, r.base, base_unit);
  }
  void AddTail(const std::string& name, const Tail& t, const std::string& unit,
               double scale = 1.0) {
    std::string note = t.defined ? "p" : "n/a (n=";
    if (t.defined) {
      note += Num(t.percentile);
      note += " of n=";
      note += std::to_string(t.n);
      note += " (";
      note += std::to_string(t.beyond);
      note += " beyond)";
    } else {
      note += std::to_string(t.n);
      note += ")";
    }
    Add(name, t.defined ? t.value * scale : 0.0, unit, note);
  }
  bool Has(const std::string& name) const {
    return std::any_of(rows_.begin(), rows_.end(),
                       [&](const Row& r) { return r.name == name; });
  }
  std::string Text(const char* section) const {
    std::string out;
    for (const Row& r : rows_) {
      char line[512];
      std::snprintf(line, sizeof(line), "%-10s %-40s %16s %-6s %s\n", section,
                    r.name.c_str(), Num(r.value).c_str(), r.unit.c_str(),
                    r.note.c_str());
      out += line;
    }
    return out;
  }
  std::string Json() const {
    std::string out;
    for (const Row& r : rows_) {
      if (!out.empty()) out += ",";
      out += JsonString(r.name) + ":{\"value\":" + JsonNumber(r.value) +
             ",\"unit\":" + JsonString(r.unit) + "}";
    }
    return out;
  }
  static std::string Num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

 private:
  struct Row {
    std::string name, unit;
    double value;
    std::string note;
  };
  std::vector<Row> rows_;
};

/// Returns the heap pages the closed run's database freed to the system, so
/// the recovery opens peak as they would in a fresh process (recovery runs
/// after a restart) instead of on top of freed, still-resident pages.
void ReleaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  if (a.workload == "oltp") return MakeOltp(a.seed, a.seconds);
  if (a.workload == "analytics") return MakeAnalytics(a.seed, a.seconds);
  if (a.workload == "ingest") return MakeIngest(a.seed, a.seconds);
  return nullptr;
}

std::vector<double> Collect(const std::vector<StmtRecord>& recs,
                            bool (*pick)(Kind), double StmtRecord::*field) {
  std::vector<double> out;
  for (const StmtRecord& r : recs) {
    if (r.ok && pick(r.kind)) out.push_back(r.*field);
  }
  return out;
}

/// Kind shares of a statement class, e.g. "execute 70.1%, select 29.9%".
std::string Shares(const std::vector<StmtRecord>& recs, bool (*pick)(Kind)) {
  std::map<std::string, size_t> n;
  size_t total = 0;
  for (const StmtRecord& r : recs) {
    if (!pick(r.kind)) continue;
    ++n[KindName(r.kind)];
    ++total;
  }
  std::string out;
  for (const auto& [k, c] : n) {
    if (!out.empty()) out += ", ";
    out += k + " " + Report::Num(100.0 * static_cast<double>(c) /
                                 static_cast<double>(total)) + "%";
  }
  return out.empty() ? "none" : out;
}

/// Parse and plan probes of one run statement, measured after the run.
struct Probe {
  Kind kind;
  double parse_us = -1.0;
  double plan_us = -1.0;
};

/// Parses every recorded statement text and plans every SELECT (for an
/// EXECUTE, its bound template body) on the quiesced database. Each probe is
/// attached as a span under its request's exec.stmt; the plan probe only
/// where the request missed the plan cache, since a hit skipped planning.
std::vector<Probe> RunProbes(aidb::Database* db, const Client& c,
                             SpanRecorder* rec) {
  std::vector<Probe> out;
  out.reserve(c.run().size());
  for (const StmtRecord& r : c.run()) {
    if (r.text < 0) continue;
    const StmtText& t = c.texts()[static_cast<size_t>(r.text)];
    Probe p{r.kind};
    Clock::time_point t0 = Clock::now();
    (void)aidb::sql::Parser::Parse(t.sql);
    p.parse_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (!t.plan_sql.empty()) {
      auto sel = aidb::sql::Parser::Parse(t.plan_sql);
      if (sel.ok() && sel.ValueOrDie()->kind() == aidb::sql::StatementKind::kSelect) {
        const auto& stmt =
            static_cast<const aidb::sql::SelectStatement&>(*sel.ValueOrDie());
        t0 = Clock::now();
        (void)db->PlanQuery(stmt);
        p.plan_us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      }
    }
    if (rec != nullptr && r.exec_span != 0) {
      const double engine = std::min(r.engine_us, r.total_us);
      Span s;
      s.id = rec->NextId();
      s.parent = r.exec_span;
      s.request = r.request;
      s.name = "sql.parse";
      s.kind = KindName(r.kind);
      s.start_us = r.start_us + r.total_us - engine;
      s.dur_us = p.parse_us;
      s.probe = true;
      rec->Add(s);
      if (p.plan_us >= 0.0 && !r.cache_hit) {
        s.id = rec->NextId();
        s.name = "exec.plan";
        s.start_us += p.parse_us;
        s.dur_us = p.plan_us;
        rec->Add(s);
      }
    }
    out.push_back(p);
  }
  return out;
}

/// Per-layer metrics of a traced run, each ratio with its base.
void LayerMetrics(const std::vector<StmtRecord>& run, const std::vector<Probe>& probes,
                  const std::vector<Span>& spans, const Counters& b,
                  const Counters& e, const RunFacts& facts, uint64_t replayed,
                  uint64_t disk_bytes, Report* out) {
  auto d = [&](const std::string& n) { return e.Reg(n) - b.Reg(n); };
  auto all = [](Kind) { return true; };
  const double stmts = static_cast<double>(run.size());

  // server: admission and plan cache.
  std::vector<double> queue;
  for (const StmtRecord& r : run) queue.push_back(QueueUs(r));
  out->Add("server.submit_p50_us", Median(Collect(run, all, &StmtRecord::submit_us)),
           "us");
  out->Add("server.queue_p50_us", Median(queue), "us",
           "total - submit - engine: queue wait plus worker hand-off; "
           "negative where execution overlapped Submit");
  out->AddTail("server.queue_tail_us", TailOf(queue), "us");
  const double hits = static_cast<double>(e.plan_hits - b.plan_hits);
  const double misses = static_cast<double>(e.plan_misses - b.plan_misses);
  out->AddRatio("server.plan_cache_hit_ratio", MakeRatio(hits, hits + misses), "ratio",
                "server.plan_cache_lookups", "count");
  out->Add("server.plan_cache_misses", misses, "count");
  out->AddRatio("server.shed_frac",
                MakeRatio(static_cast<double>(e.shed - b.shed), stmts), "ratio",
                "server.submitted", "count");

  // sql and exec: probes and engine time per kind.
  std::map<Kind, std::vector<double>> parse, engine;
  std::vector<double> parse_all, plan_all;
  for (const Probe& p : probes) {
    parse[p.kind].push_back(p.parse_us);
    parse_all.push_back(p.parse_us);
    if (p.plan_us >= 0.0) plan_all.push_back(p.plan_us);
  }
  for (const StmtRecord& r : run) {
    if (r.ok) engine[r.kind].push_back(r.engine_us);
  }
  out->Add("sql.parse_p50_us", Median(parse_all), "us",
           "probe, n=" + std::to_string(parse_all.size()));
  out->Add("exec.stmt_p50_us", Median(Collect(run, all, &StmtRecord::engine_us)), "us");
  out->AddTail("exec.stmt_tail_us", TailOf(Collect(run, all, &StmtRecord::engine_us)),
               "us");
  out->Add("exec.plan_p50_us", Median(plan_all), "us",
           "probe, n=" + std::to_string(plan_all.size()));
  for (int k = 0; k < kNumKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    if (kind == Kind::kDdl) continue;
    const std::string name = KindName(kind);
    const auto& p = parse[kind];
    const auto& en = engine[kind];
    out->Add("sql.parse_p50_us." + name, Median(p), "us",
             p.empty() ? "n/a (n=0)" : "n=" + std::to_string(p.size()));
    out->Add("exec.stmt_p50_us." + name, Median(en), "us",
             en.empty() ? "n/a (n=0)" : "n=" + std::to_string(en.size()));
    out->AddTail("exec.stmt_tail_us." + name, TailOf(en), "us");
  }
  double selects = 0.0;
  for (const StmtRecord& r : run) selects += IsRead(r.kind) ? 1.0 : 0.0;
  out->AddRatio("exec.rows_per_select",
                MakeRatio(static_cast<double>(e.total_work - b.total_work), selects),
                "rows", "exec.selects", "count");
  out->AddRatio("exec.pool_tasks_per_query",
                MakeRatio(d("pool.tasks"), d("exec.queries")), "ratio",
                "exec.queries", "count");

  // txn.
  const double commits = d("txn.commits");
  const double conflicts = d("txn.conflicts");
  out->AddRatio("txn.conflict_ratio", MakeRatio(conflicts, commits + conflicts),
                "ratio", "txn.commit_attempts", "count");
  out->Add("txn.commits", commits, "count");
  out->AddRatio("txn.read_pin_overflow_ratio",
                MakeRatio(d("mvcc.read_pin_overflows"), d("mvcc.read_pins")), "ratio",
                "txn.read_pins", "count");
  out->Add("txn.versions_unfreed",
           e.Reg("mvcc.versions_retired") - e.Reg("mvcc.versions_freed"), "count",
           "retired - freed at run end");

  // storage: WAL.
  double writes = 0.0;
  for (const StmtRecord& r : run) writes += IsWrite(r.kind) ? 1.0 : 0.0;
  const auto& wb = b.durability.wal;
  const auto& we = e.durability.wal;
  out->AddRatio("storage.wal.bytes_per_write",
                MakeRatio(static_cast<double>(we.bytes_written - wb.bytes_written),
                          writes),
                "B", "storage.writes", "count");
  out->Add("storage.wal.fsyncs", static_cast<double>(we.fsyncs - wb.fsyncs), "count");
  out->AddRatio("storage.wal.fsyncs_per_commit",
                MakeRatio(static_cast<double>(we.fsyncs - wb.fsyncs), commits), "ratio",
                "txn.commits", "count");
  aidb::monitor::LatencyHistogram::Snapshot flush = e.wal_flush;
  flush.count -= b.wal_flush.count;
  for (size_t i = 0; i < flush.buckets.size(); ++i) {
    flush.buckets[i] -= b.wal_flush.buckets[i];
  }
  out->Add("storage.wal.flush_p95_us", flush.Percentile(0.95), "us",
           flush.count == 0 ? "n/a (n=0)"
                            : "histogram, n=" + std::to_string(flush.count));

  // storage: LSM.
  const auto& lb = b.lsm;
  const auto& le = e.lsm;
  auto ld = [](uint64_t x, uint64_t y) { return static_cast<double>(x - y); };
  out->AddRatio("storage.lsm.write_amp",
                MakeRatio(ld(le.entries_compacted, lb.entries_compacted),
                          ld(le.entries_written, lb.entries_written)),
                "ratio", "storage.lsm.entries_written", "count");
  out->AddRatio("storage.lsm.bytes_per_user_byte",
                MakeRatio(ld(le.bytes_written, lb.bytes_written),
                          static_cast<double>(facts.user_bytes)),
                "ratio", "storage.user_bytes", "B");
  out->AddRatio("storage.lsm.read_amp",
                MakeRatio(ld(le.runs_probed, lb.runs_probed), ld(le.gets, lb.gets)),
                "ratio", "storage.lsm.gets", "count");
  out->AddRatio("storage.lsm.bloom_negative_ratio",
                MakeRatio(ld(le.bloom_negatives, lb.bloom_negatives),
                          ld(le.bloom_probes, lb.bloom_probes)),
                "ratio", "storage.lsm.bloom_probes", "count");
  out->AddRatio("storage.lsm.gets_per_stmt", MakeRatio(ld(le.gets, lb.gets), stmts),
                "ratio", "server.submitted", "count");
  out->AddRatio("storage.lsm.materialized_per_update",
                MakeRatio(ld(le.materialized, lb.materialized),
                          static_cast<double>(facts.updates)),
                "ratio", "storage.updates", "count");
  out->AddRatio("storage.lsm.zone_prune_ratio",
                MakeRatio(ld(le.zone_prunes, lb.zone_prunes),
                          ld(le.zone_checks, lb.zone_checks)),
                "ratio", "storage.lsm.zone_checks", "count");
  const double krows = static_cast<double>(facts.rows_inserted) / 1000.0;
  out->AddRatio("storage.lsm.flushes_per_1k_rows",
                MakeRatio(ld(le.flushes, lb.flushes), krows), "ratio",
                "storage.rows_inserted_k", "count");
  out->AddRatio("storage.lsm.compactions_per_1k_rows",
                MakeRatio(ld(le.compactions, lb.compactions), krows), "ratio",
                "storage.rows_inserted_k", "count");
  out->Add("storage.lsm.flushes", ld(le.flushes, lb.flushes), "count");
  out->Add("storage.lsm.compactions", ld(le.compactions, lb.compactions), "count");
  out->Add("storage.recovery.records_replayed", static_cast<double>(replayed), "count");
  out->Add("storage.disk_bytes", static_cast<double>(disk_bytes), "B");

  // trace: how much of the request the spans account for.
  Ratio residue = Residue(spans, "request");
  residue.base /= 1e6;  // µs of request time, printed in seconds
  out->AddRatio("trace.residue_frac", residue, "ratio", "trace.request_time_s", "s");
  double engine_total = 0.0, request_total = 0.0;
  for (const StmtRecord& r : run) {
    engine_total += std::min(r.engine_us, r.total_us);
    request_total += r.total_us;
  }
  out->Add("trace.exec_share", MakeRatio(engine_total, request_total).value, "ratio",
           "exec.stmt time / request time");
}

std::string ContextJson(const Args& a, const Workload& wl, const std::string& dir,
                        const aidb::Database& db) {
  const aidb::DurabilityOptions d = wl.durability();
  const aidb::server::ServiceOptions svc;
  const std::string flush =
      "WAL group commit every " + std::to_string(d.wal_flush_interval) +
      " records, fsync " + (d.sync ? "on" : "off") + ", " +
      (d.checkpoint_every_n_records == 0
           ? std::string("no auto-checkpoint")
           : "checkpoint every " + std::to_string(d.checkpoint_every_n_records)) +
      ", " + (d.lsm ? "lsm" : "row store");
  std::string out = "{";
  auto kv = [&](const char* k, const std::string& v, bool str = true) {
    if (out.size() > 1) out += ",";
    out += JsonString(k) + ":" + (str ? JsonString(v) : v);
  };
  kv("workload", a.workload);
  kv("seed", std::to_string(a.seed), false);
  kv("seconds", JsonNumber(a.seconds), false);
  kv("nproc", std::to_string(std::thread::hardware_concurrency()), false);
  kv("git_sha", a.git_sha);
  kv("src_digest", a.src_digest);
  kv("build_type", E2E_BUILD_TYPE);
#if defined(__clang__)
  kv("compiler", std::string("clang ") + __clang_version__);
#else
  kv("compiler", std::string("gcc ") + __VERSION__);
#endif
  kv("data_fs", FsType(dir));
  kv("knobs", wl.knobs());
  kv("flush_policy", flush);
  kv("sessions", std::to_string(wl.sessions()), false);
  kv("service_workers", std::to_string(svc.workers), false);
  kv("plan_cache_entries", std::to_string(db.plan_cache().capacity()), false);
  kv("memtable_entries", std::to_string(d.lsm_design.memtable_capacity), false);
  return out + "}";
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr, "usage: aidb_e2e --workload W --seed N --seconds S "
                         "--trace 0|1 --data-root DIR [--out-dir DIR]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(a);
  if (!wl) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  namespace fs = std::filesystem;
  const std::string dir = a.data_root + "/" + a.workload + "-" +
                          std::to_string(a.seed) + "-" + std::to_string(getpid());
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(), ec.message().c_str());
    return 2;
  }
  // The run's databases are removed on every return path.
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } cleanup{dir};
  const std::string db_dir = dir + "/db";

  Failures failures;
  std::atomic<uint64_t> span_ids{1};
  const Clock::time_point epoch = Clock::now();
  std::vector<std::unique_ptr<SpanRecorder>> recs;
  auto new_rec = [&]() -> SpanRecorder* {
    if (!a.trace) return nullptr;
    recs.push_back(std::make_unique<SpanRecorder>(&span_ids, epoch));
    return recs.back().get();
  };
  SpanRecorder* main_rec = new_rec();

  // --- set-up: open, load, index, ANALYZE, warm-up ---------------------------
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<aidb::Database> db;
  std::unique_ptr<aidb::server::Service> svc;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Client*> client_ptrs;
  {
    ScopedSpan setup_span(main_rec, "setup");
    {
      ScopedSpan open_span(main_rec, "db.open", setup_span.id());
      auto opened = aidb::Database::Open(db_dir, wl->durability());
      if (!opened.ok()) {
        std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
        return 1;
      }
      db = std::move(opened).ValueOrDie();
    }
    wl->ApplyKnobs(db.get());
    svc = std::make_unique<aidb::server::Service>(db.get());
    for (size_t i = 0; i < wl->sessions(); ++i) {
      clients.push_back(std::make_unique<Client>(svc.get(), epoch, new_rec(), a.trace));
      client_ptrs.push_back(clients.back().get());
    }
    ScopedSpan load_span(main_rec, "setup.statements", setup_span.id());
    wl->Setup(client_ptrs, &failures);
  }
  const double setup_s = MsSince(setup_start) / 1e3;
  const std::string context = ContextJson(a, *wl, dir, *db);
  std::printf("context    %s\n", context.c_str());

  Report e2e, layers;
  e2e.Add("setup_s", setup_s, "s");

  // --- ramp: every session busy, untimed -------------------------------------
  {
    const Clock::time_point until = Clock::now() + kRamp;
    for (Client* c : client_ptrs) c->StartRamp();
    std::vector<std::thread> threads;
    for (size_t i = 1; i < client_ptrs.size(); ++i) {
      threads.emplace_back([&, i] { wl->Ramp(i, client_ptrs[i], until); });
    }
    wl->Ramp(0, client_ptrs[0], until);
    for (auto& t : threads) t.join();
  }

  // --- the measured run: a fixed statement stream per session ---------------
  wl->Prepare();
  const Counters before = ReadCounters(db.get(), *svc);
  for (Client* c : client_ptrs) c->StartRun();
  const Clock::time_point run_start = Clock::now();
  {
    ScopedSpan run_span(main_rec, "run");
    std::vector<std::thread> threads;
    for (size_t i = 1; i < client_ptrs.size(); ++i) {
      threads.emplace_back([&, i] { wl->RunSession(i, client_ptrs[i], &failures); });
    }
    wl->RunSession(0, client_ptrs[0], &failures);
    for (auto& t : threads) t.join();
  }
  const double run_s = MsSince(run_start) / 1e3;
  svc->Drain();
  const Counters after = ReadCounters(db.get(), *svc);
  wl->CheckState(db.get(), "after the run", &failures);

  std::vector<StmtRecord> run, setup_recs;
  for (Client* c : client_ptrs) {
    run.insert(run.end(), c->run().begin(), c->run().end());
    setup_recs.insert(setup_recs.end(), c->setup().begin(), c->setup().end());
  }
  std::vector<Probe> probes;
  if (a.trace) {
    ScopedSpan probe_span(main_rec, "probes");
    for (Client* c : client_ptrs) {
      std::vector<Probe> p = RunProbes(db.get(), *c, main_rec);
      probes.insert(probes.end(), p.begin(), p.end());
    }
  }

  // --- close, measure the directory, reopen ----------------------------------
  svc.reset();
  {
    ScopedSpan flush_span(main_rec, "db.flush_wal");
    aidb::Status st = db->FlushWal();
    if (!st.ok()) failures.Add("FlushWal: " + st.ToString());
  }
  {
    ScopedSpan close_span(main_rec, "db.close");
    db.reset();
  }
  ReleaseFreedMemory();
  const uint64_t disk_bytes = DirBytes(db_dir);
  // Open replays the log without appending to it, so every open replays the
  // same records; the first one's state is checked.
  uint64_t replayed = 0;
  std::vector<double> recoveries;
  double recovering_s = 0.0;
  for (int i = 0; i < kMaxRecoveryOpens &&
                  (i < kMinRecoveryOpens || recovering_s < kRecoveryBudget);
       ++i) {
    ScopedSpan reopen_span(main_rec, "db.recover");
    const Clock::time_point reopen_start = Clock::now();
    auto reopened = aidb::Database::Open(db_dir, wl->durability());
    recoveries.push_back(MsSince(reopen_start) / 1e3);
    recovering_s += recoveries.back();
    if (!reopened.ok()) {
      failures.Add("reopen: " + reopened.status().ToString());
      break;
    }
    std::unique_ptr<aidb::Database> db2 = std::move(reopened).ValueOrDie();
    const uint64_t n = db2->last_recovery().records_replayed;
    if (i == 0) {
      replayed = n;
      wl->CheckState(db2.get(), "after reopen", &failures);
    } else if (n != replayed) {
      failures.Add("reopen " + std::to_string(i + 1) + " replayed " +
                   std::to_string(n) + " records, the first " +
                   std::to_string(replayed));
    }
  }
  const double recovery_s = *std::min_element(recoveries.begin(), recoveries.end());
  const double rss_mb = PeakRssMb();

  // --- end-to-end metrics ----------------------------------------------------
  size_t failed = 0;
  for (const StmtRecord& r : run) failed += r.ok ? 0 : 1;
  const std::vector<double> report_us = wl->reports();
  std::vector<double> reads = report_us.empty()
                                  ? Collect(run, IsRead, &StmtRecord::total_us)
                                  : report_us;
  const bool setup_writes = wl->writes_in_setup();
  std::vector<double> writes = Collect(setup_writes ? setup_recs : run, IsWrite,
                                       &StmtRecord::total_us);
  const std::string read_note =
      report_us.empty() ? "reads: " + Shares(run, IsRead)
                        : "one report = scan_agg + group_agg + join_agg + topk";
  const std::string write_note =
      (setup_writes ? "set-up load, " : "") +
      std::string("writes: ") + Shares(setup_writes ? setup_recs : run, IsWrite);
  // Throughput is the median over slices of the sessions' streams: sessions
  // finishing at different times add no tail with fewer sessions, and a
  // part of the run the host slows moves a few slices only.
  std::vector<std::vector<Interval>> streams;
  for (Client* c : client_ptrs) {
    streams.emplace_back();
    for (const StmtRecord& r : c->run()) {
      streams.back().push_back({r.start_us, r.start_us + r.total_us});
    }
  }
  e2e.Add("throughput_ops_s", SlicedThroughput(streams, kThroughputSlices), "stmt/s",
          "median of " + std::to_string(kThroughputSlices) + " slices per session (" +
              std::to_string(run.size()) + " statements in " + Report::Num(run_s) +
              " s in all)");
  e2e.Add("read_p50_us", Median(reads), "us",
          "n=" + std::to_string(reads.size()) + "; " + read_note);
  e2e.AddTail("read_tail_us", TailOf(reads), "us");
  e2e.Add("write_p50_us", Median(writes), "us",
          "n=" + std::to_string(writes.size()) + "; " + write_note);
  e2e.AddTail("write_tail_us", TailOf(writes), "us");
  if (!report_us.empty()) {
    e2e.Add("report_p50_ms", Median(report_us) / 1e3, "ms",
            "n=" + std::to_string(report_us.size()));
    e2e.AddTail("report_tail_ms", TailOf(report_us), "ms", 1e-3);
  }
  e2e.AddRatio("failed_frac",
               MakeRatio(static_cast<double>(failed), static_cast<double>(run.size())),
               "ratio", "attempted", "count");
  e2e.Add("peak_rss_mb", rss_mb, "MB");
  const double logical = wl->LogicalBytes();
  e2e.AddRatio("space_amp", MakeRatio(static_cast<double>(disk_bytes), logical),
               "ratio", "logical_bytes", "B");
  e2e.Add("recovery_s", recovery_s, "s",
          "fastest of " + std::to_string(recoveries.size()) + " opens, " +
              std::to_string(replayed) + " WAL records replayed each");
  for (const std::vector<double>* v : {&reads, &writes}) {
    if (v->empty() || !TailOf(*v).defined) {
      failures.Add("too few samples for a latency tail");
    }
  }

  std::string text = e2e.Text("e2e");
  std::string json_metrics = e2e.Json();
  if (a.trace) {
    std::vector<Span> spans;
    for (const auto& r : recs) {
      spans.insert(spans.end(), r->spans().begin(), r->spans().end());
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span& x, const Span& y) { return x.start_us < y.start_us; });
    LayerMetrics(run, probes, spans, before, after, wl->facts(), replayed, disk_bytes,
                 &layers);
    text += layers.Text("layer");
    json_metrics += "," + layers.Json();
    if (!a.out_dir.empty()) {
      fs::create_directories(a.out_dir, ec);
      const std::string stem =
          a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed);
      std::ofstream sf(stem + ".spans.jsonl");
      for (const Span& s : spans) sf << SpanJson(s) << "\n";
    }
  }
  for (const std::string& f : failures.list()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::fputs(text.c_str(), stdout);
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{%s}}\n",
              failures.any() ? "false" : "true", run.size(), failed,
              json_metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
