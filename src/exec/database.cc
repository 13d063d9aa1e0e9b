#include "exec/database.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>

#include "common/timer.h"
#include "sql/params.h"
#include "sql/parser.h"
#include "storage/engine/lsm_engine.h"
#include "storage/snapshot.h"

namespace aidb {

namespace {

/// Query-log `kind` strings (lowercase statement class): sql::StatementKind
/// order, then the two EXPLAIN variants of SELECT. A statement's slot here
/// also indexes its exec.stmt.<kind> counter.
constexpr std::array<const char*, 19> kStmtKindNames = {
    "select",       "insert",      "create_table", "create_index",
    "drop_index",   "update",      "delete",       "analyze",
    "create_model", "show_models", "drop_table",   "prepare",
    "execute",      "deallocate",  "begin",        "commit",
    "rollback",     "explain",     "explain_analyze"};
constexpr size_t kExplainSlot = 17;
static_assert(static_cast<size_t>(sql::StatementKind::kRollback) + 1 ==
                  kExplainSlot,
              "kStmtKindNames follows sql::StatementKind order");

size_t StatementKindSlot(const sql::Statement& stmt) {
  if (stmt.kind() == sql::StatementKind::kSelect) {
    const auto& s = static_cast<const sql::SelectStatement&>(stmt);
    if (s.explain_analyze) return kExplainSlot + 1;
    if (s.explain) return kExplainSlot;
  }
  return static_cast<size_t>(stmt.kind());
}

/// Recursively checks an expression tree for PREDICT calls (whose bound
/// closures capture model state and therefore must not be plan-cached).
bool ExprHasPredict(const sql::Expr* e) {
  if (e == nullptr) return false;
  if (e->kind == sql::Expr::Kind::kPredict) return true;
  if (ExprHasPredict(e->lhs.get()) || ExprHasPredict(e->rhs.get())) return true;
  for (const auto& a : e->args) {
    if (ExprHasPredict(a.get())) return true;
  }
  return false;
}

/// Plan-cache key: canonical statement text + type-tagged argument values +
/// planner knob fingerprint. Args are type-tagged because Value::ToString
/// renders 1 and '1' too similarly to trust for keying.
std::string PlanCacheKey(const std::string& canonical_sql,
                         const std::vector<Value>& args,
                         const exec::PlannerOptions& opts) {
  std::string key = canonical_sql;
  key += "|a:";
  for (const Value& v : args) {
    key += std::to_string(static_cast<int>(v.type()));
    key += ':';
    key += v.ToString();
    key += '\x1f';
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "|k:%016llx",
                static_cast<unsigned long long>(server::KnobFingerprint(opts)));
  key += buf;
  return key;
}

/// True when an instantiated statement is a SELECT whose plan may be cached:
/// no EXPLAIN variant, no PREDICT calls (model retrains would invalidate the
/// bound closures). The caller rules out system views, whose backing Table
/// is replaced on refresh.
bool CacheableSelect(const sql::Statement& s) {
  if (s.kind() != sql::StatementKind::kSelect) return false;
  const auto& stmt = static_cast<const sql::SelectStatement&>(s);
  if (stmt.explain || stmt.explain_analyze) return false;
  for (const auto& item : stmt.items) {
    if (ExprHasPredict(item.expr.get())) return false;
  }
  for (const auto& j : stmt.joins) {
    if (ExprHasPredict(j.condition.get())) return false;
  }
  if (ExprHasPredict(stmt.where.get())) return false;
  for (const auto& g : stmt.group_by) {
    if (ExprHasPredict(g.get())) return false;
  }
  return !ExprHasPredict(stmt.having.get());
}

/// The statement `stmt` runs: itself, or an EXECUTE's template body with the
/// arguments bound (owned by `*bound`). `*key` receives a cacheable SELECT's
/// plan-cache key and stays empty otherwise.
Result<const sql::Statement*> Instantiate(const ResolvedStatement& stmt,
                                          const exec::PlannerOptions& planner,
                                          std::unique_ptr<sql::Statement>* bound,
                                          std::string* key) {
  // Both key texts are canonical token renderings from the one parse, so hit
  // and miss paths key identically without re-lexing.
  auto cacheable = [&stmt](const sql::Statement& s) {
    return !stmt.reads_system_view && CacheableSelect(s);
  };
  const sql::Statement& parsed = *stmt.parsed.stmt;
  if (parsed.kind() != sql::StatementKind::kExecute) {
    if (cacheable(parsed)) *key = PlanCacheKey(stmt.parsed.canonical, {}, planner);
    return &parsed;
  }
  const auto& e = static_cast<const sql::ExecuteStatement&>(parsed);
  if (!stmt.tmpl) return Status::NotFound("prepared statement " + e.name);
  if (static_cast<int>(e.args.size()) < stmt.tmpl->num_params) {
    return Status::InvalidArgument(
        "EXECUTE " + e.name + " needs " + std::to_string(stmt.tmpl->num_params) +
        " argument(s), got " + std::to_string(e.args.size()));
  }
  // Clone (templates are shared and immutable) and splice the literal args
  // over the $N placeholders.
  *bound = stmt.tmpl->body->Clone();
  AIDB_RETURN_NOT_OK(sql::BindParams(bound->get(), e.args));
  if (cacheable(**bound)) *key = PlanCacheKey(stmt.tmpl->body_text, e.args, planner);
  return bound->get();
}

std::string HexDigest(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// Records one `op:<Name>` span per operator of a plan that just ran, root
/// first, under the current trace context: duration is the operator's
/// inclusive time, value its rows, detail its EXPLAIN ANALYZE fields.
void RecordOpSpans(monitor::SpanCollector* spans, const exec::Operator& op,
                   uint64_t parent) {
  monitor::SpanCollector::Context ctx = monitor::SpanCollector::GetContext();
  monitor::Span s;
  s.trace_id = ctx.trace_id;
  s.session_id = ctx.session_id;
  s.parent_id = parent;
  s.span_id = spans->NextId();
  s.name = "op:" + op.Name();
  s.dur_us = op.elapsed_us();  // Record zeroes it in deterministic mode
  s.value = static_cast<double>(op.rows_produced());
  s.detail = op.AnalyzeStats(spans->deterministic());
  const uint64_t id = s.span_id;
  spans->Record(std::move(s));
  for (const auto& c : op.children()) RecordOpSpans(spans, *c, id);
}

/// Puts the statement in a trace while spans are on: it adopts the
/// service-minted identity from `settings` or, for a bare Execute outside any
/// request, mints a fresh trace, so standalone statements still yield a
/// coherent tree. Restores the thread's previous context on destruction.
struct TraceScope {
  TraceScope(monitor::SpanCollector* spans, const ExecSettings& settings) {
    if (!spans->enabled()) return;
    monitor::SpanCollector::Context ctx = saved;
    if (settings.trace_id != 0) {
      ctx.trace_id = settings.trace_id;
      ctx.parent_span = settings.parent_span;
      ctx.session_id = settings.session_id;
    } else if (ctx.trace_id == 0) {
      ctx.trace_id = spans->NextId();
      ctx.parent_span = 0;
      ctx.session_id = settings.session_id;
    }
    monitor::SpanCollector::SetContext(ctx);
  }
  ~TraceScope() { monitor::SpanCollector::SetContext(saved); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  monitor::SpanCollector::Context saved = monitor::SpanCollector::GetContext();
};

}  // namespace

Database::Database()
    : planner_(&catalog_, &models_),
      kpi_sampler_(&kpi_history_, [this] { return ProbeKpis(); }) {
  RegisterSystemViews();
  models_.set_metrics(&metrics_);
  tm_.set_metrics(&metrics_);
  planner_options_.column_cache = &column_cache_;
  spans_.set_metrics(&metrics_);
  query_log_.set_drop_counter(metrics_.GetCounter("query_log.dropped"));
  stmt_metrics_.queries = metrics_.GetCounter("exec.queries");
  stmt_metrics_.errors = metrics_.GetCounter("exec.errors");
  stmt_metrics_.select_rows = metrics_.GetCounter("exec.select_rows");
  stmt_metrics_.plan_cache_hit = metrics_.GetCounter("plan_cache.hit");
  stmt_metrics_.plan_cache_miss = metrics_.GetCounter("plan_cache.miss");
  stmt_metrics_.latency_us = metrics_.GetHistogram("exec.query_latency_us");
  stmt_metrics_.watermark_ts = metrics_.GetGauge("mvcc.watermark_ts");
  for (const char* kind : kStmtKindNames) {
    stmt_metrics_.per_kind.push_back(
        metrics_.GetCounter(std::string("exec.stmt.") + kind));
  }
  // Every sample flows through the incident pipeline: anomalies are detected
  // and diagnosed on the spot, incidents land in the aidb_incidents ring.
  kpi_sampler_.set_on_sample([this](const monitor::KpiSample& s) {
    monitor::LiveIncident inc;
    if (incidents_.Observe(s, &inc)) {
      metrics_.GetCounter("monitor.incidents")->Add();
      metrics_.GetCounter(std::string("monitor.cause.") +
                          monitor::RootCauseName(inc.cause))
          ->Add();
    }
  });
}

Database::~Database() {
  kpi_sampler_.Stop();
  // Drain every pool before members die: a queued storage-maintenance task
  // touches lsm_engine_ and checkpoint_fence_, both destroyed before the
  // pools join their workers.
  if (lsm_engine_) {
    if (exec_pool_) exec_pool_->Wait();
    for (auto& pool : retired_pools_) pool->Wait();
  }
}

void Database::StartKpiSampler(double interval_ms) {
  kpi_sampler_.Start(interval_ms);
}

void Database::StopKpiSampler() { kpi_sampler_.Stop(); }

monitor::KpiSample Database::ProbeKpis() {
  monitor::KpiSample s;
  s.seq = ++kpi_seq_;
  s.ts_us = deterministic_timing_ ? 0.0 : kpi_epoch_.ElapsedMicros();

  KpiBaseline now;
  now.work = total_work_.load(std::memory_order_relaxed);
  now.conflicts = metrics_.GetCounter("txn.conflicts")->Value();
  now.denials = metrics_.GetCounter("lock.denials")->Value();
  now.stall_us = metrics_.GetCounter("wal.stall_us")->Value();
  now.fsyncs = metrics_.GetCounter("wal.fsyncs")->Value();
  now.select_rows = stmt_metrics_.select_rows->Value();
  now.queries = stmt_metrics_.queries->Value();
  const auto lat = stmt_metrics_.latency_us->Snap();
  now.lat_count = lat.count;
  now.lat_sum_us = lat.sum_us;

  s.kpis[monitor::kKpiCpu] = static_cast<double>(now.work - kpi_prev_.work);
  s.kpis[monitor::kKpiLockWait] =
      static_cast<double>((now.conflicts - kpi_prev_.conflicts) +
                          (now.denials - kpi_prev_.denials));
  s.kpis[monitor::kKpiIoWait] =
      static_cast<double>((now.stall_us - kpi_prev_.stall_us) +
                          (now.fsyncs - kpi_prev_.fsyncs));
  uint64_t slots = 0;
  for (const std::string& name : catalog_.TableNames()) {
    auto t = catalog_.GetTable(name);
    if (t.ok()) slots += t.ValueOrDie()->NumSlots();
  }
  s.kpis[monitor::kKpiMem] = static_cast<double>(slots);
  s.kpis[monitor::kKpiScanRows] =
      static_cast<double>(now.select_rows - kpi_prev_.select_rows);
  // Mean statement latency this interval. Deterministic runs substitute the
  // deterministic equivalent (mean operator work per statement) so the KPI
  // stream — and every incident derived from it — replays identically.
  const uint64_t dq = now.queries - kpi_prev_.queries;
  if (deterministic_timing_) {
    s.kpis[monitor::kKpiLatency] =
        dq == 0 ? 0.0
                : static_cast<double>(now.work - kpi_prev_.work) /
                      static_cast<double>(dq);
  } else {
    const uint64_t dc = now.lat_count - kpi_prev_.lat_count;
    s.kpis[monitor::kKpiLatency] =
        dc == 0 ? 0.0 : (now.lat_sum_us - kpi_prev_.lat_sum_us) /
                            static_cast<double>(dc);
  }
  kpi_prev_ = now;
  return s;
}

void Database::RegisterSystemViews() {
  using VF = std::function<void(Tuple)>;

  Schema metrics_schema({{"name", ValueType::kString},
                         {"kind", ValueType::kString},
                         {"value", ValueType::kDouble}});
  (void)catalog_.RegisterSystemView(
      "aidb_metrics", std::move(metrics_schema), [this](const VF& emit) {
        for (const auto& m : metrics_.Snapshot()) {
          emit({Value(m.name), Value(m.kind), Value(m.value)});
        }
      });

  Schema log_schema({{"id", ValueType::kInt},
                     {"sql", ValueType::kString},
                     {"kind", ValueType::kString},
                     {"status", ValueType::kString},
                     {"rows", ValueType::kInt},
                     {"affected", ValueType::kInt},
                     {"work", ValueType::kInt},
                     {"latency_us", ValueType::kInt},
                     {"operators", ValueType::kInt},
                     {"joins", ValueType::kInt},
                     {"plan_digest", ValueType::kString},
                     {"dop", ValueType::kInt},
                     {"session", ValueType::kInt}});
  (void)catalog_.RegisterSystemView(
      "aidb_query_log", std::move(log_schema), [this](const VF& emit) {
        for (const auto& e : query_log_.Entries()) {
          emit({Value(static_cast<int64_t>(e.id)), Value(e.sql), Value(e.kind),
                Value(e.ok ? std::string("ok") : e.error),
                Value(static_cast<int64_t>(e.rows_returned)),
                Value(static_cast<int64_t>(e.affected_rows)),
                Value(static_cast<int64_t>(e.work)),
                Value(static_cast<int64_t>(e.latency_us)),
                Value(static_cast<int64_t>(e.num_operators)),
                Value(static_cast<int64_t>(e.num_joins)),
                Value(HexDigest(e.plan_digest)),
                Value(static_cast<int64_t>(e.dop)),
                Value(static_cast<int64_t>(e.session_id))});
        }
      });

  // Open transactions. A SELECT over this view refreshes it before its own
  // wrapper transaction begins, so only *other* sessions' transactions (and
  // the caller's explicit one, if open) are listed.
  Schema txn_schema({{"id", ValueType::kInt},
                     {"read_ts", ValueType::kInt},
                     {"writes", ValueType::kInt}});
  (void)catalog_.RegisterSystemView(
      "aidb_transactions", std::move(txn_schema), [this](const VF& emit) {
        for (const auto& t : tm_.ListActive()) {
          emit({Value(static_cast<int64_t>(t.id)),
                Value(static_cast<int64_t>(t.read_ts)),
                Value(static_cast<int64_t>(t.writes))});
        }
      });

  // Storage-engine state: one row per attached table (empty view when the
  // database runs on the plain row store).
  Schema storage_schema({{"table", ValueType::kString},
                         {"runs", ValueType::kInt},
                         {"max_level", ValueType::kInt},
                         {"entries", ValueType::kInt},
                         {"file_bytes", ValueType::kInt},
                         {"paged_slots", ValueType::kInt},
                         {"frozen_slots", ValueType::kInt}});
  (void)catalog_.RegisterSystemView(
      "aidb_storage", std::move(storage_schema), [this](const VF& emit) {
        if (!lsm_engine_) return;
        for (const auto& info : lsm_engine_->TableInfos()) {
          emit({Value(info.table), Value(static_cast<int64_t>(info.runs)),
                Value(static_cast<int64_t>(info.max_level)),
                Value(static_cast<int64_t>(info.entries)),
                Value(static_cast<int64_t>(info.file_bytes)),
                Value(static_cast<int64_t>(info.paged_slots)),
                Value(static_cast<int64_t>(info.frozen_slots))});
        }
      });

  // KPI time-series: one row per retained sampler tick, the six-KPI vector
  // derived from real counters (per-interval deltas; mem is a level).
  Schema history_schema({{"seq", ValueType::kInt},
                         {"ts_us", ValueType::kDouble},
                         {"cpu", ValueType::kDouble},
                         {"lock_wait", ValueType::kDouble},
                         {"io_wait", ValueType::kDouble},
                         {"mem", ValueType::kDouble},
                         {"scan_rows", ValueType::kDouble},
                         {"latency", ValueType::kDouble}});
  (void)catalog_.RegisterSystemView(
      "aidb_metrics_history", std::move(history_schema), [this](const VF& emit) {
        for (const auto& s : kpi_history_.Snapshot()) {
          emit({Value(static_cast<int64_t>(s.seq)), Value(s.ts_us),
                Value(s.kpis[monitor::kKpiCpu]),
                Value(s.kpis[monitor::kKpiLockWait]),
                Value(s.kpis[monitor::kKpiIoWait]),
                Value(s.kpis[monitor::kKpiMem]),
                Value(s.kpis[monitor::kKpiScanRows]),
                Value(s.kpis[monitor::kKpiLatency])});
        }
      });

  // End-to-end request spans (service admission → executor → commit → WAL
  // flush), one coherent parent/child tree per trace_id.
  Schema spans_schema({{"trace_id", ValueType::kInt},
                       {"span_id", ValueType::kInt},
                       {"parent_id", ValueType::kInt},
                       {"name", ValueType::kString},
                       {"session", ValueType::kInt},
                       {"start_us", ValueType::kDouble},
                       {"dur_us", ValueType::kDouble},
                       {"value", ValueType::kDouble},
                       {"detail", ValueType::kString}});
  (void)catalog_.RegisterSystemView(
      "aidb_spans", std::move(spans_schema), [this](const VF& emit) {
        for (const auto& s : spans_.Snapshot()) {
          emit({Value(static_cast<int64_t>(s.trace_id)),
                Value(static_cast<int64_t>(s.span_id)),
                Value(static_cast<int64_t>(s.parent_id)), Value(s.name),
                Value(static_cast<int64_t>(s.session_id)), Value(s.start_us),
                Value(s.dur_us), Value(s.value), Value(s.detail)});
        }
      });

  // Live anomaly → root-cause diagnoses from the incident pipeline. KPI
  // columns carry the squashed robust z-scores the diagnoser saw.
  Schema incidents_schema({{"seq", ValueType::kInt},
                           {"ts_us", ValueType::kDouble},
                           {"cause", ValueType::kString},
                           {"diagnoser", ValueType::kString},
                           {"trigger_kpi", ValueType::kString},
                           {"trigger_z", ValueType::kDouble},
                           {"cpu", ValueType::kDouble},
                           {"lock_wait", ValueType::kDouble},
                           {"io_wait", ValueType::kDouble},
                           {"mem", ValueType::kDouble},
                           {"scan_rows", ValueType::kDouble},
                           {"latency", ValueType::kDouble}});
  (void)catalog_.RegisterSystemView(
      "aidb_incidents", std::move(incidents_schema), [this](const VF& emit) {
        for (const auto& i : incidents_.Snapshot()) {
          emit({Value(static_cast<int64_t>(i.sample_seq)), Value(i.ts_us),
                Value(std::string(monitor::RootCauseName(i.cause))),
                Value(i.diagnoser),
                Value(std::string(monitor::KpiName(i.trigger_kpi))),
                Value(i.trigger_z), Value(i.kpis[monitor::kKpiCpu]),
                Value(i.kpis[monitor::kKpiLockWait]),
                Value(i.kpis[monitor::kKpiIoWait]),
                Value(i.kpis[monitor::kKpiMem]),
                Value(i.kpis[monitor::kKpiScanRows]),
                Value(i.kpis[monitor::kKpiLatency])});
        }
      });
}

Status Database::RefreshReferencedSystemViews(const sql::Statement& stmt) {
  if (stmt.kind() != sql::StatementKind::kSelect) return Status::OK();
  const auto& s = static_cast<const sql::SelectStatement&>(stmt);
  auto refresh = [this](const std::string& table) -> Status {
    if (!catalog_.IsSystemView(table)) return Status::OK();
    return catalog_.RefreshSystemView(table);
  };
  for (const auto& ref : s.from) AIDB_RETURN_NOT_OK(refresh(ref.table));
  for (const auto& j : s.joins) AIDB_RETURN_NOT_OK(refresh(j.table.table));
  return Status::OK();
}

std::string Database::SpansJson() const {
  std::string out;
  for (const auto& s : spans_.Snapshot()) {
    out += monitor::SpanToJson(s);
    out += '\n';
  }
  return out;
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::ostringstream os;
  if (!message.empty()) os << message << "\n";
  if (!columns.empty()) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i) os << " | ";
      os << columns[i];
    }
    os << "\n";
    for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
      for (size_t c = 0; c < rows[r].size(); ++c) {
        if (c) os << " | ";
        os << rows[r][c].ToString();
      }
      os << "\n";
    }
    if (rows.size() > max_rows) {
      os << "... (" << rows.size() << " rows total)\n";
    }
  }
  return os.str();
}

void Database::SetDop(size_t dop) {
  std::lock_guard<std::mutex> lock(options_mu_);
  if (dop <= 1) {
    planner_options_.dop = 1;
    planner_options_.exec_pool = nullptr;
    return;
  }
  dop = std::min<size_t>(dop, 64);
  // Grow-only: a pool sized for the largest dop seen serves smaller settings
  // too (workers beyond dop simply never get tasks).
  if (!exec_pool_ || exec_pool_->num_threads() < dop) {
    // Statements admitted with the old pool (snapshot settings, cached
    // plans) may still be running on it: retire, never destroy.
    if (exec_pool_) retired_pools_.push_back(std::move(exec_pool_));
    exec_pool_ = std::make_unique<ThreadPool>(dop);
    exec_pool_->set_metrics(&metrics_);
  }
  planner_options_.dop = dop;
  planner_options_.exec_pool = exec_pool_.get();
}

uint64_t Database::TableEpoch(const std::string& table) const {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  auto it = table_epochs_.find(table);
  return it == table_epochs_.end() ? 0 : it->second;
}

void Database::BumpTableEpoch(const std::string& table) {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  ++table_epochs_[table];
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                 const DurabilityOptions& opts) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("open: mkdir " + dir + ": " + ec.message());

  auto db = std::unique_ptr<Database>(new Database());
  AIDB_ASSIGN_OR_RETURN(db->recovery_stats_,
                        storage::RecoverDatabase(dir, &db->catalog_, &db->models_));
  storage::WalWriter::Options wopts;
  wopts.flush_interval = opts.wal_flush_interval;
  wopts.sync = opts.sync;
  wopts.fault = opts.fault;
  wopts.metrics = &db->metrics_;
  wopts.spans = &db->spans_;
  AIDB_ASSIGN_OR_RETURN(db->wal_,
                        storage::WalWriter::Open(dir + "/wal.log",
                                                 db->recovery_stats_.next_lsn, wopts));
  db->dir_ = dir;
  db->durability_opts_ = opts;
  db->tm_.SeedNextTxnId(db->recovery_stats_.next_txn_id);
  if (opts.lsm) AIDB_RETURN_NOT_OK(db->EnableLsmStorage());
  return db;
}

Status Database::EnableLsmStorage() {
  lsm_engine_ = std::make_unique<storage::LsmEngine>(
      dir_ + "/lsm", durability_opts_.lsm_design, &tm_,
      durability_opts_.fault, durability_opts_.sync, &metrics_);
  catalog_.SetTableHooks(
      [this](const std::string& name, Table* t) {
        lsm_engine_->AttachTable(name, t);
      },
      [this](const std::string& name, Table* t) {
        lsm_engine_->DetachTable(name, t);
      });
  // Recovery already rebuilt the catalog (hooks were not set yet). Adoption
  // only considers *frozen* slots, and freezing happens at vacuum — so run
  // one pass now (no transactions are open, the watermark covers every
  // recovered row) before attaching, or the manifest's runs could never
  // byte-match anything.
  const uint64_t wm = tm_.WatermarkTs();
  for (const std::string& name : catalog_.TableNames()) {
    auto t = catalog_.GetTable(name);
    if (t.ok()) t.ValueOrDie()->Vacuum(wm, [this](Version* v) { tm_.Retire(v); });
  }
  // Attach every table, re-adopting the manifest's runs where they
  // byte-match the recovered frozen rows, then drop whatever no table
  // references.
  for (const std::string& name : catalog_.TableNames()) {
    auto t = catalog_.GetTable(name);
    if (t.ok()) lsm_engine_->AttachTable(name, t.ValueOrDie());
  }
  return lsm_engine_->GarbageCollect();
}

void Database::MaybeMaintainStorage() {
  if (!lsm_engine_ || !lsm_engine_->NeedsMaintenance()) return;
  // Inline when crash injection is armed (the matrix counts fault points in
  // statement order, so flush/compaction points must fire deterministically)
  // or when no executor pool exists. The caller already holds the
  // checkpoint fence shared — do NOT re-acquire it here.
  if (durability_opts_.fault != nullptr || !exec_pool_) {
    // Post-commit path: a simulated crash sets the injector's crashed flag,
    // which gates every later statement; the status itself has no addressee.
    Status ignored = lsm_engine_->Maintain();
    (void)ignored;
    return;
  }
  bool expected = false;
  if (!storage_maint_inflight_.compare_exchange_strong(expected, true)) return;
  exec_pool_->Submit([this] {
    // Off the commit path: take the fence shared so a checkpoint never
    // captures its cut while runs and manifest move underneath it.
    std::shared_lock<std::shared_mutex> fence(checkpoint_fence_);
    Status ignored = lsm_engine_->Maintain();
    (void)ignored;
    storage_maint_inflight_.store(false, std::memory_order_release);
  });
}

Status Database::FlushColdStorage(bool force) {
  if (!lsm_engine_) {
    return Status::InvalidArgument("database has no LSM storage engine");
  }
  if (crashed()) return Status::Aborted("database crashed (simulated fault)");
  // Shared fence: a checkpoint must not capture its cut while runs and the
  // manifest move underneath it (same protocol as the pooled maintenance
  // task).
  std::shared_lock<std::shared_mutex> fence(checkpoint_fence_);
  const uint64_t wm = tm_.WatermarkTs();
  for (const std::string& name : catalog_.TableNames()) {
    auto t = catalog_.GetTable(name);
    if (!t.ok()) continue;
    t.ValueOrDie()->Vacuum(wm, [this](Version* v) { tm_.Retire(v); });
  }
  tm_.FreeRetired();
  if (!force) return lsm_engine_->Maintain();
  for (const auto& info : lsm_engine_->TableInfos()) {
    AIDB_RETURN_NOT_OK(lsm_engine_->FlushTable(info.table));
  }
  return Status::OK();
}

Status Database::FlushWal() {
  if (!wal_) return Status::InvalidArgument("database is not durable");
  return wal_->Flush();
}

Status Database::Checkpoint() {
  if (!wal_) return Status::InvalidArgument("database is not durable");
  if (wal_->crashed()) return Status::Aborted("database crashed");
  // Exclusive fence: no statement is appending WAL ops or committing while
  // the snapshot captures its cut (statements hold the fence shared).
  std::unique_lock<std::shared_mutex> fence(checkpoint_fence_);
  std::lock_guard<std::mutex> cp_lock(checkpoint_mu_);
  // Defer while any transaction holds unstamped writes: the snapshot walks
  // latest-committed state, so a fuzzy checkpoint taken mid-transaction
  // would drop the transaction's ops (LSN <= checkpoint) while keeping its
  // later commit record — replaying the commit as a no-op and losing writes.
  if (tm_.HasActiveWriters()) return wal_->Flush();
  // Protocol: (1) make the WAL durable, (2) write + rename the snapshot,
  // (3) truncate the WAL. A crash between (2) and (3) is safe because
  // recovery skips WAL records with LSN <= the snapshot's checkpoint LSN.
  AIDB_RETURN_NOT_OK(wal_->Flush());
  storage::SnapshotMeta meta;
  meta.checkpoint_lsn = wal_->last_lsn();
  meta.next_txn_id = tm_.next_txn_id();
  AIDB_RETURN_NOT_OK(storage::Snapshot::Write(dir_, meta, catalog_, models_,
                                              durability_opts_.fault,
                                              durability_opts_.sync)
                         .status());
  AIDB_RETURN_NOT_OK(wal_->ResetAfterCheckpoint());
  storage::Snapshot::RemoveOld(dir_, 2);
  records_since_checkpoint_ = 0;
  ++checkpoints_written_;
  return Status::OK();
}

void Database::SetWalFlushInterval(size_t records) {
  durability_opts_.wal_flush_interval = records == 0 ? 1 : records;
  if (wal_) wal_->set_flush_interval(durability_opts_.wal_flush_interval);
}

DurabilityStats Database::durability_stats() const {
  DurabilityStats s;
  if (wal_) {
    s.wal = wal_->stats();
    s.unflushed_records = wal_->unflushed_records();
  }
  s.checkpoints_written = checkpoints_written_;
  s.recovery = recovery_stats_;
  return s;
}

Status Database::LogTxn(
    txn::TxnId stmt_txn,
    std::vector<std::pair<storage::WalRecordType, std::string>> records) {
  if (!wal_) return Status::OK();
  // Each statement logs under one transaction id even on this non-MVCC path
  // (DDL, model training): per-id grouping keeps recovery replay exact when
  // records from concurrent sessions interleave. The statement's wrapper
  // transaction id is reused while it has no MVCC writes of its own — if it
  // does (DDL inside an explicit transaction after DML), the commit record
  // appended here must not resolve those still-uncommitted ops, so a fresh
  // id is allocated instead.
  const txn::TxnId t =
      (stmt_txn != txn::kInvalidTxnId && tm_.UndoSize(stmt_txn) == 0)
          ? stmt_txn
          : tm_.AllocateTxnId();
  tm_.PinId(t);  // the id now appears in the WAL; never recycle it
  for (auto& [type, payload] : records) {
    AIDB_RETURN_NOT_OK(
        wal_->Append(storage::WalRecordType::kTxnOp,
                     storage::EncodeTxnOp({t, type, std::move(payload)}))
            .status());
  }
  AIDB_RETURN_NOT_OK(wal_->Append(storage::WalRecordType::kCommit,
                                  storage::EncodeCommit(t))
                         .status());
  records_since_checkpoint_.fetch_add(records.size() + 1,
                                      std::memory_order_relaxed);
  // No checkpoint trigger here (the statement holds the checkpoint fence
  // shared); ExecuteWithTxn checkpoints after releasing it.
  return Status::OK();
}

Result<QueryResult> Database::Execute(const std::string& sql) {
  return Execute(sql, SnapshotSettings());
}

Result<QueryResult> Database::Execute(const std::string& sql,
                                      const ExecSettings& settings) {
  TraceScope trace(&spans_, settings);
  Result<sql::ParsedStatement> parsed = [&] {
    monitor::SpanScope parse_span(&spans_, "parse");
    return sql::Parser::ParseKeyed(sql);
  }();
  AIDB_RETURN_NOT_OK(parsed.status());
  return Execute(Resolve(std::move(parsed).ValueOrDie(), settings.prepared),
                 settings);
}

ResolvedStatement Database::Resolve(
    sql::ParsedStatement parsed, const server::PreparedStore* prepared) const {
  ResolvedStatement r;
  r.parsed = std::move(parsed);
  if (r.parsed.stmt->kind() == sql::StatementKind::kExecute) {
    const auto& e = static_cast<const sql::ExecuteStatement&>(*r.parsed.stmt);
    auto tmpl = (prepared != nullptr ? prepared : &default_prepared_)->Get(e.name);
    if (tmpl.ok()) r.tmpl = std::move(tmpl).ValueOrDie();
  }
  const sql::Statement* eff = r.effective();
  if (eff != nullptr && eff->kind() == sql::StatementKind::kSelect) {
    const auto& sel = static_cast<const sql::SelectStatement&>(*eff);
    for (const auto& ref : sel.from) {
      r.reads_system_view |= catalog_.IsSystemView(ref.table);
    }
    for (const auto& j : sel.joins) {
      r.reads_system_view |= catalog_.IsSystemView(j.table.table);
    }
  }
  return r;
}

Result<QueryResult> Database::Execute(const ResolvedStatement& stmt,
                                      const ExecSettings& settings) {
  Timer timer;
  if (crashed()) return Status::Aborted("database crashed; reopen to recover");
  TraceScope trace(&spans_, settings);
  monitor::SpanScope exec_span(&spans_, "execute");
  const sql::Statement& parsed = *stmt.parsed.stmt;
  const size_t kind_slot = StatementKindSlot(parsed);
  if (exec_span.active()) exec_span.set_detail(kStmtKindNames[kind_slot]);

  StmtPlanInfo plan_info;
  QueryResult result;
  std::unique_ptr<sql::Statement> bound;
  std::string key;
  Result<const sql::Statement*> run =
      Instantiate(stmt, settings.planner, &bound, &key);
  Status status = run.status();
  if (status.ok()) status = RefreshReferencedSystemViews(*run.ValueOrDie());
  if (status.ok()) {
    status = ExecuteWithTxn(*run.ValueOrDie(), settings, &plan_info,
                            key.empty() ? nullptr : &key, &result);
  }
  double latency_us = timer.ElapsedMicros();
  result.elapsed_ms = deterministic_timing_ ? 0.0 : timer.ElapsedMillis();
  result.plan_cache_hit = plan_info.plan_cache_hit;

  // Engine-wide telemetry: every statement is metered and logged, including
  // failures (the monitors train on error rates too).
  stmt_metrics_.queries->Add();
  stmt_metrics_.per_kind[kind_slot]->Add();
  if (!status.ok()) stmt_metrics_.errors->Add();
  stmt_metrics_.latency_us->Observe(latency_us);
  if (parsed.kind() == sql::StatementKind::kSelect) {
    stmt_metrics_.select_rows->Add(result.rows.size());
  }

  monitor::QueryLogEntry entry;
  entry.sql = stmt.parsed.text;
  entry.kind = kStmtKindNames[kind_slot];
  entry.ok = status.ok();
  if (!status.ok()) entry.error = status.ToString();
  entry.rows_returned = result.rows.size();
  entry.affected_rows = result.affected_rows;
  entry.work = result.operator_work;
  entry.latency_us = deterministic_timing_ ? 0.0 : latency_us;
  entry.ts_us = deterministic_timing_ ? 0.0 : uptime_.ElapsedMicros();
  entry.plan_digest = plan_info.plan_digest;
  entry.num_operators = plan_info.num_operators;
  entry.num_joins = plan_info.num_joins;
  entry.dop = static_cast<uint32_t>(settings.planner.dop);
  entry.session_id = settings.session_id;
  query_log_.Append(std::move(entry));

  if (exec_span.active()) {
    exec_span.set_value(static_cast<double>(result.operator_work));
  }
  if (!status.ok()) return status;
  return result;
}

bool Database::PlanStillValid(const server::CachedPlan& entry) const {
  if (entry.used_feedback &&
      entry.feedback_epoch != catalog_.feedback().epoch()) {
    return false;
  }
  for (const auto& [table, epoch] : entry.deps) {
    if (TableEpoch(table) != epoch) return false;
  }
  return true;
}

Status Database::LogTxnOps(
    txn::TxnId t,
    std::vector<std::pair<storage::WalRecordType, std::string>> records) {
  if (!wal_) return Status::OK();
  for (auto& [type, payload] : records) {
    AIDB_RETURN_NOT_OK(
        wal_->Append(storage::WalRecordType::kTxnOp,
                     storage::EncodeTxnOp({t, type, std::move(payload)}))
            .status());
  }
  tm_.NoteOpsLogged(t);
  records_since_checkpoint_.fetch_add(records.size(),
                                      std::memory_order_relaxed);
  // No checkpoint trigger here: a checkpoint between a transaction's ops and
  // its commit record would strand them. FinishCommit checks after closing.
  return Status::OK();
}

Status Database::FinishCommit(txn::TxnId t, QueryResult* result) {
  monitor::SpanScope commit_span(&spans_, "commit");
  if (commit_span.active()) {
    commit_span.set_value(static_cast<double>(tm_.UndoSize(t)));
  }
  if (tm_.UndoSize(t) == 0) {
    // Read-only (or every write already rolled back statement-level): no
    // commit timestamp, no WAL record.
    tm_.Forget(t);
    return Status::OK();
  }
  std::function<Status(uint64_t)> hook;
  if (durable()) {
    // Runs under the commit lock, so WAL commit order == commit-ts order.
    hook = [this, t](uint64_t) -> Status {
      AIDB_RETURN_NOT_OK(wal_->Append(storage::WalRecordType::kCommit,
                                      storage::EncodeCommit(t))
                             .status());
      records_since_checkpoint_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    };
  }
  uint64_t cts = 0;
  AIDB_ASSIGN_OR_RETURN(cts, tm_.Commit(t, hook));
  if (result != nullptr) result->commit_ts = cts;
  MaybeVacuum();
  // No checkpoint here: the caller still holds the checkpoint fence shared.
  // ExecuteWithTxn checkpoints after releasing it.
  return Status::OK();
}

void Database::AbortTxn(txn::TxnId t) {
  // Only transactions with unresolved kTxnOp records need an abort record;
  // ids whose writes never reached the WAL just vanish (and are recycled by
  // Forget, so failed statements consume no id).
  const bool logged = durable() && tm_.OpsLogged(t);
  UnwindWrites(tm_.TakeUndoAll(t));
  if (logged) {
    // Best effort: if the abort record cannot be appended, recovery discards
    // the transaction's unresolved ops anyway (same outcome, later).
    Status ignored = wal_->Append(storage::WalRecordType::kTxnAbort,
                                  storage::EncodeTxnAbort(t))
                         .status();
    (void)ignored;
    records_since_checkpoint_.fetch_add(1, std::memory_order_relaxed);
  }
  tm_.NoteAbort();
  tm_.Forget(t);
}

void Database::UnwindWrites(std::vector<txn::TxnWrite> writes) {
  for (const txn::TxnWrite& w : writes) {
    // Index unwind first, while both versions are still linked.
    switch (w.kind) {
      case txn::TxnWrite::Kind::kInsert:
        // Drop the row's hash entries (OnDelete touches hash indexes only;
        // the B+-tree entry goes stale and is filtered by visibility).
        catalog_.OnDelete(w.table_name, w.row, w.version->data);
        break;
      case txn::TxnWrite::Kind::kUpdate: {
        const aidb::Version* older =
            w.version->older.load(std::memory_order_acquire);
        if (older != nullptr) {
          IndexUpdate(w.table_name, w.row, w.version->data, older->data,
                      /*add_btree=*/false);
        }
        break;
      }
      case txn::TxnWrite::Kind::kDelete:
        RestoreHashEntries(w.table_name, w.row, w.version->data);
        break;
    }
    w.table->UndoWrite(w, [this](Version* v) { tm_.Retire(v); });
  }
}

void Database::IndexUpdate(const std::string& table, RowId id,
                           const Tuple& from, const Tuple& to,
                           bool add_btree) {
  auto table_res = catalog_.GetTable(table);
  if (!table_res.ok()) return;
  const Schema& schema = table_res.ValueOrDie()->schema();
  for (IndexInfo* idx : catalog_.IndexesOn(table)) {
    int col = schema.IndexOf(idx->column);
    if (col < 0) continue;
    const Value& ov = from[static_cast<size_t>(col)];
    const Value& nv = to[static_cast<size_t>(col)];
    if (!ov.is_null() && !nv.is_null() && ov == nv) continue;
    std::unique_lock<std::shared_mutex> latch(idx->latch);
    if (idx->is_btree) {
      if (add_btree && !nv.is_null()) {
        idx->btree->Insert(Catalog::BtreeKey(nv), id);
      }
    } else {
      if (!ov.is_null()) idx->hash->Erase(ov, id);
      if (!nv.is_null()) idx->hash->Insert(nv, id);
    }
  }
}

void Database::RestoreHashEntries(const std::string& table, RowId id,
                                  const Tuple& row) {
  auto table_res = catalog_.GetTable(table);
  if (!table_res.ok()) return;
  const Schema& schema = table_res.ValueOrDie()->schema();
  for (IndexInfo* idx : catalog_.IndexesOn(table)) {
    if (idx->is_btree) continue;
    int col = schema.IndexOf(idx->column);
    if (col < 0) continue;
    const Value& v = row[static_cast<size_t>(col)];
    if (v.is_null()) continue;
    std::unique_lock<std::shared_mutex> latch(idx->latch);
    idx->hash->Insert(v, id);
  }
}

void Database::MaybeVacuum() {
  if (commits_since_vacuum_.fetch_add(1, std::memory_order_relaxed) + 1 <
      64) {
    return;
  }
  commits_since_vacuum_.store(0, std::memory_order_relaxed);
  const uint64_t wm = tm_.WatermarkTs();
  stmt_metrics_.watermark_ts->Set(static_cast<int64_t>(wm));
  for (const std::string& name : catalog_.TableNames()) {
    auto t = catalog_.GetTable(name);
    if (!t.ok()) continue;
    t.ValueOrDie()->Vacuum(wm, [this](Version* v) { tm_.Retire(v); });
  }
  tm_.FreeRetired();
  // Same cadence for the storage engine: vacuum just froze slots, which is
  // what makes them flushable.
  MaybeMaintainStorage();
}

Status Database::MaybeAutoCheckpoint() {
  if (!wal_ || durability_opts_.checkpoint_every_n_records == 0) {
    return Status::OK();
  }
  if (records_since_checkpoint_.load(std::memory_order_relaxed) <
      durability_opts_.checkpoint_every_n_records) {
    return Status::OK();
  }
  return Checkpoint();
}

Status Database::ExecuteWithTxn(const sql::Statement& stmt,
                                const ExecSettings& settings,
                                StmtPlanInfo* info,
                                const std::string* select_key,
                                QueryResult* result) {
  Status st = ExecuteWithTxnFenced(stmt, settings, info, select_key, result);
  if (!st.ok()) return st;
  // Checkpoint outside the fence: the statement above held it shared, and
  // Checkpoint needs it exclusive (no statement may append ops or commit
  // while the snapshot captures a consistent cut).
  return MaybeAutoCheckpoint();
}

Status Database::ExecuteWithTxnFenced(const sql::Statement& stmt,
                                      const ExecSettings& settings,
                                      StmtPlanInfo* info,
                                      const std::string* select_key,
                                      QueryResult* result) {
  // Statements run concurrently (the service serializes only DDL-class
  // work); the fence gives Checkpoint a point where no statement is mid-way
  // through its WAL ops or its commit.
  std::shared_lock<std::shared_mutex> fence(checkpoint_fence_);
  std::atomic<uint64_t>* slot =
      settings.txn_slot != nullptr ? settings.txn_slot : &default_txn_;
  switch (stmt.kind()) {
    case sql::StatementKind::kBegin: {
      txn::TxnId open = slot->load(std::memory_order_acquire);
      if (open != 0 && tm_.IsActive(open)) {
        return Status::InvalidArgument("transaction already in progress");
      }
      // A leftover id of a transaction doomed by concurrent DDL is replaced.
      slot->store(tm_.Begin(), std::memory_order_release);
      result->message = "BEGIN";
      return Status::OK();
    }
    case sql::StatementKind::kCommit: {
      txn::TxnId open = slot->exchange(0, std::memory_order_acq_rel);
      if (open == 0) {  // no transaction in progress: a benign no-op
        result->message = "COMMIT";
        return Status::OK();
      }
      if (!tm_.IsActive(open)) {
        return Status::Aborted(
            "current transaction was rolled back by concurrent DDL");
      }
      Status st = FinishCommit(open, result);
      if (!st.ok()) {
        if (tm_.IsActive(open)) AbortTxn(open);
        return st;
      }
      result->message = "COMMIT";
      return Status::OK();
    }
    case sql::StatementKind::kRollback: {
      txn::TxnId open = slot->exchange(0, std::memory_order_acq_rel);
      if (open != 0 && tm_.IsActive(open)) AbortTxn(open);
      result->message = "ROLLBACK";
      return Status::OK();
    }
    default:
      break;
  }

  ExecSettings eff = settings;
  txn::TxnId open = slot->load(std::memory_order_acquire);
  bool autocommit = true;
  if (open != 0) {
    if (!tm_.IsActive(open)) {
      slot->store(0, std::memory_order_release);
      return Status::Aborted(
          "current transaction was rolled back by concurrent DDL");
    }
    eff.txn = open;
    autocommit = false;
  } else {
    // An instantiated SELECT (EXPLAIN included; for an EXECUTE, its template
    // body) or SHOW MODELS cannot write MVCC state, WAL, or catalog.
    if (stmt.kind() == sql::StatementKind::kSelect ||
        stmt.kind() == sql::StatementKind::kShowModels) {
      // Autocommit read: nothing to commit, no undo, no WAL — skip the
      // Begin/Forget round trips through the transaction registry and pin a
      // latest-committed snapshot through the lock-free epoch slots instead.
      // The pin watermark-protects the snapshot and serial-protects the
      // version-chain walks for exactly the statement's execution window.
      txn::ReadPin pin(&tm_);
      eff.txn = txn::kInvalidTxnId;
      eff.snapshot = pin.snapshot();
      return ExecuteStatement(stmt, eff, info, select_key, result);
    }
    // Every other statement runs inside a transaction: the registration pins
    // the snapshot against vacuum for the whole chain-walking window, and DML
    // commits through the same path as explicit transactions.
    eff.txn = tm_.Begin();
  }
  eff.snapshot = tm_.SnapshotFor(eff.txn);
  const size_t mark = autocommit ? 0 : tm_.UndoSize(eff.txn);

  Status st = ExecuteStatement(stmt, eff, info, select_key, result);

  if (autocommit) {
    if (st.ok()) st = FinishCommit(eff.txn, result);
    if (!st.ok() && tm_.IsActive(eff.txn)) AbortTxn(eff.txn);
  } else if (!st.ok()) {
    if (st.code() == StatusCode::kAborted) {
      // Write-write conflict or a failed WAL append: the transaction cannot
      // proceed consistently — whole-transaction abort.
      if (tm_.IsActive(eff.txn)) AbortTxn(eff.txn);
      slot->store(0, std::memory_order_release);
    } else {
      // Statement-level rollback: this statement's writes unwind, the
      // transaction stays open.
      UnwindWrites(tm_.TakeUndoFrom(eff.txn, mark));
    }
  }
  return st;
}

Status Database::ExecuteStatement(const sql::Statement& stmt_ref,
                                  const ExecSettings& settings,
                                  StmtPlanInfo* info,
                                  const std::string* select_key,
                                  QueryResult* result_out) {
  QueryResult& result = *result_out;
  const sql::Statement* stmt = &stmt_ref;
  // System views are read-only projections of engine state: a write (or an
  // index) against one would be silently wiped by the next refresh.
  auto reject_system_view = [&](const std::string& table) -> Status {
    if (catalog_.IsSystemView(table)) {
      return Status::InvalidArgument("system view " + table + " is read-only");
    }
    return Status::OK();
  };
  switch (stmt->kind()) {
    case sql::StatementKind::kSelect: {
      AIDB_ASSIGN_OR_RETURN(
          result, ExecuteSelect(static_cast<const sql::SelectStatement&>(*stmt),
                                settings, info, select_key));
      break;
    }
    case sql::StatementKind::kCreateTable: {
      auto& s = static_cast<const sql::CreateTableStatement&>(*stmt);
      AIDB_RETURN_NOT_OK(catalog_.CreateTable(s.table, s.schema).status());
      BumpTableEpoch(s.table);
      AIDB_RETURN_NOT_OK(LogTxn(settings.txn, {{storage::WalRecordType::kCreateTable,
                                  storage::EncodeCreateTable({s.table, s.schema})}}));
      result.message = "CREATE TABLE " + s.table;
      break;
    }
    case sql::StatementKind::kDropTable: {
      auto& s = static_cast<const sql::DropTableStatement&>(*stmt);
      if (auto dropped = catalog_.GetTable(s.table); dropped.ok()) {
        // DDL wins over open transactions: writers holding uncommitted
        // versions in this table are rolled back before the drop frees the
        // storage their undo entries reference.
        for (txn::TxnId doomed :
             tm_.TxnsTouching(dropped.ValueOrDie()->uid())) {
          AbortTxn(doomed);
        }
        // Release the dropped table's column mirrors (uid keying already
        // makes stale reuse impossible; this is purely a memory release).
        column_cache_.Evict(dropped.ValueOrDie()->uid());
      }
      AIDB_RETURN_NOT_OK(catalog_.DropTable(s.table));
      BumpTableEpoch(s.table);
      AIDB_RETURN_NOT_OK(LogTxn(settings.txn, {{storage::WalRecordType::kDropTable,
                                  storage::EncodeDropTable(s.table)}}));
      result.message = "DROP TABLE " + s.table;
      break;
    }
    case sql::StatementKind::kCreateIndex: {
      auto& s = static_cast<const sql::CreateIndexStatement&>(*stmt);
      AIDB_RETURN_NOT_OK(reject_system_view(s.table));
      if (auto t = catalog_.GetTable(s.table); t.ok()) {
        // The backfill walks latest-committed rows; a transaction's
        // uncommitted writes would be missing from the index after its
        // commit. DDL wins: such writers are rolled back first.
        for (txn::TxnId doomed : tm_.TxnsTouching(t.ValueOrDie()->uid())) {
          AbortTxn(doomed);
        }
      }
      AIDB_RETURN_NOT_OK(
          catalog_.CreateIndex(s.index, s.table, s.column, s.is_btree).status());
      BumpTableEpoch(s.table);
      AIDB_RETURN_NOT_OK(LogTxn(
          settings.txn,
          {{storage::WalRecordType::kCreateIndex,
            storage::EncodeCreateIndex({s.index, s.table, s.column, s.is_btree})}}));
      result.message = "CREATE INDEX " + s.index;
      break;
    }
    case sql::StatementKind::kDropIndex: {
      auto& s = static_cast<const sql::DropIndexStatement&>(*stmt);
      // Resolve the owning table before the drop: cached plans scanning it
      // (via this index or not) must be invalidated.
      std::string owner;
      for (const IndexInfo* idx : catalog_.AllIndexes()) {
        if (idx->name == s.index) {
          owner = idx->table;
          break;
        }
      }
      AIDB_RETURN_NOT_OK(catalog_.DropIndex(s.index));
      if (!owner.empty()) BumpTableEpoch(owner);
      AIDB_RETURN_NOT_OK(LogTxn(settings.txn, {{storage::WalRecordType::kDropIndex,
                                  storage::EncodeDropIndex(s.index)}}));
      result.message = "DROP INDEX " + s.index;
      break;
    }
    case sql::StatementKind::kInsert: {
      auto& s = static_cast<const sql::InsertStatement&>(*stmt);
      AIDB_RETURN_NOT_OK(reject_system_view(s.table));
      Table* table = nullptr;
      AIDB_ASSIGN_OR_RETURN(table, catalog_.GetTable(s.table));
      // Statement atomicity: validate every row before touching the table so
      // a bad later row cannot leave a half-applied INSERT (the transaction
      // wrapper would unwind it, but failing fast keeps the undo log clean).
      for (const auto& row : s.rows) AIDB_RETURN_NOT_OK(table->ValidateRow(row));
      storage::InsertPayload wal_rows;
      for (const auto& row : s.rows) {
        // Fresh slots need no row lock: no other transaction can see them,
        // and a concurrent writer cannot target an id it cannot see.
        txn::TxnWrite undo;
        RowId id = 0;
        AIDB_ASSIGN_OR_RETURN(id, table->InsertTxn(row, settings.txn, &undo));
        tm_.RecordWrite(settings.txn, undo);
        catalog_.OnInsert(s.table, id, row);
        if (wal_rows.rows.empty()) wal_rows.first_row_id = id;
        if (durable()) wal_rows.rows.push_back(row);
      }
      if (durable() && !s.rows.empty()) {
        wal_rows.table = s.table;
        AIDB_RETURN_NOT_OK(
            LogTxnOps(settings.txn, {{storage::WalRecordType::kInsert,
                                      storage::EncodeInsert(wal_rows)}}));
      }
      result.affected_rows = s.rows.size();
      result.message = "INSERT " + std::to_string(s.rows.size());
      break;
    }
    case sql::StatementKind::kUpdate: {
      auto& s = static_cast<const sql::UpdateStatement&>(*stmt);
      AIDB_RETURN_NOT_OK(reject_system_view(s.table));
      Table* table = nullptr;
      AIDB_ASSIGN_OR_RETURN(table, catalog_.GetTable(s.table));
      // Bind against the table schema.
      std::vector<exec::OutputCol> schema;
      for (const auto& col : table->schema().columns())
        schema.push_back({s.table, col.name, col.type});
      std::optional<exec::BoundExpr> where;
      if (s.where) {
        exec::BoundExpr b;
        AIDB_ASSIGN_OR_RETURN(b, exec::BoundExpr::Bind(*s.where, schema, &models_));
        where = std::move(b);
      }
      struct Assign {
        size_t column;
        exec::BoundExpr expr;
      };
      std::vector<Assign> assigns;
      for (const auto& [col, e] : s.assignments) {
        int idx = table->schema().IndexOf(col);
        if (idx < 0) return Status::NotFound("column " + col);
        exec::BoundExpr b;
        AIDB_ASSIGN_OR_RETURN(b, exec::BoundExpr::Bind(*e, schema, &models_));
        assigns.push_back({static_cast<size_t>(idx), std::move(b)});
      }
      struct Change {
        RowId id;
        Tuple old_row;
        Tuple new_row;
      };
      std::vector<Change> changes;
      // All WHERE/SET expressions evaluate before any row is touched, so an
      // evaluation error aborts the statement with nothing applied. The scan
      // runs under the statement snapshot: it sees this transaction's own
      // earlier writes and nothing uncommitted from anyone else.
      Status eval_err;
      table->ForEachVisible(settings.snapshot, [&](RowId id, const Tuple& row) {
        if (!eval_err.ok()) return;
        if (where) {
          Result<bool> keep = where->EvalBool(row);
          if (!keep.ok()) {
            eval_err = keep.status();
            return;
          }
          if (!keep.ValueOrDie()) return;
        }
        Tuple updated_row = row;
        for (const auto& a : assigns) {
          Result<Value> v = a.expr.Eval(row);
          if (!v.ok()) {
            eval_err = v.status();
            return;
          }
          updated_row[a.column] = std::move(v).ValueOrDie();
        }
        changes.push_back({id, row, std::move(updated_row)});
      });
      AIDB_RETURN_NOT_OK(eval_err);
      for (const Change& c : changes) {
        // No-wait first-committer-wins gate, then the timestamp-check ground
        // truth inside UpdateTxn.
        if (!tm_.TryRowLock(settings.txn,
                            txn::RowLockKey(table->uid(), c.id))) {
          tm_.NoteConflict();
          return Status::Aborted("write-write conflict on " + s.table +
                                 " row " + std::to_string(c.id) +
                                 " (row lock held by concurrent transaction)");
        }
        txn::TxnWrite undo;
        Status st = table->UpdateTxn(c.id, c.new_row, settings.snapshot, &undo);
        if (st.code() == StatusCode::kAborted) tm_.NoteConflict();
        AIDB_RETURN_NOT_OK(st);
        tm_.RecordWrite(settings.txn, undo);
        IndexUpdate(s.table, c.id, c.old_row, c.new_row, /*add_btree=*/true);
      }
      if (durable() && !changes.empty()) {
        std::vector<std::pair<RowId, Tuple>> after_images;
        after_images.reserve(changes.size());
        for (Change& c : changes) {
          after_images.emplace_back(c.id, std::move(c.new_row));
        }
        AIDB_RETURN_NOT_OK(LogTxnOps(
            settings.txn,
            {{storage::WalRecordType::kUpdate,
              storage::EncodeUpdate({s.table, after_images})}}));
      }
      result.affected_rows = changes.size();
      result.message = "UPDATE " + std::to_string(changes.size());
      break;
    }
    case sql::StatementKind::kDelete: {
      auto& s = static_cast<const sql::DeleteStatement&>(*stmt);
      AIDB_RETURN_NOT_OK(reject_system_view(s.table));
      Table* table = nullptr;
      AIDB_ASSIGN_OR_RETURN(table, catalog_.GetTable(s.table));
      std::vector<exec::OutputCol> schema;
      for (const auto& col : table->schema().columns())
        schema.push_back({s.table, col.name, col.type});
      std::optional<exec::BoundExpr> where;
      if (s.where) {
        exec::BoundExpr b;
        AIDB_ASSIGN_OR_RETURN(b, exec::BoundExpr::Bind(*s.where, schema, &models_));
        where = std::move(b);
      }
      std::vector<std::pair<RowId, Tuple>> victims;
      Status eval_err;
      table->ForEachVisible(settings.snapshot, [&](RowId id, const Tuple& row) {
        if (!eval_err.ok()) return;
        if (where) {
          Result<bool> keep = where->EvalBool(row);
          if (!keep.ok()) {
            eval_err = keep.status();
            return;
          }
          if (!keep.ValueOrDie()) return;
        }
        victims.emplace_back(id, row);
      });
      AIDB_RETURN_NOT_OK(eval_err);
      for (auto& [id, row] : victims) {
        if (!tm_.TryRowLock(settings.txn, txn::RowLockKey(table->uid(), id))) {
          tm_.NoteConflict();
          return Status::Aborted("write-write conflict on " + s.table +
                                 " row " + std::to_string(id) +
                                 " (row lock held by concurrent transaction)");
        }
        txn::TxnWrite undo;
        Status st = table->DeleteTxn(id, settings.snapshot, &undo);
        if (st.code() == StatusCode::kAborted) tm_.NoteConflict();
        AIDB_RETURN_NOT_OK(st);
        tm_.RecordWrite(settings.txn, undo);
        // Hash entries drop now (queries never consult them through MVCC
        // reads); rollback restores them from the still-linked version.
        catalog_.OnDelete(s.table, id, row);
      }
      if (durable() && !victims.empty()) {
        storage::DeletePayload p;
        p.table = s.table;
        for (const auto& [id, row] : victims) p.rows.push_back(id);
        AIDB_RETURN_NOT_OK(
            LogTxnOps(settings.txn, {{storage::WalRecordType::kDelete,
                                      storage::EncodeDelete(p)}}));
      }
      result.affected_rows = victims.size();
      result.message = "DELETE " + std::to_string(victims.size());
      break;
    }
    case sql::StatementKind::kAnalyze: {
      auto& s = static_cast<const sql::AnalyzeStatement&>(*stmt);
      AIDB_RETURN_NOT_OK(catalog_.Analyze(s.table));
      // New statistics change plan choice; strand cached plans for the table.
      BumpTableEpoch(s.table);
      result.message = "ANALYZE " + s.table;
      break;
    }
    case sql::StatementKind::kCreateModel: {
      auto& s = static_cast<const sql::CreateModelStatement&>(*stmt);
      AIDB_RETURN_NOT_OK(models_.Train(catalog_, s));
      AIDB_RETURN_NOT_OK(
          LogTxn(settings.txn, {{storage::WalRecordType::kCreateModel,
                   storage::EncodeCreateModel(
                       {s.model, s.model_type, s.target, s.table, s.features})}}));
      const db4ai::ModelInfo* info = nullptr;
      AIDB_ASSIGN_OR_RETURN(info, models_.GetInfo(s.model));
      result.message = "CREATE MODEL " + s.model + " v" +
                       std::to_string(info->version) + " (rows=" +
                       std::to_string(info->train_rows) + ")";
      break;
    }
    case sql::StatementKind::kShowModels: {
      result.columns = {"name", "type", "table", "target", "version", "rows"};
      for (const auto& m : models_.ListModels()) {
        result.rows.push_back({Value(m.name), Value(m.type), Value(m.table),
                               Value(m.target),
                               Value(static_cast<int64_t>(m.version)),
                               Value(static_cast<int64_t>(m.train_rows))});
      }
      break;
    }
    case sql::StatementKind::kPrepare: {
      auto& s = static_cast<const sql::PrepareStatement&>(*stmt);
      server::PreparedStore* store =
          settings.prepared ? settings.prepared : &default_prepared_;
      std::shared_ptr<const sql::PrepareStatement> tmpl(
          static_cast<sql::PrepareStatement*>(s.Clone().release()));
      AIDB_RETURN_NOT_OK(store->Put(std::move(tmpl)));
      result.message = "PREPARE " + s.name;
      break;
    }
    case sql::StatementKind::kDeallocate: {
      auto& s = static_cast<const sql::DeallocateStatement&>(*stmt);
      server::PreparedStore* store =
          settings.prepared ? settings.prepared : &default_prepared_;
      AIDB_RETURN_NOT_OK(store->Remove(s.name));
      result.message = "DEALLOCATE " + s.name;
      break;
    }
    case sql::StatementKind::kExecute:
    case sql::StatementKind::kBegin:
    case sql::StatementKind::kCommit:
    case sql::StatementKind::kRollback:
      // Instantiate replaces EXECUTE by its bound template body, and
      // ExecuteWithTxn handles transaction control before dispatch (PREPARE
      // rejects both as bodies).
      return Status::Internal(
          "EXECUTE or transaction control reached the statement dispatcher");
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecuteSelect(const sql::SelectStatement& stmt,
                                            const ExecSettings& settings,
                                            StmtPlanInfo* info,
                                            const std::string* cache_key) {
  // Fast path: check out a previously built plan. Validity (DDL epochs,
  // feedback generation) is re-checked at acquire time; a stale entry is
  // simply dropped — the fresh plan built below re-enters the cache.
  if (cache_key != nullptr) {
    std::optional<server::CachedPlan> cached = plan_cache_.Acquire(*cache_key);
    if (cached.has_value() && PlanStillValid(*cached)) {
      {
        monitor::SpanScope plan_span(&spans_, "plan");
        plan_span.set_detail("cache_hit");
      }
      stmt_metrics_.plan_cache_hit->Add();
      info->plan_cache_hit = true;
      info->plan_digest = cached->plan.digest;
      info->num_operators = cached->plan.num_operators;
      info->num_joins = cached->plan.num_joins;
      QueryResult result;
      Status run = RunSelectPlan(cached->plan, stmt, settings, &result);
      // Check the plan back in even after a runtime error: Open() resets all
      // operator state, and evaluation errors are data-dependent, not
      // plan-dependent. The per-statement cancel pointer and snapshot must
      // not outlive the statement, though.
      cached->plan.root->SetCancel(nullptr);
      cached->plan.root->SetSnapshot(txn::Snapshot{});
      plan_cache_.Release(std::move(*cached));
      AIDB_RETURN_NOT_OK(run);
      return result;
    }
    stmt_metrics_.plan_cache_miss->Add();
  }

  exec::PhysicalPlan plan;
  {
    monitor::SpanScope plan_span(&spans_, "plan");
    if (plan_span.active() && cache_key != nullptr) {
      plan_span.set_detail("cache_miss");
    }
    AIDB_ASSIGN_OR_RETURN(plan, planner_.Plan(stmt, settings.planner));
  }

  info->plan_digest = plan.digest;
  info->num_operators = plan.num_operators;
  info->num_joins = plan.num_joins;

  QueryResult result;
  auto join_order_line = [&]() -> std::string {
    if (!plan.join_plan) return "";
    return "join order: " + plan.join_plan->ToString(plan.graph) +
           " (est_cost=" + std::to_string(plan.join_plan->cost) + ")\n";
  };
  // EXPLAIN output is real result rows (column "plan", one line per row) so
  // it composes with the normal result pipeline; `message` keeps carrying the
  // full text as the back-compat accessor.
  auto emit_plan_rows = [&](std::string text) {
    result.columns.assign(1, "plan");
    result.rows.clear();
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      result.rows.push_back({Value(text.substr(start, end - start))});
      start = end + 1;
    }
    result.message = std::move(text);
  };

  if (stmt.explain && !stmt.explain_analyze) {
    emit_plan_rows(plan.root->Describe() + join_order_line());
    return result;
  }

  AIDB_RETURN_NOT_OK(RunSelectPlan(plan, stmt, settings, &result));

  if (stmt.explain_analyze) {
    emit_plan_rows(plan.root->Describe(/*analyze=*/true, deterministic_timing_) +
                   join_order_line());
  }

  if (cache_key != nullptr) {
    server::CachedPlan entry;
    entry.key = *cache_key;
    // The graph's predicate/condition pointers alias the statement AST,
    // which dies with this call; scrub them before the plan outlives it.
    // (Execution never reads them — they are planner-time annotations.)
    for (auto& rel : plan.graph.rels) rel.local_predicates.clear();
    for (auto& edge : plan.graph.edges) edge.condition = nullptr;
    for (const auto& rel : plan.graph.rels) {
      entry.deps.emplace_back(rel.table, TableEpoch(rel.table));
    }
    if (plan.graph.rels.empty()) {
      // Single-table plans may skip graph construction; fall back to the
      // statement's table references.
      for (const auto& ref : stmt.from) {
        entry.deps.emplace_back(ref.table, TableEpoch(ref.table));
      }
      for (const auto& j : stmt.joins) {
        entry.deps.emplace_back(j.table.table, TableEpoch(j.table.table));
      }
    }
    entry.used_feedback = settings.planner.use_card_feedback;
    entry.feedback_epoch = catalog_.feedback().epoch();
    plan.root->SetCancel(nullptr);
    plan.root->SetSnapshot(txn::Snapshot{});
    entry.plan = std::move(plan);
    plan_cache_.Release(std::move(entry));
  }
  return result;
}

Status Database::RunSelectPlan(exec::PhysicalPlan& plan,
                               const sql::SelectStatement& stmt,
                               const ExecSettings& settings,
                               QueryResult* result) {
  for (const auto& col : plan.root->output()) {
    result->columns.push_back(col.table.empty() ? col.name
                                                : col.table + "." + col.name);
  }

  // Always set (not just when true): a cached plan carries whatever tracing
  // flag its previous run left behind.
  const bool traced =
      tracing_.load(std::memory_order_relaxed) || stmt.explain_analyze;
  plan.root->SetTracing(traced);
  plan.root->SetCancel(settings.cancel);
  plan.root->SetSnapshot(settings.snapshot);

  plan.root->Open();
  Tuple row;
  Status cancelled = Status::OK();
  while (plan.root->Next(&row)) {
    result->rows.push_back(std::move(row));
    // Operators poll the flag at morsel/scan granularity; this drain-side
    // check covers plans whose operators finished Open() before the flag
    // flipped but still have many buffered rows to emit.
    if ((result->rows.size() & 255) == 0 && settings.cancel != nullptr &&
        settings.cancel->load(std::memory_order_relaxed)) {
      cancelled = Status::Cancelled("query cancelled while emitting rows");
      break;
    }
  }
  plan.root->Close();
  AIDB_RETURN_NOT_OK(cancelled);
  // Next() ends the stream on a runtime evaluation error (type error,
  // overflow); surface it instead of returning a silently truncated result.
  AIDB_RETURN_NOT_OK(plan.root->FirstError());
  result->operator_work = plan.root->TotalWork();
  total_work_.fetch_add(result->operator_work, std::memory_order_relaxed);

  // Close the loop: record estimated-vs-true scan cardinalities into the
  // catalog's feedback store. LIMIT plans are skipped — their early exit
  // truncates the actual counts.
  if (stmt.limit < 0) {
    std::function<void(const exec::Operator&)> record =
        [&](const exec::Operator& op) {
          if (!op.feedback_table().empty() && op.est_rows() >= 0) {
            catalog_.feedback().Record(op.feedback_table(), op.est_rows(),
                                       static_cast<double>(op.rows_produced()));
          }
          for (const auto& c : op.children()) record(*c);
        };
    record(*plan.root);
  }

  if (traced && spans_.enabled() &&
      monitor::SpanCollector::GetContext().trace_id != 0) {
    RecordOpSpans(&spans_, *plan.root,
                  monitor::SpanCollector::GetContext().parent_span);
  }
  return Status::OK();
}

}  // namespace aidb
