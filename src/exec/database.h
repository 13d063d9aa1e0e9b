#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "db4ai/model_registry.h"
#include "exec/planner.h"
#include "exec/vec/col_cache.h"
#include "monitor/history.h"
#include "monitor/incident.h"
#include "monitor/metrics.h"
#include "monitor/query_log.h"
#include "monitor/span.h"
#include "server/plan_cache.h"
#include "server/prepared.h"
#include "sql/parser.h"
#include "storage/lsm.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "txn/transaction_manager.h"
#include "txn/types.h"

namespace aidb {

namespace storage {
class LsmEngine;
}

/// Configuration of the durability subsystem (Database::Open).
struct DurabilityOptions {
  /// Group-commit interval in WAL records: 1 = synchronous commit, larger
  /// values batch records per fsync at the cost of a bounded durability lag.
  /// Advisor knob `wal_flush_interval`.
  size_t wal_flush_interval = 64;
  /// Automatic checkpoint after this many WAL records since the last one
  /// (0 = manual Checkpoint() only). Advisor knob `checkpoint_interval`.
  size_t checkpoint_every_n_records = 0;
  /// Skip the physical fsyncs of the WAL, SSTs, the LSM manifest and
  /// checkpoint snapshots (WAL stats still count them) — for tests, benches
  /// and the knob environment, where the response comes from deterministic
  /// counters and crash damage is simulated.
  bool sync = true;
  /// Crash-injection hook for the recovery test harness; not owned.
  storage::FaultInjector* fault = nullptr;
  /// Attach the LSM storage engine beneath every user table: frozen slots
  /// are flushed to block-based SSTs in `<dir>/lsm/` and read back through
  /// the cold-tier hooks. Off (the default) keeps the pure in-memory row
  /// store — the oracle the differential harness compares against.
  bool lsm = false;
  /// LSM design knobs (memtable capacity, size ratio, bloom bits,
  /// leveling/tiering) — the axes the learned design tuner searches.
  LsmOptions lsm_design;
};

/// Cumulative durability counters for one Database (monitor/ samples these).
struct DurabilityStats {
  storage::WalStats wal;
  size_t unflushed_records = 0;  ///< current durability lag (group buffer)
  uint64_t checkpoints_written = 0;
  storage::RecoveryStats recovery;  ///< from the Open() that built this db
};

/// Result of executing one statement.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Tuple> rows;
  /// DDL/DML acknowledgment. For EXPLAIN / EXPLAIN ANALYZE this additionally
  /// carries the full plan/trace text (back-compat accessor — the same text
  /// is returned as proper result rows, one line per row, column "plan").
  std::string message;
  size_t affected_rows = 0;  ///< INSERT/UPDATE/DELETE
  double elapsed_ms = 0.0;   ///< wall clock; 0 in deterministic-timing mode
  size_t operator_work = 0;  ///< total rows produced across the plan (work proxy)
  /// The physical plan came from the plan cache (parse+plan were skipped).
  /// Deliberately NOT part of the differential digest: hit and miss must
  /// produce byte-identical results.
  bool plan_cache_hit = false;
  /// Commit timestamp of the transaction this statement committed (explicit
  /// COMMIT or autocommit DML); 0 when nothing committed. The differential
  /// oracle replays transactions in this order. Not part of the digest.
  uint64_t commit_ts = 0;

  std::string ToString(size_t max_rows = 20) const;
};

/// \brief Per-statement execution settings, snapshotted at admission.
///
/// Sessions stopped mutating engine-global state in PR 5: a statement runs
/// with the planner knobs its session had when the statement was admitted,
/// whatever any other session changes mid-flight. A default-constructed
/// Database call path (plain Execute(sql)) snapshots the database-global
/// options instead.
struct ExecSettings {
  exec::PlannerOptions planner;
  /// Statement cancellation flag (not owned; may be null). Checked at
  /// morsel/row-batch boundaries; a set flag surfaces Status::Cancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Owning session for query-log attribution (0 = no session).
  uint64_t session_id = 0;
  /// PREPARE/EXECUTE/DEALLOCATE name scope. Null falls back to the
  /// database-global store, so bare Databases (tests, fuzzer) support
  /// prepared statements without a server.
  server::PreparedStore* prepared = nullptr;
  /// The session's open explicit-transaction id (0 = autocommit), written by
  /// BEGIN/COMMIT/ROLLBACK. Null falls back to a database-global slot so bare
  /// Databases support explicit transactions without a server.
  std::atomic<uint64_t>* txn_slot = nullptr;
  /// Per-statement transaction context, filled by Execute() before dispatch
  /// (callers leave these defaulted): the transaction the statement runs in
  /// and the snapshot every read/write uses.
  txn::TxnId txn = txn::kInvalidTxnId;
  txn::Snapshot snapshot;
  /// End-to-end trace identity, minted by the service at admission (0 when
  /// the statement arrived outside a request, e.g. bare Execute with spans
  /// off). `parent_span` is the admission-time root span every engine-side
  /// span hangs under.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

/// \brief A parsed statement's effective form (Database::Resolve): an
/// EXECUTE resolved by its parsed name to its template. The service's lane
/// and engine-lock rules, the read-only fast path and EXECUTE itself all read
/// this one resolution, so they agree on the template.
struct ResolvedStatement {
  sql::ParsedStatement parsed;
  /// An EXECUTE's template; null for any other statement or an unknown name.
  std::shared_ptr<const sql::PrepareStatement> tmpl;
  bool reads_system_view = false;  ///< the effective SELECT scans an aidb_* view

  /// The statement that runs: the parsed one or an EXECUTE's template body
  /// (null for an unknown name).
  const sql::Statement* effective() const {
    if (parsed.stmt->kind() != sql::StatementKind::kExecute) {
      return parsed.stmt.get();
    }
    return tmpl ? tmpl->body.get() : nullptr;
  }
  /// The literal-free shape of an effective SELECT: the classifier's key.
  uint64_t shape() const { return tmpl ? tmpl->shape : parsed.shape; }
};

/// \brief The embeddable AIDB engine facade: parse -> plan -> execute.
///
/// Owns the catalog and the DB4AI model registry. Learned optimizer
/// components are swapped in through mutable_planner_options().
class Database {
 public:
  Database();
  /// Stops the background KPI sampler before any member it probes dies.
  ~Database();

  /// \brief Opens a durable database rooted at directory `dir` (created if
  /// missing): loads the latest valid snapshot, replays committed WAL
  /// transactions past its checkpoint LSN, truncates any torn tail, and
  /// arms a write-ahead log for everything executed afterwards.
  ///
  /// A default-constructed Database stays the process-lifetime in-memory
  /// engine the rest of the stack uses; durability is strictly opt-in.
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                const DurabilityOptions& opts = {});

  /// Executes one SQL statement with a snapshot of the database-global
  /// planner options (the pre-server behavior).
  Result<QueryResult> Execute(const std::string& sql);

  /// Executes one SQL statement under explicit per-statement settings (knob
  /// snapshot, cancel flag, session id, prepared-statement scope): a parse,
  /// then the entry below.
  Result<QueryResult> Execute(const std::string& sql,
                              const ExecSettings& settings);
  /// Executes a statement already parsed and resolved: the server's entry
  /// point (Service::Submit parses at admission), timed without the parse.
  Result<QueryResult> Execute(const ResolvedStatement& stmt,
                              const ExecSettings& settings);
  /// Resolves against a prepared-statement scope (null: the global store).
  ResolvedStatement Resolve(sql::ParsedStatement parsed,
                            const server::PreparedStore* prepared) const;

  /// Snapshot of the current database-global execution settings.
  ExecSettings SnapshotSettings() const {
    ExecSettings s;
    std::lock_guard<std::mutex> lock(options_mu_);
    s.planner = planner_options_;
    return s;
  }

  /// Plans a SELECT without running it (used by advisors for what-if costing).
  Result<exec::PhysicalPlan> PlanQuery(const sql::SelectStatement& stmt) {
    return planner_.Plan(stmt, SnapshotSettings().planner);
  }

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  /// MVCC transaction manager: timestamps, snapshots, undo, row locks, GC.
  txn::TransactionManager& txn_manager() { return tm_; }
  const txn::TransactionManager& txn_manager() const { return tm_; }
  db4ai::ModelRegistry& models() { return models_; }
  const db4ai::ModelRegistry& models() const { return models_; }
  exec::Planner& planner() { return planner_; }
  exec::PlannerOptions& mutable_planner_options() { return planner_options_; }

  /// Session degree-of-parallelism knob (advisor knob `exec_dop`): dop > 1
  /// sizes the executor pool and makes the planner emit morsel-parallel
  /// operator variants; dop <= 1 restores fully serial execution. Statements
  /// already admitted keep their snapshot — this affects future statements
  /// only (the pool a running plan uses is retired, never destroyed, until
  /// the Database itself goes away).
  void SetDop(size_t dop);
  size_t dop() const {
    std::lock_guard<std::mutex> lock(options_mu_);
    return planner_options_.dop;
  }

  /// Engine switch, on by default: off plans future statements on the
  /// serial volcano reference engine, which the differential fuzzer and
  /// bench_vectorized compare the batch engine against (see
  /// PlannerOptions::vectorized). Like SetDop, affects future statements only.
  void SetVectorized(bool on) {
    std::lock_guard<std::mutex> lock(options_mu_);
    planner_options_.vectorized = on;
  }

  // --- Plan cache / DDL epochs ---------------------------------------------

  /// Shared plan cache for prepared/cacheable SELECTs (hit/miss also metered
  /// as plan_cache.hit / plan_cache.miss in aidb_metrics).
  server::PlanCache& plan_cache() { return plan_cache_; }
  const server::PlanCache& plan_cache() const { return plan_cache_; }

  /// DDL generation of a table: bumped by CREATE/DROP TABLE, CREATE/DROP
  /// INDEX on it, and ANALYZE. Cached plans record the epochs of every table
  /// they touch and are discarded on mismatch.
  uint64_t TableEpoch(const std::string& table) const;

  /// Cumulative rows produced by all executed plans (cheap work counter the
  /// monitoring stack samples).
  uint64_t total_work() const {
    return total_work_.load(std::memory_order_relaxed);
  }

  // --- Observability surface ------------------------------------------------

  /// Engine-wide metric registry (counters/gauges/latency histograms); also
  /// served by the `aidb_metrics` system view.
  monitor::MetricsRegistry& metrics() { return metrics_; }
  const monitor::MetricsRegistry& metrics() const { return metrics_; }

  /// Last-N executed statements; also served by `aidb_query_log`.
  const monitor::QueryLog& query_log() const { return query_log_; }

  /// Query-log ring size (advisor knob `query_log_capacity`); overwritten
  /// entries are counted in the `query_log.dropped` metric.
  void SetQueryLogCapacity(size_t n) { query_log_.set_capacity(n); }

  // --- Self-monitoring pipeline ---------------------------------------------

  /// End-to-end request spans (service admission → executor → txn commit →
  /// WAL flush); also served by `aidb_spans`. Off by default: with spans off
  /// every record site is one relaxed load + branch.
  monitor::SpanCollector& spans() { return spans_; }
  const monitor::SpanCollector& spans() const { return spans_; }
  void EnableSpans(bool on) { spans_.set_enabled(on); }
  bool spans_enabled() const { return spans_.enabled(); }
  /// JSON export of the retained spans, one object per line.
  std::string SpansJson() const;

  /// KPI time-series ring behind `aidb_metrics_history`.
  const monitor::TimeSeriesStore& kpi_history() const { return kpi_history_; }
  /// Live anomaly → root-cause pipeline behind `aidb_incidents`.
  monitor::IncidentPipeline& incidents() { return incidents_; }
  const monitor::IncidentPipeline& incidents() const { return incidents_; }

  /// Starts/stops the background sampler (knob-mapped interval). Running it
  /// costs one six-counter probe per interval, entirely off the query path.
  void StartKpiSampler(double interval_ms);
  void StopKpiSampler();
  bool kpi_sampler_running() const { return kpi_sampler_.running(); }
  /// Takes one KPI sample synchronously — the deterministic-test drive path;
  /// safe to call while the background sampler runs (shared sample mutex).
  monitor::KpiSample SampleKpisNow() { return kpi_sampler_.SampleOnce(); }

  /// Per-operator timing for every SELECT (EXPLAIN ANALYZE always times its
  /// own statement regardless of this switch). A timed SELECT inside a span
  /// context records one `op:<Name>` span per operator. Off by default: with
  /// timing off the only executor-side cost is one predicted branch per
  /// operator call.
  void EnableTracing(bool on) {
    tracing_.store(on, std::memory_order_relaxed);
  }

  /// Zeroes every wall-clock observable (QueryResult::elapsed_ms, EXPLAIN
  /// ANALYZE time, span start/duration, query-log latency/timestamp) so traced
  /// runs digest byte-identically across executions — the differential
  /// oracle runs with this on. Deterministic work counters (rows produced)
  /// are unaffected.
  void SetDeterministicTiming(bool on) {
    deterministic_timing_ = on;
    spans_.set_deterministic(on);
  }
  bool deterministic_timing() const { return deterministic_timing_; }

  /// Executor pool size (0 before any dop > 1). The pool is grow-only: it
  /// never shrinks when dop is lowered (regression-pinned in tests).
  size_t exec_pool_threads() const {
    return exec_pool_ ? exec_pool_->num_threads() : 0;
  }

  // --- Durability surface (no-ops / errors on a non-durable database) -------

  bool durable() const { return wal_ != nullptr; }
  /// True once a fault injection "killed" a durable write (WAL flush or
  /// snapshot step): the database refuses all further statements and must be
  /// reopened from disk.
  bool crashed() const {
    return (wal_ && wal_->crashed()) ||
           (durability_opts_.fault && durability_opts_.fault->crashed());
  }

  /// Drains the group-commit buffer to disk now.
  Status FlushWal();
  /// Writes a snapshot of the full state, then truncates the WAL. The
  /// `checkpoint_every_n_records` knob triggers this automatically.
  Status Checkpoint();

  /// Live re-tuning hooks for the advisor knobs.
  void SetWalFlushInterval(size_t records);
  void SetCheckpointEveryN(size_t records) {
    durability_opts_.checkpoint_every_n_records = records;
  }
  size_t wal_flush_interval() const {
    return wal_ ? wal_->flush_interval() : durability_opts_.wal_flush_interval;
  }

  DurabilityStats durability_stats() const;
  const storage::RecoveryStats& last_recovery() const { return recovery_stats_; }

  // --- Storage engine --------------------------------------------------------

  /// The attached LSM storage engine, or nullptr when the database runs on
  /// the default in-memory row store (DurabilityOptions::lsm).
  storage::LsmEngine* lsm_engine() { return lsm_engine_.get(); }
  const storage::LsmEngine* lsm_engine() const { return lsm_engine_.get(); }

  /// Freezes everything freezable (a vacuum pass at the current watermark)
  /// and flushes frozen slots through the LSM engine, inline, then compacts.
  /// Deterministic — the differential/crash harnesses and benches use it to
  /// page data out without waiting for the vacuum cadence. With
  /// `force = false` the engine's memtable-capacity threshold still gates
  /// each table's flush (what the measured tuning environment replays
  /// against). Error on a non-LSM database.
  Status FlushColdStorage(bool force = true);

 private:
  /// Plan facts about one executed statement, harvested for the query log.
  /// A local threaded through the execution path (NOT a member): two
  /// sessions executing concurrently must not clobber each other's plan
  /// facts.
  struct StmtPlanInfo {
    uint64_t plan_digest = 0;
    uint32_t num_operators = 0;
    uint32_t num_joins = 0;
    bool plan_cache_hit = false;
  };

  /// Plans (or fetches from the plan cache, when `cache_key` is non-null)
  /// and executes a SELECT.
  Result<QueryResult> ExecuteSelect(const sql::SelectStatement& stmt,
                                    const ExecSettings& settings,
                                    StmtPlanInfo* info,
                                    const std::string* cache_key);
  /// Runs an already-built plan: columns, operator timing, cancellation,
  /// drain, error check, cardinality feedback, `op:` spans.
  Status RunSelectPlan(exec::PhysicalPlan& plan,
                       const sql::SelectStatement& stmt,
                       const ExecSettings& settings, QueryResult* result);
  /// Validity check for a checked-out cache entry against current DDL and
  /// feedback epochs.
  bool PlanStillValid(const server::CachedPlan& entry) const;
  void BumpTableEpoch(const std::string& table);
  /// The statement dispatch switch over an instantiated statement; Execute
  /// wraps it with telemetry so failures are metered and logged too.
  /// `select_key` carries a cacheable SELECT's plan-cache key (else null).
  Status ExecuteStatement(const sql::Statement& stmt,
                          const ExecSettings& settings, StmtPlanInfo* info,
                          const std::string* select_key, QueryResult* result);
  /// Transaction orchestration around ExecuteStatement: handles
  /// BEGIN/COMMIT/ROLLBACK, wraps every other statement in its session's open
  /// transaction or a fresh autocommit one, and maps statement failure to
  /// statement-level rollback (txn stays open) vs. whole-transaction abort
  /// (write-write conflict / WAL failure).
  Status ExecuteWithTxn(const sql::Statement& stmt,
                        const ExecSettings& settings, StmtPlanInfo* info,
                        const std::string* select_key, QueryResult* result);
  /// The body of ExecuteWithTxn, run while holding checkpoint_fence_ shared;
  /// the wrapper checkpoints after the fence is released.
  Status ExecuteWithTxnFenced(const sql::Statement& stmt,
                              const ExecSettings& settings, StmtPlanInfo* info,
                              const std::string* select_key,
                              QueryResult* result);
  /// Commits `t`: read-only transactions are simply forgotten (no commit
  /// timestamp, no WAL record); writers append kCommit through the commit
  /// hook. On success stores the commit timestamp into `result`.
  Status FinishCommit(txn::TxnId t, QueryResult* result);
  /// Rolls back the whole transaction: unwinds undo (indexes + versions),
  /// best-effort appends kTxnAbort when ops were logged, forgets `t`.
  void AbortTxn(txn::TxnId t);
  /// Unwinds one batch of undo entries (newest first): restores hash-index
  /// entries and retires superseded versions. B+-tree entries are never
  /// removed — scans re-check key + visibility against the visible tuple.
  void UnwindWrites(std::vector<txn::TxnWrite> writes);
  /// Appends a transaction's statement ops as kTxnOp-wrapped records (the
  /// commit record comes later, through FinishCommit's hook). No-op when not
  /// durable.
  Status LogTxnOps(
      txn::TxnId t,
      std::vector<std::pair<storage::WalRecordType, std::string>> records);
  /// Index maintenance for a row moving `from` -> `to`: hash entries move;
  /// a new B+-tree entry is added only when `add_btree` (the apply path) and
  /// the key changed. Old B+-tree entries always stay (lazily filtered).
  void IndexUpdate(const std::string& table, RowId id, const Tuple& from,
                   const Tuple& to, bool add_btree);
  /// Re-adds hash-index entries for a row whose delete is being rolled back.
  void RestoreHashEntries(const std::string& table, RowId id, const Tuple& row);
  /// Every ~64 commits: reclaim versions dead below the watermark.
  void MaybeVacuum();
  /// Creates the LSM engine, hooks the catalog, attaches every recovered
  /// table (re-adopting manifest runs) and garbage-collects orphan SSTs.
  /// Called from Open when DurabilityOptions::lsm is set.
  Status EnableLsmStorage();
  /// Storage-engine maintenance trigger, piggybacked on the vacuum cadence:
  /// inline (deterministic) when crash injection is armed or no executor
  /// pool exists, otherwise a single-flight task on the executor pool.
  void MaybeMaintainStorage();
  /// Auto-checkpoint trigger (checkpoint_every_n_records knob), deferred
  /// while any transaction holds unstamped writes.
  Status MaybeAutoCheckpoint();
  /// Rebuilds any `aidb_*` system view the statement scans, so the view's
  /// backing rows are stable for the whole plan/execute cycle.
  Status RefreshReferencedSystemViews(const sql::Statement& stmt);
  void RegisterSystemViews();
  /// Appends a statement's WAL records + COMMIT, honoring group commit and
  /// the auto-checkpoint knob. No-op when not durable. `stmt_txn` is the
  /// calling statement's transaction (its id is reused when it holds no MVCC
  /// writes; otherwise a fresh id keeps the commit from resolving them).
  Status LogTxn(txn::TxnId stmt_txn,
                std::vector<std::pair<storage::WalRecordType, std::string>> records);

  Catalog catalog_;
  db4ai::ModelRegistry models_;
  exec::Planner planner_;
  /// Database-global defaults, guarded by options_mu_ so SetDop and the
  /// per-statement snapshot in Execute never race. (mutable_planner_options()
  /// hands out an unguarded reference for single-threaded setup code —
  /// concurrent callers must go through a server session instead.)
  exec::PlannerOptions planner_options_;
  mutable std::mutex options_mu_;
  /// Slot-major column mirrors for vectorized scans; planner_options_ points
  /// at it so every settings snapshot carries the reference. Declared before
  /// the pools: in-flight parallel scans may hold mirror shared_ptrs.
  exec::ColumnCache column_cache_;
  std::unique_ptr<ThreadPool> exec_pool_;
  /// Pools replaced by SetDop growth. In-flight statements snapshot the pool
  /// pointer at admission; destroying a pool under them would be
  /// use-after-free, so old pools retire here and die with the Database.
  std::vector<std::unique_ptr<ThreadPool>> retired_pools_;
  std::atomic<uint64_t> total_work_{0};

  // Serving state: plan cache, DDL epochs, database-global prepared store.
  server::PlanCache plan_cache_;
  mutable std::mutex epochs_mu_;
  std::unordered_map<std::string, uint64_t> table_epochs_;
  server::PreparedStore default_prepared_;

  // Observability state. metrics_ precedes wal_ in declaration order so the
  // WAL's cached metric pointers stay valid through destruction.
  monitor::MetricsRegistry metrics_;
  /// Statement-path metric handles, resolved once at construction so that
  /// executing a statement never takes the registry mutex.
  struct StmtMetrics {
    monitor::Counter* queries = nullptr;
    monitor::Counter* errors = nullptr;
    monitor::Counter* select_rows = nullptr;
    monitor::Counter* plan_cache_hit = nullptr;
    monitor::Counter* plan_cache_miss = nullptr;
    monitor::LatencyHistogram* latency_us = nullptr;
    monitor::Gauge* watermark_ts = nullptr;
    /// exec.stmt.<kind>, one per query-log kind string.
    std::vector<monitor::Counter*> per_kind;
  } stmt_metrics_;
  monitor::QueryLog query_log_;
  /// Read by sessions while another thread may flip it; relaxed like
  /// SpanCollector::enabled_.
  std::atomic<bool> tracing_{false};
  bool deterministic_timing_ = false;
  Timer uptime_;  ///< arrival timestamps for the query log

  // Self-monitoring state. spans_ precedes wal_ (the WAL records wal_flush
  // spans) and the sampler is the LAST member of the class, so its thread is
  // joined before anything it probes is torn down.
  monitor::SpanCollector spans_;
  monitor::TimeSeriesStore kpi_history_;
  monitor::IncidentPipeline incidents_;
  /// Counter readings at the previous KPI sample, for per-interval deltas.
  /// Touched only by ProbeKpis, which the sampler's sample mutex serializes.
  struct KpiBaseline {
    uint64_t work = 0;
    uint64_t conflicts = 0;
    uint64_t denials = 0;
    uint64_t stall_us = 0;
    uint64_t fsyncs = 0;
    uint64_t select_rows = 0;
    uint64_t queries = 0;
    uint64_t lat_count = 0;
    double lat_sum_us = 0.0;
  } kpi_prev_;
  uint64_t kpi_seq_ = 0;
  Timer kpi_epoch_;
  /// Derives the six-KPI vector from MetricsRegistry deltas (the sampler's
  /// probe).
  monitor::KpiSample ProbeKpis();

  /// MVCC transaction state. Declared after metrics_ (cached counter
  /// pointers) and after catalog_ (undo entries reference Table objects; the
  /// destructor frees retired version nodes, which are self-contained).
  txn::TransactionManager tm_;
  /// Explicit-transaction slot for callers without a session (bare Execute).
  std::atomic<uint64_t> default_txn_{0};
  std::atomic<uint64_t> commits_since_vacuum_{0};

  // Durability state (null/empty for the in-memory engine).
  std::string dir_;
  DurabilityOptions durability_opts_;
  std::unique_ptr<storage::WalWriter> wal_;
  std::atomic<uint64_t> records_since_checkpoint_{0};
  uint64_t checkpoints_written_ = 0;
  std::mutex checkpoint_mu_;  ///< concurrent commits may both trigger one
  /// Statements hold this shared for their whole fenced body; Checkpoint
  /// takes it exclusive so its snapshot sees no statement mid-way through
  /// appending WAL ops or committing (a consistent cut).
  std::shared_mutex checkpoint_fence_;
  storage::RecoveryStats recovery_stats_;
  /// Pluggable storage engine (null = row store). Declared after tm_ so it
  /// is destroyed first: its destructor detaches cold tiers while the
  /// transaction manager (and catalog) are still alive.
  std::unique_ptr<storage::LsmEngine> lsm_engine_;
  /// Single-flight gate for the async maintenance task on the executor pool.
  std::atomic<bool> storage_maint_inflight_{false};

  /// Last member: destroyed (thread joined) before everything ProbeKpis and
  /// the incident hook touch.
  monitor::KpiSampler kpi_sampler_;
};

}  // namespace aidb
