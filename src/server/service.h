#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/database.h"
#include "server/classifier.h"
#include "server/session.h"

namespace aidb::server {

struct ServiceOptions {
  /// Executor worker threads (the service's concurrency, independent of the
  /// intra-query morsel pool).
  size_t workers = 4;
  /// Bound on queued-but-not-running statements; submissions past it are
  /// shed immediately with Status::Overloaded.
  size_t queue_capacity = 64;
  /// Workers that refuse heavy-lane work, so cheap statements always have
  /// capacity. Clamped to workers - 1.
  size_t cheap_reserve = 1;
  /// Default per-statement deadline applied when the session has none set;
  /// 0 disables.
  double default_timeout_ms = 0.0;
  /// Queue-wait bound: a statement still queued this long past its
  /// enqueue is shed with Status::Timeout before execution. 0 disables.
  double max_queue_wait_ms = 0.0;
  /// Per-lane end-to-end p95 latency targets for the SLO tracker (0 = lane
  /// untracked). A cheap lane in breach feeds live pressure back into the
  /// admission classifier (SetCheapLanePressure), and both lanes publish
  /// slo.<lane>.p95_us / target_us / breach gauges.
  double cheap_p95_target_ms = 0.0;
  double heavy_p95_target_ms = 0.0;
  /// Rolling statements per lane the p95 is computed over.
  size_t slo_window = 256;
};

/// The engine-lock rule over a statement's effective form: exclusive for
/// DDL, ANALYZE, CREATE MODEL, SHOW MODELS and a SELECT of an aidb_* system
/// view (refresh replaces its backing table); shared otherwise, because MVCC
/// snapshots, per-index latches, the thread-safe WAL and the checkpoint fence
/// isolate the rest. An EXECUTE follows its template; one of an unknown name
/// fails without touching engine state.
bool TakesSharedLock(const ResolvedStatement& stmt);

/// \brief Concurrent in-process SQL service: sessions, admission control,
/// per-statement deadlines and a cheap/heavy scheduler over one Database.
///
/// Submit parses each statement once and resolves its effective form
/// (Database::Resolve); the lane (QueryClassifier), the engine lock
/// (TakesSharedLock) and execution all read that one AST.
///
/// Overload never crashes and never hangs: a full queue sheds with
/// Status::Overloaded at submit; a statement whose deadline passes while
/// queued is shed with Status::Timeout; a running statement past its
/// deadline is cancelled at the next morsel boundary and surfaces
/// Status::Timeout.
class Service {
 public:
  Service(Database* db, ServiceOptions opts = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Opens a session seeded from the database's current global settings.
  std::shared_ptr<Session> OpenSession();
  Status CloseSession(uint64_t session_id);
  SessionManager& sessions() { return sessions_; }

  /// Parses `sql` and enqueues it for the session; the future resolves to
  /// the result or a typed error (Overloaded / Timeout / Cancelled /
  /// statement error). A statement that fails to parse or is shed at once
  /// resolves here, without taking a worker.
  std::future<Result<QueryResult>> Submit(uint64_t session_id, std::string sql);

  /// Submit + wait.
  Result<QueryResult> Execute(uint64_t session_id, const std::string& sql);

  /// Blocks until no statement is queued or running.
  void Drain();

  const QueryClassifier& classifier() const { return classifier_; }
  size_t queue_depth() const;
  uint64_t shed_overloaded() const {
    return shed_overloaded_.load(std::memory_order_relaxed);
  }
  uint64_t shed_timeout() const {
    return shed_timeout_.load(std::memory_order_relaxed);
  }
  uint64_t executed() const { return executed_.load(std::memory_order_relaxed); }

  /// Rolling end-to-end p95 of a lane (0 before any completion), and whether
  /// the lane currently misses its target. SLO-tracker observability hooks.
  double LaneP95Ms(QueryClass k) const;
  bool LaneBreaching(QueryClass k) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    std::shared_ptr<Session> session;
    ResolvedStatement stmt;  ///< parsed and resolved at admission
    QueryClass klass = QueryClass::kCheap;
    Clock::time_point enqueued{};
    Clock::time_point deadline{};  ///< time_point::max() = none
    bool has_deadline = false;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::promise<Result<QueryResult>> promise;
    /// End-to-end trace identity, minted at admission when spans are on.
    uint64_t trace_id = 0;
    uint64_t root_span = 0;
    double admitted_us = 0.0;  ///< collector clock at admission
    double queued_us = 0.0;    ///< collector clock once parsed
  };

  void WorkerLoop(size_t worker_index);
  void ReaperLoop();
  void RunJob(Job& job);
  void RegisterSessionsView();
  /// Records one completed statement's end-to-end latency into its lane's
  /// SLO window; refreshes the p95 gauges and the classifier pressure.
  void RecordLaneLatency(QueryClass k, double ms);
  /// Records the root `request` span of a finished (or shed) job.
  void RecordRequestSpan(const Job& job, const char* outcome);
  /// Records a stage span from `start_us` to now under the job's request
  /// root (when traced) and returns now on the collector clock.
  double RecordStageSpan(const Job& job, const char* name, double start_us);

  Database* db_;
  ServiceOptions opts_;
  SessionManager sessions_;
  QueryClassifier classifier_;

  /// Serializes engine writers against readers (see class comment).
  std::shared_mutex db_mu_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<std::shared_ptr<Job>> cheap_queue_;
  std::deque<std::shared_ptr<Job>> heavy_queue_;
  size_t running_jobs_ = 0;
  bool stopping_ = false;

  /// Live cancel flags + deadlines for the reaper (queued and running).
  struct DeadlineEntry {
    std::shared_ptr<std::atomic<bool>> cancel;
    Clock::time_point deadline;
  };
  std::mutex reaper_mu_;
  std::vector<DeadlineEntry> deadlines_;

  std::vector<std::thread> workers_;
  std::thread reaper_;

  std::atomic<uint64_t> shed_overloaded_{0};
  std::atomic<uint64_t> shed_timeout_{0};
  std::atomic<uint64_t> executed_{0};
  bool view_registered_ = false;
  /// Registry handles, resolved at construction: no statement takes the
  /// registry mutex.
  monitor::Counter* shed_overloaded_metric_ = nullptr;
  monitor::Counter* shed_timeout_metric_ = nullptr;

  /// Per-lane rolling latency window for the SLO tracker ([0]=cheap,
  /// [1]=heavy).
  struct LaneSlo {
    mutable std::mutex mu;
    std::deque<double> window_ms;
    double p95_ms = 0.0;
    uint64_t records = 0;
    bool breaching = false;
    /// slo.<lane>.* gauges; registered only for a tracked lane.
    monitor::Gauge* p95_us = nullptr;
    monitor::Gauge* target_us = nullptr;
    monitor::Gauge* breach = nullptr;
  };
  LaneSlo slo_[2];
};

}  // namespace aidb::server
