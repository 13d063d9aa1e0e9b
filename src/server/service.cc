#include "server/service.h"

#include <algorithm>
#include <vector>

#include "monitor/span.h"
#include "sql/parser.h"
#include "storage/schema.h"

namespace aidb::server {

bool TakesSharedLock(const ResolvedStatement& stmt) {
  const sql::Statement* s = stmt.effective();
  if (s == nullptr) return true;
  if (stmt.reads_system_view) return false;
  switch (s->kind()) {
    case sql::StatementKind::kCreateTable:
    case sql::StatementKind::kDropTable:
    case sql::StatementKind::kCreateIndex:
    case sql::StatementKind::kDropIndex:
    case sql::StatementKind::kAnalyze:
    case sql::StatementKind::kCreateModel:
    case sql::StatementKind::kShowModels:
      return false;
    default:
      return true;
  }
}

Service::Service(Database* db, ServiceOptions opts)
    : db_(db), opts_(opts) {
  if (opts_.workers == 0) opts_.workers = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  opts_.cheap_reserve = std::min(opts_.cheap_reserve, opts_.workers - 1);
  auto& m = db_->metrics();
  shed_overloaded_metric_ = m.GetCounter("service.shed_overloaded");
  shed_timeout_metric_ = m.GetCounter("service.shed_timeout");
  const double targets_ms[2] = {opts_.cheap_p95_target_ms,
                                opts_.heavy_p95_target_ms};
  for (size_t i = 0; i < 2; ++i) {
    if (targets_ms[i] <= 0.0) continue;  // lane untracked
    const std::string prefix = i == 0 ? "slo.cheap." : "slo.heavy.";
    slo_[i].p95_us = m.GetGauge(prefix + "p95_us");
    slo_[i].target_us = m.GetGauge(prefix + "target_us");
    slo_[i].breach = m.GetGauge(prefix + "breach");
  }
  classifier_.WarmFromQueryLog(db_->query_log().Entries());
  RegisterSessionsView();
  workers_.reserve(opts_.workers);
  for (size_t i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  reaper_ = std::thread([this] { ReaperLoop(); });
}

Service::~Service() {
  std::vector<std::shared_ptr<Job>> orphans;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
    for (auto& q : {&cheap_queue_, &heavy_queue_}) {
      for (auto& job : *q) orphans.push_back(std::move(job));
      q->clear();
    }
  }
  queue_cv_.notify_all();
  for (auto& job : orphans) {
    job->session->queued.fetch_sub(1, std::memory_order_relaxed);
    job->promise.set_value(Status::Cancelled("service shutting down"));
  }
  for (auto& w : workers_) w.join();
  if (reaper_.joinable()) reaper_.join();
  if (view_registered_) {
    Status st = db_->catalog().UnregisterSystemView("aidb_sessions");
    (void)st;
  }
}

void Service::RegisterSessionsView() {
  Schema schema({{"id", ValueType::kInt},
                 {"state", ValueType::kString},
                 {"queued", ValueType::kInt},
                 {"running", ValueType::kInt},
                 {"statements", ValueType::kInt},
                 {"errors", ValueType::kInt},
                 {"cache_hits", ValueType::kInt},
                 {"dop", ValueType::kInt},
                 {"timeout_ms", ValueType::kDouble}});
  Status st = db_->catalog().RegisterSystemView(
      "aidb_sessions", std::move(schema),
      [this](const std::function<void(Tuple)>& emit) {
        auto all = sessions_.List();
        std::sort(all.begin(), all.end(),
                  [](const auto& a, const auto& b) { return a->id() < b->id(); });
        for (const auto& s : all) {
          emit({Value(static_cast<int64_t>(s->id())), Value(s->StateName()),
                Value(static_cast<int64_t>(
                    s->queued.load(std::memory_order_relaxed))),
                Value(static_cast<int64_t>(
                    s->running.load(std::memory_order_relaxed))),
                Value(static_cast<int64_t>(
                    s->statements.load(std::memory_order_relaxed))),
                Value(static_cast<int64_t>(
                    s->errors.load(std::memory_order_relaxed))),
                Value(static_cast<int64_t>(
                    s->cache_hits.load(std::memory_order_relaxed))),
                Value(static_cast<int64_t>(s->dop())),
                Value(s->statement_timeout_ms())});
        }
      });
  view_registered_ = st.ok();
}

std::shared_ptr<Session> Service::OpenSession() {
  return sessions_.Open(db_->SnapshotSettings());
}

Status Service::CloseSession(uint64_t session_id) {
  return sessions_.Close(session_id);
}

std::future<Result<QueryResult>> Service::Submit(uint64_t session_id,
                                                 std::string sql) {
  auto job = std::make_shared<Job>();
  std::future<Result<QueryResult>> fut = job->promise.get_future();

  job->session = sessions_.Get(session_id);
  if (!job->session || job->session->closed.load(std::memory_order_relaxed)) {
    job->promise.set_value(
        Status::NotFound("session " + std::to_string(session_id)));
    return fut;
  }

  if (db_->spans_enabled()) {
    // Admission mints the request's trace identity; every span of this
    // statement (parse, queue wait, and the engine's execute/plan/operators/
    // commit/wal_flush) hangs off the root span recorded when it finishes.
    job->trace_id = db_->spans().NextId();
    job->root_span = db_->spans().NextId();
    job->admitted_us = db_->spans().NowUs();
  }

  // The one parse of the statement: lane, engine lock and execution all read
  // this AST.
  Result<sql::ParsedStatement> parsed = sql::Parser::ParseKeyed(std::move(sql));
  job->queued_us = RecordStageSpan(*job, "parse", job->admitted_us);
  if (!parsed.ok()) {
    job->session->statements.fetch_add(1, std::memory_order_relaxed);
    job->session->errors.fetch_add(1, std::memory_order_relaxed);
    RecordRequestSpan(*job, "parse_error");
    job->promise.set_value(parsed.status());
    return fut;
  }
  job->stmt = db_->Resolve(std::move(parsed).ValueOrDie(),
                           job->session->prepared());
  job->klass = classifier_.Classify(job->stmt.shape(), job->stmt.effective());
  job->enqueued = Clock::now();
  double timeout_ms = job->session->statement_timeout_ms();
  if (timeout_ms <= 0.0) timeout_ms = opts_.default_timeout_ms;
  if (timeout_ms > 0.0) {
    job->has_deadline = true;
    job->deadline = job->enqueued + std::chrono::microseconds(
                                        static_cast<int64_t>(timeout_ms * 1e3));
  } else {
    job->deadline = Clock::time_point::max();
  }
  job->cancel = std::make_shared<std::atomic<bool>>(false);

  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      job->promise.set_value(Status::Cancelled("service shutting down"));
      return fut;
    }
    if (cheap_queue_.size() + heavy_queue_.size() >= opts_.queue_capacity) {
      shed_overloaded_.fetch_add(1, std::memory_order_relaxed);
      shed_overloaded_metric_->Add();
      RecordRequestSpan(*job, "shed_overloaded");
      job->promise.set_value(Status::Overloaded(
          "admission queue full (" + std::to_string(opts_.queue_capacity) +
          " queued); retry later"));
      return fut;
    }
    job->session->queued.fetch_add(1, std::memory_order_relaxed);
    (job->klass == QueryClass::kHeavy ? heavy_queue_ : cheap_queue_)
        .push_back(job);
  }
  if (job->has_deadline) {
    std::lock_guard<std::mutex> lock(reaper_mu_);
    deadlines_.push_back({job->cancel, job->deadline});
  }
  // notify_all, not notify_one: a single notify can land on a cheap-reserved
  // worker that refuses heavy-lane work; it would swallow the wakeup and the
  // job would sit queued with every general worker asleep.
  queue_cv_.notify_all();
  return fut;
}

Result<QueryResult> Service::Execute(uint64_t session_id,
                                     const std::string& sql) {
  return Submit(session_id, sql).get();
}

size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return cheap_queue_.size() + heavy_queue_.size();
}

void Service::Drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  drain_cv_.wait(lock, [this] {
    return cheap_queue_.empty() && heavy_queue_.empty() && running_jobs_ == 0;
  });
}

void Service::WorkerLoop(size_t worker_index) {
  const bool cheap_only = worker_index < opts_.cheap_reserve;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        if (stopping_) return true;
        if (!cheap_queue_.empty()) return true;
        return !cheap_only && !heavy_queue_.empty();
      });
      if (stopping_ && cheap_queue_.empty() &&
          (cheap_only || heavy_queue_.empty())) {
        return;
      }
      if (!cheap_queue_.empty() &&
          (cheap_only || heavy_queue_.empty() ||
           cheap_queue_.front()->enqueued <= heavy_queue_.front()->enqueued)) {
        job = std::move(cheap_queue_.front());
        cheap_queue_.pop_front();
      } else if (!cheap_only && !heavy_queue_.empty()) {
        job = std::move(heavy_queue_.front());
        heavy_queue_.pop_front();
      } else {
        continue;
      }
      ++running_jobs_;
    }
    job->session->queued.fetch_sub(1, std::memory_order_relaxed);
    job->session->running.fetch_add(1, std::memory_order_relaxed);

    RunJob(*job);

    job->session->running.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --running_jobs_;
    }
    drain_cv_.notify_all();
    // More work may remain; notify_all for the same lane-affinity reason as
    // in Submit (a lone wakeup may hit a worker that refuses the lane).
    queue_cv_.notify_all();
  }
}

void Service::RunJob(Job& job) {
  Clock::time_point now = Clock::now();
  bool deadline_passed = job.has_deadline && now >= job.deadline;
  bool wait_exceeded =
      opts_.max_queue_wait_ms > 0.0 &&
      std::chrono::duration<double, std::milli>(now - job.enqueued).count() >
          opts_.max_queue_wait_ms;
  if (deadline_passed || wait_exceeded ||
      job.cancel->load(std::memory_order_relaxed)) {
    shed_timeout_.fetch_add(1, std::memory_order_relaxed);
    shed_timeout_metric_->Add();
    job.session->errors.fetch_add(1, std::memory_order_relaxed);
    RecordRequestSpan(job, "shed_timeout");
    job.promise.set_value(Status::Timeout(
        deadline_passed || job.cancel->load(std::memory_order_relaxed)
            ? "statement deadline exceeded while queued"
            : "queue wait bound exceeded"));
    return;
  }

  RecordStageSpan(job, "queue_wait", job.queued_us);

  ExecSettings settings = job.session->SnapshotSettings();
  settings.cancel = job.cancel.get();
  settings.txn_slot = &job.session->txn;
  settings.trace_id = job.trace_id;
  settings.parent_span = job.root_span;

  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (TakesSharedLock(job.stmt)) {
      std::shared_lock<std::shared_mutex> lock(db_mu_);
      return db_->Execute(job.stmt, settings);
    }
    std::unique_lock<std::shared_mutex> lock(db_mu_);
    return db_->Execute(job.stmt, settings);
  }();
  executed_.fetch_add(1, std::memory_order_relaxed);

  // A cancellation caused by the deadline surfaces as Timeout, so callers
  // can tell "too slow" from "explicitly cancelled".
  if (!result.ok() && result.status().code() == StatusCode::kCancelled &&
      job.has_deadline && Clock::now() >= job.deadline) {
    result = Status::Timeout(
        "statement deadline exceeded (cancelled at morsel boundary)");
    shed_timeout_.fetch_add(1, std::memory_order_relaxed);
    shed_timeout_metric_->Add();
  }

  job.session->statements.fetch_add(1, std::memory_order_relaxed);
  if (result.ok()) {
    const QueryResult& r = result.ValueOrDie();
    if (r.plan_cache_hit) {
      job.session->cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
    // Only reads feed the cost model (writes are heavy-lane by kind, and
    // their zero operator work would skew the typical-cost estimate). A
    // prepared read is a read: it learns under its template's shape.
    const sql::Statement* eff = job.stmt.effective();
    if (eff != nullptr && eff->kind() == sql::StatementKind::kSelect) {
      classifier_.Record(job.stmt.shape(), static_cast<double>(r.operator_work));
    }
  } else {
    job.session->errors.fetch_add(1, std::memory_order_relaxed);
  }
  RecordLaneLatency(job.klass, std::chrono::duration<double, std::milli>(
                                   Clock::now() - job.enqueued)
                                   .count());
  RecordRequestSpan(job, result.ok() ? "ok" : "error");
  job.promise.set_value(std::move(result));
}

void Service::RecordRequestSpan(const Job& job, const char* outcome) {
  if (job.trace_id == 0) return;
  monitor::Span s;
  s.trace_id = job.trace_id;
  s.span_id = job.root_span;
  s.parent_id = 0;
  s.name = "request";
  s.session_id = job.session ? job.session->id() : 0;
  s.start_us = job.admitted_us;
  s.dur_us = db_->spans().NowUs() - job.admitted_us;
  s.detail = std::string(job.klass == QueryClass::kHeavy ? "heavy" : "cheap") +
             ":" + outcome;
  db_->spans().Record(std::move(s));
}

double Service::RecordStageSpan(const Job& job, const char* name,
                                double start_us) {
  if (job.trace_id == 0) return 0.0;
  monitor::Span s;
  s.trace_id = job.trace_id;
  s.span_id = db_->spans().NextId();
  s.parent_id = job.root_span;
  s.name = name;
  s.session_id = job.session->id();
  s.start_us = start_us;
  const double now_us = db_->spans().NowUs();
  s.dur_us = now_us - start_us;
  db_->spans().Record(std::move(s));
  return now_us;
}

void Service::RecordLaneLatency(QueryClass k, double ms) {
  const double target_ms = k == QueryClass::kHeavy ? opts_.heavy_p95_target_ms
                                                   : opts_.cheap_p95_target_ms;
  if (target_ms <= 0.0) return;  // lane untracked
  LaneSlo& lane = slo_[k == QueryClass::kHeavy ? 1 : 0];
  double p95_ms = 0.0;
  bool breaching = false;
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.window_ms.push_back(ms);
    while (lane.window_ms.size() > opts_.slo_window) lane.window_ms.pop_front();
    ++lane.records;
    // The p95 recompute is amortized (every 8th record after warm-up) so the
    // cheap lane's fast path doesn't pay an O(window) selection per
    // statement; the gauges lag by at most 8 statements.
    if (lane.records <= 8 || lane.records % 8 == 0) {
      std::vector<double> v(lane.window_ms.begin(), lane.window_ms.end());
      size_t idx = (v.size() * 95) / 100;
      if (idx >= v.size()) idx = v.size() - 1;
      std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx),
                       v.end());
      lane.p95_ms = v[idx];
      lane.breaching = lane.p95_ms > target_ms;
    }
    p95_ms = lane.p95_ms;
    breaching = lane.breaching;
  }
  lane.p95_us->Set(static_cast<int64_t>(p95_ms * 1e3));
  lane.target_us->Set(static_cast<int64_t>(target_ms * 1e3));
  lane.breach->Set(breaching ? 1 : 0);
  if (k == QueryClass::kCheap) classifier_.SetCheapLanePressure(breaching);
}

double Service::LaneP95Ms(QueryClass k) const {
  const LaneSlo& lane = slo_[k == QueryClass::kHeavy ? 1 : 0];
  std::lock_guard<std::mutex> lock(lane.mu);
  return lane.p95_ms;
}

bool Service::LaneBreaching(QueryClass k) const {
  const LaneSlo& lane = slo_[k == QueryClass::kHeavy ? 1 : 0];
  std::lock_guard<std::mutex> lock(lane.mu);
  return lane.breaching;
}

void Service::ReaperLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (stopping_) return;
    }
    {
      std::lock_guard<std::mutex> lock(reaper_mu_);
      Clock::time_point now = Clock::now();
      for (auto& entry : deadlines_) {
        if (now >= entry.deadline) {
          entry.cancel->store(true, std::memory_order_relaxed);
        }
      }
      // Drop entries nobody else references (job finished) or already fired.
      deadlines_.erase(
          std::remove_if(deadlines_.begin(), deadlines_.end(),
                         [](const DeadlineEntry& e) {
                           return e.cancel.use_count() == 1 ||
                                  e.cancel->load(std::memory_order_relaxed);
                         }),
          deadlines_.end());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace aidb::server
