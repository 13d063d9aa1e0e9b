#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.h"
#include "monitor/metrics.h"

namespace aidb::monitor {

/// One completed span of a request's lifecycle. A request admitted by the
/// service mints a trace id and a root "request" span; every stage it flows
/// through (queue wait, execute, parse, plan/plan-cache, operators, commit,
/// WAL flush) records a child span carrying the same trace id and its
/// parent's span id, so `aidb_spans` reconstructs one coherent tree per
/// request. Times are microseconds relative to the collector's epoch and are
/// zeroed (along with `value` where it is a duration) in deterministic mode.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 for the root span
  std::string name;        ///< request/queue_wait/execute/parse/plan/op:...
  uint64_t session_id = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  double value = 0.0;  ///< stage-specific payload (rows, bytes, queue depth)
  std::string detail;  ///< stage-specific annotation (hit/miss, stmt kind)
};

/// JSON object for one span (Database::SpansJson writes one per line).
std::string SpanToJson(const Span& s);

/// \brief Bounded ring of completed spans plus the trace-context state used
/// to stitch them together.
///
/// `enabled` is a relaxed atomic read on every potential record site, so the
/// collector costs one predictable branch when spans are off. The ring is
/// mutex-guarded (spans are strings; a lock-free ring buys nothing at the
/// record rates involved) and overwrites oldest-first, counting overwrites
/// in `spans.dropped` when a metrics registry is attached.
///
/// Trace context travels thread-local: the service sets {trace_id, parent}
/// for the worker executing a request, nested SpanScopes re-point the parent
/// at themselves, and the WAL flusher inherits whatever context the flushing
/// thread carries (group-commit flushes are attributed to the request that
/// triggered them; followers that piggyback on that flush record no span —
/// the attribution note lives in DESIGN.md §13).
class SpanCollector {
 public:
  explicit SpanCollector(size_t capacity = 4096);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_deterministic(bool on) {
    deterministic_.store(on, std::memory_order_relaxed);
  }
  bool deterministic() const {
    return deterministic_.load(std::memory_order_relaxed);
  }

  void set_metrics(MetricsRegistry* m);
  void set_capacity(size_t capacity);
  size_t capacity() const;

  /// Mints a fresh trace (or span) id. Ids are globally ordered by a single
  /// atomic counter, so single-threaded runs are fully deterministic.
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }

  /// Microseconds since collector construction; 0 in deterministic mode.
  double NowUs() const;

  /// Records a completed span (no-op when disabled).
  void Record(Span s);

  /// Oldest-to-newest copy of the retained spans.
  std::vector<Span> Snapshot() const;
  uint64_t total_recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t total_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  void Clear();

  // --- thread-local trace context -----------------------------------------
  struct Context {
    uint64_t trace_id = 0;
    uint64_t parent_span = 0;
    uint64_t session_id = 0;
  };
  static Context GetContext();
  static void SetContext(const Context& ctx);
  static void ClearContext();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<bool> deterministic_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  Timer epoch_;

  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<Span> ring_;
  Counter* dropped_counter_ = nullptr;
};

/// RAII helper: opens a span at construction, re-points the thread-local
/// parent at itself for the scope's duration, and records the completed span
/// (with duration) at destruction. Inactive (zero-cost beyond two loads)
/// when the collector is null or disabled or no trace is in context.
class SpanScope {
 public:
  SpanScope(SpanCollector* collector, std::string name);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool active() const { return active_; }
  uint64_t span_id() const { return span_.span_id; }
  void set_value(double v) { span_.value = v; }
  void set_detail(std::string d) { span_.detail = std::move(d); }

 private:
  SpanCollector* collector_ = nullptr;
  bool active_ = false;
  Span span_;
  SpanCollector::Context saved_;
};

}  // namespace aidb::monitor
