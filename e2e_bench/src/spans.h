#pragma once

// The benchmark's own span recorder. Spans are recorded from outside the
// engine, around calls into its public functions, kept in memory (one buffer
// per client thread, no locking) and written as JSON lines at exit.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< request id shared by a statement's spans; 0 = none
  const char* name = "";
  double start_us = 0.0;  ///< since the recorder's epoch
  double dur_us = 0.0;
  const char* kind = nullptr;  ///< statement kind of a request's spans
  int cache = -1;  ///< plan-cache outcome: -1 none, 0 miss, 1 hit
  /// Measured after the run on the quiesced database and placed at the start
  /// of its parent: a model of the cost inside the request, not a wall-clock
  /// interval of it.
  bool probe = false;
};

/// Per-thread span buffer. Ids come from one shared counter so spans from
/// every thread merge into one tree.
class SpanRecorder {
 public:
  SpanRecorder(std::atomic<uint64_t>* ids, Clock::time_point epoch)
      : ids_(ids), epoch_(epoch) {}

  uint64_t NextId() { return ids_->fetch_add(1, std::memory_order_relaxed); }
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  void Add(const Span& s) { spans_.push_back(s); }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::atomic<uint64_t>* ids_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Records one span around a scope (set-up calls, Open, FlushWal). A null
/// recorder makes it a no-op, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* rec_;
  Span span_;
  Clock::time_point start_;
};

/// Self time of each span (same order as `spans`): its duration minus the
/// part of its interval covered by its children, each child clipped to the
/// parent's interval and overlaps counted once.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Share of the time of root spans named `root` that no child span covers,
/// with the summed root time as its base.
Ratio Residue(const std::vector<Span>& spans, std::string_view root);

/// One JSON object per line.
std::string SpanJson(const Span& s);

}  // namespace e2e
