#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "monitor/perf_pred.h"
#include "monitor/query_log.h"
#include "sql/ast.h"

namespace aidb::server {

/// Admission-time cost class of a statement. Cheap statements go to the
/// latency-sensitive lane; heavy ones queue behind other heavy work so a
/// burst of analytics cannot starve point lookups.
enum class QueryClass { kCheap, kHeavy };

/// \brief Learned cheap-vs-heavy classifier for admission scheduling.
///
/// Per-shape EWMA of observed execution cost (operator work units) with a
/// threshold adapted to the global cost distribution. The key is a SELECT's
/// literal-free shape digest (sql::ShapeDigest), so the state grows with the
/// number of shapes, not texts. Unknown shapes fall back to a prior read off
/// the statement's AST, optionally sharpened by the graph perf predictor
/// warm-started from the engine query log: the predictor maps a demand
/// sketch derived from the AST to an expected latency, which is compared
/// against the observed latency scale of the log.
class QueryClassifier {
 public:
  struct Options {
    double ewma_alpha = 0.25;   ///< weight of the newest observation
    /// Heavy if cost > ratio * geometric mean of all observed costs.
    double heavy_ratio = 4.0;
    double min_heavy_cost = 64; ///< floor so tiny workloads don't flag heavy
  };

  QueryClassifier() : QueryClassifier(Options()) {}
  explicit QueryClassifier(const Options& opts) : opts_(opts) {}

  /// Records the observed cost of one completed SELECT of shape `shape`.
  void Record(uint64_t shape, double cost);

  /// Classifies a statement by its effective form `stmt` (an EXECUTE's
  /// template body; null when none resolved): anything but a SELECT is
  /// heavy; a SELECT by its shape's EWMA when seen, otherwise by its AST's
  /// prior (+ perf-predictor estimate when warmed).
  QueryClass Classify(uint64_t shape, const sql::Statement* stmt) const;

  /// Seeds per-shape EWMAs from the query log's SELECTs and fits the graph
  /// perf predictor on it (monitor::FitFromQueryLog). Returns the number of
  /// log entries absorbed into EWMAs.
  size_t WarmFromQueryLog(const std::vector<monitor::QueryLogEntry>& entries);

  /// Current heavy threshold (test/observability hook).
  double HeavyThreshold() const;
  size_t known_digests() const;

  /// Live SLO signal from the service's per-lane p95 tracker: while the
  /// cheap lane misses its latency target, the heavy threshold halves so
  /// borderline statements divert to the heavy lane instead of crowding
  /// latency-sensitive work.
  void SetCheapLanePressure(bool on) {
    cheap_pressure_.store(on, std::memory_order_relaxed);
  }
  bool cheap_lane_pressure() const {
    return cheap_pressure_.load(std::memory_order_relaxed);
  }

 private:
  double HeavyThresholdLocked() const;

  std::atomic<bool> cheap_pressure_{false};
  Options opts_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, double> ewma_;
  double total_log_cost_ = 0.0;  ///< sum of log1p(cost): geometric-mean basis
  uint64_t samples_ = 0;
  bool predictor_warm_ = false;
  double warm_latency_scale_ = 0.0;  ///< mean solo latency seen during warmup
  monitor::GraphPerfPredictor predictor_;
};

}  // namespace aidb::server
