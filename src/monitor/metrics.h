#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aidb::monitor {

/// Number of per-thread slots each metric is sharded across. Writers pick a
/// slot from a cached hash of their thread id, so two threads contend on the
/// same cache line only on slot collisions; readers sum all slots.
inline constexpr size_t kMetricShards = 16;

/// Stable per-thread shard index in [0, kMetricShards).
size_t ThisThreadShard();

/// \brief Monotonic counter, lock-free on the write path.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// \brief Last-writer-wins signed gauge (pool sizes, knob settings, lag).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Fixed-bucket latency histogram (microseconds), lock-free writes.
///
/// Buckets are powers of two: bucket i counts observations in
/// [2^(i-1), 2^i) us, with bucket 0 = [0, 1us) and the last bucket
/// open-ended. Percentiles interpolate within the winning bucket, which is
/// plenty for p50/p95/p99 dashboards and costs one fetch_add per observation.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 28;  ///< up to ~134s

  void Observe(double us);

  struct Snapshot {
    uint64_t count = 0;
    double sum_us = 0.0;
    std::array<uint64_t, kBuckets> buckets{};

    double Mean() const { return count == 0 ? 0.0 : sum_us / static_cast<double>(count); }
    /// Percentile in [0,1]; linear interpolation inside the bucket.
    double Percentile(double p) const;
  };
  Snapshot Snap() const;

 private:
  static size_t BucketOf(double us);

  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_us{0};  ///< rounded; sums stay exact enough
  };
  std::array<Shard, kMetricShards> shards_;
};

/// One row of a registry snapshot (the shape `aidb_metrics` serves).
struct MetricSample {
  std::string name;
  std::string kind;  ///< "counter" | "gauge" | "histogram"
  double value = 0.0;
};

/// \brief Process-light named-metric registry: one per Database.
///
/// Get* registers on first use and returns a stable pointer; instrumentation
/// sites cache the pointer and then never touch the registry lock again.
/// Snapshot() merges every shard and expands histograms into
/// .count/.mean/.p50/.p95/.p99 rows, sorted by name so the system view is
/// deterministic given deterministic inputs.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  std::vector<MetricSample> Snapshot() const;

  /// Get* calls so far: each one takes the registry mutex, so a hot path
  /// that stays off the lock leaves this unchanged.
  uint64_t lookups() const { return lookups_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> lookups_{0};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace aidb::monitor
