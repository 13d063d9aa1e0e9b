#include "monitor/metrics.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

namespace aidb::monitor {

size_t ThisThreadShard() {
  thread_local const size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kMetricShards;
  return shard;
}

size_t LatencyHistogram::BucketOf(double us) {
  if (!(us > 0.0)) return 0;  // negatives and NaN land in the zero bucket
  uint64_t v = static_cast<uint64_t>(us);
  if (v == 0) return 0;
  size_t b = 64 - static_cast<size_t>(__builtin_clzll(v));  // floor(log2)+1
  return std::min(b, kBuckets - 1);
}

void LatencyHistogram::Observe(double us) {
  Shard& s = shards_[ThisThreadShard()];
  s.buckets[BucketOf(us)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum_us.fetch_add(static_cast<uint64_t>(std::max(0.0, us)),
                     std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  Snapshot out;
  for (const auto& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum_us += static_cast<double>(s.sum_us.load(std::memory_order_relaxed));
    for (size_t b = 0; b < kBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double LatencyHistogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(std::ceil(p * static_cast<double>(count)));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] >= target) {
      // Interpolate inside [lo, hi) by the rank fraction within the bucket.
      double lo = b == 0 ? 0.0 : static_cast<double>(1ULL << (b - 1));
      double hi = static_cast<double>(1ULL << b);
      double frac = static_cast<double>(target - seen) /
                    static_cast<double>(buckets[b]);
      return lo + frac * (hi - lo);
    }
    seen += buckets[b];
  }
  return static_cast<double>(1ULL << (kBuckets - 1));
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + 5 * histograms_.size());
  for (const auto& [name, c] : counters_) {
    out.push_back({name, "counter", static_cast<double>(c->Value())});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, "gauge", static_cast<double>(g->Value())});
  }
  for (const auto& [name, h] : histograms_) {
    LatencyHistogram::Snapshot s = h->Snap();
    out.push_back({name + ".count", "histogram", static_cast<double>(s.count)});
    out.push_back({name + ".mean", "histogram", s.Mean()});
    out.push_back({name + ".p50", "histogram", s.Percentile(0.50)});
    out.push_back({name + ".p95", "histogram", s.Percentile(0.95)});
    out.push_back({name + ".p99", "histogram", s.Percentile(0.99)});
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  return out;
}

}  // namespace aidb::monitor
