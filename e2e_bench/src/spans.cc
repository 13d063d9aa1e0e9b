#include "spans.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace e2e {

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* name, uint64_t parent)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  span_.id = rec_->NextId();
  span_.parent = parent;
  span_.name = name;
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (rec_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  span_.start_us = rec_->Us(start_);
  span_.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
  rec_->Add(span_);
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    double lo = std::max(s.start_us, p.start_us);
    double hi = std::min(s.start_us + s.dur_us, p.start_us + p.dur_us);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    double cover = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) cover += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) cover += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans[i].dur_us - cover);
  }
  return self;
}

Ratio Residue(const std::vector<Span>& spans, std::string_view root) {
  const std::vector<double> self = SelfTimes(spans);
  double total = 0.0, uncovered = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 || root != spans[i].name) continue;
    total += spans[i].dur_us;
    uncovered += self[i];
  }
  return MakeRatio(uncovered, total);
}

std::string SpanJson(const Span& s) {
  std::string out = "{\"id\":" + std::to_string(s.id) +
                    ",\"parent\":" + std::to_string(s.parent) +
                    ",\"request\":" + std::to_string(s.request) +
                    ",\"name\":" + JsonString(s.name) +
                    ",\"start_us\":" + JsonNumber(s.start_us) +
                    ",\"dur_us\":" + JsonNumber(s.dur_us);
  if (s.kind != nullptr) out += ",\"kind\":" + JsonString(s.kind);
  if (s.cache >= 0) out += std::string(",\"plan_cache\":\"") +
                           (s.cache ? "hit" : "miss") + "\"";
  if (s.probe) out += ",\"probe\":true";
  return out + "}";
}

}  // namespace e2e
