#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace e2e {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n % 2 == 1) return v[n / 2];
  return (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  std::sort(v.begin(), v.end());
  // Ladder p50, p90, p99, ...: the share above the percentile shrinks tenfold
  // per step; stop before fewer than kTailBeyond samples remain beyond it.
  for (double above = 0.5; above * static_cast<double>(v.size()) >= kTailBeyond;
       above /= (above == 0.5 ? 5.0 : 10.0)) {
    const double p = 1.0 - above;
    // Nearest rank: the smallest rank covering a share p of the samples.
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size()) - 1e-9));
    if (rank == 0 || v.size() - rank < kTailBeyond) break;
    t.defined = true;
    t.value = v[rank - 1];
    t.percentile = 100.0 * p;
    t.beyond = v.size() - rank;
  }
  return t;
}

double SlicedThroughput(const std::vector<std::vector<Interval>>& sessions,
                        size_t slices) {
  for (const auto& s : sessions) slices = std::min(slices, s.size());
  if (sessions.empty() || slices == 0) return 0.0;
  std::vector<double> rates(slices, 0.0);
  for (const auto& s : sessions) {
    double from = s.front().start_us;
    for (size_t k = 0; k < slices; ++k) {
      const size_t lo = s.size() * k / slices;
      const size_t hi = s.size() * (k + 1) / slices;
      const double to = s[hi - 1].end_us;
      if (to > from) rates[k] += static_cast<double>(hi - lo) / ((to - from) / 1e6);
      from = to;
    }
  }
  return Median(rates);
}

Ratio MakeRatio(double numerator, double base) {
  Ratio r;
  r.base = base;
  r.na = !(base != 0.0) || !std::isfinite(base);
  r.value = r.na ? 0.0 : numerator / base;
  return r;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace e2e
