#pragma once

// Arithmetic the benchmark reports with: medians, the tail-percentile rule,
// ratios that carry their base, metric-name validation and JSON numbers.
// Pure functions only, so the self-test can pin every rule.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Samples beyond a tail: the tail is the highest percentile that still has
/// at least this many samples above it.
inline constexpr size_t kTailBeyond = 10;

/// Median with linear interpolation between the two middle samples (the
/// convention of Python's statistics.median). 0 for an empty input.
double Median(std::vector<double> v);

/// The tail of a sample set: the highest percentile of the ladder p50, p90,
/// p99, p99.9, ... (nearest rank) that has at least kTailBeyond samples
/// beyond its rank. Undefined below 2 * kTailBeyond samples, where even the
/// median has fewer than kTailBeyond samples above it.
struct Tail {
  bool defined = false;
  double value = 0.0;
  double percentile = 0.0;  ///< the ladder step, e.g. 99
  size_t n = 0;             ///< sample count
  size_t beyond = 0;        ///< samples ranked after the tail
};
Tail TailOf(std::vector<double> v);

/// One statement's wall interval, microseconds since the run epoch.
struct Interval {
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Statements per second as the median over `slices` equal slices of every
/// session's statement stream. Slice k of a session runs from the end of its
/// previous slice (the first statement's start, for k = 0) to the end of its
/// last statement; the rate of slice k is the sum over sessions of statements
/// / seconds. A part of the run the host slows moves a few slices, not the
/// median. `slices` is clamped to the shortest stream; 0 without statements.
double SlicedThroughput(const std::vector<std::vector<Interval>>& sessions,
                        size_t slices);

/// A ratio printed with its base. A zero base makes the ratio n/a: the JSON
/// value is then 0 and the base, printed beside it, says why.
struct Ratio {
  double value = 0.0;
  double base = 0.0;
  bool na = true;
};
Ratio MakeRatio(double numerator, double base);

/// Metric names: 1-64 characters of letters, digits, `_`, `.` and `-`,
/// starting with a letter or a digit.
bool ValidMetricName(std::string_view name);

/// A finite double as a JSON number with every significant digit
/// (round-trip precision); non-finite values print as 0.
std::string JsonNumber(double v);

/// JSON string literal with the mandatory escapes.
std::string JsonString(std::string_view s);

}  // namespace e2e
