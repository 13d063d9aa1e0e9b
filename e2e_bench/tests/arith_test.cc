// Self-test of the benchmark's own arithmetic: the tail rule, medians,
// ratios with zero bases, metric names, and self time / residue of a span
// tree.

#include <gtest/gtest.h>

#include <vector>

#include "spans.h"
#include "stats.h"

namespace e2e {
namespace {

std::vector<double> Range(int n) {  // 1..n, shuffled order does not matter
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

TEST(TailRule, NeedsTenSamplesBeyondTheMedianAtLeast) {
  EXPECT_FALSE(TailOf(Range(19)).defined);  // the median has 9 above it
  Tail t = TailOf(Range(20));
  ASSERT_TRUE(t.defined);
  EXPECT_EQ(t.value, 10.0);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.n, 20u);
}

TEST(TailRule, HighestLadderStepWithTenBeyond) {
  Tail p90 = TailOf(Range(100));  // p99 would leave 1 beyond
  ASSERT_TRUE(p90.defined);
  EXPECT_DOUBLE_EQ(p90.percentile, 90.0);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10u);
  Tail p99 = TailOf(Range(1000));
  EXPECT_DOUBLE_EQ(p99.percentile, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);
  Tail short_of_p99 = TailOf(Range(999));  // p99 rank 990 leaves 9 beyond
  EXPECT_DOUBLE_EQ(short_of_p99.percentile, 90.0);
  Tail p999 = TailOf(Range(25000));
  EXPECT_NEAR(p999.percentile, 99.9, 1e-9);
  EXPECT_EQ(p999.beyond, 25u);
}

TEST(Median, InterpolatesEvenCounts) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

/// `n` back-to-back statements of `us` each, from time 0.
std::vector<Interval> Steady(size_t n, double us) {
  std::vector<Interval> v;
  for (size_t i = 0; i < n; ++i) v.push_back({us * i, us * (i + 1)});
  return v;
}

TEST(SlicedThroughput, SumsSessionsAndTakesTheMedianSlice) {
  // Two sessions of 100 µs statements: 10k stmt/s each, 20k together.
  EXPECT_NEAR(SlicedThroughput({Steady(100, 100.0), Steady(100, 100.0)}, 10),
              20000.0, 1e-6);
  // A slowdown over the first two of ten slices does not move the median.
  std::vector<Interval> slow = Steady(100, 100.0);
  for (size_t i = 0; i < 20; ++i) slow[i] = {400.0 * i, 400.0 * (i + 1)};
  for (size_t i = 20; i < 100; ++i) slow[i] = {8000.0 + 100.0 * (i - 20),
                                               8000.0 + 100.0 * (i - 19)};
  EXPECT_NEAR(SlicedThroughput({slow}, 10), 10000.0, 1e-6);
  // Gaps between statements count: slice 1 spans from the end of slice 0.
  std::vector<Interval> gaps = {{0, 50}, {100, 150}, {200, 250}, {300, 350}};
  EXPECT_NEAR(SlicedThroughput({gaps}, 2), (2.0 / 150e-6 + 2.0 / 200e-6) / 2.0,
              1e-6);
  // Slices are clamped to the shortest stream; no statements gives 0.
  EXPECT_NEAR(SlicedThroughput({Steady(3, 100.0)}, 10), 10000.0, 1e-6);
  EXPECT_EQ(SlicedThroughput({}, 10), 0.0);
  EXPECT_EQ(SlicedThroughput({Steady(0, 1.0)}, 10), 0.0);
}

TEST(Ratio, ZeroBaseIsNotApplicableAndKeepsTheBase) {
  Ratio r = MakeRatio(5, 0);
  EXPECT_TRUE(r.na);
  EXPECT_EQ(r.value, 0.0);
  EXPECT_EQ(r.base, 0.0);
  Ratio ok = MakeRatio(1, 4);
  EXPECT_FALSE(ok.na);
  EXPECT_EQ(ok.value, 0.25);
  EXPECT_EQ(ok.base, 4.0);
}

TEST(MetricNames, LettersDigitsUnderscoreDotDash) {
  EXPECT_TRUE(ValidMetricName("read_p50_us"));
  EXPECT_TRUE(ValidMetricName("exec.stmt_p50_us.join_agg"));
  EXPECT_TRUE(ValidMetricName("storage.lsm.flushes_per_1k-rows"));
  EXPECT_TRUE(ValidMetricName("1ms"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/no"));
  EXPECT_FALSE(ValidMetricName("unit%"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

Span Make(uint64_t id, uint64_t parent, const char* name, double start, double dur) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_us = start;
  s.dur_us = dur;
  return s;
}

TEST(SpanTree, SelfTimeSubtractsCoveredChildTimeOnce) {
  // request [0,100): submit [0,10), queue [10,30), exec [40,100) with
  // children parse [40,50) and plan [45,60) overlapping, plus a child that
  // sticks out past its parent's end.
  std::vector<Span> spans = {
      Make(1, 0, "request", 0, 100), Make(2, 1, "server.submit", 0, 10),
      Make(3, 1, "server.queue", 10, 20), Make(4, 1, "exec.stmt", 40, 60),
      Make(5, 4, "sql.parse", 40, 10),   Make(6, 4, "exec.plan", 45, 15),
      Make(7, 4, "late", 95, 20)};
  std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0);  // [30,40) uncovered
  EXPECT_DOUBLE_EQ(self[3], 60.0 - 20.0 - 5.0);  // [40,60) and [95,100)
  EXPECT_DOUBLE_EQ(self[1], 10.0);
  Ratio residue = Residue(spans, "request");
  EXPECT_FALSE(residue.na);
  EXPECT_DOUBLE_EQ(residue.value, 0.1);
  EXPECT_DOUBLE_EQ(residue.base, 100.0);
}

TEST(SpanTree, ResidueWithoutRootsIsNotApplicable) {
  std::vector<Span> spans = {Make(1, 0, "setup", 0, 5)};
  Ratio r = Residue(spans, "request");
  EXPECT_TRUE(r.na);
  EXPECT_EQ(r.base, 0.0);
}

TEST(Json, NumbersKeepEveryDigit) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(1234.5678901234), "1234.5678901234");
  EXPECT_EQ(JsonString("a\"b"), "\"a\\\"b\"");
}

}  // namespace
}  // namespace e2e
