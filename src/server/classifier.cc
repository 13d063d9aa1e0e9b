#include "server/classifier.h"

#include <algorithm>
#include <cmath>

#include "monitor/feedback.h"
#include "sql/parser.h"

namespace aidb::server {

namespace {

bool HasAggregate(const sql::Expr* e) {
  if (e == nullptr) return false;
  if (e->kind == sql::Expr::Kind::kAggregate) return true;
  if (HasAggregate(e->lhs.get()) || HasAggregate(e->rhs.get())) return true;
  for (const auto& a : e->args) {
    if (HasAggregate(a.get())) return true;
  }
  return false;
}

}  // namespace

void QueryClassifier::Record(uint64_t shape, double cost) {
  if (cost < 0.0) cost = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = ewma_.emplace(shape, cost);
  if (!inserted) {
    it->second = opts_.ewma_alpha * cost + (1.0 - opts_.ewma_alpha) * it->second;
  }
  total_log_cost_ += std::log1p(cost);
  ++samples_;
}

double QueryClassifier::HeavyThresholdLocked() const {
  if (samples_ == 0) return opts_.min_heavy_cost;
  // Geometric mean: workload cost distributions are heavy-tailed, and an
  // arithmetic mean over them is dominated by the heavy queries themselves —
  // which would reclassify them as "normal". The log-domain mean keeps the
  // threshold anchored to the typical statement.
  double geo = std::expm1(total_log_cost_ / static_cast<double>(samples_));
  // Under cheap-lane SLO pressure the ratio halves: statements near the
  // boundary stop competing with the latency-sensitive lane until its p95
  // recovers.
  const double ratio = cheap_pressure_.load(std::memory_order_relaxed)
                           ? opts_.heavy_ratio * 0.5
                           : opts_.heavy_ratio;
  return std::max(opts_.min_heavy_cost, ratio * geo);
}

double QueryClassifier::HeavyThreshold() const {
  std::lock_guard<std::mutex> lock(mu_);
  return HeavyThresholdLocked();
}

size_t QueryClassifier::known_digests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_.size();
}

QueryClass QueryClassifier::Classify(uint64_t shape,
                                     const sql::Statement* stmt) const {
  // Writes and DDL are "heavy" by construction: writes hold row locks and
  // append to the WAL, DDL takes the exclusive engine lock — keeping both off
  // the cheap lane protects point lookups from queueing behind them.
  if (stmt == nullptr || stmt->kind() != sql::StatementKind::kSelect) {
    return QueryClass::kHeavy;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ewma_.find(shape);
  if (it != ewma_.end()) {
    return it->second > HeavyThresholdLocked() ? QueryClass::kHeavy
                                               : QueryClass::kCheap;
  }
  // Cold start: a prior read off the AST.
  const auto& sel = static_cast<const sql::SelectStatement&>(*stmt);
  const bool join = sel.from.size() > 1 || !sel.joins.empty();
  const bool grouped = !sel.group_by.empty();
  bool aggregate = HasAggregate(sel.having.get());
  for (const auto& item : sel.items) aggregate |= HasAggregate(item.expr.get());
  if (predictor_warm_ && warm_latency_scale_ > 0.0) {
    // Sketch the unseen query's demand vector from its AST and ask the
    // warm-started perf predictor for a solo-latency estimate, on the same
    // scale as the log it was fitted to.
    monitor::WorkloadMix probe;
    monitor::ConcurrentQuery q;
    q.demand = {join ? 0.6 : 0.2,
                !sel.order_by.empty() || grouped ? 0.5 : 0.2,
                aggregate ? 0.5 : 0.1, join ? 0.4 : 0.05};
    q.solo_latency = warm_latency_scale_;
    probe.queries.push_back(std::move(q));
    double est = predictor_.Predict(probe);
    if (est > opts_.heavy_ratio * warm_latency_scale_) return QueryClass::kHeavy;
  }
  if (join || grouped || aggregate) return QueryClass::kHeavy;
  return QueryClass::kCheap;
}

size_t QueryClassifier::WarmFromQueryLog(
    const std::vector<monitor::QueryLogEntry>& entries) {
  // Everything under one lock: Classify() reads predictor_ concurrently, and
  // MLP fitting must not race with prediction.
  std::lock_guard<std::mutex> lock(mu_);
  size_t absorbed = 0;
  double latency_sum = 0.0;
  size_t latency_n = 0;
  for (const auto& e : entries) {
    // Only SELECTs train the threshold: DDL/DML log zero operator work and
    // would drag the typical-cost estimate toward 0, flagging every real
    // scan as heavy. (Writes are routed to the heavy lane by kind anyway.)
    if (!e.ok || e.kind != "select") continue;
    Result<sql::ParsedStatement> parsed = sql::Parser::ParseKeyed(e.sql);
    if (!parsed.ok()) continue;
    double cost = static_cast<double>(e.work);
    auto [it, inserted] = ewma_.emplace(parsed.ValueOrDie().shape, cost);
    if (!inserted) {
      it->second =
          opts_.ewma_alpha * cost + (1.0 - opts_.ewma_alpha) * it->second;
    }
    total_log_cost_ += std::log1p(cost);
    ++samples_;
    ++absorbed;
    double solo = e.latency_us > 0.0 ? e.latency_us
                                     : static_cast<double>(e.work) + 1.0;
    latency_sum += solo;
    ++latency_n;
  }
  monitor::FitFromQueryLog(&predictor_, entries, /*mix_size=*/3);
  if (latency_n > 0) {
    warm_latency_scale_ = latency_sum / static_cast<double>(latency_n);
    predictor_warm_ = true;
  }
  return absorbed;
}

}  // namespace aidb::server
