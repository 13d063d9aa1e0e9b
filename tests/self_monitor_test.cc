#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "advisor/knob/durability_env.h"
#include "advisor/knob/knob_env.h"
#include "exec/database.h"
#include "monitor/history.h"
#include "monitor/incident.h"
#include "monitor/span.h"
#include "server/service.h"
#include "storage/fault_injector.h"
#include "storage/recovery.h"

namespace aidb {
namespace {

using monitor::KpiSample;

// ---------------------------------------------------------------------------
// SelfMonitorTest: KPI history ring, sampler, system views, knobs.
// ---------------------------------------------------------------------------

TEST(SelfMonitorTest, TimeSeriesStoreKeepsNewestWithinCapacity) {
  monitor::TimeSeriesStore store(8);
  for (uint64_t i = 1; i <= 20; ++i) {
    KpiSample s;
    s.seq = i;
    s.ts_us = static_cast<double>(i) * 10.0;
    for (size_t k = 0; k < monitor::kNumKpis; ++k) {
      s.kpis[k] = static_cast<double>(i * 100 + k);
    }
    store.Append(s);
  }
  EXPECT_EQ(store.total_appended(), 20u);
  EXPECT_EQ(store.size(), 8u);
  auto snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Oldest-to-newest, the last 8 appended, payload intact.
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, 13 + i);
    EXPECT_DOUBLE_EQ(snap[i].kpis[3], static_cast<double>((13 + i) * 100 + 3));
  }
}

TEST(SelfMonitorTest, SampleKpisNowDerivesDeltasFromRealCounters) {
  Database db;
  db.SetDeterministicTiming(true);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT, v INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)").ok());
  db.SampleKpisNow();  // baseline absorbs setup counters

  ASSERT_TRUE(db.Execute("SELECT * FROM t").ok());
  KpiSample s = db.SampleKpisNow();
  // The SELECT produced 3 rows: both the work (cpu) and scan_rows deltas see
  // exactly that statement; mem is the level of live slots.
  EXPECT_GE(s.kpis[monitor::kKpiCpu], 3.0);
  EXPECT_DOUBLE_EQ(s.kpis[monitor::kKpiScanRows], 3.0);
  EXPECT_GE(s.kpis[monitor::kKpiMem], 3.0);
  EXPECT_DOUBLE_EQ(s.kpis[monitor::kKpiLockWait], 0.0);
  EXPECT_DOUBLE_EQ(s.ts_us, 0.0);  // deterministic timing zeroes the clock

  // Quiet interval: every delta KPI returns to zero, the level stays.
  KpiSample quiet = db.SampleKpisNow();
  EXPECT_DOUBLE_EQ(quiet.kpis[monitor::kKpiCpu], 0.0);
  EXPECT_DOUBLE_EQ(quiet.kpis[monitor::kKpiScanRows], 0.0);
  EXPECT_GE(quiet.kpis[monitor::kKpiMem], 3.0);
}

TEST(SelfMonitorTest, MetricsHistoryViewComposesWithPlainSql) {
  Database db;
  db.SetDeterministicTiming(true);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.Execute("SELECT * FROM t").ok());
    db.SampleKpisNow();
  }

  auto r = db.Execute(
      "SELECT seq, scan_rows FROM aidb_metrics_history "
      "WHERE scan_rows > 0 ORDER BY seq LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& rows = r.ValueOrDie().rows;
  ASSERT_EQ(rows.size(), 3u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1][0].AsInt(), rows[i][0].AsInt());  // ORDER BY seq
  }
  for (const auto& row : rows) EXPECT_GT(row[1].AsDouble(), 0.0);  // WHERE
}

TEST(SelfMonitorTest, BackgroundSamplerFillsHistory) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  db.StartKpiSampler(1.0);
  EXPECT_TRUE(db.kpi_sampler_running());
  for (int i = 0; i < 200 && db.kpi_history().total_appended() < 3; ++i) {
    ASSERT_TRUE(db.Execute("SELECT * FROM t").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  db.StopKpiSampler();
  EXPECT_FALSE(db.kpi_sampler_running());
  EXPECT_GE(db.kpi_history().total_appended(), 3u);
  auto r = db.Execute("SELECT seq FROM aidb_metrics_history");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.ValueOrDie().rows.size(), 3u);
}

TEST(SelfMonitorTest, QueryLogCapacityKnobCountsDroppedEntries) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  db.SetQueryLogCapacity(4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Execute("SELECT * FROM t").ok());
  }
  EXPECT_LE(db.query_log().Entries().size(), 4u);
  // CREATE + 10 SELECTs = 11 appended, 4 retained.
  EXPECT_EQ(db.metrics().GetCounter("query_log.dropped")->Value(), 7u);
  EXPECT_EQ(db.query_log().total_dropped(), 7u);

  // Shrinking the ring drops the overflow too (and counts it).
  db.SetQueryLogCapacity(2);
  EXPECT_LE(db.query_log().Entries().size(), 2u);
  EXPECT_EQ(db.metrics().GetCounter("query_log.dropped")->Value(), 9u);
}

TEST(SelfMonitorTest, KnobMappingsCoverDocumentedRanges) {
  EXPECT_EQ(advisor::QueryLogCapacityFromKnob(0.0), 64u);
  EXPECT_EQ(advisor::QueryLogCapacityFromKnob(1.0), 8192u);
  EXPECT_GT(advisor::QueryLogCapacityFromKnob(0.5),
            advisor::QueryLogCapacityFromKnob(0.25));
  EXPECT_DOUBLE_EQ(advisor::KpiSampleIntervalMsFromKnob(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(advisor::KpiSampleIntervalMsFromKnob(1.0), 10.0);

  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  advisor::KnobConfig config = advisor::KnobEnvironment::DefaultConfig();
  config[advisor::kBufferPool] = 0.0;
  advisor::ApplyMonitorKnobs(&db, config);
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(db.Execute("SELECT * FROM t").ok());
  }
  EXPECT_EQ(db.query_log().Entries().size(), 64u);  // knob-mapped capacity
}

TEST(SelfMonitorTest, MonitoringViewsInvisibleToStateDigest) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  std::string before = storage::StateDigest(db.catalog(), db.models());

  db.EnableSpans(true);
  ASSERT_TRUE(db.Execute("SELECT * FROM t").ok());
  db.SampleKpisNow();
  ASSERT_TRUE(db.Execute("SELECT * FROM aidb_metrics_history").ok());
  ASSERT_TRUE(db.Execute("SELECT * FROM aidb_spans").ok());
  ASSERT_TRUE(db.Execute("SELECT * FROM aidb_incidents").ok());

  // Monitoring state (spans, history, incidents, refreshed views) never
  // reaches the durable-state digest.
  EXPECT_EQ(storage::StateDigest(db.catalog(), db.models()), before);
}

TEST(SelfMonitorTest, MonitoringViewsRejectWrites) {
  Database db;
  EXPECT_FALSE(db.Execute("INSERT INTO aidb_spans VALUES (1)").ok());
  EXPECT_FALSE(db.Execute("DELETE FROM aidb_incidents").ok());
  EXPECT_FALSE(db.Execute("DROP TABLE aidb_metrics_history").ok());
}

// ---------------------------------------------------------------------------
// TraceSpanTest: end-to-end span trees, determinism, ring bounds.
// ---------------------------------------------------------------------------

TEST(TraceSpanTest, BareExecuteMintsCoherentTree) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2)").ok());
  db.EnableSpans(true);
  ASSERT_TRUE(db.Execute("SELECT * FROM t").ok());

  auto spans = db.spans().Snapshot();
  ASSERT_FALSE(spans.empty());
  const uint64_t trace = spans.back().trace_id;
  ASSERT_NE(trace, 0u);
  std::set<uint64_t> ids;
  std::set<std::string> names;
  for (const auto& s : spans) {
    if (s.trace_id != trace) continue;
    ids.insert(s.span_id);
    names.insert(s.name);
  }
  for (const auto& s : spans) {
    if (s.trace_id != trace || s.parent_id == 0) continue;
    EXPECT_TRUE(ids.count(s.parent_id))
        << s.name << " parent " << s.parent_id << " missing from trace";
  }
  EXPECT_TRUE(names.count("execute"));
  EXPECT_TRUE(names.count("parse"));
}

TEST(TraceSpanTest, ExecutorOperatorsRecordSpansUnderTracing) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  db.EnableSpans(true);
  db.EnableTracing(true);
  ASSERT_TRUE(db.Execute("SELECT k FROM t WHERE k > 1").ok());
  bool saw_op = false;
  for (const auto& s : db.spans().Snapshot()) {
    if (s.name.rfind("op:", 0) == 0) {
      saw_op = true;
      EXPECT_NE(s.trace_id, 0u);
    }
  }
  EXPECT_TRUE(saw_op);
}

TEST(TraceSpanTest, DeterministicTimingZeroesClocksAndReplaysByteEqual) {
  auto run = [](std::string* json) {
    Database db;
    db.SetDeterministicTiming(true);
    db.EnableSpans(true);
    db.EnableTracing(true);
    ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT, v STRING)").ok());
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
    ASSERT_TRUE(db.Execute("SELECT * FROM t WHERE k = 1").ok());
    ASSERT_TRUE(db.Execute("UPDATE t SET v = 'c' WHERE k = 2").ok());
    for (const auto& s : db.spans().Snapshot()) {
      EXPECT_DOUBLE_EQ(s.start_us, 0.0) << s.name;
      EXPECT_DOUBLE_EQ(s.dur_us, 0.0) << s.name;
    }
    *json = db.SpansJson();
  };
  std::string first, second;
  run(&first);
  run(&second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-equal across runs
}

TEST(TraceSpanTest, SpansDoNotPerturbResultsOrStateDigest) {
  const std::vector<std::string> workload = {
      "CREATE TABLE t (k INT, v DOUBLE)",
      "INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)",
      "SELECT * FROM t WHERE k > 1 ORDER BY k",
      "UPDATE t SET v = 9.0 WHERE k = 1",
      "SELECT SUM(v) FROM t",
  };
  auto run = [&](bool spans_on, std::vector<std::string>* rendered) {
    Database db;
    db.SetDeterministicTiming(true);
    db.EnableSpans(spans_on);
    for (const auto& sql : workload) {
      auto r = db.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql;
      rendered->push_back(r.ValueOrDie().ToString());
    }
    rendered->push_back(storage::StateDigest(db.catalog(), db.models()));
  };
  std::vector<std::string> with, without;
  run(true, &with);
  run(false, &without);
  EXPECT_EQ(with, without);
}

TEST(TraceSpanTest, RingBoundedAndDropsCounted) {
  Database db;
  db.spans().set_capacity(8);
  db.EnableSpans(true);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Execute("SELECT * FROM t").ok());
  }
  EXPECT_LE(db.spans().Snapshot().size(), 8u);
  EXPECT_GT(db.spans().total_dropped(), 0u);
  EXPECT_EQ(db.metrics().GetCounter("spans.dropped")->Value(),
            db.spans().total_dropped());
}

TEST(TraceSpanTest, ServiceRequestsFormOneTreePerStatement) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE pts (id INT, val DOUBLE)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO pts VALUES (1, 0.5), (2, 1.5), (3, 2.5)").ok());
  db.EnableSpans(true);
  {
    server::Service service(&db, {.workers = 3});
    auto s1 = service.OpenSession();
    auto s2 = service.OpenSession();
    std::vector<std::future<Result<QueryResult>>> futs;
    for (int i = 0; i < 6; ++i) {
      auto s = (i % 2 == 0) ? s1 : s2;
      futs.push_back(
          service.Submit(s->id(), "SELECT val FROM pts WHERE id = 2"));
      futs.push_back(
          service.Submit(s->id(), "INSERT INTO pts VALUES (9, 9.0)"));
    }
    for (auto& f : futs) EXPECT_TRUE(f.get().ok());
    service.Drain();
  }

  // Every trace with a request root is a coherent tree: exactly one root,
  // every parent resolves inside the same trace, one session throughout.
  std::map<uint64_t, std::vector<monitor::Span>> traces;
  for (const auto& s : db.spans().Snapshot()) {
    if (s.trace_id != 0) traces[s.trace_id].push_back(s);
  }
  size_t request_trees = 0;
  for (const auto& [trace, spans] : traces) {
    size_t roots = 0;
    std::set<uint64_t> ids;
    std::set<uint64_t> sessions;
    bool has_request = false;
    uint64_t root = 0;
    for (const auto& s : spans) {
      ids.insert(s.span_id);
      if (s.name == "request") {
        has_request = true;
        root = s.span_id;
        EXPECT_EQ(s.parent_id, 0u);
      }
      if (s.parent_id == 0) ++roots;
      if (s.session_id != 0) sessions.insert(s.session_id);
    }
    if (!has_request) continue;
    ++request_trees;
    EXPECT_EQ(roots, 1u) << "trace " << trace;
    EXPECT_LE(sessions.size(), 1u) << "trace " << trace;
    bool has_parse = false, has_queue_wait = false, has_execute = false;
    for (const auto& s : spans) {
      // Admission parses the statement under the request root.
      if (s.name == "parse") {
        has_parse = true;
        EXPECT_EQ(s.parent_id, root) << "trace " << trace;
      }
      if (s.name == "queue_wait") has_queue_wait = true;
      if (s.name == "execute") has_execute = true;
      if (s.parent_id != 0) {
        EXPECT_TRUE(ids.count(s.parent_id))
            << "trace " << trace << " span " << s.name;
      }
    }
    EXPECT_TRUE(has_parse) << "trace " << trace;
    EXPECT_TRUE(has_queue_wait) << "trace " << trace;
    EXPECT_TRUE(has_execute) << "trace " << trace;
  }
  EXPECT_GE(request_trees, 12u);
}

TEST(TraceSpanTest, WalFlushAttributedToTriggeringRequest) {
  const std::string dir =
      "self_monitor_wal_span_db_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  DurabilityOptions opts;
  opts.wal_flush_interval = 1;  // synchronous commit: every txn flushes
  opts.sync = false;
  auto db_or = Database::Open(dir, opts);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).ValueOrDie();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (k INT)").ok());
  db->EnableSpans(true);
  {
    server::Service service(&*db, {.workers = 2});
    auto s = service.OpenSession();
    ASSERT_TRUE(service.Execute(s->id(), "INSERT INTO t VALUES (1)").ok());
    service.Drain();
  }
  uint64_t flush_trace = 0;
  for (const auto& s : db->spans().Snapshot()) {
    if (s.name == "wal_flush") flush_trace = s.trace_id;
  }
  ASSERT_NE(flush_trace, 0u);
  // The flush span lives inside the INSERT's request tree.
  bool found_request = false;
  for (const auto& s : db->spans().Snapshot()) {
    if (s.trace_id == flush_trace && s.name == "request") found_request = true;
  }
  EXPECT_TRUE(found_request);
  db.reset();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// SloTrackerTest: per-lane p95 tracking feeding the admission classifier.
// ---------------------------------------------------------------------------

TEST(SloTrackerTest, CheapLaneBreachRaisesClassifierPressure) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2)").ok());
  server::ServiceOptions opts;
  opts.workers = 2;
  // An impossible target: every statement breaches it.
  opts.cheap_p95_target_ms = 1e-6;
  server::Service service(&db, opts);
  auto s = service.OpenSession();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(service.Execute(s->id(), "SELECT * FROM t").ok());
  }
  EXPECT_TRUE(service.LaneBreaching(server::QueryClass::kCheap));
  EXPECT_GT(service.LaneP95Ms(server::QueryClass::kCheap), 0.0);
  EXPECT_TRUE(service.classifier().cheap_lane_pressure());
  EXPECT_EQ(db.metrics().GetGauge("slo.cheap.breach")->Value(), 1);
  EXPECT_GT(db.metrics().GetGauge("slo.cheap.p95_us")->Value(), 0);
}

TEST(SloTrackerTest, GenerousTargetStaysGreen) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  server::ServiceOptions opts;
  opts.workers = 2;
  opts.cheap_p95_target_ms = 60000.0;  // a minute: nothing breaches
  server::Service service(&db, opts);
  auto s = service.OpenSession();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(service.Execute(s->id(), "SELECT * FROM t").ok());
  }
  EXPECT_FALSE(service.LaneBreaching(server::QueryClass::kCheap));
  EXPECT_FALSE(service.classifier().cheap_lane_pressure());
  EXPECT_EQ(db.metrics().GetGauge("slo.cheap.breach")->Value(), 0);
}

TEST(SloTrackerTest, PressureHalvesHeavyThreshold) {
  server::QueryClassifier c;
  for (int i = 0; i < 32; ++i) c.Record(static_cast<uint64_t>(i), 1000.0);
  double relaxed = c.HeavyThreshold();
  c.SetCheapLanePressure(true);
  double pressured = c.HeavyThreshold();
  EXPECT_TRUE(c.cheap_lane_pressure());
  EXPECT_NEAR(pressured, relaxed / 2.0, relaxed * 0.01);
  c.SetCheapLanePressure(false);
  EXPECT_DOUBLE_EQ(c.HeavyThreshold(), relaxed);
}

// ---------------------------------------------------------------------------
// LiveDiagnosisTest: induced faults on the real engine, detected and
// diagnosed with labeled ground truth. Fully deterministic: stalls are
// accounted (not slept), timing observables are zeroed.
// ---------------------------------------------------------------------------

class LiveDiagnosisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::filesystem::remove_all(kDir);
    DurabilityOptions opts;
    opts.wal_flush_interval = 1;
    opts.sync = false;
    opts.fault = &fault_;
    auto db_or = Database::Open(kDir, opts);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    db_ = std::move(db_or).ValueOrDie();
    db_->SetDeterministicTiming(true);
    Run("CREATE TABLE base (k INT, v INT)");
    Run("INSERT INTO base VALUES (0,0),(1,1),(2,2),(3,3),(4,4),(5,5),(6,6),"
        "(7,7)");
    Run("CREATE TABLE hot (k INT, v INT)");
    Run("INSERT INTO hot VALUES (0, 0)");
    for (const char* name : {"wide", "wide2"}) {
      Run(std::string("CREATE TABLE ") + name + " (k INT, v INT)");
      std::string ins = std::string("INSERT INTO ") + name + " VALUES ";
      for (int i = 0; i < 64; ++i) {
        if (i > 0) ins += ", ";
        ins += "(" + std::to_string(i) + ", " + std::to_string(i % 4) + ")";
      }
      Run(ins);
    }
  }

  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(kDir);
  }

  void Run(const std::string& sql) {
    auto r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  /// One steady workload tick + KPI sample: the flat baseline every fault
  /// deviates from.
  void SteadyTick() {
    Run("SELECT * FROM base");
    Run("INSERT INTO scratch VALUES (1)");
    db_->SampleKpisNow();
  }

  /// Overlays `extra` on the steady tick, then samples.
  void FaultTick(const std::function<void()>& extra) {
    Run("SELECT * FROM base");
    Run("INSERT INTO scratch VALUES (1)");
    extra();
    db_->SampleKpisNow();
  }

  /// Drives one fault phase: `incidents_per_phase` fault ticks, each
  /// followed by enough quiet ticks to clear the detector cooldown. Returns
  /// the incidents newly recorded during the phase.
  std::vector<monitor::LiveIncident> DrivePhase(
      const std::function<void()>& extra) {
    const size_t before = db_->incidents().Snapshot().size();
    for (int i = 0; i < kIncidentsPerPhase; ++i) {
      FaultTick(extra);
      for (int q = 0; q < 4; ++q) SteadyTick();
    }
    auto all = db_->incidents().Snapshot();
    return std::vector<monitor::LiveIncident>(all.begin() + before, all.end());
  }

  static constexpr const char* kDir = "self_monitor_diag_db";
  static constexpr int kIncidentsPerPhase = 5;
  storage::FaultInjector fault_;
  std::unique_ptr<Database> db_;
};

TEST_F(LiveDiagnosisTest, InducedFaultsDiagnoseWithHighAccuracy) {
  Run("CREATE TABLE scratch (k INT)");
  // Warm the detector baseline past min_baseline with identical ticks.
  for (int i = 0; i < 10; ++i) SteadyTick();
  ASSERT_EQ(db_->incidents().total_detected(), 0u);

  // --- Fault 1: WAL fsync stalls (accounted, deterministic) ---------------
  auto io_incidents = DrivePhase([&] {
    fault_.ArmStall(storage::FaultPoint::kWalFlush, 20000);
    Run("INSERT INTO scratch VALUES (2)");  // commit -> stalled flush
    fault_.DisarmStall();
  });
  ASSERT_GE(io_incidents.size(), 3u);
  for (const auto& inc : io_incidents) {
    EXPECT_EQ(std::string(monitor::KpiName(inc.trigger_kpi)), "io_wait");
  }

  // --- Fault 2: hot-row lock contention (conflicting transactions) --------
  auto lock_incidents = DrivePhase([&] {
    for (int c = 0; c < 24; ++c) {
      std::atomic<uint64_t> slot{0};
      ExecSettings holder = db_->SnapshotSettings();
      holder.txn_slot = &slot;
      ASSERT_TRUE(db_->Execute("BEGIN", holder).ok());
      ASSERT_TRUE(
          db_->Execute("UPDATE hot SET v = v + 1 WHERE k = 0", holder).ok());
      // First-committer-wins: the autocommit writer hits the held row.
      auto conflicted = db_->Execute("UPDATE hot SET v = 9 WHERE k = 0");
      EXPECT_FALSE(conflicted.ok());
      ASSERT_TRUE(db_->Execute("ROLLBACK", holder).ok());
    }
  });
  ASSERT_GE(lock_incidents.size(), 3u);
  for (const auto& inc : lock_incidents) {
    EXPECT_GE(inc.raw_delta[monitor::kKpiLockWait], 24.0);
  }

  // --- Fault 3: CPU/scan saturation (a genuinely heavy query) -------------
  auto cpu_incidents = DrivePhase([&] {
    Run("SELECT wide.k FROM wide JOIN wide2 ON wide.v = wide2.v");
  });
  ASSERT_GE(cpu_incidents.size(), 3u);

  // Label the live incidents with their induced ground truth, fit the
  // iSQUAD-style cluster diagnoser on them, and score it on the same stream.
  std::vector<monitor::Incident> labeled;
  std::vector<std::pair<std::vector<double>, monitor::RootCause>> eval;
  auto absorb = [&](const std::vector<monitor::LiveIncident>& incs,
                    monitor::RootCause truth) {
    for (const auto& i : incs) {
      labeled.push_back({i.kpis, truth});
      eval.emplace_back(i.kpis, truth);
    }
  };
  absorb(io_incidents, monitor::RootCause::kIoStall);
  absorb(lock_incidents, monitor::RootCause::kLockContention);
  absorb(cpu_incidents, monitor::RootCause::kCpuSaturation);
  ASSERT_GE(eval.size(), 9u);

  db_->incidents().FitDiagnoser(labeled);
  ASSERT_TRUE(db_->incidents().fitted());
  size_t correct = 0;
  for (const auto& [kpis, truth] : eval) {
    if (db_->incidents().Diagnose(kpis) == truth) ++correct;
  }
  double accuracy = static_cast<double>(correct) / eval.size();
  EXPECT_GE(accuracy, 0.8) << correct << "/" << eval.size();
  std::fprintf(stderr, "[ live ] diagnosis accuracy %zu/%zu = %.3f\n", correct,
               eval.size(), accuracy);

  // The incident metric and view surfaced every detection.
  EXPECT_EQ(db_->metrics().GetCounter("monitor.incidents")->Value(),
            db_->incidents().total_detected());
  auto r = db_->Execute(
      "SELECT cause, trigger_kpi FROM aidb_incidents "
      "WHERE trigger_z > 0 ORDER BY seq");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows.size(), db_->incidents().Snapshot().size());
}

TEST_F(LiveDiagnosisTest, SteadyWorkloadNeverAlarms) {
  Run("CREATE TABLE scratch (k INT)");
  for (int i = 0; i < 40; ++i) SteadyTick();
  EXPECT_EQ(db_->incidents().total_detected(), 0u);
  auto r = db_->Execute("SELECT * FROM aidb_incidents");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().rows.empty());
}

// ---------------------------------------------------------------------------
// ParallelMonitorTest: the self-monitoring data paths under real
// concurrency (runs under TSan in CI with the other Parallel suites).
// ---------------------------------------------------------------------------

TEST(ParallelMonitorTest, HistoryRingWriterVersusReaders) {
  monitor::TimeSeriesStore store(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t i = 1; i <= 20000; ++i) {
      KpiSample s;
      s.seq = i;
      // Payload derived from seq so a torn read is detectable.
      for (size_t k = 0; k < monitor::kNumKpis; ++k) {
        s.kpis[k] = static_cast<double>(i * 10 + k);
      }
      store.Append(s);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<uint64_t> torn{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        for (const auto& s : store.Snapshot()) {
          for (size_t k = 0; k < monitor::kNumKpis; ++k) {
            if (s.kpis[k] != static_cast<double>(s.seq * 10 + k)) {
              torn.fetch_add(1);
            }
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);  // seqlock never exposes a half-written slot
  EXPECT_EQ(store.total_appended(), 20000u);
}

TEST(ParallelMonitorTest, SamplerRacesQueryLoadAndViewReaders) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  db.EnableSpans(true);
  db.StartKpiSampler(1.0);
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&db] {
      for (int i = 0; i < 60; ++i) {
        auto r = db.Execute("SELECT * FROM t WHERE k > 1");
        EXPECT_TRUE(r.ok());
      }
    });
  }
  threads.emplace_back([&db] {
    for (int i = 0; i < 40; ++i) {
      (void)db.kpi_history().Snapshot();
      (void)db.spans().Snapshot();
      (void)db.incidents().Snapshot();
    }
  });
  for (auto& t : threads) t.join();
  db.StopKpiSampler();
  EXPECT_GT(db.spans().total_recorded(), 0u);
}

TEST(ParallelMonitorTest, ServiceSpansAndSloUnderConcurrentSessions) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2)").ok());
  db.EnableSpans(true);
  db.StartKpiSampler(1.0);
  {
    server::ServiceOptions opts;
    opts.workers = 4;
    opts.cheap_p95_target_ms = 1e-6;  // force live SLO recomputation
    server::Service service(&db, opts);
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&service] {
        auto s = service.OpenSession();
        for (int i = 0; i < 30; ++i) {
          auto r = service.Execute(s->id(), "SELECT * FROM t");
          EXPECT_TRUE(r.ok());
        }
      });
    }
    for (auto& t : clients) t.join();
    service.Drain();
    EXPECT_TRUE(service.LaneBreaching(server::QueryClass::kCheap));
  }
  db.StopKpiSampler();
  // Every recorded request span still resolves its parents.
  std::map<uint64_t, std::set<uint64_t>> ids;
  auto spans = db.spans().Snapshot();
  for (const auto& s : spans) ids[s.trace_id].insert(s.span_id);
  for (const auto& s : spans) {
    if (s.parent_id != 0) {
      EXPECT_TRUE(ids[s.trace_id].count(s.parent_id)) << s.name;
    }
  }
}

TEST(ParallelMonitorTest, IncidentPipelineObserveRacesSnapshots) {
  monitor::IncidentPipeline::Options opts;
  opts.detector.min_baseline = 4;
  opts.detector.window = 8;
  monitor::IncidentPipeline pipeline(opts);
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    uint64_t seq = 0;
    for (int i = 0; i < 4000; ++i) {
      KpiSample s;
      s.seq = ++seq;
      // Spike every 16th sample so detection and ring writes really happen.
      double v = (i % 16 == 15) ? 500.0 : 1.0;
      for (size_t k = 0; k < monitor::kNumKpis; ++k) s.kpis[k] = v;
      pipeline.Observe(s);
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      for (const auto& inc : pipeline.Snapshot()) {
        EXPECT_EQ(inc.kpis.size(), monitor::kNumKpis);
      }
    }
  });
  observer.join();
  reader.join();
  EXPECT_GT(pipeline.total_detected(), 0u);
}

}  // namespace
}  // namespace aidb
