#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/database.h"
#include "monitor/feedback.h"
#include "server/service.h"

namespace aidb {
namespace {

bool IsOpSpan(const monitor::Span& s) { return s.name.rfind("op:", 0) == 0; }

/// The `op:` spans of the most recent statement that recorded any, in
/// record order (root first).
std::vector<monitor::Span> LastOpSpans(const Database& db) {
  std::vector<monitor::Span> all = db.spans().Snapshot();
  auto last = std::find_if(all.rbegin(), all.rend(), IsOpSpan);
  std::vector<monitor::Span> out;
  if (last == all.rend()) return out;
  const uint64_t trace = last->trace_id;
  for (const auto& s : all) {
    if (IsOpSpan(s) && s.trace_id == trace) out.push_back(s);
  }
  return out;
}

/// Sum of the `workers=a+b+...` field of an `op:` span's detail; -1 when the
/// operator has no per-worker split.
int64_t WorkerRowSum(const std::string& stats) {
  size_t pos = stats.find("workers=");
  if (pos == std::string::npos) return -1;
  int64_t sum = 0;
  for (pos += 8; pos < stats.size();) {
    size_t end = stats.find_first_of("+ ", pos);
    if (end == std::string::npos) end = stats.size();
    sum += std::stoll(stats.substr(pos, end - pos));
    if (end >= stats.size() || stats[end] != '+') break;
    pos = end + 1;
  }
  return sum;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Run("CREATE TABLE emp (id INT, dept INT, salary DOUBLE, name STRING)");
    Run("CREATE TABLE dept (id INT, budget DOUBLE)");
    Run("INSERT INTO emp VALUES (1, 10, 100.0, 'a'), (2, 10, 200.0, 'b'), "
        "(3, 20, 300.0, 'c'), (4, 20, 400.0, 'd'), (5, 30, 500.0, 'e')");
    Run("INSERT INTO dept VALUES (10, 1000.0), (20, 2000.0), (30, 3000.0)");
    Run("ANALYZE emp");
    Run("ANALYZE dept");
  }

  QueryResult Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : QueryResult{};
  }

  static std::string JoinedRows(const QueryResult& r) {
    std::string out;
    for (const auto& row : r.rows) out += row[0].AsString() + "\n";
    return out;
  }

  Database db_;
};

// --- EXPLAIN as result rows (message stays the back-compat accessor) ---------

TEST_F(ObservabilityTest, ExplainReturnsPlanRows) {
  auto r = Run("EXPLAIN SELECT name FROM emp WHERE salary > 250");
  ASSERT_EQ(r.columns, std::vector<std::string>{"plan"});
  ASSERT_FALSE(r.rows.empty());
  // The same text flows through both channels, one line per row.
  EXPECT_EQ(JoinedRows(r), r.message);
  EXPECT_NE(r.message.find("VecScan"), std::string::npos) << r.message;
}

TEST_F(ObservabilityTest, ExplainRendersJoinOrder) {
  auto r = Run(
      "EXPLAIN SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.id");
  EXPECT_NE(r.message.find("join order:"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("est_cost="), std::string::npos) << r.message;
}

TEST_F(ObservabilityTest, ExplainIsStableAcrossRuns) {
  const std::string q =
      "EXPLAIN SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.id "
      "WHERE dept.budget > 1500";
  auto first = Run(q);
  auto second = Run(q);
  EXPECT_EQ(first.message, second.message);
}

// --- EXPLAIN ANALYZE ---------------------------------------------------------

TEST_F(ObservabilityTest, ExplainAnalyzeReportsEstimatesAndActuals) {
  db_.EnableSpans(true);
  auto r = Run(
      "EXPLAIN ANALYZE SELECT dept, COUNT(*) FROM emp "
      "JOIN dept ON emp.dept = dept.id GROUP BY dept");
  ASSERT_EQ(r.columns, std::vector<std::string>{"plan"});
  EXPECT_EQ(JoinedRows(r), r.message);
  // Every operator line carries estimated and actual cardinality side by
  // side, plus call and timing counters.
  EXPECT_NE(r.message.find("est="), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("rows="), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("time="), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("join order:"), std::string::npos) << r.message;

  // The statement's op: spans carry the same per-operator fields, root
  // first, one per plan line.
  auto ops = LastOpSpans(db_);
  ASSERT_GT(ops.size(), 1u);
  ASSERT_GE(r.rows.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    std::string line = r.rows[i][0].AsString();
    line.erase(0, line.find_first_not_of(' '));
    EXPECT_EQ(line, ops[i].name.substr(3) + " (" + ops[i].detail + ")");
    EXPECT_EQ(ops[i].detail.rfind("est=", 0), 0u) << ops[i].detail;
  }
}

TEST_F(ObservabilityTest, ExplainAnalyzeOnEmptyTable) {
  db_.EnableSpans(true);
  Run("CREATE TABLE nothing (x INT)");
  auto r = Run("EXPLAIN ANALYZE SELECT x FROM nothing WHERE x > 0");
  EXPECT_NE(r.message.find("rows=0"), std::string::npos) << r.message;
  auto ops = LastOpSpans(db_);
  ASSERT_FALSE(ops.empty());
  EXPECT_EQ(ops.front().value, 0.0);  // root operator produced no rows
  EXPECT_NE(ops.front().detail.find("rows=0"), std::string::npos);
}

TEST_F(ObservabilityTest, TracingOffByDefault) {
  db_.EnableSpans(true);
  Run("SELECT * FROM emp");
  // Spans are on, but a plain SELECT without tracing times no operator.
  EXPECT_FALSE(db_.spans().Snapshot().empty());
  EXPECT_TRUE(LastOpSpans(db_).empty());
  db_.EnableTracing(true);
  Run("SELECT * FROM emp");
  EXPECT_FALSE(LastOpSpans(db_).empty());
}

TEST_F(ObservabilityTest, DeterministicTimingZeroesClocks) {
  db_.SetDeterministicTiming(true);
  db_.EnableTracing(true);
  db_.EnableSpans(true);
  auto r = Run("SELECT * FROM emp WHERE salary > 150");
  EXPECT_EQ(r.elapsed_ms, 0.0);
  auto ops = LastOpSpans(db_);
  ASSERT_FALSE(ops.empty());
  for (const auto& op : ops) {
    EXPECT_EQ(op.dur_us, 0.0) << op.name;
    EXPECT_NE(op.detail.find("time=0us"), std::string::npos) << op.detail;
  }
  EXPECT_EQ(ops.front().value, 4.0);  // work counters stay live
  auto analyzed = Run("EXPLAIN ANALYZE SELECT * FROM emp WHERE salary > 150");
  for (const auto& row : analyzed.rows) {
    const std::string line = row[0].AsString();
    if (line.rfind("join order:", 0) == 0) continue;
    EXPECT_NE(line.find("time=0us"), std::string::npos) << line;
  }
  EXPECT_NE(analyzed.message.find("rows=4 "), std::string::npos)
      << analyzed.message;
  auto entries = db_.query_log().Entries();
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries.back().latency_us, 0.0);
  EXPECT_EQ(entries.back().ts_us, 0.0);
}

// --- System views ------------------------------------------------------------

TEST_F(ObservabilityTest, QueryLogViewComposesWithSqlClauses) {
  Run("SELECT * FROM emp");
  Run("SELECT name FROM emp WHERE salary > 250");
  auto r = Run(
      "SELECT sql, latency_us FROM aidb_query_log "
      "ORDER BY latency_us DESC LIMIT 5");
  ASSERT_EQ(r.columns.size(), 2u);
  ASSERT_LE(r.rows.size(), 5u);
  ASSERT_FALSE(r.rows.empty());
  // Descending latency order.
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i - 1][1].AsDouble(), r.rows[i][1].AsDouble());
  }

  auto selects = Run("SELECT sql FROM aidb_query_log WHERE kind = 'select'");
  EXPECT_GE(selects.rows.size(), 2u);
}

TEST_F(ObservabilityTest, QueryLogRecordsFailures) {
  EXPECT_FALSE(db_.Execute("SELECT nope FROM emp").ok());
  auto r = Run("SELECT status FROM aidb_query_log WHERE status <> 'ok'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_NE(r.rows[0][0].AsString().find("nope"), std::string::npos);
}

TEST_F(ObservabilityTest, MetricsViewServesCounters) {
  Run("SELECT * FROM emp");
  auto r = Run(
      "SELECT name, value FROM aidb_metrics WHERE name = 'exec.queries'");
  ASSERT_EQ(r.rows.size(), 1u);
  // SetUp ran 6 statements, plus the SELECT above; the metrics view is
  // refreshed before this query executes, so it sees all of them.
  EXPECT_GE(r.rows[0][1].AsDouble(), 7.0);

  auto hist = Run(
      "SELECT name FROM aidb_metrics WHERE name = 'exec.query_latency_us.p95'");
  EXPECT_EQ(hist.rows.size(), 1u);
}

TEST_F(ObservabilityTest, OpSpansLinkRootFirst) {
  db_.EnableSpans(true);
  Run("EXPLAIN ANALYZE SELECT emp.name FROM emp "
      "JOIN dept ON emp.dept = dept.id");
  auto ops = LastOpSpans(db_);
  ASSERT_FALSE(ops.empty());
  auto r = Run("SELECT span_id, parent_id, name FROM aidb_spans WHERE trace_id = " +
               std::to_string(ops.front().trace_id));
  std::vector<int64_t> seen_ops;
  int64_t execute_span = -1;
  bool saw_join = false;
  for (const auto& row : r.rows) {
    const std::string name = row[2].AsString();
    if (name == "execute") execute_span = row[0].AsInt();
    if (name.rfind("op:", 0) != 0) continue;
    // Root first: every operator's parent was recorded before it, except
    // the root, whose parent is the statement's execute span.
    if (seen_ops.empty()) {
      EXPECT_EQ(row[1].AsInt(), static_cast<int64_t>(ops.front().parent_id));
    } else {
      EXPECT_NE(std::find(seen_ops.begin(), seen_ops.end(), row[1].AsInt()),
                seen_ops.end())
          << name;
    }
    seen_ops.push_back(row[0].AsInt());
    saw_join = saw_join || name.find("Join") != std::string::npos;
  }
  EXPECT_EQ(seen_ops.size(), ops.size());
  EXPECT_EQ(execute_span, static_cast<int64_t>(ops.front().parent_id));
  EXPECT_TRUE(saw_join);
}

TEST_F(ObservabilityTest, StatementPathTakesNoRegistryLookups) {
  // Every statement class the metering code distinguishes: reads (plain,
  // join, cached, prepared), DML, transaction control, EXPLAIN ANALYZE and a
  // statement that fails after parsing. Four commits per round: 32 rounds
  // pass the 64-commit vacuum cadence, so the watermark gauge runs too.
  const std::vector<std::string> stmts = {
      "SELECT name FROM emp WHERE salary > 150",
      "SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.id",
      "INSERT INTO emp VALUES (9, 10, 50.0, 'z')",
      "UPDATE emp SET salary = 60.0 WHERE id = 9",
      "DELETE FROM emp WHERE id = 9",
      "BEGIN",
      "UPDATE emp SET salary = 70.0 WHERE id = 1",
      "COMMIT",
      "EXPLAIN ANALYZE SELECT * FROM dept",
      "EXECUTE rd (2)",
      "SELECT nope FROM emp",
  };
  auto run_all = [&](const std::function<void(const std::string&)>& exec) {
    exec("PREPARE rd AS SELECT name FROM emp WHERE id = $1");
    for (int round = 0; round < 32; ++round) {
      for (const auto& sql : stmts) exec(sql);
    }
    exec("DEALLOCATE rd");
  };

  auto direct = [&](const std::string& sql) { (void)db_.Execute(sql); };
  run_all(direct);  // warm-up
  uint64_t before = db_.metrics().lookups();
  run_all(direct);
  EXPECT_EQ(db_.metrics().lookups(), before);

  server::ServiceOptions opts;
  opts.workers = 2;
  opts.cheap_p95_target_ms = 1000.0;  // track both lanes' SLO gauges
  opts.heavy_p95_target_ms = 1000.0;
  server::Service service(&db_, opts);
  auto session = service.OpenSession();
  auto served = [&](const std::string& sql) {
    (void)service.Execute(session->id(), sql);
  };
  run_all(served);  // warm-up
  before = db_.metrics().lookups();
  run_all(served);
  EXPECT_EQ(db_.metrics().lookups(), before);
}

TEST_F(ObservabilityTest, SystemViewsAreReadOnlyAndReserved) {
  EXPECT_FALSE(db_.Execute("CREATE TABLE aidb_metrics (x INT)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO aidb_query_log VALUES (1)").ok());
  EXPECT_FALSE(db_.Execute("DELETE FROM aidb_metrics").ok());
  EXPECT_FALSE(db_.Execute("UPDATE aidb_metrics SET value = 0").ok());
  EXPECT_FALSE(
      db_.Execute("CREATE INDEX bad ON aidb_query_log (latency_us)").ok());
  // Catalog enumeration of user tables is unchanged by the views.
  auto names = db_.catalog().TableNames();
  EXPECT_EQ(std::count_if(names.begin(), names.end(),
                          [](const std::string& n) {
                            return n.rfind("aidb_", 0) == 0;
                          }),
            0);
}

// --- Cardinality feedback loop -----------------------------------------------

TEST_F(ObservabilityTest, FeedbackRecordsEstimatedVsActual) {
  Run("SELECT name FROM emp WHERE salary > 250");
  EXPECT_GT(db_.catalog().feedback().size(), 0u);
  auto entries = db_.catalog().feedback().Entries();
  bool saw_emp = false;
  for (const auto& [table, e] : entries) {
    if (table == "emp") {
      saw_emp = true;
      EXPECT_GT(e.samples, 0u);
      EXPECT_GE(e.correction, 0.01);
      EXPECT_LE(e.correction, 100.0);
    }
  }
  EXPECT_TRUE(saw_emp);
}

TEST_F(ObservabilityTest, FeedbackSkipsLimitQueries) {
  Run("SELECT name FROM emp LIMIT 1");
  // LIMIT truncates actual counts; recording them would poison corrections.
  EXPECT_EQ(db_.catalog().feedback().size(), 0u);
}

TEST_F(ObservabilityTest, FeedbackCorrectionIsOptIn) {
  // Stale statistics: rows inserted after ANALYZE make the histogram
  // under-estimate `salary > 900` badly (it saw no such values).
  std::string sql = "INSERT INTO emp VALUES ";
  for (int i = 0; i < 20; ++i) {
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(100 + i) + ", 40, 1000.0, 'x')";
  }
  Run(sql);
  for (int i = 0; i < 5; ++i) Run("SELECT name FROM emp WHERE salary > 900");
  double corr = db_.catalog().feedback().Correction("emp");
  EXPECT_GT(corr, 1.0);  // actual (20 rows) > stale estimate -> boost
  // Planning consumes the correction only when the knob is on.
  db_.mutable_planner_options().use_card_feedback = true;
  auto r = Run("EXPLAIN SELECT name FROM emp WHERE salary > 900");
  EXPECT_FALSE(r.message.empty());
}

// --- Feedback adapters for the learned monitors ------------------------------

TEST_F(ObservabilityTest, PerfPredictorTrainsFromRealQueryLog) {
  for (int i = 0; i < 12; ++i) {
    Run("SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.id "
        "WHERE salary > " + std::to_string(i * 40));
  }
  auto entries = db_.query_log().Entries();
  auto mixes = monitor::MixesFromQueryLog(entries, 3);
  ASSERT_GE(mixes.size(), 10u);
  for (const auto& mix : mixes) {
    EXPECT_EQ(mix.queries.size(), 3u);
    EXPECT_GT(mix.true_latency, 0.0);
    for (const auto& q : mix.queries) {
      ASSERT_EQ(q.demand.size(), 4u);
      for (double d : q.demand) {
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
      }
      EXPECT_GT(q.solo_latency, 0.0);
    }
  }

  monitor::GraphPerfPredictor::Options opts;
  opts.mlp.epochs = 30;
  monitor::GraphPerfPredictor learned(opts);
  EXPECT_EQ(monitor::FitFromQueryLog(&learned, entries, 3), mixes.size());
  EXPECT_GT(learned.Predict(mixes.front()), 0.0);
}

TEST_F(ObservabilityTest, ArrivalTraceFromLogBucketsTimestamps) {
  for (int i = 0; i < 8; ++i) Run("SELECT * FROM emp");
  auto entries = db_.query_log().Entries();
  auto trace = monitor::ArrivalTraceFromLog(entries, 1000.0);
  ASSERT_FALSE(trace.empty());
  double total = 0.0;
  for (double c : trace) total += c;
  EXPECT_EQ(total, static_cast<double>(entries.size()));
  EXPECT_TRUE(monitor::ArrivalTraceFromLog({}, 1000.0).empty());
  EXPECT_TRUE(monitor::ArrivalTraceFromLog(entries, 0.0).empty());
}

// --- Subsystem instrumentation -----------------------------------------------

TEST_F(ObservabilityTest, ModelTrainingIsMetered) {
  Run("CREATE MODEL m TYPE linear PREDICT salary ON emp");
  auto r = Run("SELECT value FROM aidb_metrics WHERE name = 'models.trained'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsDouble(), 1.0);
}

TEST(ObservabilityWalTest, WalCountersFlowIntoMetrics) {
  auto dir = std::filesystem::temp_directory_path() /
             ("aidb_obs_wal_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto opened = Database::Open(dir.string());
    ASSERT_TRUE(opened.ok());
    auto& db = *opened.ValueOrDie();
    ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2)").ok());
    ASSERT_TRUE(db.FlushWal().ok());
    EXPECT_GE(db.metrics().GetCounter("wal.records")->Value(), 3u);
    EXPECT_GE(db.metrics().GetCounter("wal.flushes")->Value(), 1u);
    EXPECT_GT(db.metrics().GetCounter("wal.bytes")->Value(), 0u);
  }
  std::filesystem::remove_all(dir);
}

// --- Parallel execution tracing + concurrency (TSan leg: -R Parallel) --------

class ParallelTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE big (id INT, grp INT, v DOUBLE)").ok());
    for (int batch = 0; batch < 8; ++batch) {
      std::string sql = "INSERT INTO big VALUES ";
      for (int i = 0; i < 32; ++i) {
        int id = batch * 32 + i;
        if (i > 0) sql += ", ";
        sql += "(" + std::to_string(id) + ", " + std::to_string(id % 7) +
               ", " + std::to_string(id) + ".5)";
      }
      ASSERT_TRUE(db_.Execute(sql).ok());
    }
    ASSERT_TRUE(db_.Execute("ANALYZE big").ok());
    db_.SetDop(8);
    db_.mutable_planner_options().parallel_threshold_rows = 1;
  }

  Database db_;
};

TEST_F(ParallelTelemetryTest, WorkerRowCountsSumToSerialTotal) {
  db_.EnableTracing(true);
  db_.EnableSpans(true);
  auto r = db_.Execute("SELECT * FROM big WHERE v > 10.0");
  ASSERT_TRUE(r.ok());
  size_t parallel_rows = r.ValueOrDie().rows.size();

  // Find the gathering operator's span and check its per-worker counts add
  // up to its rows and to the result.
  auto ops = LastOpSpans(db_);
  auto gather = std::find_if(ops.begin(), ops.end(), [](const monitor::Span& s) {
    return WorkerRowSum(s.detail) >= 0;
  });
  ASSERT_NE(gather, ops.end()) << "no parallel operator in dop=8 plan";
  const int64_t sum = WorkerRowSum(gather->detail);
  EXPECT_EQ(static_cast<double>(sum), gather->value);
  EXPECT_EQ(static_cast<size_t>(sum), parallel_rows);

  // Serial execution returns the same count (trace included).
  db_.SetDop(1);
  auto serial = db_.Execute("SELECT * FROM big WHERE v > 10.0");
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.ValueOrDie().rows.size(), parallel_rows);
}

TEST_F(ParallelTelemetryTest, ExplainAnalyzeParallelAggregate) {
  auto r = db_.Execute(
      "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM big GROUP BY grp");
  ASSERT_TRUE(r.ok());
  const std::string& text = r.ValueOrDie().message;
  EXPECT_NE(text.find("dop=8"), std::string::npos) << text;
  EXPECT_NE(text.find("workers="), std::string::npos) << text;
}

TEST_F(ParallelTelemetryTest, ConcurrentTracedSelectsAndExplainAnalyze) {
  // Each client owns one table. Tracing and spans are on, so every SELECT
  // times its operators; a statement that rendered or recorded another
  // statement's plan names another client's table.
  const std::vector<std::string> tables = {"alpha", "bravo", "charlie", "delta"};
  for (const auto& t : tables) {
    ASSERT_TRUE(db_.Execute("CREATE TABLE " + t + " (id INT, grp INT)").ok());
    std::string sql = "INSERT INTO " + t + " VALUES ";
    for (int i = 0; i < 64; ++i) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(i) + ", " + std::to_string(i % 8) + ")";
    }
    ASSERT_TRUE(db_.Execute(sql).ok());
  }
  db_.EnableTracing(true);
  db_.EnableSpans(true);
  db_.spans().set_capacity(1 << 16);

  // Runs kRounds traced SELECTs and EXPLAIN ANALYZEs per client through
  // `exec(client, sql)`; returns every problem found in the outputs.
  constexpr int kRounds = 20;
  auto drive = [&](const std::function<Result<QueryResult>(
                       size_t, const std::string&)>& exec) {
    std::vector<std::vector<std::string>> problems(tables.size());
    std::vector<std::thread> clients;
    for (size_t c = 0; c < tables.size(); ++c) {
      clients.emplace_back([&, c] {
        const std::string& own = tables[c];
        for (int i = 0; i < kRounds; ++i) {
          auto sel = exec(c, "SELECT grp, COUNT(*) FROM " + own + " GROUP BY grp");
          if (!sel.ok() || sel.ValueOrDie().rows.size() != 8) {
            problems[c].push_back("bad SELECT result on " + own);
          }
          auto ea = exec(c, "EXPLAIN ANALYZE SELECT id FROM " + own +
                                " WHERE grp = " + std::to_string(i % 8));
          if (!ea.ok()) {
            problems[c].push_back(ea.status().ToString());
            continue;
          }
          const std::string& text = ea.ValueOrDie().message;
          for (const auto& t : tables) {
            if ((text.find(t) != std::string::npos) != (t == own)) {
              problems[c].push_back(own + "'s EXPLAIN ANALYZE:\n" + text);
            }
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    std::vector<std::string> all;
    for (auto& p : problems) all.insert(all.end(), p.begin(), p.end());
    return all;
  };

  // Every op: span hangs off a span of its own request, and names only the
  // table of the client whose session it carries.
  auto check_spans = [&](const std::map<uint64_t, std::string>& table_of_session) {
    EXPECT_EQ(db_.spans().total_dropped(), 0u);
    std::map<uint64_t, std::set<uint64_t>> ids_of_trace;
    std::vector<monitor::Span> spans = db_.spans().Snapshot();
    for (const auto& s : spans) ids_of_trace[s.trace_id].insert(s.span_id);
    size_t op_spans = 0;
    for (const auto& s : spans) {
      if (!IsOpSpan(s)) continue;
      ++op_spans;
      EXPECT_EQ(ids_of_trace[s.trace_id].count(s.parent_id), 1u)
          << s.name << " has a parent outside its request";
      auto own = table_of_session.find(s.session_id);
      ASSERT_NE(own, table_of_session.end()) << s.name;
      for (const auto& t : tables) {
        if (t != own->second) {
          EXPECT_EQ(s.name.find(t), std::string::npos)
              << own->second << "'s request recorded " << s.name;
        }
      }
    }
    EXPECT_GT(op_spans, 0u);
  };

  // Leg 1: straight into Database::Execute, one session id per client.
  std::map<uint64_t, std::string> table_of_session;
  for (size_t c = 0; c < tables.size(); ++c) table_of_session[c + 1] = tables[c];
  auto problems = drive([&](size_t c, const std::string& sql) {
    ExecSettings settings = db_.SnapshotSettings();
    settings.session_id = c + 1;
    return db_.Execute(sql, settings);
  });
  EXPECT_TRUE(problems.empty()) << problems.size() << " problems, first: "
                                << problems.front();
  check_spans(table_of_session);

  // Leg 2: through server::Service sessions, which run traced SELECTs and
  // EXPLAIN ANALYZE under the shared engine lock.
  db_.spans().Clear();
  server::ServiceOptions opts;
  opts.workers = 4;
  opts.cheap_reserve = 0;
  server::Service service(&db_, opts);
  std::vector<std::shared_ptr<server::Session>> sessions;
  table_of_session.clear();
  for (size_t c = 0; c < tables.size(); ++c) {
    sessions.push_back(service.OpenSession());
    table_of_session[sessions.back()->id()] = tables[c];
  }
  problems = drive([&](size_t c, const std::string& sql) {
    return service.Execute(sessions[c]->id(), sql);
  });
  EXPECT_TRUE(problems.empty()) << problems.size() << " problems, first: "
                                << problems.front();
  check_spans(table_of_session);
}

TEST(ParallelTelemetryStressTest, MetricsRegistryConcurrentWriters) {
  monitor::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      auto* counter = registry.GetCounter("stress.counter");
      auto* gauge = registry.GetGauge("stress.gauge");
      auto* hist = registry.GetHistogram("stress.hist");
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Add();
        gauge->Set(t);
        hist->Observe(static_cast<double>(i % 1000));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.GetCounter("stress.counter")->Value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  auto snap = registry.GetHistogram("stress.hist")->Snap();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GE(snap.Percentile(0.99), snap.Percentile(0.50));
}

TEST(ParallelTelemetryStressTest, QueryLogConcurrentAppends) {
  monitor::QueryLog log(256);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        monitor::QueryLogEntry e;
        e.sql = "SELECT " + std::to_string(t);
        e.kind = "select";
        e.work = static_cast<uint64_t>(i);
        log.Append(std::move(e));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.total_logged(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.size(), 256u);
  auto entries = log.Entries();
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].id, entries[i].id);  // ids stay monotone
  }
}

TEST(ParallelTelemetryStressTest, CardinalityFeedbackConcurrentRecords) {
  CardinalityFeedback feedback;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&feedback, t] {
      std::string table = "t" + std::to_string(t % 4);
      for (int i = 0; i < 2000; ++i) {
        feedback.Record(table, 100.0, 50.0);
        (void)feedback.Correction(table);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(feedback.size(), 4u);
  for (const auto& [table, e] : feedback.Entries()) {
    EXPECT_GE(e.correction, 0.01);
    EXPECT_LE(e.correction, 100.0);
  }
}

}  // namespace
}  // namespace aidb
