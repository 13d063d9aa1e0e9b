#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/database.h"
#include "server/classifier.h"
#include "server/service.h"
#include "sql/parser.h"

namespace aidb {
namespace {

/// Seeds `db` with a small point-lookup table and two join tables whose
/// equi-join produces ~10^6 intermediate rows — reliably slow enough that a
/// millisecond-scale deadline fires mid-execution.
void SeedTables(Database* db, size_t heavy_rows = 3000) {
  ASSERT_TRUE(db->Execute("CREATE TABLE pts (id INT, val DOUBLE)").ok());
  std::string sql = "INSERT INTO pts VALUES ";
  for (int i = 0; i < 256; ++i) {
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(i) + ", " + std::to_string(i * 0.5) + ")";
  }
  ASSERT_TRUE(db->Execute(sql).ok());
  for (const char* name : {"big1", "big2"}) {
    ASSERT_TRUE(
        db->Execute(std::string("CREATE TABLE ") + name + " (id INT, k INT)")
            .ok());
    std::string ins = std::string("INSERT INTO ") + name + " VALUES ";
    for (size_t i = 0; i < heavy_rows; ++i) {
      if (i > 0) ins += ", ";
      ins += "(" + std::to_string(i) + ", " + std::to_string(i % 3) + ")";
    }
    ASSERT_TRUE(db->Execute(ins).ok());
  }
  ASSERT_TRUE(db->Execute("ANALYZE pts").ok());
}

const char kHeavySql[] = "SELECT big1.id FROM big1 JOIN big2 ON big1.k = big2.k";

// ---------------------------------------------------------------------------
// ServiceTest: single-threaded behaviour of sessions, knobs, scheduling.
// ---------------------------------------------------------------------------

TEST(ServiceTest, SessionKnobsNeverLeakIntoGlobalState) {
  Database db;
  SeedTables(&db);
  size_t global_dop_before = db.dop();
  server::Service service(&db, {.workers = 2});

  auto s1 = service.OpenSession();
  auto s2 = service.OpenSession();
  s1->set_dop(4);
  s1->set_use_card_feedback(true);

  ASSERT_TRUE(service.Execute(s1->id(), "SELECT val FROM pts WHERE id = 3").ok());
  ASSERT_TRUE(service.Execute(s2->id(), "SELECT val FROM pts WHERE id = 4").ok());

  // The global knob is untouched; the per-statement snapshot carried the
  // session's dop into the query log.
  EXPECT_EQ(db.dop(), global_dop_before);
  EXPECT_EQ(s2->dop(), global_dop_before);
  bool saw_s1 = false, saw_s2 = false;
  for (const auto& e : db.query_log().Entries()) {
    if (e.session_id == s1->id()) {
      EXPECT_EQ(e.dop, 4u);
      saw_s1 = true;
    }
    if (e.session_id == s2->id()) {
      EXPECT_EQ(e.dop, static_cast<uint32_t>(global_dop_before));
      saw_s2 = true;
    }
  }
  EXPECT_TRUE(saw_s1);
  EXPECT_TRUE(saw_s2);
}

TEST(ServiceTest, PreparedStatementsAreSessionScoped) {
  Database db;
  SeedTables(&db);
  server::Service service(&db, {.workers = 2});
  auto s1 = service.OpenSession();
  auto s2 = service.OpenSession();

  ASSERT_TRUE(
      service.Execute(s1->id(), "PREPARE q AS SELECT val FROM pts WHERE id = $1")
          .ok());
  // Same name in another session: no collision (separate namespaces).
  ASSERT_TRUE(
      service.Execute(s2->id(), "PREPARE q AS SELECT id FROM pts WHERE id = $1")
          .ok());
  auto r1 = service.Execute(s1->id(), "EXECUTE q (10)");
  ASSERT_TRUE(r1.ok());
  EXPECT_DOUBLE_EQ(r1.ValueOrDie().rows[0][0].AsDouble(), 5.0);
  auto r2 = service.Execute(s2->id(), "EXECUTE q (10)");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.ValueOrDie().rows[0][0].AsInt(), 10);
  // DEALLOCATE in s1 leaves s2's template alive.
  ASSERT_TRUE(service.Execute(s1->id(), "DEALLOCATE q").ok());
  EXPECT_FALSE(service.Execute(s1->id(), "EXECUTE q (1)").ok());
  EXPECT_TRUE(service.Execute(s2->id(), "EXECUTE q (1)").ok());
}

TEST(ServiceTest, RepeatedExecuteHitsPlanCache) {
  Database db;
  SeedTables(&db);
  server::Service service(&db, {.workers = 2});
  auto s = service.OpenSession();
  ASSERT_TRUE(
      service.Execute(s->id(), "PREPARE q AS SELECT val FROM pts WHERE id = $1")
          .ok());
  ASSERT_TRUE(service.Execute(s->id(), "EXECUTE q (7)").ok());
  auto r = service.Execute(s->id(), "EXECUTE q (7)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().plan_cache_hit);
  EXPECT_GE(s->cache_hits.load(), 1u);
}

TEST(ServiceTest, StatementTimeoutCancelsAndFreesWorker) {
  Database db;
  SeedTables(&db);
  server::Service service(&db, {.workers = 1});
  auto s = service.OpenSession();
  s->set_statement_timeout_ms(10.0);
  auto r = service.Execute(s->id(), kHeavySql);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout) << r.status().ToString();
  // The (single) worker is free again: a cheap statement still succeeds.
  s->set_statement_timeout_ms(0.0);
  EXPECT_TRUE(service.Execute(s->id(), "SELECT id FROM pts WHERE id = 1").ok());
}

TEST(ServiceTest, ClosedAndUnknownSessionsAreRejected) {
  Database db;
  SeedTables(&db);
  server::Service service(&db, {.workers = 1});
  auto s = service.OpenSession();
  ASSERT_TRUE(service.CloseSession(s->id()).ok());
  EXPECT_FALSE(service.Execute(s->id(), "SELECT id FROM pts WHERE id = 1").ok());
  EXPECT_FALSE(service.Execute(9999, "SELECT id FROM pts WHERE id = 1").ok());
}

TEST(ServiceTest, SessionsSystemViewReportsState) {
  Database db;
  SeedTables(&db);
  server::Service service(&db, {.workers = 2});
  auto s1 = service.OpenSession();
  auto s2 = service.OpenSession();
  s2->set_dop(3);
  ASSERT_TRUE(service.Execute(s1->id(), "SELECT id FROM pts WHERE id = 1").ok());

  auto r = service.Execute(s1->id(), "SELECT id, state, statements, dop "
                                     "FROM aidb_sessions ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& rows = r.ValueOrDie().rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), static_cast<int64_t>(s1->id()));
  // s1 is "running" from its own vantage point: the view refreshes while
  // this very statement executes.
  EXPECT_EQ(rows[0][1].AsString(), "running");
  EXPECT_EQ(rows[1][0].AsInt(), static_cast<int64_t>(s2->id()));
  EXPECT_EQ(rows[1][1].AsString(), "idle");
  EXPECT_EQ(rows[1][3].AsInt(), 3);
}

TEST(ServiceTest, ClassifierLearnsHeavyShapes) {
  server::QueryClassifier clf;
  // Cold start: the prior read off the AST.
  auto point = sql::Parser::Parse("SELECT val FROM pts WHERE id = 1");
  auto join = sql::Parser::Parse(kHeavySql);
  auto ddl = sql::Parser::Parse("CREATE TABLE x (id INT)");
  ASSERT_TRUE(point.ok() && join.ok() && ddl.ok());
  const sql::Statement* point_stmt = point.ValueOrDie().get();
  EXPECT_EQ(clf.Classify(1, point_stmt), server::QueryClass::kCheap);
  EXPECT_EQ(clf.Classify(2, join.ValueOrDie().get()),
            server::QueryClass::kHeavy);
  EXPECT_EQ(clf.Classify(3, ddl.ValueOrDie().get()),
            server::QueryClass::kHeavy);
  // Observed cost overrides syntax: a shape that keeps measuring expensive
  // flips to heavy even though it looks like a point query.
  for (int i = 0; i < 10; ++i) clf.Record(1, 10.0);
  for (int i = 0; i < 10; ++i) clf.Record(4, 100000.0);
  EXPECT_EQ(clf.Classify(1, point_stmt), server::QueryClass::kCheap);
  EXPECT_EQ(clf.Classify(4, point_stmt), server::QueryClass::kHeavy);
}

TEST(ServiceTest, ClassifierWarmsFromQueryLog) {
  Database db;
  SeedTables(&db);
  const std::string join = "SELECT a.val FROM pts a JOIN pts b ON a.id = b.id";
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.Execute("SELECT val FROM pts WHERE id = 2").ok());
    ASSERT_TRUE(db.Execute(join).ok());
  }
  server::QueryClassifier clf;
  EXPECT_GT(clf.WarmFromQueryLog(db.query_log().Entries()), 0u);
  EXPECT_GT(clf.known_digests(), 0u);
  // The warmed shapes classify without syntactic guessing: the join's AST
  // prior says heavy, but its measured cost is typical.
  auto point = sql::Parser::ParseKeyed("SELECT val FROM pts WHERE id = 2");
  auto joined = sql::Parser::ParseKeyed(join);
  ASSERT_TRUE(point.ok() && joined.ok());
  EXPECT_EQ(clf.Classify(point.ValueOrDie().shape,
                         point.ValueOrDie().stmt.get()),
            server::QueryClass::kCheap);
  EXPECT_EQ(clf.Classify(joined.ValueOrDie().shape,
                         joined.ValueOrDie().stmt.get()),
            server::QueryClass::kCheap);
}

TEST(ServiceTest, PreparedReadsTakeTheCheapLane) {
  Database db;
  SeedTables(&db);
  db.EnableSpans(true);
  {
    server::Service service(&db, {.workers = 2});
    auto s = service.OpenSession();
    ASSERT_TRUE(
        service.Execute(s->id(), "PREPARE rd AS SELECT val FROM pts WHERE id = $1")
            .ok());
    for (int k = 0; k < 20; ++k) {
      ASSERT_TRUE(
          service.Execute(s->id(), "EXECUTE rd (" + std::to_string(k) + ")").ok());
    }
    service.Drain();
  }
  // Each request's `execute` span names its statement kind; its root
  // `request` span names the lane.
  std::map<uint64_t, std::string> lane_of_trace;
  std::set<uint64_t> execute_traces;
  for (const auto& span : db.spans().Snapshot()) {
    if (span.name == "request") lane_of_trace[span.trace_id] = span.detail;
    if (span.name == "execute" && span.detail == "execute") {
      execute_traces.insert(span.trace_id);
    }
  }
  ASSERT_EQ(execute_traces.size(), 20u);
  for (uint64_t trace : execute_traces) {
    EXPECT_EQ(lane_of_trace[trace].rfind("cheap:", 0), 0u)
        << lane_of_trace[trace];
  }
}

TEST(ServiceTest, ClassifierStateBoundedByShapes) {
  Database db;
  SeedTables(&db);
  server::Service service(&db, {.workers = 2});
  auto s = service.OpenSession();
  for (int k = 0; k < 20; ++k) {
    ASSERT_TRUE(service
                    .Execute(s->id(), "SELECT val FROM pts WHERE id = " +
                                          std::to_string(k))
                    .ok());
  }
  ASSERT_TRUE(
      service.Execute(s->id(), "PREPARE rd AS SELECT id FROM pts WHERE id = $1")
          .ok());
  for (int k = 0; k < 20; ++k) {
    ASSERT_TRUE(
        service.Execute(s->id(), "EXECUTE rd (" + std::to_string(k) + ")").ok());
  }
  EXPECT_GE(service.classifier().known_digests(), 1u);
  EXPECT_LE(service.classifier().known_digests(), 2u);
}

TEST(ServiceTest, ParseErrorResolvesAtSubmit) {
  Database db;
  SeedTables(&db);
  const std::string bad = "SELEC val FROM pts";
  auto direct = db.Execute(bad);
  ASSERT_FALSE(direct.ok());

  server::Service service(&db, {.workers = 2});
  auto s = service.OpenSession();
  ASSERT_TRUE(service.Execute(s->id(), "SELECT val FROM pts WHERE id = 1").ok());
  service.Drain();
  const uint64_t executed = service.executed();
  const uint64_t statements = s->statements.load();
  const uint64_t errors = s->errors.load();

  auto fut = service.Submit(s->id(), bad);
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto r = fut.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), direct.status().ToString());
  EXPECT_EQ(s->statements.load(), statements + 1);
  EXPECT_EQ(s->errors.load(), errors + 1);
  service.Drain();
  EXPECT_EQ(service.executed(), executed);
}

/// One row of the engine-lock table: a statement, resolved in a session
/// that holds the templates below, and whether it may run shared.
struct LockCase {
  const char* sql;
  bool shared;
};

TEST(ServiceTest, EngineLockFollowsTheEffectiveStatement) {
  Database db;
  SeedTables(&db);
  server::Service service(&db, {.workers = 2});  // registers aidb_sessions
  auto s = service.OpenSession();
  for (const char* prep :
       {"PREPARE rd AS SELECT val FROM pts WHERE id = $1",
        "PREPARE sv AS SELECT id FROM aidb_sessions",
        "PREPARE up AS UPDATE pts SET val = $1 WHERE id = 1",
        "PREPARE mk AS CREATE TABLE made (id INT)",
        "PREPARE ex AS EXPLAIN SELECT val FROM pts"}) {
    ASSERT_TRUE(service.Execute(s->id(), prep).ok()) << prep;
  }
  const LockCase cases[] = {
      {"SELECT val FROM pts WHERE id = 1", true},
      {"EXPLAIN SELECT val FROM pts", true},
      {"EXPLAIN ANALYZE SELECT val FROM pts", true},
      {"INSERT INTO pts VALUES (900, 1.0)", true},
      {"UPDATE pts SET val = 2.0 WHERE id = 1", true},
      {"DELETE FROM pts WHERE id = 900", true},
      {"BEGIN", true},
      {"COMMIT", true},
      {"ROLLBACK", true},
      {"PREPARE p2 AS SELECT val FROM pts", true},
      {"DEALLOCATE rd", true},
      {"SELECT val FROM pts WHERE id = 'aidb_sessions'", true},
      {"SELECT * FROM my_aidb_table", true},
      {"SELECT * FROM aidb_sessions", false},
      {"SELECT p.id FROM pts p JOIN aidb_sessions a ON p.id = a.id", false},
      {"EXECUTE sv", false},
      {"CREATE TABLE t2 (id INT)", false},
      {"DROP TABLE big1", false},
      {"CREATE INDEX i ON pts(id)", false},
      {"DROP INDEX i", false},
      {"ANALYZE pts", false},
      {"CREATE MODEL m TYPE linear PREDICT val ON pts", false},
      {"SHOW MODELS", false},
      {"EXECUTE rd (1)", true},
      {"EXECUTE up (2.0)", true},
      {"EXECUTE ex", true},
      {"EXECUTE mk", false},
      {"EXECUTE nosuch (1)", true},
  };
  for (const LockCase& c : cases) {
    auto parsed = sql::Parser::ParseKeyed(c.sql);
    ASSERT_TRUE(parsed.ok()) << c.sql;
    ResolvedStatement stmt =
        db.Resolve(std::move(parsed).ValueOrDie(), s->prepared());
    EXPECT_EQ(server::TakesSharedLock(stmt), c.shared) << c.sql;
  }
}

// ---------------------------------------------------------------------------
// ParallelServiceTest: concurrency suite (name matches the TSan CI leg's
// `ctest -R Parallel` selector).
// ---------------------------------------------------------------------------

TEST(ParallelServiceTest, ConcurrentSessionsWithInterleavedDdl) {
  Database db;
  SeedTables(&db, /*heavy_rows=*/500);
  server::Service service(&db, {.workers = 4, .queue_capacity = 256});

  constexpr int kSessions = 4;
  constexpr int kStatements = 24;
  std::vector<std::shared_ptr<server::Session>> sessions;
  for (int i = 0; i < kSessions; ++i) sessions.push_back(service.OpenSession());

  std::atomic<int> unexpected{0};
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int c = 0; c < kSessions; ++c) {
    clients.emplace_back([&, c] {
      auto& session = sessions[c];
      for (int i = 0; i < kStatements; ++i) {
        std::string sql;
        switch (i % 4) {
          case 0:
            sql = "SELECT val FROM pts WHERE id = " + std::to_string(i);
            break;
          case 1:
            sql = "INSERT INTO pts VALUES (" + std::to_string(1000 + c * 100 + i) +
                  ", 1.0)";
            break;
          case 2: {
            // Interleaved DDL on a session-private table name.
            std::string t = "tmp_" + std::to_string(c);
            sql = i % 8 == 2 ? "CREATE TABLE " + t + " (id INT)"
                             : "DROP TABLE " + t;
            break;
          }
          default:
            sql = "SELECT id FROM pts WHERE val > 10.0";
            break;
        }
        auto r = service.Execute(session->id(), sql);
        if (!r.ok()) {
          // DDL races against itself per-session only, so the only accepted
          // failures are table-exists/missing from the modulo pattern.
          StatusCode code = r.status().code();
          if (code != StatusCode::kAlreadyExists &&
              code != StatusCode::kNotFound &&
              code != StatusCode::kInvalidArgument) {
            ++unexpected;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(unexpected.load(), 0);
  service.Drain();
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(ParallelServiceTest, OversubscribedQueueShedsWithTypedErrors) {
  Database db;
  // Moderate join: slow enough that 6 clients oversubscribe 2 workers + 2
  // queue slots, fast enough that accepted runs finish inside the timeout.
  SeedTables(&db, /*heavy_rows=*/300);
  server::Service service(
      &db, {.workers = 2, .queue_capacity = 2, .default_timeout_ms = 5000.0});
  auto s = service.OpenSession();

  constexpr int kClients = 6;
  constexpr int kPerClient = 10;
  std::atomic<int> ok{0}, overloaded{0}, timeout{0}, other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        auto r = service.Execute(s->id(), kHeavySql);
        if (r.ok()) {
          ++ok;
        } else if (r.status().code() == StatusCode::kOverloaded) {
          ++overloaded;
        } else if (r.status().code() == StatusCode::kTimeout) {
          ++timeout;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Drain();
  // Every submission resolved; failures are typed, never crashes or hangs.
  EXPECT_EQ(ok + overloaded + timeout + other, kClients * kPerClient);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(service.shed_overloaded(), static_cast<uint64_t>(overloaded.load()));
}

TEST(ParallelServiceTest, TimeoutsUnderLoadFreeWorkersForCheapQueries) {
  Database db;
  SeedTables(&db);
  server::Service service(&db,
                          {.workers = 2, .queue_capacity = 64, .cheap_reserve = 1});
  auto heavy_session = service.OpenSession();
  heavy_session->set_statement_timeout_ms(15.0);
  auto cheap_session = service.OpenSession();

  std::vector<std::future<Result<QueryResult>>> heavies;
  for (int i = 0; i < 4; ++i) {
    heavies.push_back(service.Submit(heavy_session->id(), kHeavySql));
  }
  // Cheap statements keep flowing through the reserved lane meanwhile.
  int cheap_ok = 0;
  for (int i = 0; i < 16; ++i) {
    if (service.Execute(cheap_session->id(),
                        "SELECT val FROM pts WHERE id = " + std::to_string(i))
            .ok()) {
      ++cheap_ok;
    }
  }
  int timed_out = 0;
  for (auto& f : heavies) {
    auto r = f.get();
    if (!r.ok() && r.status().code() == StatusCode::kTimeout) ++timed_out;
  }
  EXPECT_EQ(cheap_ok, 16);
  EXPECT_EQ(timed_out, 4);
  service.Drain();
}

TEST(ParallelServiceTest, ConcurrentPreparedExecuteSharesPlanCacheSafely) {
  Database db;
  SeedTables(&db);
  server::Service service(&db, {.workers = 4, .queue_capacity = 256});
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      auto s = service.OpenSession();
      auto p = service.Execute(
          s->id(), "PREPARE q AS SELECT val FROM pts WHERE id = $1");
      if (!p.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 32; ++i) {
        auto r = service.Execute(
            s->id(), "EXECUTE q (" + std::to_string(i % 8) + ")");
        if (!r.ok() || r.ValueOrDie().rows.size() != 1) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // 4 sessions x 8 distinct keys: after warmup the shared cache serves hits.
  EXPECT_GT(db.plan_cache().hits(), 0u);
}

}  // namespace
}  // namespace aidb
