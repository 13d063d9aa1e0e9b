#include <gtest/gtest.h>

#include <string>

#include "exec/database.h"
#include "server/plan_cache.h"

namespace aidb {
namespace {

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Run("CREATE TABLE t (id INT, grp INT, val DOUBLE)");
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = 0; i < 64; ++i) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(i) + ", " + std::to_string(i % 8) + ", " +
             std::to_string(i * 1.5) + ")";
    }
    Run(sql);
    Run("ANALYZE t");
  }

  QueryResult Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : QueryResult{};
  }

  uint64_t Hits() { return db_.plan_cache().hits(); }
  uint64_t Misses() { return db_.plan_cache().misses(); }

  Database db_;
};

TEST_F(PlanCacheTest, DirectSelectIsCachedOnSecondExecution) {
  auto r1 = Run("SELECT id FROM t WHERE id = 7");
  EXPECT_FALSE(r1.plan_cache_hit);
  auto r2 = Run("SELECT id FROM t WHERE id = 7");
  EXPECT_TRUE(r2.plan_cache_hit);
  ASSERT_EQ(r2.rows.size(), 1u);
  EXPECT_EQ(r2.rows[0][0].AsInt(), 7);
  // Normalization: whitespace/case differences share the entry.
  auto r3 = Run("select   id from t where id = 7");
  EXPECT_TRUE(r3.plan_cache_hit);
  // A trailing ';' is not part of the key.
  auto r4 = Run("SELECT id FROM t WHERE id = 7;");
  EXPECT_TRUE(r4.plan_cache_hit);
  // Literals are: plans embed them.
  auto r5 = Run("SELECT id FROM t WHERE id = 8");
  EXPECT_FALSE(r5.plan_cache_hit);
  ASSERT_EQ(r5.rows.size(), 1u);
  EXPECT_EQ(r5.rows[0][0].AsInt(), 8);
}

TEST_F(PlanCacheTest, PreparedExecuteHitsCacheAndBindsParams) {
  Run("PREPARE q AS SELECT id FROM t WHERE id = $1");
  auto r1 = Run("EXECUTE q (3)");
  EXPECT_FALSE(r1.plan_cache_hit);
  ASSERT_EQ(r1.rows.size(), 1u);
  EXPECT_EQ(r1.rows[0][0].AsInt(), 3);
  // Same args -> same key -> hit.
  auto r2 = Run("EXECUTE q (3)");
  EXPECT_TRUE(r2.plan_cache_hit);
  EXPECT_EQ(r2.rows[0][0].AsInt(), 3);
  // Different args -> different key (literals are part of the plan).
  auto r3 = Run("EXECUTE q (5)");
  EXPECT_FALSE(r3.plan_cache_hit);
  EXPECT_EQ(r3.rows[0][0].AsInt(), 5);
  Run("DEALLOCATE q");
  auto gone = db_.Execute("EXECUTE q (3)");
  EXPECT_FALSE(gone.ok());
}

TEST_F(PlanCacheTest, PrepareRejectsDuplicateAndBadParams) {
  Run("PREPARE dup AS SELECT id FROM t");
  EXPECT_FALSE(db_.Execute("PREPARE dup AS SELECT grp FROM t").ok());
  // Params outside PREPARE are rejected at parse time.
  EXPECT_FALSE(db_.Execute("SELECT id FROM t WHERE id = $1").ok());
  // Too few arguments.
  Run("PREPARE two AS SELECT id FROM t WHERE id = $1 AND grp = $2");
  EXPECT_FALSE(db_.Execute("EXECUTE two (1)").ok());
  EXPECT_TRUE(db_.Execute("EXECUTE two (1, 1)").ok());
}

TEST_F(PlanCacheTest, DdlInvalidatesCachedPlans) {
  Run("SELECT id FROM t WHERE grp = 2");
  EXPECT_TRUE(Run("SELECT id FROM t WHERE grp = 2").plan_cache_hit);
  // An index on the table changes what the planner would choose: the cached
  // plan must be stranded even though it would still "work".
  Run("CREATE INDEX it ON t (grp)");
  auto r = Run("SELECT id FROM t WHERE grp = 2");
  EXPECT_FALSE(r.plan_cache_hit);
  EXPECT_TRUE(Run("SELECT id FROM t WHERE grp = 2").plan_cache_hit);
  // DROP INDEX strands it again (owner table's epoch bumps).
  Run("DROP INDEX it");
  EXPECT_FALSE(Run("SELECT id FROM t WHERE grp = 2").plan_cache_hit);
  // ANALYZE refreshes statistics -> same.
  EXPECT_TRUE(Run("SELECT id FROM t WHERE grp = 2").plan_cache_hit);
  Run("ANALYZE t");
  EXPECT_FALSE(Run("SELECT id FROM t WHERE grp = 2").plan_cache_hit);
}

TEST_F(PlanCacheTest, DropAndRecreateTableNeverServesStalePlan) {
  Run("SELECT val FROM t WHERE id = 1");
  EXPECT_TRUE(Run("SELECT val FROM t WHERE id = 1").plan_cache_hit);
  Run("DROP TABLE t");
  Run("CREATE TABLE t (id INT, val DOUBLE)");
  Run("INSERT INTO t VALUES (1, 9.0)");
  // The cached plan points at the dropped Table; serving it would be a
  // use-after-free. The epoch check forces a fresh plan.
  auto r = Run("SELECT val FROM t WHERE id = 1");
  EXPECT_FALSE(r.plan_cache_hit);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 9.0);
}

TEST_F(PlanCacheTest, FeedbackEpochInvalidatesFeedbackPlans) {
  db_.mutable_planner_options().use_card_feedback = true;
  Run("SELECT id FROM t WHERE val > 10.0");
  EXPECT_TRUE(Run("SELECT id FROM t WHERE val > 10.0").plan_cache_hit);
  uint64_t epoch_before = db_.catalog().feedback().epoch();
  // Shift the estimated-vs-actual ratio hard enough to bump the feedback
  // epoch (drift beyond 2x triggers a generation change).
  for (int i = 0; i < 8; ++i) {
    db_.catalog().feedback().Record("t", 1.0, 100.0);
  }
  ASSERT_GT(db_.catalog().feedback().epoch(), epoch_before);
  EXPECT_FALSE(Run("SELECT id FROM t WHERE val > 10.0").plan_cache_hit);
  // Plans built WITHOUT feedback are immune to feedback epochs.
  db_.mutable_planner_options().use_card_feedback = false;
  Run("SELECT id FROM t WHERE val > 20.0");
  EXPECT_TRUE(Run("SELECT id FROM t WHERE val > 20.0").plan_cache_hit);
  for (int i = 0; i < 8; ++i) {
    db_.catalog().feedback().Record("t", 100.0, 1.0);
  }
  EXPECT_TRUE(Run("SELECT id FROM t WHERE val > 20.0").plan_cache_hit);
}

TEST_F(PlanCacheTest, SystemViewsExplainAndPredictAreNotCached) {
  Run("SELECT name FROM aidb_metrics WHERE name = 'exec.queries'");
  Run("SELECT name FROM aidb_metrics WHERE name = 'exec.queries'");
  Run("EXPLAIN SELECT id FROM t");
  Run("EXPLAIN SELECT id FROM t");
  EXPECT_EQ(db_.metrics().GetCounter("plan_cache.hit")->Value(), 0u);
}

TEST_F(PlanCacheTest, KnobFingerprintSeparatesEntries) {
  exec::PlannerOptions a;
  exec::PlannerOptions b = a;
  EXPECT_EQ(server::KnobFingerprint(a), server::KnobFingerprint(b));
  b.dop = a.dop + 3;
  EXPECT_NE(server::KnobFingerprint(a), server::KnobFingerprint(b));
  b = a;
  b.use_indexes = !a.use_indexes;
  EXPECT_NE(server::KnobFingerprint(a), server::KnobFingerprint(b));
  b = a;
  b.index_selectivity_threshold = a.index_selectivity_threshold + 0.01;
  EXPECT_NE(server::KnobFingerprint(a), server::KnobFingerprint(b));
}

TEST_F(PlanCacheTest, LruEvictsAtCapacity) {
  server::PlanCache cache(/*capacity=*/4, /*shards=*/1);
  for (int i = 0; i < 6; ++i) {
    server::CachedPlan p;
    p.key = "k" + std::to_string(i);
    cache.Release(std::move(p));
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);
  // k0/k1 were evicted; k5 is resident.
  EXPECT_FALSE(cache.Acquire("k0").has_value());
  EXPECT_TRUE(cache.Acquire("k5").has_value());
  // Acquire checked k5 out: it no longer counts against capacity and a
  // second acquire misses.
  EXPECT_FALSE(cache.Acquire("k5").has_value());
}

TEST_F(PlanCacheTest, MetricsExposeHitAndMissCounters) {
  Run("SELECT id FROM t WHERE id = 42");
  Run("SELECT id FROM t WHERE id = 42");
  auto r = Run(
      "SELECT name, value FROM aidb_metrics WHERE name = 'plan_cache.hit'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_GE(r.rows[0][1].AsDouble(), 1.0);
}

}  // namespace
}  // namespace aidb
