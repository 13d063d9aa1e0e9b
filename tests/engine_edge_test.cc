// Edge-case coverage for the engine surface: expression semantics, DDL/DML
// corner cases, EXPLAIN, model registry behaviour, inference utilities.

#include <gtest/gtest.h>

#include "db4ai/inference/inference.h"
#include "exec/database.h"

namespace aidb {
namespace {

class EdgeTest : public ::testing::Test {
 protected:
  QueryResult Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : QueryResult{};
  }
  Database db_;
};

TEST_F(EdgeTest, DivisionByZeroYieldsNull) {
  Run("CREATE TABLE t (a INT, b INT)");
  Run("INSERT INTO t VALUES (10, 0), (10, 2)");
  auto r = Run("SELECT a / b FROM t");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_DOUBLE_EQ(r.rows[1][0].AsDouble(), 5.0);
  // NULL is not true: the row drops out of the filter.
  auto f = Run("SELECT COUNT(*) FROM t WHERE a / b > 1");
  EXPECT_EQ(f.rows[0][0].AsInt(), 1);
}

TEST_F(EdgeTest, StringEqualityAndOrdering) {
  Run("CREATE TABLE s (name STRING, v INT)");
  Run("INSERT INTO s VALUES ('b', 1), ('a', 2), ('c', 3)");
  auto r = Run("SELECT v FROM s WHERE name = 'a'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  auto o = Run("SELECT name FROM s ORDER BY name");
  EXPECT_EQ(o.rows[0][0].AsString(), "a");
  EXPECT_EQ(o.rows[2][0].AsString(), "c");
}

TEST_F(EdgeTest, LimitZeroAndBeyondEnd) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(Run("SELECT a FROM t LIMIT 0").rows.size(), 0u);
  EXPECT_EQ(Run("SELECT a FROM t LIMIT 99").rows.size(), 3u);
}

TEST_F(EdgeTest, BetweenExecution) {
  Run("CREATE TABLE t (a INT)");
  for (int i = 0; i < 20; ++i) Run("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  auto r = Run("SELECT COUNT(*) FROM t WHERE a BETWEEN 5 AND 9");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
}

TEST_F(EdgeTest, HashIndexUsableOnStrings) {
  Run("CREATE TABLE t (name STRING, v INT)");
  Run("INSERT INTO t VALUES ('x', 1), ('y', 2)");
  Run("CREATE INDEX idx_name ON t(name) USING HASH");
  // Hash indexes are maintained but the planner only uses btree ranges;
  // correctness must be unaffected.
  auto r = Run("SELECT v FROM t WHERE name = 'y'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(EdgeTest, DropTableCascadesToIndexesAndBlocksQueries) {
  Run("CREATE TABLE t (a INT)");
  Run("CREATE INDEX i ON t(a)");
  Run("DROP TABLE t");
  EXPECT_FALSE(db_.Execute("SELECT a FROM t").ok());
  // Index name is free again.
  Run("CREATE TABLE t (a INT)");
  EXPECT_TRUE(db_.Execute("CREATE INDEX i ON t(a)").ok());
}

TEST_F(EdgeTest, DropIndexRestoresSeqScan) {
  Run("CREATE TABLE t (a INT)");
  for (int i = 0; i < 100; ++i) Run("INSERT INTO t VALUES (" + std::to_string(i % 10) + ")");
  Run("ANALYZE t");
  Run("CREATE INDEX i ON t(a)");
  auto with_idx = Run("EXPLAIN SELECT COUNT(*) FROM t WHERE a = 3");
  EXPECT_NE(with_idx.message.find("IndexScan"), std::string::npos);
  Run("DROP INDEX i");
  auto without = Run("EXPLAIN SELECT COUNT(*) FROM t WHERE a = 3");
  EXPECT_EQ(without.message.find("IndexScan"), std::string::npos);
  // Back to the batch engine's full scan.
  EXPECT_NE(without.message.find("VecScan"), std::string::npos);
}

TEST_F(EdgeTest, UpdatesVisibleToIndexScans) {
  Run("CREATE TABLE t (k INT, v INT)");
  Run("INSERT INTO t VALUES (1, 10), (2, 20)");
  Run("CREATE INDEX i ON t(k)");
  Run("UPDATE t SET v = 99 WHERE k = 2");
  auto r = Run("SELECT v FROM t WHERE k = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 99);
  // Deleted rows disappear from index scans (lazy deletion re-check).
  Run("DELETE FROM t WHERE k = 2");
  EXPECT_EQ(Run("SELECT v FROM t WHERE k = 2").rows.size(), 0u);
}

TEST_F(EdgeTest, AggregatesWithArithmetic) {
  Run("CREATE TABLE t (g INT, x DOUBLE)");
  Run("INSERT INTO t VALUES (1, 2.0), (1, 4.0), (2, 10.0)");
  auto r = Run("SELECT g, SUM(x) * 2 + 1 AS s FROM t GROUP BY g ORDER BY g");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 13.0);
  EXPECT_DOUBLE_EQ(r.rows[1][1].AsDouble(), 21.0);
}

TEST_F(EdgeTest, SelectStarPlusExpressions) {
  Run("CREATE TABLE t (a INT, b INT)");
  Run("INSERT INTO t VALUES (1, 2)");
  auto r = Run("SELECT *, a + b AS s FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.columns.size(), 3u);
  EXPECT_EQ(r.rows[0][2].AsInt(), 3);
}

TEST_F(EdgeTest, ModelVersioningAndDrop) {
  Run("CREATE TABLE d (x DOUBLE, y DOUBLE)");
  for (int i = 0; i < 50; ++i) {
    Run("INSERT INTO d VALUES (" + std::to_string(i) + ".0, " +
        std::to_string(2 * i) + ".0)");
  }
  Run("CREATE MODEL m TYPE linear PREDICT y ON d");
  Run("CREATE MODEL m TYPE linear PREDICT y ON d");  // retrain bumps version
  auto info = db_.models().GetInfo("m");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie()->version, 2u);
  EXPECT_TRUE(db_.models().Drop("m").ok());
  EXPECT_FALSE(db_.Execute("SELECT PREDICT(m, x) FROM d LIMIT 1").ok());
}

TEST_F(EdgeTest, ExternalModelRegistration) {
  Run("CREATE TABLE t (x DOUBLE)");
  Run("INSERT INTO t VALUES (3.0)");
  db_.models().RegisterExternal(
      "doubler", [](const std::vector<double>& f) { return f[0] * 2; });
  auto r = Run("SELECT PREDICT(doubler, x) FROM t");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 6.0);
}

TEST_F(EdgeTest, CreateModelErrors) {
  Run("CREATE TABLE t (x DOUBLE, y DOUBLE)");
  EXPECT_FALSE(db_.Execute("CREATE MODEL m TYPE linear PREDICT y ON t").ok())
      << "empty table must fail";
  Run("INSERT INTO t VALUES (1.0, 2.0)");
  EXPECT_FALSE(db_.Execute("CREATE MODEL m TYPE alien PREDICT y ON t").ok());
  EXPECT_FALSE(db_.Execute("CREATE MODEL m TYPE linear PREDICT zz ON t").ok());
}

TEST_F(EdgeTest, OrderByQualifiedColumnAcrossJoin) {
  Run("CREATE TABLE a (k INT, v INT)");
  Run("CREATE TABLE b (k INT, w INT)");
  Run("INSERT INTO a VALUES (1, 30), (2, 10)");
  Run("INSERT INTO b VALUES (1, 7), (2, 8)");
  auto r = Run("SELECT b.w FROM a JOIN b ON a.k = b.k ORDER BY a.v");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 8);  // a.v=10 row first
}

TEST(InferenceUtilTest, DistinctFractionEstimate) {
  ml::Matrix repetitive(1000, 2);
  for (size_t r = 0; r < 1000; ++r) {
    repetitive.At(r, 0) = static_cast<double>(r % 4);
    repetitive.At(r, 1) = 1.0;
  }
  EXPECT_LT(db4ai::InferenceEngine::EstimateDistinctFraction(repetitive), 0.1);
  ml::Matrix distinct(1000, 2);
  for (size_t r = 0; r < 1000; ++r) {
    distinct.At(r, 0) = static_cast<double>(r);
    distinct.At(r, 1) = 1.0;
  }
  EXPECT_GT(db4ai::InferenceEngine::EstimateDistinctFraction(distinct), 0.9);
}

TEST(CascadeUtilTest, OrderingByRank) {
  std::vector<db4ai::CascadeStage> stages;
  stages.push_back({"expensive_unselective", 100.0, 0.9, [](size_t) { return true; }});
  stages.push_back({"cheap_selective", 1.0, 0.1, [](size_t) { return true; }});
  stages.push_back({"mid", 10.0, 0.5, [](size_t) { return true; }});
  auto ordered = db4ai::OptimizeCascadeOrder(stages);
  EXPECT_EQ(ordered[0].name, "cheap_selective");
  EXPECT_EQ(ordered[2].name, "expensive_unselective");
}

}  // namespace
}  // namespace aidb
