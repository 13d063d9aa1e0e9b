#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/knob/knob_env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/database.h"
#include "exec/vec/vec_ops.h"

namespace aidb {
namespace {

/// Rows rendered as strings, in result order.
std::vector<std::string> Rendered(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const auto& row : r.rows) {
    std::string s;
    for (const auto& v : row) {
      s += v.ToString();
      s += '\x1f';
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Rows rendered as sortable strings so result multisets compare exactly.
std::vector<std::string> Canonical(const QueryResult& r) {
  std::vector<std::string> out = Rendered(r);
  std::sort(out.begin(), out.end());
  return out;
}

class ParallelExecTest : public ::testing::Test {
 protected:
  /// Seeds `rows` random rows into table `name(id INT, grp INT, val DOUBLE)`,
  /// with occasional NULL vals to exercise aggregate NULL skipping.
  void SeedTable(const std::string& name, size_t rows, uint64_t seed) {
    Schema schema({{"id", ValueType::kInt},
                   {"grp", ValueType::kInt},
                   {"val", ValueType::kDouble}});
    Table* t = nullptr;
    auto created = db_.catalog().CreateTable(name, schema);
    ASSERT_TRUE(created.ok());
    t = std::move(created).ValueOrDie();
    Rng rng(seed);
    for (size_t i = 0; i < rows; ++i) {
      Tuple row;
      row.push_back(Value(static_cast<int64_t>(i)));
      row.push_back(Value(rng.UniformInt(0, 31)));
      row.push_back(rng.Bernoulli(0.02) ? Value::Null()
                                        : Value(rng.UniformDouble(0.0, 1000.0)));
      ASSERT_TRUE(t->Insert(std::move(row)).ok());
    }
  }

  QueryResult Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : QueryResult{};
  }

  /// Executes `sql` at dop=1 and dop=8 and expects identical row multisets.
  void ExpectSameResults(const std::string& sql) {
    db_.SetDop(1);
    auto serial = Canonical(Run(sql));
    db_.SetDop(8);
    auto parallel = Canonical(Run(sql));
    db_.SetDop(1);
    EXPECT_EQ(serial, parallel) << sql;
  }

  /// Row for row against the volcano reference: the batch engine at dop 1
  /// and at dop 8. Leaves the database on the batch engine at dop 1.
  void ExpectSameRowsAsVolcano(const std::string& sql) {
    db_.SetVectorized(false);
    auto volcano = Rendered(Run(sql));
    db_.SetVectorized(true);
    for (size_t dop : {1, 8}) {
      db_.SetDop(dop);
      EXPECT_EQ(volcano, Rendered(Run(sql))) << sql << " at dop " << dop;
    }
    db_.SetDop(1);
  }

  Database db_;
};

TEST_F(ParallelExecTest, PlannerGatesOnDopAndCardinality) {
  SeedTable("big", 20000, 1);
  SeedTable("small", 100, 2);

  db_.SetDop(8);
  EXPECT_NE(Run("EXPLAIN SELECT * FROM big").message.find("VecParallelScan"),
            std::string::npos);
  // Small tables stay serial: morsel dispatch would only add overhead.
  EXPECT_EQ(Run("EXPLAIN SELECT * FROM small").message.find("VecParallelScan"),
            std::string::npos);

  db_.SetDop(1);
  EXPECT_EQ(Run("EXPLAIN SELECT * FROM big").message.find("VecParallelScan"),
            std::string::npos);
}

TEST_F(ParallelExecTest, ScanPreservesSerialOrder) {
  SeedTable("t", 20000, 3);
  db_.SetDop(1);
  auto serial = Run("SELECT * FROM t");
  db_.SetDop(8);
  auto parallel = Run("SELECT * FROM t");
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  // Morsel batches are emitted in morsel order, so even the row order
  // matches the serial scan exactly.
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    ASSERT_EQ(serial.rows[i].size(), parallel.rows[i].size());
    for (size_t c = 0; c < serial.rows[i].size(); ++c) {
      EXPECT_EQ(serial.rows[i][c].Compare(parallel.rows[i][c]), 0);
    }
  }
}

TEST_F(ParallelExecTest, FilterMatchesSerial) {
  SeedTable("t", 20000, 4);
  ExpectSameResults("SELECT id, val FROM t WHERE val > 500 AND grp < 10");
  ExpectSameResults("SELECT id FROM t WHERE val > 999.5");  // highly selective
  ExpectSameResults("SELECT id FROM t WHERE val < 0");      // empty result
  // Every column is mirrored, so each worker selects on the mirrors and
  // buffers only the surviving rows; they stream in the serial order.
  ExpectSameRowsAsVolcano("SELECT id, val FROM t WHERE val > 500 AND grp < 10");
  ExpectSameRowsAsVolcano("SELECT id FROM t WHERE grp = 7.0");
  ExpectSameRowsAsVolcano("SELECT id, grp FROM t WHERE grp < 3.5 AND val <> 250");
  ExpectSameRowsAsVolcano("SELECT COUNT(*), SUM(val) FROM t WHERE val <= 100");
  ExpectSameRowsAsVolcano("SELECT id FROM t WHERE val > 999.5 ORDER BY val LIMIT 3");
}

TEST_F(ParallelExecTest, AggregateMatchesSerial) {
  SeedTable("t", 20000, 5);
  ExpectSameResults(
      "SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val) "
      "FROM t GROUP BY grp");
  ExpectSameResults("SELECT COUNT(*), SUM(val) FROM t");
  // Empty input to a no-group aggregate must still yield the zero-count row.
  ExpectSameResults("SELECT COUNT(*), SUM(val) FROM t WHERE val < 0");
}

TEST_F(ParallelExecTest, JoinMatchesSerial) {
  SeedTable("fact", 20000, 6);
  SeedTable("dim", 10000, 7);
  const std::string join =
      "SELECT fact.id, dim.val FROM fact JOIN dim ON fact.grp = dim.grp "
      "WHERE dim.id < 64";
  ExpectSameResults(join);
}

TEST_F(ParallelExecTest, JoinAboveGatherFeedsDownstreamOperators) {
  SeedTable("fact", 20000, 8);
  SeedTable("dim", 10000, 9);
  // Join + aggregate + sort above the parallel scan: downstream operators
  // must be oblivious to the parallel region beneath them.
  ExpectSameResults(
      "SELECT dim.grp, COUNT(*), SUM(fact.val) FROM fact "
      "JOIN dim ON fact.grp = dim.grp GROUP BY dim.grp ORDER BY dim.grp");
}

TEST_F(ParallelExecTest, EmptyTableAtHighDop) {
  Schema schema({{"id", ValueType::kInt}, {"grp", ValueType::kInt},
                 {"val", ValueType::kDouble}});
  ASSERT_TRUE(db_.catalog().CreateTable("empty", schema).ok());
  db_.SetDop(8);
  // Below the threshold the planner stays serial; force the parallel path to
  // exercise the zero-morsel edge case.
  db_.mutable_planner_options().parallel_threshold_rows = 0;
  EXPECT_EQ(Run("SELECT * FROM empty").rows.size(), 0u);
  auto agg = Run("SELECT COUNT(*), MAX(val) FROM empty");
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(agg.rows[0][1].is_null());
}

TEST_F(ParallelExecTest, SingleMorselTableAtHighDop) {
  SeedTable("tiny", 50, 10);  // one morsel; dop still 8
  db_.SetDop(8);
  db_.mutable_planner_options().parallel_threshold_rows = 1;
  EXPECT_NE(Run("EXPLAIN SELECT * FROM tiny").message.find("VecParallelScan"),
            std::string::npos);
  EXPECT_EQ(Run("SELECT * FROM tiny").rows.size(), 50u);
  auto agg = Run("SELECT grp, COUNT(*) FROM tiny GROUP BY grp");
  size_t total = 0;
  for (const auto& row : agg.rows) total += static_cast<size_t>(row[1].AsInt());
  EXPECT_EQ(total, 50u);
}

TEST_F(ParallelExecTest, DeletedRowsAreSkipped) {
  SeedTable("t", 20000, 11);
  Run("DELETE FROM t WHERE grp = 5");
  ExpectSameResults("SELECT grp, COUNT(*) FROM t GROUP BY grp");
  // Deleted slots read 0 in the liveness bitmap the slot list is built from.
  ExpectSameRowsAsVolcano("SELECT id, grp FROM t WHERE grp < 8");
  ExpectSameRowsAsVolcano("SELECT id, val FROM t WHERE val < 50");
  db_.SetDop(8);
  EXPECT_EQ(Run("SELECT id FROM t WHERE grp = 5").rows.size(), 0u);
  db_.SetDop(1);
}

TEST_F(ParallelExecTest, VecParallelScanOpDirect) {
  SeedTable("t", 10000, 12);  // five morsels
  const Table* t = std::move(db_.catalog().GetTable("t")).ValueOrDie();
  ThreadPool pool(8);
  exec::VecParallelScanOp scan(t, "t", {}, {}, {}, {}, nullptr,
                               exec::ParallelContext{&pool, 8});
  scan.Open();
  Tuple row;
  size_t n = 0;
  int64_t last_id = -1;
  while (scan.Next(&row)) {
    // Slot order must be preserved across morsel boundaries.
    EXPECT_GT(row[0].AsInt(), last_id);
    last_id = row[0].AsInt();
    ++n;
  }
  scan.Close();
  EXPECT_EQ(n, 10000u);
  EXPECT_EQ(scan.rows_produced(), 10000u);
  // Every worker's rows are accounted for, and they sum to the result.
  ASSERT_GT(scan.worker_rows().size(), 1u);
  uint64_t worker_sum = 0;
  for (uint64_t w : scan.worker_rows()) worker_sum += w;
  EXPECT_EQ(worker_sum, 10000u);
}

TEST_F(ParallelExecTest, TaskGroupRunsAllTasksAndInlineFallback) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 100; ++i) {
      group.Spawn([&counter] { counter.fetch_add(1); });
    }
    group.Wait();
  }
  EXPECT_EQ(counter.load(), 100);

  // Null pool: tasks run inline at Spawn time.
  TaskGroup inline_group(nullptr);
  int serial = 0;
  inline_group.Spawn([&serial] { ++serial; });
  EXPECT_EQ(serial, 1);
  inline_group.Wait();
}

TEST_F(ParallelExecTest, DopKnobRegisteredWithAdvisor) {
  EXPECT_EQ(advisor::kNumKnobs, 9u);
  EXPECT_STREQ(advisor::KnobName(advisor::kExecDop), "exec_dop");
  EXPECT_EQ(advisor::DopFromKnob(0.0), 1u);
  EXPECT_EQ(advisor::DopFromKnob(1.0), 8u);
  EXPECT_EQ(advisor::DopFromKnob(0.5, 16), 9u);

  // The analytic surface rewards dop on OLAP workloads, so tuners can find it.
  advisor::KnobEnvironment env(advisor::WorkloadProfile::Olap());
  advisor::KnobConfig serial = advisor::KnobEnvironment::DefaultConfig();
  advisor::KnobConfig parallel = serial;
  parallel[advisor::kExecDop] = 1.0;
  EXPECT_GT(env.TrueThroughput(parallel), env.TrueThroughput(serial));
}

TEST_F(ParallelExecTest, SetDopIsIdempotentAndRevertible) {
  SeedTable("t", 20000, 13);
  db_.SetDop(8);
  db_.SetDop(4);  // shrink: pool stays, planner dop drops
  EXPECT_EQ(db_.dop(), 4u);
  auto r = Run("SELECT COUNT(*) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 20000);
  db_.SetDop(0);  // back to serial
  EXPECT_EQ(db_.dop(), 1u);
  EXPECT_EQ(Run("EXPLAIN SELECT * FROM t").message.find("VecParallelScan"),
            std::string::npos);
}

TEST_F(ParallelExecTest, ExecPoolIsGrowOnlyAndCappedAt64) {
  // Regression pin for the documented pool contract: no pool until dop > 1,
  // grow-only sizing (lowering dop never tears workers down), and a hard
  // cap of 64 threads however large the requested dop.
  EXPECT_EQ(db_.exec_pool_threads(), 0u);
  db_.SetDop(1);
  EXPECT_EQ(db_.exec_pool_threads(), 0u);  // serial never allocates a pool

  db_.SetDop(4);
  EXPECT_EQ(db_.exec_pool_threads(), 4u);
  db_.SetDop(2);  // shrink request: planner dop drops, pool must not
  EXPECT_EQ(db_.dop(), 2u);
  EXPECT_EQ(db_.exec_pool_threads(), 4u);
  db_.SetDop(6);  // grow: pool follows
  EXPECT_EQ(db_.exec_pool_threads(), 6u);
  db_.SetDop(1);  // back to serial: pool survives for the next parallel burst
  EXPECT_EQ(db_.exec_pool_threads(), 6u);

  db_.SetDop(100000);  // absurd request clamps to the 64-thread ceiling
  EXPECT_EQ(db_.dop(), 64u);
  EXPECT_EQ(db_.exec_pool_threads(), 64u);
  db_.SetDop(8);
  EXPECT_EQ(db_.exec_pool_threads(), 64u);  // still grow-only after the cap
}

}  // namespace
}  // namespace aidb
