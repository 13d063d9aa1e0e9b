#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "advisor/knob/durability_env.h"
#include "exec/database.h"
#include "monitor/durability_metrics.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace aidb {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest schedules discovered cases concurrently, and
    // a shared directory makes SetUp's remove_all race a sibling's open DB.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("aidb_recovery_test_") + info->name() + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Database> Open(DurabilityOptions opts = {}) {
    auto db = Database::Open(dir_, opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).ValueOrDie();
  }

  static void Run(Database& db, const std::string& sql) {
    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }

  static std::string Digest(const Database& db) {
    return storage::StateDigest(db.catalog(), db.models());
  }

  static int64_t Count(Database& db, const std::string& table) {
    auto r = db.Execute("SELECT COUNT(*) FROM " + table);
    EXPECT_TRUE(r.ok());
    return r.ValueOrDie().rows[0][0].AsInt();
  }

  std::string dir_;
};

TEST_F(RecoveryTest, FullStatePersistsAcrossReopen) {
  std::string before;
  {
    auto db = Open();
    Run(*db, "CREATE TABLE items (id INT, price DOUBLE, tag STRING)");
    for (int i = 0; i < 200; ++i) {
      Run(*db, "INSERT INTO items VALUES (" + std::to_string(i) + ", " +
                   std::to_string(i * 1.5) + ", 'tag" + std::to_string(i % 7) +
                   "')");
    }
    Run(*db, "CREATE INDEX idx_id ON items(id)");
    Run(*db, "UPDATE items SET price = 99.5 WHERE id < 10");
    Run(*db, "DELETE FROM items WHERE id >= 190");
    Run(*db, "CREATE MODEL pricer TYPE linear PREDICT price ON items FEATURES (id)");
    ASSERT_TRUE(db->FlushWal().ok());
    before = Digest(*db);
  }
  auto db = Open();
  EXPECT_EQ(Digest(*db), before);
  EXPECT_EQ(Count(*db, "items"), 190);
  EXPECT_TRUE(db->catalog().FindIndex("items", "id") != nullptr);
  EXPECT_TRUE(db->models().Contains("pricer"));
  // Recovered rows are queryable through the recovered index path too.
  auto r = db->Execute("SELECT COUNT(*) FROM items WHERE id = 5");
  EXPECT_EQ(r.ValueOrDie().rows[0][0].AsInt(), 1);
}

TEST_F(RecoveryTest, EmptyWalOpensCleanly) {
  { auto db = Open(); }  // creates dir + empty wal, logs nothing
  auto db = Open();
  EXPECT_FALSE(db->last_recovery().snapshot_loaded);
  EXPECT_EQ(db->last_recovery().records_scanned, 0u);
  EXPECT_TRUE(db->catalog().TableNames().empty());
  Run(*db, "CREATE TABLE t (a INT)");  // still fully usable
}

TEST_F(RecoveryTest, SnapshotOnlyRecoveryReplaysNothing) {
  std::string before;
  {
    auto db = Open();
    Run(*db, "CREATE TABLE t (a INT, b STRING)");
    Run(*db, "INSERT INTO t VALUES (1, 'x'), (2, NULL), (3, '')");
    ASSERT_TRUE(db->Checkpoint().ok());
    before = Digest(*db);
  }
  auto db = Open();
  EXPECT_TRUE(db->last_recovery().snapshot_loaded);
  EXPECT_EQ(db->last_recovery().records_replayed, 0u);  // WAL was truncated
  EXPECT_EQ(Digest(*db), before);
  EXPECT_EQ(Count(*db, "t"), 3);
}

TEST_F(RecoveryTest, SnapshotPlusWalTailRecovers) {
  std::string before;
  {
    auto db = Open();
    Run(*db, "CREATE TABLE t (a INT)");
    Run(*db, "INSERT INTO t VALUES (1), (2)");
    ASSERT_TRUE(db->Checkpoint().ok());
    Run(*db, "INSERT INTO t VALUES (3)");  // lives only in the WAL
    Run(*db, "DELETE FROM t WHERE a = 1");
    ASSERT_TRUE(db->FlushWal().ok());
    before = Digest(*db);
  }
  auto db = Open();
  EXPECT_TRUE(db->last_recovery().snapshot_loaded);
  EXPECT_GT(db->last_recovery().records_replayed, 0u);
  EXPECT_EQ(Digest(*db), before);
  EXPECT_EQ(Count(*db, "t"), 2);
}

TEST_F(RecoveryTest, TornFinalRecordIsTruncatedNotFatal) {
  std::string committed;
  {
    auto db = Open();
    Run(*db, "CREATE TABLE t (a INT)");
    Run(*db, "INSERT INTO t VALUES (1), (2), (3)");
    ASSERT_TRUE(db->FlushWal().ok());
    committed = Digest(*db);
  }
  // A record that started writing but never finished: garbage shorter than
  // its own length header claims.
  {
    std::ofstream wal(dir_ + "/wal.log", std::ios::binary | std::ios::app);
    std::string torn =
        storage::EncodeWalFrame(99, storage::WalRecordType::kCommit,
                                storage::EncodeCommit(99));
    wal << torn.substr(0, torn.size() - 3);
  }
  auto db = Open();
  EXPECT_TRUE(db->last_recovery().tail_truncated);
  EXPECT_GT(db->last_recovery().truncated_bytes, 0u);
  EXPECT_EQ(Digest(*db), committed);
  // The torn bytes are gone from disk: a second recovery sees a clean log.
  db.reset();
  auto db2 = Open();
  EXPECT_FALSE(db2->last_recovery().tail_truncated);
  EXPECT_EQ(Digest(*db2), committed);
}

TEST_F(RecoveryTest, UncommittedTailIsRolledBack) {
  std::string committed;
  {
    auto db = Open();
    Run(*db, "CREATE TABLE t (a INT)");
    Run(*db, "INSERT INTO t VALUES (1)");
    ASSERT_TRUE(db->FlushWal().ok());
    committed = Digest(*db);
  }
  // An insert record whose COMMIT never made it to disk: valid CRC, but the
  // transaction must not be replayed (and must be truncated so it can never
  // resurrect behind later appends).
  {
    storage::InsertPayload p;
    p.table = "t";
    p.first_row_id = 1;
    p.rows = {{Value(int64_t{777})}};
    std::ofstream wal(dir_ + "/wal.log", std::ios::binary | std::ios::app);
    wal << storage::EncodeWalFrame(100, storage::WalRecordType::kInsert,
                                   storage::EncodeInsert(p));
  }
  auto db = Open();
  EXPECT_TRUE(db->last_recovery().tail_truncated);
  EXPECT_EQ(Digest(*db), committed);
  EXPECT_EQ(Count(*db, "t"), 1);
}

TEST_F(RecoveryTest, DropTableSurvivesCrashBeforeCheckpoint) {
  {
    auto db = Open();
    Run(*db, "CREATE TABLE doomed (a INT)");
    Run(*db, "INSERT INTO doomed VALUES (1)");
    ASSERT_TRUE(db->Checkpoint().ok());  // snapshot still contains `doomed`
    Run(*db, "CREATE TABLE kept (b INT)");
    Run(*db, "DROP TABLE doomed");  // only the WAL knows
    ASSERT_TRUE(db->FlushWal().ok());
  }
  auto db = Open();
  EXPECT_FALSE(db->catalog().GetTable("doomed").ok());
  EXPECT_TRUE(db->catalog().GetTable("kept").ok());
}

TEST_F(RecoveryTest, OpenTwiceIsIdempotent) {
  {
    auto db = Open();
    Run(*db, "CREATE TABLE t (a INT, s STRING)");
    Run(*db, "INSERT INTO t VALUES (1, 'one'), (2, 'two')");
    Run(*db, "UPDATE t SET s = 'uno' WHERE a = 1");
    ASSERT_TRUE(db->Checkpoint().ok());
    Run(*db, "INSERT INTO t VALUES (3, 'three')");
    ASSERT_TRUE(db->FlushWal().ok());
  }
  std::string first;
  {
    auto db = Open();
    first = Digest(*db);
  }
  auto db = Open();
  EXPECT_EQ(Digest(*db), first);
  EXPECT_EQ(db->last_recovery().next_txn_id, 5u);  // 4 committed statements
}

TEST_F(RecoveryTest, ModelPredictionsSurviveReopen) {
  double before = 0.0;
  {
    auto db = Open();
    Run(*db, "CREATE TABLE d (x INT, y DOUBLE)");
    for (int i = 0; i < 50; ++i)
      Run(*db, "INSERT INTO d VALUES (" + std::to_string(i) + ", " +
                   std::to_string(3.0 * i + 1.0) + ")");
    Run(*db, "CREATE MODEL m TYPE linear PREDICT y ON d FEATURES (x)");
    ASSERT_TRUE(db->Checkpoint().ok());
    auto fn = db->models().Resolve("m").ValueOrDie();
    before = fn({25.0});
  }
  auto db = Open();
  auto fn = db->models().Resolve("m").ValueOrDie();
  // The snapshot restores the exact parameter blob: bit-equal predictions.
  EXPECT_EQ(fn({25.0}), before);
}

TEST_F(RecoveryTest, AutoCheckpointKnobTriggersCheckpoints) {
  auto opts = DurabilityOptions{};
  opts.checkpoint_every_n_records = 8;
  auto db = Open(opts);
  Run(*db, "CREATE TABLE t (a INT)");
  for (int i = 0; i < 20; ++i)
    Run(*db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
  EXPECT_GT(db->durability_stats().checkpoints_written, 0u);
  std::string before = Digest(*db);
  db.reset();
  auto db2 = Open();
  EXPECT_EQ(Digest(*db2), before);
}

TEST_F(RecoveryTest, InMemoryDatabaseIsUnaffected) {
  Database db;
  EXPECT_FALSE(db.durable());
  EXPECT_FALSE(db.crashed());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(db.FlushWal().ok());     // not durable: surface errors, not UB
  EXPECT_FALSE(db.Checkpoint().ok());
  EXPECT_EQ(db.durability_stats().wal.records_appended, 0u);
}

// ----- Advisor knob integration -----

TEST_F(RecoveryTest, WalFlushIntervalKnobMapping) {
  EXPECT_EQ(advisor::WalFlushIntervalFromKnob(1.0), 1u);    // synchronous
  EXPECT_EQ(advisor::WalFlushIntervalFromKnob(0.0), 1024u);  // max batching
  size_t mid = advisor::WalFlushIntervalFromKnob(0.5);
  EXPECT_GT(mid, 1u);
  EXPECT_LT(mid, 1024u);
  EXPECT_GE(advisor::CheckpointEveryNFromKnob(0.0), 16u);
  EXPECT_LE(advisor::CheckpointEveryNFromKnob(1.0), 4096u);
}

TEST_F(RecoveryTest, ApplyDurabilityKnobsHitsLiveDatabase) {
  auto db = Open();
  advisor::KnobConfig config = advisor::KnobEnvironment::DefaultConfig();
  config[advisor::kWalSync] = 0.0;  // fully relaxed -> interval 1024
  advisor::ApplyDurabilityKnobs(db.get(), config);
  EXPECT_EQ(db->wal_flush_interval(), 1024u);
  config[advisor::kWalSync] = 1.0;  // synchronous commit
  advisor::ApplyDurabilityKnobs(db.get(), config);
  EXPECT_EQ(db->wal_flush_interval(), 1u);

  Database in_memory;
  advisor::ApplyDurabilityKnobs(&in_memory, config);  // must be a safe no-op
  EXPECT_FALSE(in_memory.durable());
}

TEST_F(RecoveryTest, DurabilityKnobEnvironmentHasInteriorOptimum) {
  advisor::DurabilityEnvOptions opts;
  opts.scratch_dir = dir_ + "/knob_scratch";
  opts.statements = 96;
  advisor::DurabilityKnobEnvironment env(advisor::WorkloadProfile::Oltp(), opts);

  advisor::KnobConfig sync = advisor::KnobEnvironment::DefaultConfig();
  sync[advisor::kWalSync] = 1.0;  // interval 1: fsync per record
  advisor::KnobConfig grouped = sync;
  grouped[advisor::kWalSync] = 0.4;  // interval ~64
  advisor::KnobConfig lax = sync;
  lax[advisor::kWalSync] = 0.0;  // interval 1024: huge durability lag

  double s_sync = env.DurabilityScore(sync);
  double s_grouped = env.DurabilityScore(grouped);
  double s_lax = env.DurabilityScore(lax);
  // Group commit beats synchronous commit on throughput; the durability-lag
  // penalty takes the extreme setting back down: a measurable, tunable knob.
  EXPECT_GT(s_grouped, s_sync);
  EXPECT_GT(s_grouped, s_lax);
  // Deterministic surface: same config, same score.
  EXPECT_EQ(env.DurabilityScore(grouped), s_grouped);
}

// ----- Monitoring KPIs -----

TEST_F(RecoveryTest, DurabilityMetricsTrackLagAndRecovery) {
  monitor::DurabilityMetrics metrics;
  Database in_memory;
  EXPECT_FALSE(metrics.Sample(in_memory));  // non-durable: nothing to sample

  auto opts = DurabilityOptions{};
  opts.wal_flush_interval = 4;
  auto db = Open(opts);
  ASSERT_TRUE(metrics.Sample(*db));
  Run(*db, "CREATE TABLE t (a INT)");
  for (int i = 0; i < 9; ++i)
    Run(*db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
  ASSERT_TRUE(metrics.Sample(*db));

  EXPECT_GT(metrics.RecordsDelta(), 0u);
  EXPECT_GT(metrics.BytesPerRecord(), 0.0);
  double fsync_rate = metrics.FsyncPerRecord();
  EXPECT_GT(fsync_rate, 0.0);
  EXPECT_LT(fsync_rate, 1.0);  // group commit: fewer syncs than records
  std::string report = metrics.Report();
  EXPECT_NE(report.find("durability:"), std::string::npos);
  EXPECT_NE(report.find("fsync/rec="), std::string::npos);
}

}  // namespace
}  // namespace aidb
