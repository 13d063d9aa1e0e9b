#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "exec/database.h"
#include "txn/lock_manager.h"
#include "txn/simulator.h"

namespace aidb::txn {
namespace {

TEST(LockManagerTest, SharedLocksCompatible) {
  LockManager lm;
  EXPECT_TRUE(lm.TryLock(1, 100, LockMode::kShared));
  EXPECT_TRUE(lm.TryLock(2, 100, LockMode::kShared));
  EXPECT_FALSE(lm.TryLock(3, 100, LockMode::kExclusive));
}

TEST(LockManagerTest, ExclusiveBlocksAll) {
  LockManager lm;
  EXPECT_TRUE(lm.TryLock(1, 100, LockMode::kExclusive));
  EXPECT_FALSE(lm.TryLock(2, 100, LockMode::kShared));
  EXPECT_FALSE(lm.TryLock(2, 100, LockMode::kExclusive));
  // Reentrant for the holder.
  EXPECT_TRUE(lm.TryLock(1, 100, LockMode::kShared));
  EXPECT_TRUE(lm.TryLock(1, 100, LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeOnlyWhenSoleHolder) {
  LockManager lm;
  EXPECT_TRUE(lm.TryLock(1, 5, LockMode::kShared));
  EXPECT_TRUE(lm.TryLock(1, 5, LockMode::kExclusive));  // sole holder upgrade
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.TryLock(1, 5, LockMode::kShared));
  EXPECT_TRUE(lm.TryLock(2, 5, LockMode::kShared));
  EXPECT_FALSE(lm.TryLock(1, 5, LockMode::kExclusive));  // contended upgrade
}

TEST(LockManagerTest, ReleaseAllFreesKeys) {
  LockManager lm;
  EXPECT_TRUE(lm.TryLock(1, 1, LockMode::kExclusive));
  EXPECT_TRUE(lm.TryLock(1, 2, LockMode::kExclusive));
  EXPECT_EQ(lm.NumLockedKeys(), 2u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
  EXPECT_TRUE(lm.TryLock(2, 1, LockMode::kExclusive));
}

TEST(LockManagerTest, RefusedUpgradeLeavesSharedStateIntact) {
  LockManager lm;
  EXPECT_TRUE(lm.TryLock(1, 5, LockMode::kShared));
  EXPECT_TRUE(lm.TryLock(2, 5, LockMode::kShared));
  // The refused upgrade must not eject either shared holder or leave a
  // half-installed exclusive claim behind.
  EXPECT_FALSE(lm.TryLock(1, 5, LockMode::kExclusive));
  EXPECT_TRUE(lm.TryLock(3, 5, LockMode::kShared));   // still share-compatible
  EXPECT_FALSE(lm.TryLock(4, 5, LockMode::kExclusive));
  // Once the other holders drain, the original txn can upgrade after all.
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
  EXPECT_TRUE(lm.TryLock(1, 5, LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeKeepsHeldBookkeepingConsistent) {
  LockManager lm;
  // The S→X upgrade path flips table_ state in place without re-recording
  // the key in held_; ReleaseAll must still fully free the exclusive lock.
  EXPECT_TRUE(lm.TryLock(1, 9, LockMode::kShared));
  EXPECT_TRUE(lm.TryLock(1, 9, LockMode::kShared));  // re-entrant S: no dup
  EXPECT_TRUE(lm.TryLock(1, 9, LockMode::kExclusive));
  EXPECT_EQ(lm.NumLockedKeys(), 1u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
  EXPECT_TRUE(lm.TryLock(2, 9, LockMode::kExclusive));
  // Releasing a txn that holds nothing (or again) is a no-op.
  lm.ReleaseAll(1);
  lm.ReleaseAll(7);
  EXPECT_EQ(lm.NumLockedKeys(), 1u);
}

TEST(LockManagerTest, ReleaseDowngradedSharedHolderFreesKey) {
  LockManager lm;
  // An X holder re-requesting S is absorbed ("X implies S"); release must
  // clear the exclusive claim even though no shared entry was added.
  EXPECT_TRUE(lm.TryLock(1, 3, LockMode::kExclusive));
  EXPECT_TRUE(lm.TryLock(1, 3, LockMode::kShared));
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
  EXPECT_TRUE(lm.TryLock(2, 3, LockMode::kShared));
  EXPECT_TRUE(lm.TryLock(3, 3, LockMode::kShared));
}

TEST(LockManagerTest, TxnIdZeroIsReservedSentinel) {
  // TxnId 0 aliases the lock table's "no exclusive holder" encoding
  // (see txn/types.h); acquiring with it asserts in debug builds.
  LockManager lm;
  EXPECT_DEBUG_DEATH(lm.TryLock(kInvalidTxnId, 1, LockMode::kExclusive),
                     "reserved no-txn sentinel");
}

TEST(LockManagerTest, WouldGrantAll) {
  LockManager lm;
  EXPECT_TRUE(lm.TryLock(1, 7, LockMode::kExclusive));
  std::vector<std::pair<KeyId, LockMode>> want{{7, LockMode::kShared}};
  EXPECT_FALSE(lm.WouldGrantAll(2, want));
  EXPECT_TRUE(lm.WouldGrantAll(1, want));
  std::vector<std::pair<KeyId, LockMode>> other{{8, LockMode::kExclusive}};
  EXPECT_TRUE(lm.WouldGrantAll(2, other));
}

TEST(TxnWorkloadTest, GeneratorShapes) {
  TxnWorkloadOptions opts;
  opts.num_txns = 500;
  auto txns = GenerateTxnWorkload(opts);
  ASSERT_EQ(txns.size(), 500u);
  for (size_t i = 1; i < txns.size(); ++i) {
    EXPECT_GE(txns[i].arrival, txns[i - 1].arrival);  // generated in time order
    EXPECT_EQ(txns[i].accesses.size(), opts.accesses_per_txn);
    EXPECT_GT(txns[i].duration, 0.0);
  }
}

TEST(TxnSimulatorTest, AllCommitEventually) {
  TxnWorkloadOptions opts;
  opts.num_txns = 300;
  opts.zipf_theta = 0.5;
  auto txns = GenerateTxnWorkload(opts);
  FifoScheduler fifo;
  TxnSimulator sim;
  auto result = sim.Run(txns, &fifo);
  EXPECT_EQ(result.committed, 300u);
  EXPECT_GT(result.makespan, 0.0);
}

TEST(TxnSimulatorTest, ContentionCausesAborts) {
  TxnWorkloadOptions low, high;
  low.num_txns = high.num_txns = 400;
  low.zipf_theta = 0.1;
  low.keyspace = 100000;
  high.zipf_theta = 1.2;   // hotspot
  high.keyspace = 100;     // tiny keyspace
  FifoScheduler fifo;
  TxnSimulator sim;
  auto r_low = sim.Run(GenerateTxnWorkload(low), &fifo);
  auto r_high = sim.Run(GenerateTxnWorkload(high), &fifo);
  EXPECT_GT(r_high.AbortRate(), r_low.AbortRate());
}

}  // namespace
}  // namespace aidb::txn

namespace aidb {
namespace {

/// A bare-Database stand-in for one service session: its own transaction
/// slot threaded through ExecSettings, exactly as server::Service wires
/// Session::txn into every statement.
class MvccSession {
 public:
  explicit MvccSession(Database* db) : db_(db), settings_(db->SnapshotSettings()) {
    settings_.txn_slot = &slot_;
  }
  Result<QueryResult> operator()(const std::string& sql) {
    return db_->Execute(sql, settings_);
  }
  Result<QueryResult> Ok(const std::string& sql) {
    auto r = db_->Execute(sql, settings_);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r;
  }
  int64_t Int(const std::string& sql) {
    auto r = Ok(sql);
    if (!r.ok() || r.ValueOrDie().rows.empty()) return -1;
    return r.ValueOrDie().rows[0][0].AsInt();
  }

 private:
  Database* db_;
  std::atomic<uint64_t> slot_{0};
  ExecSettings settings_;
};

TEST(MvccVisibilityTest, ReadYourOwnWritesStayPrivateUntilCommit) {
  Database db;
  MvccSession writer(&db), reader(&db);
  writer.Ok("CREATE TABLE t (id INT, v INT)");
  writer.Ok("INSERT INTO t VALUES (1, 10)");

  writer.Ok("BEGIN");
  writer.Ok("UPDATE t SET v = 20 WHERE id = 1");
  writer.Ok("INSERT INTO t VALUES (2, 200)");
  // The writer sees its own uncommitted writes...
  EXPECT_EQ(writer.Int("SELECT v FROM t WHERE id = 1"), 20);
  EXPECT_EQ(writer.Int("SELECT COUNT(*) FROM t"), 2);
  // ...while every other session still reads the committed state.
  EXPECT_EQ(reader.Int("SELECT v FROM t WHERE id = 1"), 10);
  EXPECT_EQ(reader.Int("SELECT COUNT(*) FROM t"), 1);

  writer.Ok("COMMIT");
  EXPECT_EQ(reader.Int("SELECT v FROM t WHERE id = 1"), 20);
  EXPECT_EQ(reader.Int("SELECT COUNT(*) FROM t"), 2);
}

TEST(MvccVisibilityTest, FirstCommitterWinsAbortsSecondWriter) {
  Database db;
  MvccSession s1(&db), s2(&db);
  s1.Ok("CREATE TABLE t (id INT, v INT)");
  s1.Ok("INSERT INTO t VALUES (1, 0)");
  uint64_t conflicts0 = db.metrics().GetCounter("txn.conflicts")->Value();

  s1.Ok("BEGIN");
  s2.Ok("BEGIN");
  s1.Ok("UPDATE t SET v = 1 WHERE id = 1");
  // The second writer loses immediately (no waiting): the whole transaction
  // aborts, not just the statement.
  auto r = s2("UPDATE t SET v = 2 WHERE id = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_NE(r.status().ToString().find("write-write conflict"),
            std::string::npos);
  EXPECT_EQ(db.metrics().GetCounter("txn.conflicts")->Value(), conflicts0 + 1);

  // s2's transaction is gone; its session falls back to autocommit reads and
  // a ROLLBACK is a benign no-op.
  EXPECT_TRUE(s2("ROLLBACK").ok());
  s1.Ok("COMMIT");
  EXPECT_EQ(s2.Int("SELECT v FROM t WHERE id = 1"), 1);
}

TEST(MvccVisibilityTest, RollbackRestoresPreImage) {
  Database db;
  MvccSession s(&db);
  s.Ok("CREATE TABLE t (id INT, v INT)");
  s.Ok("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  const std::string before =
      s.Ok("SELECT id, v FROM t ORDER BY id").ValueOrDie().ToString();

  s.Ok("BEGIN");
  s.Ok("UPDATE t SET v = 99 WHERE id = 1");
  s.Ok("DELETE FROM t WHERE id = 2");
  s.Ok("INSERT INTO t VALUES (4, 40)");
  EXPECT_EQ(s.Int("SELECT COUNT(*) FROM t"), 3);
  s.Ok("ROLLBACK");

  EXPECT_EQ(s.Ok("SELECT id, v FROM t ORDER BY id").ValueOrDie().ToString(),
            before);
  EXPECT_EQ(s.Int("SELECT v FROM t WHERE id = 1"), 10);
}

TEST(MvccVisibilityTest, GcPreservesVersionsForOpenSnapshot) {
  Database db;
  MvccSession reader(&db), writer(&db);
  reader.Ok("CREATE TABLE t (id INT, v INT)");
  reader.Ok("INSERT INTO t VALUES (1, 0)");

  reader.Ok("BEGIN");
  EXPECT_EQ(reader.Int("SELECT v FROM t WHERE id = 1"), 0);
  // 100 committed overwrites cross the every-64-commits vacuum threshold at
  // least once while the reader's snapshot is pinned below all of them.
  for (int i = 1; i <= 100; ++i) {
    writer.Ok("UPDATE t SET v = " + std::to_string(i) + " WHERE id = 1");
  }
  // Vacuum must not have reclaimed the version the open snapshot reads.
  EXPECT_EQ(reader.Int("SELECT v FROM t WHERE id = 1"), 0);
  reader.Ok("COMMIT");
  EXPECT_EQ(reader.Int("SELECT v FROM t WHERE id = 1"), 100);
  // With the snapshot released the watermark passes every overwrite: the
  // next vacuum cycle (every 64 commits) reclaims the dead versions.
  for (int i = 0; i < 100; ++i) {
    writer.Ok("UPDATE t SET v = 200 WHERE id = 1");
  }
  EXPECT_GT(db.metrics().GetCounter("mvcc.versions_retired")->Value(), 0u);
}

TEST(MvccVisibilityTest, TransactionsViewAndCountersExposeMvccState) {
  Database db;
  MvccSession s1(&db), s2(&db);
  s1.Ok("CREATE TABLE t (id INT, v INT)");
  s1.Ok("INSERT INTO t VALUES (1, 0)");

  s1.Ok("BEGIN");
  s1.Ok("UPDATE t SET v = 1 WHERE id = 1");
  // Another session's view of open transactions includes s1's, with its
  // write count.
  auto r = s2.Ok("SELECT id, read_ts, writes FROM aidb_transactions");
  bool found = false;
  for (const auto& row : r.ValueOrDie().rows) {
    if (row[2].AsInt() == 1) found = true;
  }
  EXPECT_TRUE(found) << "open writer missing from aidb_transactions";
  s1.Ok("COMMIT");

  uint64_t commits = db.metrics().GetCounter("txn.commits")->Value();
  uint64_t begins = db.metrics().GetCounter("txn.begins")->Value();
  EXPECT_GT(commits, 0u);
  EXPECT_GE(begins, commits);
  // The counters are served through SQL too.
  auto m = s2.Ok(
      "SELECT name, value FROM aidb_metrics WHERE name = 'txn.commits'");
  ASSERT_EQ(m.ValueOrDie().rows.size(), 1u);
  EXPECT_GE(m.ValueOrDie().rows[0][1].AsDouble(), static_cast<double>(commits));
}

class TxnRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("aidb_txn_recovery_") + info->name() + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Database> Open() {
    DurabilityOptions opts;
    opts.wal_flush_interval = 1;  // every kTxnOp reaches disk immediately
    auto db = Database::Open(dir_, opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).ValueOrDie();
  }

  std::string dir_;
};

TEST_F(TxnRecoveryTest, RecoveryDiscardsUncommittedExplicitTail) {
  {
    auto db = Open();
    MvccSession s(db.get());
    s.Ok("CREATE TABLE t (id INT, v INT)");
    s.Ok("INSERT INTO t VALUES (1, 10)");
    s.Ok("BEGIN");
    s.Ok("INSERT INTO t VALUES (2, 20)");
    s.Ok("UPDATE t SET v = 99 WHERE id = 1");
    // Both ops are on disk as kTxnOp records, but no commit record ever
    // lands: the database is dropped with the transaction open.
  }
  auto db = Open();
  MvccSession s(db.get());
  EXPECT_EQ(s.Int("SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(s.Int("SELECT v FROM t WHERE id = 1"), 10);
}

TEST_F(TxnRecoveryTest, RecoveryKeepsCommittedExplicitTxns) {
  {
    auto db = Open();
    MvccSession s(db.get());
    s.Ok("CREATE TABLE t (id INT, v INT)");
    s.Ok("BEGIN");
    s.Ok("INSERT INTO t VALUES (1, 10)");
    s.Ok("INSERT INTO t VALUES (2, 20)");
    s.Ok("COMMIT");
    s.Ok("BEGIN");
    s.Ok("UPDATE t SET v = 11 WHERE id = 1");
    s.Ok("ROLLBACK");
  }
  auto db = Open();
  MvccSession s(db.get());
  EXPECT_EQ(s.Int("SELECT COUNT(*) FROM t"), 2);
  EXPECT_EQ(s.Int("SELECT v FROM t WHERE id = 1"), 10);
}

// ---------------------------------------------------------------------------
// ParallelMvcc*: the TSan suite. N writer threads committing transfer
// transactions while reader threads scan — snapshot reads take no locks, so
// TSan only stays quiet if the version-chain publication protocol is right.
// ---------------------------------------------------------------------------

TEST(ParallelMvccTest, TransfersPreserveInvariantUnderConcurrentReads) {
  Database db;
  constexpr int kAccounts = 16;
  constexpr int64_t kTotal = kAccounts * 100;
  {
    MvccSession setup(&db);
    setup.Ok("CREATE TABLE bank (id INT, v INT)");
    for (int i = 0; i < kAccounts; ++i) {
      setup.Ok("INSERT INTO bank VALUES (" + std::to_string(i) + ", 100)");
    }
  }

  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kTransfersPerWriter = 50;
  std::atomic<bool> stop{false};
  std::atomic<int> retries{0};
  std::atomic<int> bad_sums{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      MvccSession s(&db);
      for (int i = 0; i < kTransfersPerWriter; ++i) {
        int from = (w * 5 + i) % kAccounts;
        int to = (from + 1 + i % (kAccounts - 1)) % kAccounts;
        int attempts = 0;
        for (;;) {  // retry the transfer until it commits
          ASSERT_LT(++attempts, 10000) << "transfer cannot make progress";
          (void)s("BEGIN");
          auto r1 = s("UPDATE bank SET v = v - 1 WHERE id = " +
                      std::to_string(from));
          auto r2 = r1.ok() ? s("UPDATE bank SET v = v + 1 WHERE id = " +
                                std::to_string(to))
                            : std::move(r1);
          if (r2.ok() && s("COMMIT").ok()) break;
          // A write-write conflict already aborted the transaction and a
          // ROLLBACK after that is a benign no-op; any other failure needs it.
          (void)s("ROLLBACK");
          retries.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      MvccSession s(&db);
      while (!stop.load(std::memory_order_acquire)) {
        auto sum = s("SELECT SUM(v) FROM bank");  // SUM renders as DOUBLE
        if (!sum.ok() || sum.ValueOrDie().rows[0][0].AsDouble() !=
                             static_cast<double>(kTotal)) {
          bad_sums.fetch_add(1);  // a torn transfer became visible
        }
      }
    });
  }
  for (int i = 0; i < kWriters; ++i) threads[static_cast<size_t>(i)].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(bad_sums.load(), 0);
  MvccSession check(&db);
  auto final_sum = check.Ok("SELECT SUM(v) FROM bank");
  EXPECT_EQ(final_sum.ValueOrDie().rows[0][0].AsDouble(),
            static_cast<double>(kTotal));
  EXPECT_GT(db.metrics().GetCounter("txn.commits")->Value(), 0u);
}

TEST(ParallelMvccTest, RolledBackWritesNeverVisible) {
  Database db;
  {
    MvccSession setup(&db);
    setup.Ok("CREATE TABLE t (id INT, v INT)");
  }
  std::atomic<bool> stop{false};
  std::atomic<int> leaks{0};

  std::thread writer([&] {
    MvccSession s(&db);
    for (int round = 0; round < 40; ++round) {
      (void)s("BEGIN");
      for (int i = 0; i < 20; ++i) {
        s.Ok("INSERT INTO t VALUES (" + std::to_string(round * 100 + i) +
             ", 1)");
      }
      (void)s("ROLLBACK");
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      MvccSession s(&db);
      while (!stop.load(std::memory_order_acquire)) {
        // Nothing ever commits, so no snapshot may see a single row.
        auto c = s("SELECT COUNT(*) FROM t");
        if (!c.ok() || c.ValueOrDie().rows[0][0].AsInt() != 0) {
          leaks.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(leaks.load(), 0);
  MvccSession check(&db);
  EXPECT_EQ(check.Int("SELECT COUNT(*) FROM t"), 0);
}

// Regression (ASan leg): autocommit SELECTs used to run under a fabricated
// Snapshot{last_commit_ts, kInvalidTxnId} that no vacuum accounting knew
// about, so an aggressive vacuum could reclaim a version while the reader
// was still walking its chain — a use-after-free only ASan reliably sees.
// Reads now pin a registered epoch slot for the statement's whole window.
// One hot row takes hundreds of committed overwrites (the every-64-commits
// vacuum fires many times) while readers hammer autocommit point SELECTs
// against its growing-and-shrinking version chain.
TEST(ParallelMvccTest, AutocommitReadsSurviveAggressiveVacuum) {
  Database db;
  {
    MvccSession setup(&db);
    setup.Ok("CREATE TABLE hot (id INT, v INT)");
    setup.Ok("INSERT INTO hot VALUES (1, 0)");
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      MvccSession s(&db);
      while (!stop.load(std::memory_order_acquire)) {
        // Autocommit: each SELECT pins its own latest-committed snapshot.
        auto res = s("SELECT v FROM hot WHERE id = 1");
        if (!res.ok() || res.ValueOrDie().rows.size() != 1 ||
            res.ValueOrDie().rows[0][0].AsInt() < 0) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  {
    MvccSession w(&db);
    for (int i = 1; i <= 600; ++i) {  // ~9 vacuum cycles
      w.Ok("UPDATE hot SET v = " + std::to_string(i) + " WHERE id = 1");
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad_reads.load(), 0);
  MvccSession check(&db);
  EXPECT_EQ(check.Int("SELECT v FROM hot WHERE id = 1"), 600);
  EXPECT_GT(db.metrics().GetCounter("mvcc.read_pins")->Value(), 0u);
}

// The exact vacuum watermark boundary: a reader pinned at read_ts == R when
// the watermark computes to exactly R. Versions whose end_ts <= R are
// reclaimable (the pinned snapshot reads past them: visibility requires
// read_ts < end_ts), and the version straddling R (begin_ts <= R < end_ts)
// must survive. Driven at the storage level so the boundary is deterministic
// rather than dependent on the engine's 64-commit vacuum cadence.
TEST(ParallelMvccTest, ReaderPinnedExactlyAtWatermarkKeepsItsVersion) {
  Database db;
  MvccSession s(&db);
  s.Ok("CREATE TABLE t (id INT, v INT)");
  s.Ok("INSERT INTO t VALUES (1, 0)");
  // Build a 41-version chain (INSERT + 40 overwrites), staying under the
  // 64-commit automatic vacuum so the chain is intact when we pin.
  for (int i = 1; i <= 40; ++i) {
    s.Ok("UPDATE t SET v = " + std::to_string(i) + " WHERE id = 1");
  }
  auto& tm = db.txn_manager();
  Table* t = db.catalog().GetTable("t").ValueOrDie();
  ASSERT_GT(t->CountVersions(), 40u);

  {
    txn::ReadPin pin(&tm);
    // No other snapshot is live, so the pin IS the watermark — the boundary
    // case where the reader's read_ts equals what vacuum reclaims up to.
    const uint64_t wm = tm.WatermarkTs();
    ASSERT_EQ(wm, pin.read_ts());
    size_t unlinked = t->Vacuum(wm, [&](Version* v) { tm.Retire(v); });
    EXPECT_GE(unlinked, 39u);  // every version dead at or before wm
    tm.FreeRetired();
    // The straddling version (begin_ts == wm, end_ts == infinity) survived
    // and the pinned snapshot still resolves through it.
    const Tuple* row = t->VisibleAt(0, pin.snapshot());
    ASSERT_NE(row, nullptr);
    EXPECT_EQ((*row)[1].AsInt(), 40);
  }
  // Pin released: the reader no longer holds the watermark down, and the
  // suriving single-version chain is unchanged for new readers.
  EXPECT_EQ(s.Int("SELECT v FROM t WHERE id = 1"), 40);
  EXPECT_EQ(t->CountVersions(), 1u);
}

}  // namespace
}  // namespace aidb
