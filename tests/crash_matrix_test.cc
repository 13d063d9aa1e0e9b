#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "exec/database.h"
#include "storage/fault_injector.h"
#include "storage/recovery.h"

namespace aidb {
namespace {

using storage::FaultInjector;
using storage::FaultKind;

/// The scripted workload: every statement is mutating, so committed
/// statement-transaction N is exactly script statement N — which is what
/// lets the oracle replay "the first K statements" after a crash.
std::vector<std::string> CrashScript() {
  std::vector<std::string> script;
  script.push_back("CREATE TABLE acct (id INT, bal DOUBLE, tag STRING)");
  script.push_back("CREATE TABLE audit (id INT, what STRING)");
  for (int i = 0; i < 8; ++i) {
    script.push_back("INSERT INTO acct VALUES (" + std::to_string(i) + ", " +
                     std::to_string(100.0 + i) + ", 'seed'), (" +
                     std::to_string(100 + i) + ", " + std::to_string(200.0 + i) +
                     ", NULL)");
  }
  script.push_back("CREATE INDEX idx_acct ON acct(id)");
  for (int i = 0; i < 6; ++i) {
    script.push_back("UPDATE acct SET bal = " + std::to_string(500.0 + i) +
                     ", tag = 'upd' WHERE id = " + std::to_string(i));
    script.push_back("INSERT INTO audit VALUES (" + std::to_string(i) +
                     ", 'update')");
  }
  script.push_back("DELETE FROM acct WHERE id >= 104");
  script.push_back("CREATE TABLE doomed (x INT)");
  script.push_back("INSERT INTO doomed VALUES (1), (2)");
  script.push_back("DROP TABLE doomed");
  script.push_back(
      "CREATE MODEL balm TYPE linear PREDICT bal ON acct FEATURES (id)");
  for (int i = 0; i < 6; ++i) {
    script.push_back("INSERT INTO audit VALUES (" + std::to_string(100 + i) +
                     ", 'tail')");
    script.push_back("DELETE FROM audit WHERE id = " + std::to_string(i));
  }
  script.push_back("DROP INDEX idx_acct");
  script.push_back("CREATE INDEX idx_acct2 ON acct(bal)");
  return script;
}

/// Digest of the state an uncrashed engine reaches after the first
/// `statements` script statements — the recovery oracle. Replayed on a fresh
/// in-memory Database: durability must not change what a statement does.
std::string OracleDigest(const std::vector<std::string>& script,
                         size_t statements) {
  Database db;
  for (size_t i = 0; i < statements; ++i) {
    auto r = db.Execute(script[i]);
    EXPECT_TRUE(r.ok()) << script[i] << ": " << r.status().ToString();
  }
  return storage::StateDigest(db.catalog(), db.models());
}

class CrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: a shared one races sibling cases under ctest -j.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("aidb_crash_matrix_") + info->name() + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DurabilityOptions Opts(FaultInjector* fault) {
    DurabilityOptions opts;
    opts.wal_flush_interval = 1;        // flush per record: max injection points
    opts.checkpoint_every_n_records = 24;  // exercises snapshot points too
    opts.sync = false;                  // damage is simulated, skip real fsyncs
    opts.fault = fault;
    return opts;
  }

  /// Runs the script until a fault fires (or to completion). Returns the
  /// number of statements that fully succeeded.
  size_t RunUntilCrash(Database* db, const std::vector<std::string>& script) {
    size_t ok = 0;
    for (const auto& sql : script) {
      if (!db->Execute(sql).ok()) break;
      ++ok;
    }
    return ok;
  }

  std::string dir_;
};

TEST_F(CrashMatrixTest, WorkloadHasEnoughInjectionPoints) {
  FaultInjector counter(7);  // counting mode: nothing armed
  {
    auto db = Database::Open(dir_, Opts(&counter)).ValueOrDie();
    EXPECT_EQ(RunUntilCrash(db.get(), CrashScript()), CrashScript().size());
  }
  // The ISSUE floor: a crash matrix below ~50 points is not a matrix.
  EXPECT_GE(counter.points_seen(), 50u);
}

TEST_F(CrashMatrixTest, EveryInjectionPointRecoversToOracle) {
  const std::vector<std::string> script = CrashScript();

  // Counting pass: learn how many durable steps the workload performs.
  uint64_t total_points = 0;
  {
    FaultInjector counter(7);
    std::filesystem::remove_all(dir_);
    auto db = Database::Open(dir_, Opts(&counter)).ValueOrDie();
    ASSERT_EQ(RunUntilCrash(db.get(), script), script.size());
    total_points = counter.points_seen();
  }
  ASSERT_GE(total_points, 50u);

  const FaultKind kinds[] = {FaultKind::kTornWrite, FaultKind::kDroppedFsync,
                             FaultKind::kCorruptByte, FaultKind::kCleanCrash};

  // The matrix: crash at every point, cycling through damage kinds.
  for (uint64_t point = 1; point <= total_points; ++point) {
    SCOPED_TRACE("injection point " + std::to_string(point));
    FaultKind kind = kinds[point % 4];
    SCOPED_TRACE(storage::FaultKindName(kind));

    std::filesystem::remove_all(dir_);
    FaultInjector fault(1000 + point);  // deterministic, point-specific damage
    fault.ArmCrash(point, kind);
    {
      auto db = Database::Open(dir_, Opts(&fault)).ValueOrDie();
      size_t ran = RunUntilCrash(db.get(), script);
      ASSERT_TRUE(fault.crashed());
      ASSERT_LE(ran, script.size());
      // A crashed database refuses everything until reopened.
      EXPECT_FALSE(db->Execute("INSERT INTO audit VALUES (999, 'no')").ok());
    }

    // "Reboot": recovery must land on a state some uncrashed execution of a
    // script prefix produces — no half-applied statements, no lost commits
    // beyond the armed fault, no aborts on damaged files.
    auto reopened = Database::Open(dir_, {});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto db = std::move(reopened).ValueOrDie();

    uint64_t committed = db->last_recovery().next_txn_id - 1;
    ASSERT_LE(committed, script.size());
    EXPECT_EQ(storage::StateDigest(db->catalog(), db->models()),
              OracleDigest(script, committed));

    // And the recovered database is live: it can finish the script.
    for (size_t i = committed; i < script.size(); ++i) {
      auto r = db->Execute(script[i]);
      ASSERT_TRUE(r.ok()) << script[i] << ": " << r.status().ToString();
    }
    EXPECT_EQ(storage::StateDigest(db->catalog(), db->models()),
              OracleDigest(script, script.size()));
  }
}

/// The transactional workload, as *groups* that each consume exactly one
/// transaction id: an autocommit statement, an explicit BEGIN..COMMIT block,
/// or a BEGIN..ROLLBACK block whose DML touches rows (its ops reach the WAL,
/// so the id stays pinned whether or not the abort record survives). That
/// invariant is what lets the oracle map "recovery preserved K transactions"
/// to "the first K groups" — a multi-statement transaction must recover
/// all-or-nothing, never per-statement.
std::vector<std::vector<std::string>> TxnCrashScript() {
  std::vector<std::vector<std::string>> groups;
  groups.push_back({"CREATE TABLE acct (id INT, bal DOUBLE, tag STRING)"});
  for (int i = 0; i < 4; ++i) {
    groups.push_back({"INSERT INTO acct VALUES (" + std::to_string(i) + ", " +
                      std::to_string(100.0 + i) + ", 'seed'), (" +
                      std::to_string(100 + i) + ", " +
                      std::to_string(200.0 + i) + ", NULL)"});
  }
  groups.push_back({"CREATE INDEX idx_acct ON acct(id)"});
  // Explicit multi-statement transfers: a crash between the two UPDATEs'
  // kTxnOp records must surface neither.
  for (int i = 0; i < 6; ++i) {
    groups.push_back(
        {"BEGIN",
         "UPDATE acct SET bal = bal - 10.0 WHERE id = " + std::to_string(i),
         "UPDATE acct SET bal = bal + 10.0 WHERE id = " +
             std::to_string(100 + i),
         "INSERT INTO acct VALUES (" + std::to_string(200 + i) +
             ", 0.0, 'xfer')",
         "COMMIT"});
  }
  // A rolled-back transaction with WAL-logged ops: consumes an id, changes
  // nothing — before and after recovery.
  groups.push_back({"BEGIN", "UPDATE acct SET tag = 'doomed' WHERE id <= 2",
                    "DELETE FROM acct WHERE id = 3", "ROLLBACK"});
  for (int i = 0; i < 4; ++i) {
    groups.push_back({"BEGIN",
                      "DELETE FROM acct WHERE id = " + std::to_string(200 + i),
                      "UPDATE acct SET tag = 'end' WHERE id = " +
                          std::to_string(i),
                      "COMMIT"});
  }
  groups.push_back({"INSERT INTO acct VALUES (999, 1.5, 'tail')"});
  return groups;
}

/// Oracle for the transactional script: the state an uncrashed in-memory
/// engine reaches after the first `count` groups.
std::string TxnOracleDigest(const std::vector<std::vector<std::string>>& groups,
                            size_t count) {
  Database db;
  for (size_t g = 0; g < count; ++g) {
    for (const auto& sql : groups[g]) {
      auto r = db.Execute(sql);
      EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    }
  }
  return storage::StateDigest(db.catalog(), db.models());
}

TEST_F(CrashMatrixTest, TransactionalWorkloadRecoversAtomically) {
  const auto groups = TxnCrashScript();
  std::vector<std::string> flat;
  for (const auto& g : groups) flat.insert(flat.end(), g.begin(), g.end());

  uint64_t total_points = 0;
  {
    FaultInjector counter(7);
    std::filesystem::remove_all(dir_);
    auto db = Database::Open(dir_, Opts(&counter)).ValueOrDie();
    ASSERT_EQ(RunUntilCrash(db.get(), flat), flat.size());
    total_points = counter.points_seen();
  }
  ASSERT_GE(total_points, 50u);

  const FaultKind kinds[] = {FaultKind::kTornWrite, FaultKind::kDroppedFsync,
                             FaultKind::kCorruptByte, FaultKind::kCleanCrash};
  for (uint64_t point = 1; point <= total_points; ++point) {
    SCOPED_TRACE("injection point " + std::to_string(point));
    FaultKind kind = kinds[point % 4];
    SCOPED_TRACE(storage::FaultKindName(kind));

    std::filesystem::remove_all(dir_);
    FaultInjector fault(2000 + point);
    fault.ArmCrash(point, kind);
    {
      auto db = Database::Open(dir_, Opts(&fault)).ValueOrDie();
      RunUntilCrash(db.get(), flat);
      ASSERT_TRUE(fault.crashed());
    }

    auto reopened = Database::Open(dir_, {});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto db = std::move(reopened).ValueOrDie();

    // Recovery preserved some prefix of the transaction groups — and nothing
    // in between: a transfer is either fully applied or fully absent.
    uint64_t committed = db->last_recovery().next_txn_id - 1;
    ASSERT_LE(committed, groups.size());
    EXPECT_EQ(storage::StateDigest(db->catalog(), db->models()),
              TxnOracleDigest(groups, committed));

    // The recovered database finishes the workload from the group boundary.
    for (size_t g = committed; g < groups.size(); ++g) {
      for (const auto& sql : groups[g]) {
        auto r = db->Execute(sql);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      }
    }
    EXPECT_EQ(storage::StateDigest(db->catalog(), db->models()),
              TxnOracleDigest(groups, groups.size()));
  }
}

/// --- LSM storage-engine leg ----------------------------------------------
///
/// The same scripted workload on an LSM-backed database, with a forced
/// vacuum+flush+compaction after every other statement: the counting pass
/// then walks through kSstBlockWrite, kSstFooter, kManifestUpdate and
/// kCompactionWrite points interleaved with the WAL/snapshot points, and the
/// matrix arms each of them with each damage kind. The oracle is unchanged —
/// SSTs are a rebuildable cache, so recovery must land on exactly the state
/// the committed WAL prefix describes, never on a half-flushed run.

DurabilityOptions LsmMatrixOpts(DurabilityOptions opts) {
  opts.lsm = true;
  opts.lsm_design.memtable_capacity = 4;  // flush eagerly: maximal SST points
  return opts;
}

/// Runs the script, forcing a cold-storage flush after every other
/// statement. Returns the number of statements that fully succeeded; a fault
/// firing inside flush/compaction/manifest stops the run just like one
/// firing inside a statement.
size_t RunLsmUntilCrash(Database* db, const std::vector<std::string>& script) {
  size_t ok = 0;
  for (const auto& sql : script) {
    if (!db->Execute(sql).ok()) break;
    ++ok;
    if (ok % 2 == 0 && !db->FlushColdStorage().ok()) break;
  }
  return ok;
}

TEST_F(CrashMatrixTest, LsmBackedWorkloadRecoversAtEveryPoint) {
  const std::vector<std::string> script = CrashScript();

  // Counting pass: SST/manifest/compaction points now sit between the WAL's.
  uint64_t total_points = 0;
  uint64_t baseline_points = 0;
  {
    FaultInjector counter(7);
    std::filesystem::remove_all(dir_);
    auto db = Database::Open(dir_, LsmMatrixOpts(Opts(&counter))).ValueOrDie();
    ASSERT_EQ(RunLsmUntilCrash(db.get(), script), script.size());
    total_points = counter.points_seen();
  }
  {
    FaultInjector counter(7);
    std::filesystem::remove_all(dir_);
    auto db = Database::Open(dir_, Opts(&counter)).ValueOrDie();
    ASSERT_EQ(RunUntilCrash(db.get(), script), script.size());
    baseline_points = counter.points_seen();
  }
  // The LSM path contributes a real point population of its own.
  ASSERT_GT(total_points, baseline_points + 30);

  const FaultKind kinds[] = {FaultKind::kTornWrite, FaultKind::kDroppedFsync,
                             FaultKind::kCorruptByte, FaultKind::kCleanCrash};
  for (uint64_t point = 1; point <= total_points; ++point) {
    SCOPED_TRACE("injection point " + std::to_string(point));
    FaultKind kind = kinds[point % 4];
    SCOPED_TRACE(storage::FaultKindName(kind));

    std::filesystem::remove_all(dir_);
    FaultInjector fault(3000 + point);
    fault.ArmCrash(point, kind);
    {
      auto db = Database::Open(dir_, LsmMatrixOpts(Opts(&fault))).ValueOrDie();
      size_t ran = RunLsmUntilCrash(db.get(), script);
      ASSERT_TRUE(fault.crashed());
      ASSERT_LE(ran, script.size());
      EXPECT_FALSE(db->Execute("INSERT INTO audit VALUES (999, 'no')").ok());
    }

    // Reboot LSM-backed: recovery + run re-adoption must reproduce exactly
    // the committed prefix — a damaged or half-flushed SST is dropped, never
    // surfaced. The reboot has no injector and damage is simulated, so it
    // skips physical fsyncs like every other open in the matrix.
    DurabilityOptions reboot;
    reboot.sync = false;
    auto reopened = Database::Open(dir_, LsmMatrixOpts(reboot));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto db = std::move(reopened).ValueOrDie();

    uint64_t committed = db->last_recovery().next_txn_id - 1;
    ASSERT_LE(committed, script.size());
    EXPECT_EQ(storage::StateDigest(db->catalog(), db->models()),
              OracleDigest(script, committed));

    // The recovered database is live — it finishes the script (cold tier
    // engaged) and lands on the full oracle state.
    for (size_t i = committed; i < script.size(); ++i) {
      auto r = db->Execute(script[i]);
      ASSERT_TRUE(r.ok()) << script[i] << ": " << r.status().ToString();
    }
    ASSERT_TRUE(db->FlushColdStorage().ok());
    EXPECT_EQ(storage::StateDigest(db->catalog(), db->models()),
              OracleDigest(script, script.size()));
  }
}

TEST_F(CrashMatrixTest, DoubleCrashDuringRecoveryWindowStaysConsistent) {
  const std::vector<std::string> script = CrashScript();
  // Crash once mid-workload, reopen, crash again almost immediately on the
  // resumed tail, reopen again: state must still match an oracle prefix.
  std::filesystem::remove_all(dir_);
  FaultInjector first(31);
  first.ArmCrash(20, FaultKind::kTornWrite);
  size_t ran_first = 0;
  {
    auto db = Database::Open(dir_, Opts(&first)).ValueOrDie();
    ran_first = RunUntilCrash(db.get(), script);
    ASSERT_TRUE(first.crashed());
  }
  FaultInjector second(32);
  {
    auto db = Database::Open(dir_, Opts(&second)).ValueOrDie();
    uint64_t committed = db->last_recovery().next_txn_id - 1;
    // The first recovery keeps at most the statements that ran plus the one
    // in flight when the crash hit, and restores exactly that oracle prefix.
    ASSERT_LE(committed, ran_first + 1);
    EXPECT_EQ(storage::StateDigest(db->catalog(), db->models()),
              OracleDigest(script, committed));
    second.ArmCrash(second.points_seen() + 5, FaultKind::kCorruptByte);
    RunUntilCrash(db.get(),
                  std::vector<std::string>(script.begin() + committed, script.end()));
    ASSERT_TRUE(second.crashed());
  }
  auto db = Database::Open(dir_, {}).ValueOrDie();
  uint64_t committed = db->last_recovery().next_txn_id - 1;
  ASSERT_LE(committed, script.size());
  EXPECT_EQ(storage::StateDigest(db->catalog(), db->models()),
            OracleDigest(script, committed));
}

}  // namespace
}  // namespace aidb
