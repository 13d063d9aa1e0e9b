#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "advisor/knob/storage_env.h"
#include "exec/database.h"
#include "storage/engine/lsm_engine.h"
#include "storage/engine/sst.h"
#include "storage/fault_injector.h"
#include "storage/recovery.h"
#include "storage/table.h"

namespace aidb {
namespace {

using storage::FaultInjector;
using storage::FaultKind;
using storage::SstEntry;
using storage::SstRun;
using storage::SstWriteOptions;
using storage::SstWriteResult;

// ---------------------------------------------------------------------------
// SST format layer
// ---------------------------------------------------------------------------

class SstFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("aidb_sst_") + info->name() + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// `n` three-column rows (int, double, string); slot = 2*i (gaps make the
  /// negative-lookup space real), commit ts = 100 + i.
  std::vector<Tuple> MakeRows(size_t n) {
    std::vector<Tuple> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({Value(static_cast<int64_t>(i)),
                      Value(static_cast<double>(i) * 0.5),
                      Value("s" + std::to_string(i % 13))});
    }
    return rows;
  }
  std::vector<SstEntry> MakeEntries(const std::vector<Tuple>& rows) {
    std::vector<SstEntry> entries;
    entries.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      entries.push_back({/*slot=*/2 * i, /*begin_ts=*/100 + i, &rows[i]});
    }
    return entries;
  }

  std::string dir_;
};

TEST_F(SstFormatTest, RoundTripFindAndMetadata) {
  const auto rows = MakeRows(600);
  const auto entries = MakeEntries(rows);
  const std::string path = dir_ + "/t-1.sst";
  SstWriteOptions wopts;  // block_entries=256 -> 3 blocks
  SstWriteResult wr;
  ASSERT_TRUE(WriteSst(path, entries, 3, wopts, &wr).ok());
  EXPECT_EQ(wr.entries, 600u);
  EXPECT_EQ(wr.blocks, 3u);

  auto loaded = SstRun::Load(path, /*adopted=*/false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto run = loaded.ValueOrDie();
  EXPECT_EQ(run->entry_count(), 600u);
  EXPECT_EQ(run->min_slot(), 0u);
  EXPECT_EQ(run->max_slot(), 2u * 599);
  EXPECT_EQ(run->num_columns(), 3u);

  for (size_t i = 0; i < rows.size(); ++i) {
    const Version* v = run->Find(2 * i);
    ASSERT_NE(v, nullptr) << "slot " << 2 * i;
    EXPECT_EQ(v->begin_ts.load(), 100 + i);
    ASSERT_EQ(v->data.size(), 3u);
    EXPECT_TRUE(v->data[0] == rows[i][0]);
    EXPECT_TRUE(v->data[1] == rows[i][1]);
    EXPECT_TRUE(v->data[2] == rows[i][2]);
    // Odd slots were never written.
    EXPECT_EQ(run->Find(2 * i + 1), nullptr);
  }

  // ForEach streams every entry slot-ascending.
  size_t seen = 0;
  RowId prev = 0;
  run->ForEach([&](RowId slot, uint64_t ts, const Tuple& row) {
    EXPECT_TRUE(seen == 0 || slot > prev);
    EXPECT_EQ(ts, 100 + slot / 2);
    EXPECT_EQ(row.size(), 3u);
    prev = slot;
    ++seen;
  });
  EXPECT_EQ(seen, 600u);
}

TEST_F(SstFormatTest, AdoptedRunsDecodeAtBootstrapTs) {
  const auto rows = MakeRows(10);
  const auto entries = MakeEntries(rows);
  const std::string path = dir_ + "/t-1.sst";
  SstWriteResult wr;
  ASSERT_TRUE(WriteSst(path, entries, 3, SstWriteOptions{}, &wr).ok());
  auto run = SstRun::Load(path, /*adopted=*/true).ValueOrDie();
  for (size_t i = 0; i < rows.size(); ++i) {
    const Version* v = run->Find(2 * i);
    ASSERT_NE(v, nullptr);
    // Pre-crash commit timestamps mean nothing after the clock reseeds.
    EXPECT_EQ(v->begin_ts.load(), txn::kBootstrapTs);
  }
}

TEST_F(SstFormatTest, BloomRefutesAbsentSlots) {
  const auto rows = MakeRows(256);
  const auto entries = MakeEntries(rows);
  const std::string path = dir_ + "/t-1.sst";
  SstWriteResult wr;
  ASSERT_TRUE(WriteSst(path, entries, 3, SstWriteOptions{}, &wr).ok());
  auto run = SstRun::Load(path, false).ValueOrDie();

  std::atomic<uint64_t> probes{0}, negatives{0}, runs_probed{0};
  size_t refuted = 0;
  // Odd slots strictly inside [min, max]: only the bloom can refute them
  // (the last odd slot, 511, sits past max_slot and never reaches the bloom).
  for (size_t i = 0; i + 1 < 256; ++i) {
    if (run->Find(2 * i + 1, &probes, &negatives, &runs_probed) == nullptr &&
        !run->MayContain(2 * i + 1)) {
      ++refuted;
    }
  }
  EXPECT_EQ(probes.load(), 255u);
  EXPECT_EQ(negatives.load(), refuted);
  // 8 bits/key gives ~2% fpr; anything under half proves the filter works.
  EXPECT_GT(refuted, 128u);
  EXPECT_LT(runs_probed.load(), 128u);
}

TEST_F(SstFormatTest, LoadRejectsDamage) {
  const auto rows = MakeRows(300);
  const auto entries = MakeEntries(rows);
  const std::string path = dir_ + "/t-1.sst";
  SstWriteResult wr;
  ASSERT_TRUE(WriteSst(path, entries, 3, SstWriteOptions{}, &wr).ok());
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(good.empty());

  auto write_back = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Truncations at every interesting boundary.
  for (size_t cut : {size_t{0}, size_t{4}, good.size() / 3, good.size() / 2,
                     good.size() - 1}) {
    write_back(good.substr(0, cut));
    EXPECT_FALSE(SstRun::Load(path, false).ok()) << "cut at " << cut;
  }
  // A single flipped byte anywhere (sampled) must be caught by a CRC.
  for (size_t at = 8; at + 16 < good.size(); at += good.size() / 17) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    write_back(bad);
    EXPECT_FALSE(SstRun::Load(path, false).ok()) << "flip at " << at;
  }
  // Pristine bytes load again.
  write_back(good);
  EXPECT_TRUE(SstRun::Load(path, false).ok());
}

TEST_F(SstFormatTest, CrashKindsNeverYieldHalfRuns) {
  const auto rows = MakeRows(600);
  const auto entries = MakeEntries(rows);
  const FaultKind kinds[] = {FaultKind::kTornWrite, FaultKind::kDroppedFsync,
                             FaultKind::kCorruptByte, FaultKind::kCleanCrash};
  // 3 block points + the footer point.
  const uint64_t kFooterPoint = 4;
  for (uint64_t point = 1; point <= kFooterPoint; ++point) {
    for (FaultKind kind : kinds) {
      SCOPED_TRACE("point " + std::to_string(point) + " " +
                   std::string(storage::FaultKindName(kind)));
      const std::string path = dir_ + "/c-" + std::to_string(point) + ".sst";
      FaultInjector fault(point * 31 + static_cast<uint64_t>(kind));
      fault.ArmCrash(point, kind);
      SstWriteOptions wopts;
      wopts.fault = &fault;
      SstWriteResult wr;
      Status s = WriteSst(path, entries, 3, wopts, &wr);
      ASSERT_FALSE(s.ok());
      ASSERT_TRUE(fault.crashed());
      auto loaded = SstRun::Load(path, false);
      if (point == kFooterPoint && kind == FaultKind::kCleanCrash) {
        // Power cut after the final fsync: the file is complete — a valid
        // orphan the manifest never referenced (GC's problem, not Load's).
        EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
        EXPECT_EQ(loaded.ValueOrDie()->entry_count(), 600u);
      } else {
        // Every other damage shape must fail validation outright: a
        // half-flushed run can never be surfaced.
        EXPECT_FALSE(loaded.ok());
      }
    }
  }
}

TEST_F(SstFormatTest, ZoneMapsRefuteRanges) {
  // Column 1 is i*0.5 ascending, so block zones partition [0, 300).
  const auto rows = MakeRows(600);
  const auto entries = MakeEntries(rows);
  const std::string path = dir_ + "/t-1.sst";
  SstWriteResult wr;
  ASSERT_TRUE(WriteSst(path, entries, 3, SstWriteOptions{}, &wr).ok());
  auto run = SstRun::Load(path, false).ValueOrDie();
  using Cmp = ColdTier::Cmp;

  // Nothing has col1 > 1e9 anywhere.
  EXPECT_FALSE(run->RangeMayMatch(0, ~0ull, 1, Cmp::kGt, 1e9));
  EXPECT_FALSE(run->RangeMayMatch(0, ~0ull, 1, Cmp::kLt, -1.0));
  EXPECT_TRUE(run->RangeMayMatch(0, ~0ull, 1, Cmp::kGe, 299.5));
  // First block only (slots [0, 512) = entries 0..255, col1 <= 127.5):
  // an equality above its zone max is refuted, below is not.
  EXPECT_FALSE(run->RangeMayMatch(0, 512, 1, Cmp::kEq, 200.0));
  EXPECT_TRUE(run->RangeMayMatch(0, 512, 1, Cmp::kEq, 100.0));
  // (zone bounds are widened one ulp outward, so probe past that)
  EXPECT_FALSE(run->RangeMayMatch(0, 512, 1, Cmp::kGt, 128.0));
  // The string column can never refute anything (poisoned zones).
  EXPECT_TRUE(run->RangeMayMatch(0, 512, 2, Cmp::kEq, 42.0));
  // Out-of-range column index is conservatively true.
  EXPECT_TRUE(run->RangeMayMatch(0, 512, 9, Cmp::kEq, 42.0));
  // Disjoint slot window.
  EXPECT_FALSE(run->RangeMayMatch(5000, 6000, 1, Cmp::kGe, 0.0));
}

// ---------------------------------------------------------------------------
// End-to-end: LSM-backed Database
// ---------------------------------------------------------------------------

class StorageEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("aidb_lsm_") + info->name() + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DurabilityOptions LsmOpts(size_t memtable = 8) {
    DurabilityOptions opts;
    opts.sync = false;
    opts.lsm = true;
    opts.lsm_design.memtable_capacity = memtable;
    return opts;
  }

  /// Sorted row rendering — engine-order independent equality.
  static std::string Rows(Database* db, const std::string& sql) {
    auto r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return "<error>";
    std::vector<std::string> rows;
    for (const auto& row : r.ValueOrDie().rows) {
      std::string s;
      for (const auto& v : row) s += v.ToString() + "|";
      rows.push_back(s);
    }
    std::sort(rows.begin(), rows.end());
    std::string out;
    for (const auto& s : rows) out += s + "\n";
    return out;
  }

  std::string dir_;
};

TEST_F(StorageEngineTest, FlushPagesOutAndReadsStayExact) {
  auto db = Database::Open(dir_, LsmOpts()).ValueOrDie();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, v DOUBLE, s STRING)").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                            ", " + std::to_string(i) + ".5, 'r" +
                            std::to_string(i) + "')")
                    .ok());
  }
  const std::string before = Rows(db.get(), "SELECT id, v, s FROM t");

  ASSERT_TRUE(db->FlushColdStorage().ok());
  auto infos = db->lsm_engine()->TableInfos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].table, "t");
  EXPECT_GE(infos[0].runs, 1u);
  EXPECT_EQ(infos[0].paged_slots, 40u);
  EXPECT_GT(infos[0].file_bytes, 0u);

  // Every read shape answers from the cold tier byte-identically.
  EXPECT_EQ(Rows(db.get(), "SELECT id, v, s FROM t"), before);
  EXPECT_EQ(Rows(db.get(), "SELECT id FROM t WHERE v >= 20.0 AND v < 25.0"),
            Rows(db.get(), "SELECT id FROM t WHERE id >= 20 AND id < 25"));
  auto stats = db->lsm_engine()->StatsSnapshot();
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.entries_written, 40u);
  EXPECT_GT(stats.gets, 0u);
}

TEST_F(StorageEngineTest, WritesMaterializeColdRows) {
  auto db = Database::Open(dir_, LsmOpts()).ValueOrDie();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, v DOUBLE)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                            ", 1.0)")
                    .ok());
  }
  ASSERT_TRUE(db->FlushColdStorage().ok());
  ASSERT_EQ(db->lsm_engine()->TableInfos()[0].paged_slots, 20u);

  // Updating a paged row pulls it warm first; deletes too.
  ASSERT_TRUE(db->Execute("UPDATE t SET v = 9.0 WHERE id = 3").ok());
  ASSERT_TRUE(db->Execute("DELETE FROM t WHERE id = 4").ok());
  auto stats = db->lsm_engine()->StatsSnapshot();
  EXPECT_GE(stats.materialized, 2u);
  EXPECT_EQ(db->lsm_engine()->TableInfos()[0].paged_slots, 18u);
  EXPECT_EQ(Rows(db.get(), "SELECT v FROM t WHERE id = 3"), "9.000000|\n");
  EXPECT_EQ(Rows(db.get(), "SELECT v FROM t WHERE id = 4"), "");
  // Re-flush pages the rewritten row back out; reads still exact.
  ASSERT_TRUE(db->FlushColdStorage().ok());
  EXPECT_EQ(Rows(db.get(), "SELECT v FROM t WHERE id = 3"), "9.000000|\n");
  EXPECT_EQ(db->Execute("SELECT * FROM t").ValueOrDie().rows.size(), 19u);
}

TEST_F(StorageEngineTest, CompactionMergesRunsAndDropsShadowedEntries) {
  auto db = Database::Open(dir_, LsmOpts()).ValueOrDie();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, v DOUBLE)").ok());
  // Three flush generations; the second and third rewrite half of the first.
  for (int gen = 0; gen < 3; ++gen) {
    for (int i = 0; i < 30; ++i) {
      if (gen == 0) {
        ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                ", 0.0)")
                        .ok());
      } else if (i % 2 == 0) {
        ASSERT_TRUE(db->Execute("UPDATE t SET v = " + std::to_string(gen) +
                                ".0 WHERE id = " + std::to_string(i))
                        .ok());
      }
    }
    ASSERT_TRUE(db->FlushColdStorage().ok());
  }
  auto infos = db->lsm_engine()->TableInfos();
  ASSERT_EQ(infos.size(), 1u);
  // Leveling with trigger 2: everything merges downward.
  EXPECT_GE(infos[0].max_level, 1u);
  EXPECT_LE(infos[0].runs, 2u);
  auto stats = db->lsm_engine()->StatsSnapshot();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_GT(stats.WriteAmplification(), 1.0);
  // Newest-first precedence: every even id shows gen 2, odd ids gen 0.
  EXPECT_EQ(Rows(db.get(), "SELECT v FROM t WHERE id = 6"), "2.000000|\n");
  EXPECT_EQ(Rows(db.get(), "SELECT v FROM t WHERE id = 7"), "0.000000|\n");
  EXPECT_EQ(db->Execute("SELECT * FROM t").ValueOrDie().rows.size(), 30u);
}

TEST_F(StorageEngineTest, TieringKeepsMoreRunsThanLeveling) {
  auto run_policy = [&](bool leveling) {
    std::filesystem::remove_all(dir_);
    DurabilityOptions opts = LsmOpts();
    opts.lsm_design.leveling = leveling;
    opts.lsm_design.size_ratio = 4;
    auto db = Database::Open(dir_, opts).ValueOrDie();
    EXPECT_TRUE(db->Execute("CREATE TABLE t (id INT, v DOUBLE)").ok());
    for (int gen = 0; gen < 3; ++gen) {
      for (int i = 0; i < 12; ++i) {
        int id = gen * 12 + i;
        EXPECT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(id) +
                                ", 0.0)")
                        .ok());
      }
      EXPECT_TRUE(db->FlushColdStorage().ok());
    }
    auto stats = db->lsm_engine()->StatsSnapshot();
    auto infos = db->lsm_engine()->TableInfos();
    return std::make_pair(infos[0].runs, stats.entries_compacted);
  };
  auto [lev_runs, lev_rewrites] = run_policy(true);
  auto [tier_runs, tier_rewrites] = run_policy(false);
  // Tiering defers merges: more runs on disk, fewer entries rewritten.
  EXPECT_GE(tier_runs, lev_runs);
  EXPECT_LE(tier_rewrites, lev_rewrites);
}

TEST_F(StorageEngineTest, SnapshotReadsAreStableAcrossPageOut) {
  auto db = Database::Open(dir_, LsmOpts()).ValueOrDie();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, v DOUBLE)").ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                            ", 1.0)")
                    .ok());
  }
  // Open a snapshot in a second session before anything is cold.
  std::atomic<uint64_t> slot{0};
  ExecSettings session = db->SnapshotSettings();
  session.txn_slot = &slot;
  session.session_id = 7;
  ASSERT_TRUE(db->Execute("BEGIN", session).ok());
  auto in_txn = db->Execute("SELECT v FROM t WHERE id = 5", session);
  ASSERT_TRUE(in_txn.ok());
  ASSERT_EQ(in_txn.ValueOrDie().rows.size(), 1u);

  // Page the table out underneath the open snapshot, then mutate other rows.
  ASSERT_TRUE(db->FlushColdStorage().ok());
  ASSERT_TRUE(db->Execute("UPDATE t SET v = 2.0 WHERE id = 9").ok());
  ASSERT_TRUE(db->FlushColdStorage().ok());

  // The snapshot still sees its world: v=1.0 everywhere, 16 rows.
  auto again = db->Execute("SELECT v FROM t", session);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().rows.size(), 16u);
  for (const auto& row : again.ValueOrDie().rows) {
    EXPECT_DOUBLE_EQ(row[0].AsDouble(), 1.0);
  }
  ASSERT_TRUE(db->Execute("COMMIT", session).ok());
  // Post-commit sessions see the new value.
  EXPECT_EQ(Rows(db.get(), "SELECT v FROM t WHERE id = 9"), "2.000000|\n");
}

TEST_F(StorageEngineTest, ReopenReadoptsPersistedRuns) {
  std::string before;
  uint64_t file_bytes = 0;
  {
    auto db = Database::Open(dir_, LsmOpts()).ValueOrDie();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, v DOUBLE, s STRING)").ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i) + ".25, 'k" +
                              std::to_string(i % 7) + "')")
                      .ok());
    }
    ASSERT_TRUE(db->FlushColdStorage().ok());
    before = Rows(db.get(), "SELECT id, v, s FROM t");
    file_bytes = db->lsm_engine()->TableInfos()[0].file_bytes;
    ASSERT_GT(file_bytes, 0u);
  }
  // Reboot: recovery rebuilds the warm store from WAL/snapshot, then the
  // engine re-adopts every persisted entry that byte-matches a frozen row.
  auto db = Database::Open(dir_, LsmOpts()).ValueOrDie();
  auto stats = db->lsm_engine()->StatsSnapshot();
  EXPECT_EQ(stats.adopted, 50u);
  auto infos = db->lsm_engine()->TableInfos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].paged_slots, 50u);
  EXPECT_EQ(Rows(db.get(), "SELECT id, v, s FROM t"), before);
  // And the re-adopted table stays writable.
  ASSERT_TRUE(db->Execute("UPDATE t SET v = 0.0 WHERE id = 10").ok());
  EXPECT_EQ(Rows(db.get(), "SELECT v FROM t WHERE id = 10"), "0.000000|\n");
}

TEST_F(StorageEngineTest, DroppedTableRunsAreRemovedFromDisk) {
  auto db = Database::Open(dir_, LsmOpts()).ValueOrDie();
  ASSERT_TRUE(db->Execute("CREATE TABLE doomed (id INT, v DOUBLE)").ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        db->Execute("INSERT INTO doomed VALUES (" + std::to_string(i) + ", 0.0)")
            .ok());
  }
  ASSERT_TRUE(db->FlushColdStorage().ok());
  size_t ssts = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_ + "/lsm")) {
    if (e.path().extension() == ".sst") ++ssts;
  }
  ASSERT_GE(ssts, 1u);
  ASSERT_TRUE(db->Execute("DROP TABLE doomed").ok());
  ssts = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_ + "/lsm")) {
    if (e.path().extension() == ".sst") ++ssts;
  }
  EXPECT_EQ(ssts, 0u);
}

TEST_F(StorageEngineTest, ZoneMapsPruneVectorizedScans) {
  auto db = Database::Open(dir_, LsmOpts()).ValueOrDie();
  ASSERT_TRUE(db->Execute("CREATE TABLE big (id INT, v DOUBLE)").ok());
  // 3000 rows in 30 multi-row inserts; id ascends with the slot, so
  // per-block zones are tight.
  for (int b = 0; b < 30; ++b) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = 0; i < 100; ++i) {
      int id = b * 100 + i;
      sql += (i ? ", (" : "(") + std::to_string(id) + ", " +
             std::to_string(id) + ".0)";
    }
    ASSERT_TRUE(db->Execute(sql).ok());
  }
  ASSERT_TRUE(db->FlushColdStorage().ok());
  ASSERT_EQ(db->lsm_engine()->TableInfos()[0].paged_slots, 3000u);

  auto prunes_before = db->lsm_engine()->StatsSnapshot().zone_prunes;
  // No row matches: every fully-cold 1024-row window is refuted.
  auto none = db->Execute("SELECT COUNT(*) FROM big WHERE v > 1000000.0");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.ValueOrDie().rows[0][0].AsInt(), 0);
  auto stats = db->lsm_engine()->StatsSnapshot();
  EXPECT_GT(stats.zone_prunes, prunes_before);

  // A selective predicate returns exactly the right rows despite pruning.
  EXPECT_EQ(Rows(db.get(), "SELECT id FROM big WHERE v >= 2995.0"),
            "2995|\n2996|\n2997|\n2998|\n2999|\n");
  // And pruning never changes what the volcano reference engine sees.
  db->SetVectorized(false);
  EXPECT_EQ(Rows(db.get(), "SELECT id FROM big WHERE v >= 2995.0"),
            "2995|\n2996|\n2997|\n2998|\n2999|\n");
}

TEST_F(StorageEngineTest, ZoneMapsKeepPagedNaNRows) {
  auto db = Database::Open(dir_, LsmOpts()).ValueOrDie();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, v DOUBLE)").ok());
  // 9000 rows, enough for a morsel-parallel scan at dop 4; v = id % 9.
  for (int b = 0; b < 90; ++b) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = 0; i < 100; ++i) {
      int id = b * 100 + i;
      sql += (i ? ", (" : "(") + std::to_string(id) + ", " +
             std::to_string(id % 9) + ".0)";
    }
    ASSERT_TRUE(db->Execute(sql).ok());
  }
  // One NaN (8 * 1e300 * 1e300 = inf, times 0): its block also holds values
  // up to 8, so min/max bounds alone would refute `v > 9`.
  const std::string big = "1" + std::string(300, '0') + ".0";
  ASSERT_TRUE(db->Execute("UPDATE t SET v = v * " + big + " * " + big +
                          " * 0.0 WHERE id = 3500")
                  .ok());
  ASSERT_TRUE(db->FlushColdStorage().ok());
  ASSERT_EQ(db->lsm_engine()->TableInfos()[0].paged_slots, 9000u);

  // Value::Compare calls a NaN greater than any number, so volcano returns
  // it under `v > 9`; the batch engine must too, at dop 1 and 4, while the
  // windows without it are still refuted.
  const uint64_t prunes_before = db->lsm_engine()->StatsSnapshot().zone_prunes;
  for (const char* sql :
       {"SELECT id FROM t WHERE v > 9.0", "SELECT id FROM t WHERE v >= 9"}) {
    db->SetVectorized(false);
    db->SetDop(1);
    EXPECT_EQ(Rows(db.get(), sql), "3500|\n") << sql << " on volcano";
    db->SetVectorized(true);
    for (size_t dop : {1, 4}) {
      db->SetDop(dop);
      EXPECT_EQ(Rows(db.get(), sql), "3500|\n") << sql << " at dop " << dop;
    }
  }
  EXPECT_GT(db->lsm_engine()->StatsSnapshot().zone_prunes, prunes_before);
}

TEST_F(StorageEngineTest, SystemViewAndMetricsReportTheEngine) {
  auto db = Database::Open(dir_, LsmOpts()).ValueOrDie();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, v DOUBLE)").ok());
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(
        db->Execute("INSERT INTO t VALUES (" + std::to_string(i) + ", 0.0)").ok());
  }
  ASSERT_TRUE(db->FlushColdStorage().ok());

  auto r = db->Execute(
      "SELECT \"table\", runs, paged_slots FROM aidb_storage WHERE \"table\" = 't'");
  if (!r.ok()) {
    // Dialects without quoted identifiers: fall back to the full view.
    r = db->Execute("SELECT * FROM aidb_storage");
  }
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r.ValueOrDie().rows.size(), 1u);

  EXPECT_GE(db->metrics().GetCounter("storage.flushes")->Value(), 1);
  EXPECT_GE(db->metrics().GetCounter("storage.paged_out")->Value(), 24);
  ASSERT_TRUE(db->Execute("UPDATE t SET v = 1.0 WHERE id = 1").ok());
  EXPECT_GE(db->metrics().GetCounter("storage.materialized")->Value(), 1);
}

// ---------------------------------------------------------------------------
// Concurrency (name matches the CI TSan regex: Parallel*)
// ---------------------------------------------------------------------------

TEST(ParallelStorageEngineTest, ReadersSurviveFlushMaterializeCompactChurn) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("aidb_lsm_parallel_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  {
    DurabilityOptions opts;
    opts.sync = false;
    opts.lsm = true;
    opts.lsm_design.memtable_capacity = 8;
    auto db = Database::Open(dir, opts).ValueOrDie();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, v DOUBLE)").ok());
    for (int i = 0; i < 256; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", 1.0)")
                      .ok());
    }
    std::atomic<bool> stop{false};
    // Flusher: vacuum + flush + compact in a tight loop — constant run
    // publishing and page-out churn under the readers.
    std::thread flusher([&] {
      while (!stop.load(std::memory_order_acquire)) {
        (void)db->FlushColdStorage();
      }
    });
    // Writer: materializes cold rows back warm, concurrently with page-out.
    std::thread writer([&] {
      for (int round = 0; round < 40; ++round) {
        int id = (round * 37) % 256;
        (void)db->Execute("UPDATE t SET v = v + 1.0 WHERE id = " +
                          std::to_string(id));
      }
    });
    // Readers: every scan must see exactly 256 rows with v >= 1.0 — a torn
    // page-out/materialize would lose or duplicate a row.
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&] {
        for (int q = 0; q < 30; ++q) {
          auto res = db->Execute("SELECT COUNT(*) FROM t WHERE v >= 1.0");
          ASSERT_TRUE(res.ok());
          ASSERT_EQ(res.ValueOrDie().rows[0][0].AsInt(), 256);
        }
      });
    }
    for (auto& t : readers) t.join();
    writer.join();
    stop.store(true, std::memory_order_release);
    flusher.join();
    auto res = db->Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.ValueOrDie().rows[0][0].AsInt(), 256);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Learned tuning on the measured backend
// ---------------------------------------------------------------------------

TEST(StorageTunerTest, MeasuredEnvironmentIsDeterministicAndSane) {
  design::LsmWorkload w;
  w.num_writes = 1500;
  w.num_point_reads = 500;
  w.key_space = 600;
  w.read_hit_fraction = 0.8;
  advisor::StorageEnvOptions env;
  env.scratch_dir = (std::filesystem::temp_directory_path() /
                     ("aidb_storage_env_det_" + std::to_string(::getpid())))
                        .string();
  env.max_ops = 1024;
  env.flush_every = 64;

  auto a = advisor::MeasureLsmDesign(w, LsmOptions{}, env);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = advisor::MeasureLsmDesign(w, LsmOptions{}, env);
  ASSERT_TRUE(b.ok());
  // Wall-clock free: the same design measures the same counters.
  EXPECT_EQ(a.ValueOrDie().stats.entries_written, b.ValueOrDie().stats.entries_written);
  EXPECT_EQ(a.ValueOrDie().stats.entries_compacted, b.ValueOrDie().stats.entries_compacted);
  EXPECT_EQ(a.ValueOrDie().stats.runs_probed, b.ValueOrDie().stats.runs_probed);
  EXPECT_DOUBLE_EQ(a.ValueOrDie().cost, b.ValueOrDie().cost);
  // The replay actually exercised the engine.
  EXPECT_GT(a.ValueOrDie().stats.flushes, 0u);
  EXPECT_GT(a.ValueOrDie().stats.gets, 0u);
  EXPECT_GE(a.ValueOrDie().write_amp, 1.0);
}

TEST(StorageTunerTest, TunedDesignBeatsWorstStaticAndMatchesDefault) {
  // key_space must reach past the small end of the memtable lattice or no
  // candidate ever flushes mid-workload and every design measures the same
  // amplification; the update tail re-freezes slots into overlapping runs,
  // which is what the bloom and compaction-policy knobs act on.
  design::LsmWorkload w;
  w.num_writes = 3000;
  w.num_point_reads = 1000;
  w.key_space = 2000;
  w.read_hit_fraction = 0.7;
  advisor::StorageEnvOptions env;
  env.scratch_dir = (std::filesystem::temp_directory_path() /
                     ("aidb_storage_env_tune_" + std::to_string(::getpid())))
                        .string();
  env.max_ops = 1200;
  env.flush_every = 48;

  auto tuned = advisor::TuneLsmOnMeasured(w, env, LsmOptions{});
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
  const auto& t = tuned.ValueOrDie();
  EXPECT_GT(t.evaluations, 1u);

  // Static straw men spanning the design space's bad corners.
  std::vector<LsmOptions> statics;
  {
    LsmOptions o;  // bloomless tiering with a huge ratio: read disaster
    o.bloom_bits_per_key = 0;
    o.leveling = false;
    o.size_ratio = 16;
    o.memtable_capacity = 512;
    statics.push_back(o);
  }
  {
    LsmOptions o;  // tiny memtable + aggressive leveling: write disaster
    o.memtable_capacity = 512;
    o.size_ratio = 2;
    o.leveling = true;
    statics.push_back(o);
  }
  statics.push_back(LsmOptions{});  // the shipped default

  double worst = -1.0, default_cost = 0.0;
  for (const auto& o : statics) {
    auto m = advisor::MeasureLsmDesign(w, o, env);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    worst = std::max(worst, m.ValueOrDie().cost);
    if (o.memtable_capacity == LsmOptions{}.memtable_capacity &&
        o.size_ratio == LsmOptions{}.size_ratio &&
        o.bloom_bits_per_key == LsmOptions{}.bloom_bits_per_key &&
        o.leveling == LsmOptions{}.leveling) {
      default_cost = m.ValueOrDie().cost;
    }
  }
  // ISSUE acceptance: beat the worst static config outright; never lose to
  // the one-size-fits-all default (hill-climb starts there, so its cost can
  // only improve or stand).
  EXPECT_LT(t.best.cost, worst);
  EXPECT_LE(t.best.cost, default_cost + 1e-9);
  // The analytic model is reported as the validation baseline.
  EXPECT_GT(t.model_cost, 0.0);
}

}  // namespace
}  // namespace aidb
