// Property-based sweeps (TEST_P): the storage structures are checked against
// reference containers across key distributions and option grids; the SQL
// executor is checked against a naive reference evaluator on randomized
// queries; estimator and rewriter invariants are swept across seeds.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "advisor/rewrite/rewriter.h"
#include "catalog/stats.h"
#include "common/rng.h"
#include "design/learned_index/alex.h"
#include "design/learned_index/rmi.h"
#include "exec/database.h"
#include "storage/btree.h"
#include "storage/engine/lsm_engine.h"

namespace aidb {
namespace {

// ----- BTree vs std::multimap across distributions -----

struct KeyDistParam {
  const char* name;
  int64_t range;
  double zipf;  ///< 0: uniform
};

// gtest prints a parameter into its test's listed name; the default printer
// dumps the raw bytes, name pointer included, which change from run to run.
void PrintTo(const KeyDistParam& p, std::ostream* os) { *os << p.name; }

class BTreeProperty : public ::testing::TestWithParam<KeyDistParam> {};

TEST_P(BTreeProperty, MatchesMultimapOnRandomOps) {
  const auto& p = GetParam();
  Rng rng(101);
  std::unique_ptr<ZipfGenerator> zipf;
  if (p.zipf > 0) zipf = std::make_unique<ZipfGenerator>(
      static_cast<uint64_t>(p.range), p.zipf, 7);
  auto draw = [&]() -> int64_t {
    return zipf ? static_cast<int64_t>(zipf->Next()) : rng.UniformInt(0, p.range);
  };

  BTree tree;
  std::multimap<int64_t, uint64_t> model;
  for (uint64_t i = 0; i < 20000; ++i) {
    int64_t k = draw();
    tree.Insert(k, i);
    model.emplace(k, i);
  }
  ASSERT_EQ(tree.size(), model.size());
  // Point lookups.
  for (int probe = 0; probe < 500; ++probe) {
    int64_t k = draw();
    auto got = tree.Find(k);
    std::multiset<uint64_t> expect;
    auto [lo, hi] = model.equal_range(k);
    for (auto it = lo; it != hi; ++it) expect.insert(it->second);
    EXPECT_EQ(std::multiset<uint64_t>(got.begin(), got.end()), expect) << k;
  }
  // Range scans.
  for (int probe = 0; probe < 50; ++probe) {
    int64_t a = draw(), b = draw();
    if (a > b) std::swap(a, b);
    auto got = tree.RangeScan(a, b);
    size_t expect = 0;
    for (auto it = model.lower_bound(a); it != model.end() && it->first <= b; ++it)
      ++expect;
    EXPECT_EQ(got.size(), expect) << a << ".." << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, BTreeProperty,
    ::testing::Values(KeyDistParam{"uniform_small", 100, 0.0},
                      KeyDistParam{"uniform_large", 1000000, 0.0},
                      KeyDistParam{"zipf_mild", 10000, 0.8},
                      KeyDistParam{"zipf_heavy", 10000, 1.2}),
    [](const auto& info) { return info.param.name; });

// ----- The LSM storage engine vs std::map across its design grid -----

struct LsmParam {
  const char* name;
  size_t memtable;
  size_t ratio;
  size_t bloom;
  bool leveling;
};

void PrintTo(const LsmParam& p, std::ostream* os) { *os << p.name; }

class LsmProperty : public ::testing::TestWithParam<LsmParam> {};

/// Random upserts and deletes through SQL on a durable LSM-backed database,
/// with cold-storage maintenance every 20 statements, so reads resolve
/// through flushed, compacted and overlapping runs of each design.
TEST_P(LsmProperty, MatchesMapModel) {
  const auto& p = GetParam();
  DurabilityOptions opts;
  opts.sync = false;
  opts.lsm = true;
  opts.lsm_design.memtable_capacity = p.memtable;
  opts.lsm_design.size_ratio = p.ratio;
  opts.lsm_design.bloom_bits_per_key = p.bloom;
  opts.lsm_design.leveling = p.leveling;
  const std::string dir = (std::filesystem::temp_directory_path() /
                           (std::string("aidb_lsm_prop_") + p.name + "_" +
                            std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  auto db = Database::Open(dir, opts).ValueOrDie();
  auto exec = [&](const std::string& sql) {
    auto r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : QueryResult{};
  };
  exec("CREATE TABLE kv (k INT, v STRING)");
  exec("CREATE INDEX kv_k ON kv(k)");
  std::map<int64_t, std::string> model;
  auto expect_get = [&](int64_t k) {
    auto rows = exec("SELECT v FROM kv WHERE k = " + std::to_string(k)).rows;
    auto it = model.find(k);
    ASSERT_EQ(rows.size(), it == model.end() ? 0u : 1u) << k;
    if (it != model.end()) {
      EXPECT_EQ(rows[0][0].AsString(), it->second) << k;
    }
  };
  Rng rng(202);
  for (int i = 0; i < 600; ++i) {
    const int64_t k = rng.UniformInt(0, 300);
    const std::string ks = std::to_string(k);
    if (rng.Uniform(4) == 0) {
      exec("DELETE FROM kv WHERE k = " + ks);
      model.erase(k);
    } else {
      const std::string v = "v" + std::to_string(i);
      exec(model.count(k) ? "UPDATE kv SET v = '" + v + "' WHERE k = " + ks
                          : "INSERT INTO kv VALUES (" + ks + ", '" + v + "')");
      model[k] = v;
    }
    if (i % 20 == 19) {
      ASSERT_TRUE(db->FlushColdStorage(/*force=*/i % 60 == 59).ok());
    }
    if (i % 50 == 0) expect_get(rng.UniformInt(0, 300));
  }
  ASSERT_TRUE(db->FlushColdStorage().ok());
  EXPECT_GT(db->lsm_engine()->StatsSnapshot().flushes, 1u);
  // Final point sweep + range scan equivalence.
  for (int64_t k = 0; k <= 300; k += 3) expect_get(k);
  auto scan = exec("SELECT COUNT(*) FROM kv WHERE k >= 50 AND k <= 200").rows;
  size_t expect = 0;
  for (auto it = model.lower_bound(50); it != model.end() && it->first <= 200; ++it)
    ++expect;
  ASSERT_EQ(scan.size(), 1u);
  EXPECT_EQ(scan[0][0].AsInt(), static_cast<int64_t>(expect));
  db.reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, LsmProperty,
    ::testing::Values(LsmParam{"tiny_leveling", 16, 2, 8, true},
                      LsmParam{"tiny_tiering", 16, 4, 8, false},
                      LsmParam{"no_bloom", 64, 4, 0, true},
                      LsmParam{"big_ratio", 32, 10, 10, false},
                      LsmParam{"default_ish", 256, 4, 8, true}),
    [](const auto& info) { return info.param.name; });

// ----- Learned indexes vs sorted-array truth across distributions -----

class LearnedIndexProperty : public ::testing::TestWithParam<KeyDistParam> {};

TEST_P(LearnedIndexProperty, RmiAndAlexAgreeWithTruth) {
  const auto& p = GetParam();
  Rng rng(303);
  std::set<int64_t> keyset;
  std::unique_ptr<ZipfGenerator> zipf;
  if (p.zipf > 0) zipf = std::make_unique<ZipfGenerator>(
      static_cast<uint64_t>(p.range) * 100, p.zipf, 9);
  while (keyset.size() < 30000) {
    keyset.insert(zipf ? static_cast<int64_t>(zipf->Next())
                       : rng.UniformInt(0, p.range * 100));
  }
  std::vector<int64_t> keys(keyset.begin(), keyset.end());

  design::RmiIndex rmi(512);
  rmi.Build(keys);
  design::AlexIndex alex;
  std::vector<std::pair<int64_t, uint64_t>> pairs;
  for (size_t i = 0; i < keys.size(); ++i) pairs.emplace_back(keys[i], i);
  alex.BulkLoad(pairs);

  for (size_t i = 0; i < keys.size(); i += 171) {
    EXPECT_TRUE(rmi.Contains(keys[i])) << keys[i];
    EXPECT_TRUE(alex.Contains(keys[i])) << keys[i];
  }
  size_t checked = 0;
  for (int64_t probe = 1; checked < 300; probe += 31337) {
    if (keyset.count(probe)) continue;
    EXPECT_FALSE(rmi.Contains(probe)) << probe;
    EXPECT_FALSE(alex.Contains(probe)) << probe;
    ++checked;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, LearnedIndexProperty,
    ::testing::Values(KeyDistParam{"uniform", 10000, 0.0},
                      KeyDistParam{"zipfish", 10000, 0.9}),
    [](const auto& info) { return info.param.name; });

// ----- SQL executor vs reference evaluator on random queries -----

class SqlEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlEquivalence, FilterCountsMatchReference) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT, c INT)").ok());
  Table* t = db.catalog().GetTable("t").ValueOrDie();
  struct Row {
    int64_t a, b, c;
  };
  std::vector<Row> rows;
  for (int i = 0; i < 1500; ++i) {
    Row r{rng.UniformInt(0, 50), rng.UniformInt(0, 50), rng.UniformInt(0, 50)};
    rows.push_back(r);
    ASSERT_TRUE(t->Insert({Value(r.a), Value(r.b), Value(r.c)}).ok());
  }
  ASSERT_TRUE(db.Execute("ANALYZE t").ok());
  // Sometimes add an index so both scan paths get exercised.
  if (seed % 2 == 0) ASSERT_TRUE(db.Execute("CREATE INDEX ia ON t(a)").ok());

  for (int q = 0; q < 30; ++q) {
    int64_t x = rng.UniformInt(0, 50), y = rng.UniformInt(0, 50);
    int form = static_cast<int>(rng.Uniform(4));
    std::string where;
    auto match = [&](const Row& r) {
      switch (form) {
        case 0: return r.a == x;
        case 1: return r.a < x && r.b >= y;
        case 2: return r.a > x || r.c == y;
        default: return !(r.b < x) && r.c <= y;
      }
    };
    switch (form) {
      case 0: where = "a = " + std::to_string(x); break;
      case 1: where = "a < " + std::to_string(x) + " AND b >= " + std::to_string(y); break;
      case 2: where = "a > " + std::to_string(x) + " OR c = " + std::to_string(y); break;
      default:
        where = "NOT (b < " + std::to_string(x) + ") AND c <= " + std::to_string(y);
    }
    size_t expect = 0;
    for (const Row& r : rows) expect += match(r);
    auto res = db.Execute("SELECT COUNT(*) FROM t WHERE " + where);
    ASSERT_TRUE(res.ok()) << where;
    EXPECT_EQ(res.ValueOrDie().rows[0][0].AsInt(), static_cast<int64_t>(expect))
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlEquivalence, ::testing::Range<uint64_t>(1, 7));

// ----- Join-count equivalence against a nested-loop reference -----

class JoinEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEquivalence, JoinCountsMatchReference) {
  uint64_t seed = GetParam();
  Rng rng(seed * 77 + 5);
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE r (k INT, v INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE s (k INT, w INT)").ok());
  Table* tr = db.catalog().GetTable("r").ValueOrDie();
  Table* ts = db.catalog().GetTable("s").ValueOrDie();
  std::vector<std::pair<int64_t, int64_t>> rrows, srows;
  for (int i = 0; i < 400; ++i) {
    rrows.emplace_back(rng.UniformInt(0, 40), rng.UniformInt(0, 100));
    ASSERT_TRUE(tr->Insert({Value(rrows.back().first), Value(rrows.back().second)}).ok());
  }
  for (int i = 0; i < 300; ++i) {
    srows.emplace_back(rng.UniformInt(0, 40), rng.UniformInt(0, 100));
    ASSERT_TRUE(ts->Insert({Value(srows.back().first), Value(srows.back().second)}).ok());
  }
  ASSERT_TRUE(db.Execute("ANALYZE r").ok());
  ASSERT_TRUE(db.Execute("ANALYZE s").ok());

  int64_t cut = rng.UniformInt(0, 100);
  size_t expect = 0;
  for (auto& [rk, rv] : rrows)
    for (auto& [sk, sw] : srows)
      if (rk == sk && rv < cut) ++expect;

  auto res = db.Execute("SELECT COUNT(*) FROM r JOIN s ON r.k = s.k WHERE r.v < " +
                        std::to_string(cut));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.ValueOrDie().rows[0][0].AsInt(), static_cast<int64_t>(expect));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalence, ::testing::Range<uint64_t>(1, 7));

// ----- Rewriter soundness: rewritten predicates keep query answers -----

class RewriterSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewriterSoundness, RewritePreservesSemantics) {
  uint64_t seed = GetParam();
  Rng rng(seed * 31 + 3);
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT, y INT, z INT)").ok());
  Table* t = db.catalog().GetTable("t").ValueOrDie();
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(t->Insert({Value(rng.UniformInt(0, 100)), Value(rng.UniformInt(0, 100)),
                           Value(rng.UniformInt(0, 100))})
                    .ok());
  }
  advisor::MctsRewriter mcts;
  advisor::FixedOrderRewriter fixed;
  for (int q = 0; q < 8; ++q) {
    auto pred = advisor::GenerateRedundantPredicate(&rng, 2);
    auto count_with = [&](const sql::Expr& where) -> int64_t {
      std::string stmt = "SELECT COUNT(*) FROM t WHERE " + where.ToString();
      auto res = db.Execute(stmt);
      EXPECT_TRUE(res.ok()) << stmt << " -> " << res.status().ToString();
      return res.ok() ? res.ValueOrDie().rows[0][0].AsInt() : -1;
    };
    int64_t original = count_with(*pred);
    auto m = mcts.Rewrite(*pred);
    auto f = fixed.Rewrite(*pred);
    EXPECT_EQ(count_with(*m.expr), original) << pred->ToString();
    EXPECT_EQ(count_with(*f.expr), original) << pred->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriterSoundness, ::testing::Range<uint64_t>(1, 6));

// ----- Histogram consistency properties across distributions -----

class HistogramProperty : public ::testing::TestWithParam<KeyDistParam> {};

TEST_P(HistogramProperty, EstimatesAreConsistent) {
  const auto& p = GetParam();
  Rng rng(404);
  std::unique_ptr<ZipfGenerator> zipf;
  if (p.zipf > 0) zipf = std::make_unique<ZipfGenerator>(
      static_cast<uint64_t>(p.range), p.zipf, 11);
  std::vector<double> vals;
  for (int i = 0; i < 20000; ++i) {
    vals.push_back(static_cast<double>(zipf ? static_cast<int64_t>(zipf->Next())
                                            : rng.UniformInt(0, p.range)));
  }
  Histogram h = Histogram::Build(vals);
  // Monotonicity of the CDF and bounds.
  double prev = -1;
  for (double x = h.min(); x <= h.max(); x += (h.max() - h.min()) / 50 + 1e-9) {
    double lt = h.EstimateLt(x);
    EXPECT_GE(lt, prev - 1e-9);
    EXPECT_GE(lt, 0.0);
    EXPECT_LE(lt, 1.0);
    prev = lt;
    // Complementarity.
    EXPECT_NEAR(h.EstimateLt(x) + h.EstimateGe(x), 1.0, 1e-9);
  }
  // Range of the full domain is everything.
  EXPECT_NEAR(h.EstimateRange(h.min(), h.max()), 1.0, 1e-6);
  // Accuracy against exact counts on range queries.
  for (int probe = 0; probe < 20; ++probe) {
    double a = rng.UniformDouble(h.min(), h.max());
    double b = rng.UniformDouble(h.min(), h.max());
    if (a > b) std::swap(a, b);
    size_t exact = 0;
    for (double v : vals) exact += (v >= a && v <= b);
    double est = h.EstimateRange(a, b) * static_cast<double>(vals.size());
    EXPECT_NEAR(est, static_cast<double>(exact), vals.size() * 0.05)
        << "[" << a << "," << b << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, HistogramProperty,
    ::testing::Values(KeyDistParam{"uniform", 1000, 0.0},
                      KeyDistParam{"zipf", 1000, 1.0},
                      KeyDistParam{"tiny_domain", 5, 0.0}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace aidb
