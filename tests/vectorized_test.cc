#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/database.h"
#include "exec/vec/batch.h"
#include "exec/vec/col_cache.h"
#include "exec/vec/vec_ops.h"
#include "server/plan_cache.h"
#include "server/service.h"

namespace aidb {
namespace {

/// Rows rendered as strings, in result order — the vectorized engine must
/// match the row engine's exact row order, not just the multiset.
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

class VectorizedExecTest : public ::testing::Test {
 protected:
  /// Seeds `rows` random rows into `name(id INT, grp INT, val DOUBLE,
  /// tag STRING)`, with NULLs sprinkled into val to exercise three-valued
  /// logic and aggregate NULL skipping.
  void SeedTable(const std::string& name, size_t rows, uint64_t seed) {
    Schema schema({{"id", ValueType::kInt},
                   {"grp", ValueType::kInt},
                   {"val", ValueType::kDouble},
                   {"tag", ValueType::kString}});
    auto created = db_.catalog().CreateTable(name, schema);
    ASSERT_TRUE(created.ok());
    Table* t = std::move(created).ValueOrDie();
    Rng rng(seed);
    static const char* kTags[] = {"red", "green", "blue", ""};
    for (size_t i = 0; i < rows; ++i) {
      Tuple row;
      row.push_back(Value(static_cast<int64_t>(i)));
      row.push_back(Value(rng.UniformInt(0, 31)));
      row.push_back(rng.Bernoulli(0.05) ? Value::Null()
                                        : Value(rng.UniformDouble(0.0, 1000.0)));
      row.push_back(Value(std::string(kTags[rng.UniformInt(0, 3)])));
      ASSERT_TRUE(t->Insert(std::move(row)).ok());
    }
  }

  QueryResult Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : QueryResult{};
  }

  /// Executes `sql` on the volcano reference engine and the default batch
  /// engine and expects identical rows in identical order. Leaves the
  /// database on the default engine.
  void ExpectSameResults(const std::string& sql) {
    db_.SetVectorized(false);
    auto volcano = Rendered(Run(sql));
    db_.SetVectorized(true);
    auto vec = Rendered(Run(sql));
    EXPECT_EQ(volcano, vec) << sql;
  }

  /// Row for row against the volcano reference at dop 1: the batch engine at
  /// dop 1 and at dop 8 (a morsel-parallel scan on tables from 8192 rows).
  /// With `slot`, every run is a statement of that session's transaction.
  /// Leaves the database on the default engine at dop 1.
  void ExpectSameResultsAtDops(const std::string& sql,
                               std::atomic<uint64_t>* slot = nullptr) {
    auto run = [&](bool vectorized, size_t dop) {
      db_.SetVectorized(vectorized);
      db_.SetDop(dop);
      ExecSettings settings = db_.SnapshotSettings();
      if (slot != nullptr) settings.txn_slot = slot;
      auto r = db_.Execute(sql, settings);
      EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
      return r.ok() ? Rendered(r.ValueOrDie()) : std::vector<std::string>{};
    };
    const auto volcano = run(false, 1);
    EXPECT_EQ(volcano, run(true, 1)) << sql << " at dop 1";
    EXPECT_EQ(volcano, run(true, 8)) << sql << " at dop 8";
    db_.SetVectorized(true);
    db_.SetDop(1);
  }

  /// `name(id INT, v DOUBLE)` with `rows` rows: v is NaN on every 7th row,
  /// NULL on every 11th, and id % 1000 otherwise.
  void SeedNaNTable(const std::string& name, int64_t rows) {
    auto created = db_.catalog().CreateTable(
        name, Schema({{"id", ValueType::kInt}, {"v", ValueType::kDouble}}));
    ASSERT_TRUE(created.ok());
    Table* t = std::move(created).ValueOrDie();
    for (int64_t i = 0; i < rows; ++i) {
      Value v = i % 7 == 0    ? Value(std::nan(""))
                : i % 11 == 0 ? Value::Null()
                              : Value(static_cast<double>(i % 1000));
      ASSERT_TRUE(t->Insert({Value(i), std::move(v)}).ok());
    }
  }

  /// Both engines must fail `sql` with byte-identical status text.
  void ExpectSameError(const std::string& sql) {
    db_.SetVectorized(false);
    auto volcano = db_.Execute(sql);
    db_.SetVectorized(true);
    auto vec = db_.Execute(sql);
    ASSERT_FALSE(volcano.ok()) << sql;
    ASSERT_FALSE(vec.ok()) << sql;
    EXPECT_EQ(volcano.status().ToString(), vec.status().ToString()) << sql;
  }

  Database db_;
};

TEST_F(VectorizedExecTest, PlannerEmitsVecOperatorsUnderKnob) {
  SeedTable("t", 20000, 1);
  SeedTable("d", 20000, 2);

  // The batch engine is the default.
  EXPECT_NE(Run("EXPLAIN SELECT * FROM t WHERE val > 10").message.find("VecScan"),
            std::string::npos);
  EXPECT_NE(Run("EXPLAIN SELECT grp, COUNT(*) FROM t GROUP BY grp")
                .message.find("VecHashAggregate"),
            std::string::npos);
  EXPECT_NE(Run("EXPLAIN SELECT t.id FROM t JOIN d ON t.grp = d.grp")
                .message.find("VecHashJoin"),
            std::string::npos);

  // dop > 1 over a large table upgrades the scan to the morsel-parallel
  // vectorized variant.
  db_.SetDop(8);
  EXPECT_NE(Run("EXPLAIN SELECT * FROM t").message.find("VecParallelScan"),
            std::string::npos);
  db_.SetDop(1);

  // Switched off: the volcano reference engine plans no batch operator,
  // and stays serial whatever the dop.
  db_.SetVectorized(false);
  EXPECT_EQ(Run("EXPLAIN SELECT * FROM t").message.find("Vec"),
            std::string::npos);
  db_.SetDop(8);
  EXPECT_EQ(Run("EXPLAIN SELECT grp, COUNT(*) FROM t GROUP BY grp")
                .message.find("Vec"),
            std::string::npos);
  db_.SetDop(1);
}

TEST_F(VectorizedExecTest, ScanFilterProjectMatchesRowEngine) {
  SeedTable("t", 20000, 3);
  ExpectSameResults("SELECT * FROM t");
  ExpectSameResults("SELECT id, val FROM t WHERE val > 500 AND grp < 10");
  ExpectSameResults("SELECT id, val * 2 + grp FROM t WHERE val > 990");
  ExpectSameResults("SELECT id FROM t WHERE tag = 'red' AND val > 250");
  ExpectSameResults("SELECT id FROM t WHERE val < 0");  // empty result

  // An INT column against DOUBLE literals: the fused compare, on the slot
  // list as on a batch, runs in double space.
  ExpectSameResultsAtDops("SELECT id, grp FROM t WHERE grp < 10.5");
  ExpectSameResultsAtDops("SELECT id FROM t WHERE grp = 7.0");
  ExpectSameResultsAtDops("SELECT id FROM t WHERE grp <> 7.5 AND val < 250");
  ExpectSameResultsAtDops("SELECT id FROM t WHERE 3.5 > grp");

  // Two fused conjuncts refine the slot list before any column is gathered.
  // operator_work still counts what the reference chain SeqScan -> Filter ->
  // Filter -> Project produces: the visible rows, the first filter's
  // survivors, and the final rows twice (scan output and projection).
  const std::string two = "SELECT id, grp, val FROM t WHERE val > 500 AND grp < 10";
  ExpectSameResultsAtDops(two);
  const int64_t first =
      Run("SELECT COUNT(*) FROM t WHERE val > 500").rows[0][0].AsInt();
  const int64_t both =
      Run("SELECT COUNT(*) FROM t WHERE val > 500 AND grp < 10").rows[0][0].AsInt();
  ASSERT_GT(first, both);
  ASSERT_GT(both, 0);
  const size_t work = static_cast<size_t>(20000 + first + 2 * both);
  db_.SetVectorized(false);
  EXPECT_EQ(Run(two).operator_work, work);
  db_.SetVectorized(true);
  for (size_t dop : {1, 8}) {
    db_.SetDop(dop);
    EXPECT_EQ(Run(two).operator_work, work) << "dop " << dop;
  }
  db_.SetDop(1);
}

TEST_F(VectorizedExecTest, KleeneLogicOnNullsMatchesRowEngine) {
  SeedTable("t", 20000, 4);
  // val is NULL ~5% of the time: every Kleene corner (NULL AND FALSE = FALSE,
  // NULL OR TRUE = TRUE, NOT NULL = NULL) decides row membership somewhere.
  ExpectSameResults("SELECT id FROM t WHERE val > 500 AND tag = 'red'");
  ExpectSameResults("SELECT id FROM t WHERE val > 500 OR grp < 4");
  ExpectSameResults("SELECT id FROM t WHERE NOT (val > 500)");
  ExpectSameResults("SELECT id FROM t WHERE NOT (val > 500 AND val < 600)");
  ExpectSameResults(
      "SELECT id FROM t WHERE (val > 900 OR val < 100) AND NOT (grp = 7)");
  // NULL-producing projections, not just predicates.
  ExpectSameResults("SELECT id, val > 500, NOT (val > 500) FROM t");

  // NULL and NaN in a filtered column, on the slot list of the
  // select-then-gather scan: neither passes = or <, and a NaN passes <>.
  SeedNaNTable("nt", 20000);
  ExpectSameResultsAtDops("SELECT id, v FROM nt WHERE v = 5.0");
  ExpectSameResultsAtDops("SELECT id, v FROM nt WHERE v <> 5.0");
  ExpectSameResultsAtDops("SELECT id, v FROM nt WHERE v < 500");
  ExpectSameResultsAtDops("SELECT id FROM nt WHERE v < 500 AND v <> 3");
  ExpectSameResultsAtDops("SELECT COUNT(*), SUM(v) FROM nt WHERE v <> 999");
  // Every order form, column on either side. Value::Compare calls a NaN
  // greater from either side, so a NaN passes `v > 500`, `v >= 500`,
  // `500 > v` and `500 >= v`, and none of the other four. nt refines the
  // mirrored slot list; snt, below ColumnCache::kMinSlots, has no mirror and
  // takes the batch kernel.
  SeedNaNTable("snt", 3000);
  for (const char* table : {"nt", "snt"}) {
    for (const char* pred : {"v < 500", "v <= 500", "v > 500", "v >= 500", "500 < v",
                             "500 <= v", "500 > v", "500 >= v"}) {
      ExpectSameResultsAtDops(std::string("SELECT id FROM ") + table + " WHERE " + pred);
    }
  }
}

TEST_F(VectorizedExecTest, AggregationMatchesRowEngine) {
  SeedTable("t", 20000, 5);
  ExpectSameResults(
      "SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val) "
      "FROM t GROUP BY grp");
  ExpectSameResults("SELECT COUNT(*), SUM(val) FROM t");
  // Several aggregates over one column fold it once.
  ExpectSameResults("SELECT SUM(val), MIN(val), MAX(val), AVG(val), COUNT(val) FROM t");
  ExpectSameResults("SELECT tag, COUNT(*) FROM t GROUP BY tag");
  ExpectSameResults(
      "SELECT grp, SUM(val) FROM t GROUP BY grp HAVING COUNT(*) > 600");
  // Group keys that are expressions, and aggregates over expressions. (The
  // dialect does not project expression keys, so only aggregates are
  // selected here.)
  ExpectSameResults("SELECT SUM(val + 1) FROM t GROUP BY grp * 2");
}

TEST_F(VectorizedExecTest, EmptyTableAggregateYieldsZeroCountRow) {
  Schema schema({{"id", ValueType::kInt}, {"val", ValueType::kDouble}});
  ASSERT_TRUE(db_.catalog().CreateTable("empty", schema).ok());
  EXPECT_EQ(Run("SELECT * FROM empty").rows.size(), 0u);
  auto agg = Run("SELECT COUNT(*), SUM(val), MAX(val) FROM empty");
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(agg.rows[0][1].is_null());
  EXPECT_TRUE(agg.rows[0][2].is_null());
}

TEST_F(VectorizedExecTest, AllRowsFilteredStillAggregates) {
  SeedTable("t", 20000, 6);
  // Every batch survives scan but dies in the filter: the selection vector is
  // empty for all ~20 batches, and the aggregate above must still produce the
  // canonical zero-count row.
  ExpectSameResults("SELECT COUNT(*), SUM(val) FROM t WHERE val < 0");
  ExpectSameResults("SELECT grp, COUNT(*) FROM t WHERE val < 0 GROUP BY grp");
}

TEST_F(VectorizedExecTest, JoinMatchesRowEngine) {
  SeedTable("fact", 20000, 7);
  SeedTable("dim", 5000, 8);
  ExpectSameResults(
      "SELECT fact.id, dim.val FROM fact JOIN dim ON fact.grp = dim.grp "
      "WHERE dim.id < 64");
  ExpectSameResults(
      "SELECT dim.grp, COUNT(*), SUM(fact.val) FROM fact "
      "JOIN dim ON fact.grp = dim.grp GROUP BY dim.grp ORDER BY dim.grp");
}

/// Creates `name(id INT, k <type>)` holding (i, keys[i]) for every i.
void CreateKeyTable(Database* db, const std::string& name, ValueType type,
                    const std::vector<Value>& keys) {
  auto created =
      db->catalog().CreateTable(name, Schema({{"id", ValueType::kInt},
                                              {"k", type}}));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  Table* t = std::move(created).ValueOrDie();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(t->Insert({Value(static_cast<int64_t>(i)), keys[i]}).ok());
  }
}

TEST_F(VectorizedExecTest, StringKeysAcrossBatchDictionaries) {
  // Every batch dictionary-encodes its strings in its own first-seen order,
  // so one string carries different codes in different batches, on the
  // probe side, in the build store and in the group table.
  std::vector<Value> fact_keys, dim_keys;
  for (int64_t i = 0; i < 5000; ++i) {
    fact_keys.push_back(Value("s" + std::to_string((i * 7919) % 300)));
  }
  for (int64_t i = 0; i < 2500; ++i) {
    dim_keys.push_back(Value("s" + std::to_string((i * 104729) % 400)));
  }
  CreateKeyTable(&db_, "sf", ValueType::kString, fact_keys);
  CreateKeyTable(&db_, "sd", ValueType::kString, dim_keys);
  ExpectSameResults("SELECT sf.id, sd.id, sd.k FROM sf JOIN sd ON sf.k = sd.k "
                    "WHERE sf.id < 1500");
  ExpectSameResults("SELECT sd.id, sf.id FROM sd JOIN sf ON sd.k = sf.k "
                    "WHERE sd.id < 40");
  ExpectSameResults("SELECT k, COUNT(*), MIN(id) FROM sf GROUP BY k");
  ExpectSameResults(
      "SELECT sd.k, COUNT(*) FROM sf JOIN sd ON sf.k = sd.k GROUP BY sd.k");
}

TEST_F(VectorizedExecTest, NullJoinKeysNeverMatchAndNullIsOneGroup) {
  std::vector<Value> left, right;
  for (int64_t i = 0; i < 3000; ++i) {
    left.push_back(i % 5 == 0 ? Value::Null() : Value(i % 37));
  }
  for (int64_t i = 0; i < 1500; ++i) {
    right.push_back(i % 4 == 0 ? Value::Null() : Value(i % 41));
  }
  CreateKeyTable(&db_, "nl", ValueType::kInt, left);
  CreateKeyTable(&db_, "nr", ValueType::kInt, right);
  ExpectSameResults("SELECT nl.id, nr.id FROM nl JOIN nr ON nl.k = nr.k");
  ExpectSameResults("SELECT nr.id, nl.id FROM nr JOIN nl ON nr.k = nl.k");
  int64_t matches = 0;  // NULL meets nothing, NULL included
  for (const Value& l : left) {
    for (const Value& r : right) {
      matches += !l.is_null() && !r.is_null() && l.AsInt() == r.AsInt();
    }
  }
  auto joined = Run("SELECT COUNT(*) FROM nl JOIN nr ON nl.k = nr.k");
  ASSERT_EQ(joined.rows.size(), 1u);
  EXPECT_EQ(joined.rows[0][0].AsInt(), matches);
  // All NULL keys form one group, first seen at row 0.
  ExpectSameResults("SELECT k, COUNT(*) FROM nl GROUP BY k");
  auto groups = Run("SELECT k, COUNT(*) FROM nl GROUP BY k");
  ASSERT_EQ(groups.rows.size(), 38u);  // 0..36, and NULL
  EXPECT_TRUE(groups.rows[0][0].is_null());
  EXPECT_EQ(groups.rows[0][1].AsInt(), 600);
}

TEST_F(VectorizedExecTest, IntJoinsDoubleInDoubleSpace) {
  // `1` joins `1.0`, as JoinKeyHash and Value::Compare define equality;
  // x.5 meets no INT. Row 2500 of jd holds an INT in the DOUBLE column, so
  // its batch carries exact Values while the others are typed, and the
  // build store changes representation mid-build.
  std::vector<Value> ints, doubles;
  for (int64_t i = 0; i < 2000; ++i) ints.push_back(Value(i % 50));
  for (int64_t i = 0; i < 3000; ++i) {
    doubles.push_back(i == 2500      ? Value(int64_t{7})
                      : i % 2 == 0 ? Value(static_cast<double>(i % 100 / 2))
                                   : Value(static_cast<double>(i % 100) + 0.5));
  }
  CreateKeyTable(&db_, "ji", ValueType::kInt, ints);
  CreateKeyTable(&db_, "jd", ValueType::kDouble, doubles);
  ExpectSameResults("SELECT ji.id, jd.id, jd.k FROM ji JOIN jd ON ji.k = jd.k");
  ExpectSameResults("SELECT jd.id, ji.id, jd.k FROM jd JOIN ji ON jd.k = ji.k");
  int64_t matches = 0;
  for (const Value& l : ints) {
    for (const Value& r : doubles) matches += l.Compare(r) == 0;
  }
  auto r = Run("SELECT COUNT(*) FROM ji JOIN jd ON ji.k = jd.k");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), matches);
}

TEST_F(VectorizedExecTest, IntValuesInDoubleColumnAsJoinAndGroupKeys) {
  // A DOUBLE column may hold INT values; such batches carry the column as
  // exact Values. Both engines share one group table, so the expected rows
  // are fixed here: INT 1 and DOUBLE 1.0 are distinct groups (as they are
  // distinct rows to DISTINCT), emitted in first-seen order, while the
  // join meets them both, numbers comparing in double space.
  CreateKeyTable(&db_, "mix", ValueType::kDouble,
                 {Value(int64_t{1}), Value(1.0), Value(int64_t{1}), Value(2.5),
                  Value::Null(), Value(1.0), Value(int64_t{2})});
  CreateKeyTable(&db_, "kk", ValueType::kInt,
                 {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})});
  const std::string group = "SELECT k, COUNT(*), SUM(id) FROM mix GROUP BY k";
  ExpectSameResults(group);
  EXPECT_EQ(Rendered(Run(group)),
            (std::vector<std::string>{"1\x1f" "2\x1f" "2.000000\x1f",
                                      "1.000000\x1f" "2\x1f" "6.000000\x1f",
                                      "2.500000\x1f" "1\x1f" "3.000000\x1f",
                                      "NULL\x1f" "1\x1f" "4.000000\x1f",
                                      "2\x1f" "1\x1f" "6.000000\x1f"}));
  // The mixed column on the build side, then on the probe side.
  ASSERT_NE(Run("EXPLAIN SELECT kk.id FROM kk JOIN mix ON kk.k = mix.k")
                .message.find("VecScan(kk) [rows=0]\n    VecScan(mix)"),
            std::string::npos);
  for (const std::string sql :
       {"SELECT kk.id, mix.id FROM kk JOIN mix ON kk.k = mix.k",
        "SELECT kk.id, mix.id FROM mix JOIN kk ON mix.k = kk.k"}) {
    ExpectSameResults(sql);
    std::vector<std::string> rows = Rendered(Run(sql));
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, (std::vector<std::string>{"0\x1f" "0\x1f", "0\x1f" "1\x1f",
                                              "0\x1f" "2\x1f", "0\x1f" "5\x1f",
                                              "1\x1f" "6\x1f"}))
        << sql;
  }
}

TEST_F(VectorizedExecTest, BuildFanOutBeyondOneBatch) {
  // Every probe row meets 3000 build rows, so one probe batch expands into
  // many output batches, each resuming mid-run of one key's matches.
  std::vector<Value> probe, build;
  for (int64_t i = 0; i < 12; ++i) probe.push_back(Value(i % 3));
  for (int64_t i = 0; i < 9000; ++i) build.push_back(Value(i % 3));
  CreateKeyTable(&db_, "fp", ValueType::kInt, probe);
  CreateKeyTable(&db_, "fb", ValueType::kInt, build);
  const std::string sql = "SELECT fp.id, fb.id FROM fp JOIN fb ON fp.k = fb.k";
  ASSERT_NE(Run("EXPLAIN " + sql).message.find("VecScan(fp) [rows=0]\n    VecScan(fb)"),
            std::string::npos);
  ExpectSameResults(sql);
  EXPECT_EQ(Run(sql).rows.size(), 12u * 3000u);
  ExpectSameResults("SELECT fb.k, COUNT(*), SUM(fb.id) FROM fp JOIN fb "
                    "ON fp.k = fb.k GROUP BY fb.k");
}

TEST_F(VectorizedExecTest, KeysOnBothSidesOfTheDirectRange) {
  // Integral keys in [0, kDirectKeys) are found by value, the rest through
  // the hash index; the join and the group table must answer alike either
  // way, for INT keys and for the DOUBLEs a join meets them as (-0.0 is 0).
  const int64_t keys[] = {0, 5, 65535, 65536, 70000, -1, -65536, int64_t{1} << 40};
  std::vector<Value> ints, doubles;
  for (int64_t i = 0; i < 3000; ++i) ints.push_back(Value(keys[i % 8]));
  for (int64_t i = 0; i < 96; ++i) {
    const double k = static_cast<double>(keys[i % 8]);
    doubles.push_back(i == 0 ? Value(-0.0) : Value(i % 3 == 2 ? k + 0.5 : k));
  }
  CreateKeyTable(&db_, "ri", ValueType::kInt, ints);
  CreateKeyTable(&db_, "rd", ValueType::kDouble, doubles);
  for (const std::string sql :
       {"SELECT ri.id, rd.id, rd.k FROM ri JOIN rd ON ri.k = rd.k",
        "SELECT rd.id, ri.id FROM rd JOIN ri ON rd.k = ri.k",
        "SELECT a.id, b.id FROM ri a JOIN ri b ON a.k = b.k WHERE b.id < 100"}) {
    ExpectSameResults(sql);
  }
  int64_t matches = 0;
  for (const Value& l : ints) {
    for (const Value& r : doubles) matches += l.Compare(r) == 0;
  }
  auto joined = Run("SELECT COUNT(*) FROM ri JOIN rd ON ri.k = rd.k");
  ASSERT_EQ(joined.rows.size(), 1u);
  EXPECT_EQ(joined.rows[0][0].AsInt(), matches);
  ExpectSameResults("SELECT k, COUNT(*), SUM(id) FROM ri GROUP BY k");
  EXPECT_EQ(Run("SELECT k, COUNT(*) FROM ri GROUP BY k").rows.size(), 8u);
  ExpectSameResults("SELECT k, COUNT(*) FROM rd GROUP BY k");
}

TEST_F(VectorizedExecTest, ManyGroupsCompositeAndExpressionKeys) {
  // 120k distinct keys outgrow the small-INT direct path of the group
  // table; two-column and expression keys take its general path.
  SeedTable("t", 120000, 40);
  ExpectSameResults("SELECT id, COUNT(*), SUM(val) FROM t GROUP BY id");
  EXPECT_EQ(Run("SELECT id, COUNT(*) FROM t GROUP BY id").rows.size(), 120000u);
  ExpectSameResults(
      "SELECT grp, tag, COUNT(*), SUM(val), MIN(val) FROM t GROUP BY grp, tag");
  ExpectSameResults("SELECT SUM(val), COUNT(*) FROM t GROUP BY grp * 2");
  ExpectSameResults("SELECT COUNT(*) FROM t GROUP BY val");
  db_.SetDop(4);
  ExpectSameResults("SELECT grp, tag, COUNT(*), SUM(val) FROM t GROUP BY grp, tag");
  db_.SetDop(1);
}

TEST_F(VectorizedExecTest, GroupedAggregateErrorsMatchRowEngine) {
  Schema schema({{"id", ValueType::kInt}, {"big", ValueType::kInt}});
  Table* t =
      std::move(db_.catalog().CreateTable("ovf", schema)).ValueOrDie();
  for (int64_t i = 0; i < 4000; ++i) {
    // Row 1500, mid second batch, overflows when the query adds 10.
    int64_t big = i == 1500 ? 9223372036854775800LL : i;
    ASSERT_TRUE(t->Insert({Value(i), Value(big)}).ok());
  }
  ExpectSameError("SELECT id % 7, SUM(big + 10) FROM ovf GROUP BY id % 7");
  ExpectSameError("SELECT COUNT(*) FROM ovf GROUP BY big + 10");
  ExpectSameError("SELECT COUNT(*), SUM(big * 2) FROM ovf GROUP BY id");
}

TEST_F(VectorizedExecTest, RowBuildSideFeedsTheBatchJoin) {
  // An index scan stays a row operator; as the build side it reaches the
  // batch join as exact-Value columns.
  SeedTable("fact", 20000, 41);
  SeedTable("d", 5000, 42);
  Run("CREATE INDEX d_id ON d (id)");
  ASSERT_TRUE(db_.Execute("ANALYZE fact").ok());
  ASSERT_TRUE(db_.Execute("ANALYZE d").ok());
  const std::string sql =
      "SELECT fact.id, d.id, d.tag FROM fact JOIN d ON fact.grp = d.grp "
      "WHERE d.id < 40";
  const std::string plan = Run("EXPLAIN " + sql).message;
  ASSERT_NE(plan.find("VecHashJoin"), std::string::npos) << plan;
  ASSERT_NE(plan.find("    IndexScan(d"), std::string::npos) << plan;
  ExpectSameResults(sql);
  ExpectSameResults("SELECT d.tag, COUNT(*), SUM(fact.val) FROM fact JOIN d "
                    "ON fact.grp = d.grp WHERE d.id < 40 GROUP BY d.tag");
}

TEST_F(VectorizedExecTest, RowOperatorsDrainBatchesTransparently) {
  SeedTable("t", 20000, 9);
  // Sort, DISTINCT and LIMIT stay row operators; they sit on top of the batch
  // pipeline via the row-drain protocol.
  ExpectSameResults("SELECT id, val FROM t WHERE val > 900 ORDER BY id DESC");
  ExpectSameResults("SELECT DISTINCT grp FROM t ORDER BY grp");
  ExpectSameResults("SELECT id FROM t ORDER BY id LIMIT 37");

  // Top-N: under a LIMIT the sort emits only the first LIMIT rows, which
  // must be the unbounded stable sort's prefix: ties (grp has 32 values) in
  // arrival order, NULL keys (val is NULL ~5% of the time) first ascending
  // and last descending, LIMIT 0 and a LIMIT above the row count.
  for (const char* order : {"grp", "grp DESC", "val", "val DESC, id",
                            "grp, val DESC"}) {
    const std::string sorted =
        std::string("SELECT id, grp, val FROM t ORDER BY ") + order;
    const auto full = Rendered(Run(sorted));
    ASSERT_EQ(full.size(), 20000u);
    for (size_t k : {0, 1, 37, 1500, 20000, 50000}) {
      const std::string sql = sorted + " LIMIT " + std::to_string(k);
      ExpectSameResultsAtDops(sql);
      const std::vector<std::string> prefix(
          full.begin(), full.begin() + static_cast<long>(std::min(k, full.size())));
      EXPECT_EQ(Rendered(Run(sql)), prefix) << sql;
    }
  }
  // NaN keys sort after every other number; NULLs stay first.
  SeedNaNTable("nt", 3000);
  for (const char* order : {"v", "v DESC", "v, id DESC"}) {
    const std::string sorted = std::string("SELECT id, v FROM nt ORDER BY ") + order;
    const auto full = Rendered(Run(sorted));
    for (size_t k : {5, 400, 2999}) {
      const std::string sql = sorted + " LIMIT " + std::to_string(k);
      ExpectSameResults(sql);
      EXPECT_EQ(Rendered(Run(sql)),
                std::vector<std::string>(full.begin(),
                                         full.begin() + static_cast<long>(k)))
          << sql;
    }
  }
  // The sort above an aggregate and above DISTINCT, and a projection that
  // fails on a row the top-N sort hands out.
  ExpectSameResultsAtDops(
      "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp ORDER BY n DESC, grp LIMIT 3");
  ExpectSameResultsAtDops("SELECT DISTINCT grp FROM t ORDER BY grp DESC LIMIT 4");
  ExpectSameError("SELECT val + tag FROM t WHERE tag <> '' ORDER BY id LIMIT 3");
}

TEST_F(VectorizedExecTest, Int64OverflowMidBatchMatchesRowEngineError) {
  Schema schema({{"id", ValueType::kInt}, {"big", ValueType::kInt}});
  auto created = db_.catalog().CreateTable("ovf", schema);
  ASSERT_TRUE(created.ok());
  Table* t = std::move(created).ValueOrDie();
  for (int64_t i = 0; i < 4000; ++i) {
    // Row 1500 — mid second batch — overflows when the query adds 10.
    int64_t big = i == 1500 ? 9223372036854775800LL : i;
    ASSERT_TRUE(t->Insert({Value(i), Value(big)}).ok());
  }

  // The kernel evaluates the whole batch; the statement must still abort with
  // the row engine's exact per-row error text.
  ExpectSameError("SELECT big + 10 FROM ovf");
  ExpectSameError("SELECT id FROM ovf WHERE big + 10 > 0");
  ExpectSameError("SELECT SUM(big + 10) FROM ovf");
  ExpectSameError("SELECT -(big * 3) FROM ovf");

  // LIMIT below the error row: the consumer stops pulling before the failing
  // row, so no error surfaces — identical to the row engine.
  auto limited = db_.Execute("SELECT big + 10 FROM ovf LIMIT 100");
  EXPECT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(limited.ValueOrDie().rows.size(), 100u);
}

TEST_F(VectorizedExecTest, TypeErrorsMatchRowEngine) {
  SeedTable("t", 3000, 10);
  ExpectSameError("SELECT val + tag FROM t");
  ExpectSameError("SELECT id FROM t WHERE val + tag > 0");
  ExpectSameError("SELECT -tag FROM t");
}

TEST_F(VectorizedExecTest, ParallelVectorizedScanMatchesSerial) {
  SeedTable("t", 50000, 11);
  db_.SetDop(1);
  auto serial = Rendered(Run("SELECT id, val FROM t WHERE val > 500"));
  auto serial_agg =
      Rendered(Run("SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp"));
  db_.SetDop(8);
  EXPECT_EQ(serial, Rendered(Run("SELECT id, val FROM t WHERE val > 500")));
  EXPECT_EQ(serial_agg,
            Rendered(Run("SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp")));
  db_.SetDop(1);
}

TEST_F(VectorizedExecTest, DeletedRowsAreSkipped) {
  SeedTable("t", 20000, 12);
  Run("DELETE FROM t WHERE grp = 5");
  ExpectSameResults("SELECT grp, COUNT(*) FROM t GROUP BY grp");
  EXPECT_EQ(Run("SELECT id FROM t WHERE grp = 5").rows.size(), 0u);
}

TEST_F(VectorizedExecTest, IndexScansStayRowBased) {
  SeedTable("t", 20000, 13);
  Run("CREATE INDEX t_id ON t (id)");
  ASSERT_TRUE(db_.Execute("ANALYZE t").ok());
  // A selective indexable predicate keeps the row-based index scan, and
  // every operator above a row input stays row-at-a-time: an indexed point
  // read pays no batch round trip.
  for (const char* sql : {"EXPLAIN SELECT id, val FROM t WHERE id = 17",
                          "EXPLAIN SELECT id, val * 2 FROM t WHERE id = 17 "
                          "AND grp > 3",
                          "EXPLAIN SELECT COUNT(*) FROM t WHERE id = 17"}) {
    auto plan = Run(sql);
    EXPECT_NE(plan.message.find("IndexScan"), std::string::npos) << plan.message;
    EXPECT_EQ(plan.message.find("Vec"), std::string::npos) << plan.message;
  }
  ExpectSameResults("SELECT id, val FROM t WHERE id = 17");
}

TEST_F(VectorizedExecTest, OperatorWorkMatchesReferenceEngine) {
  // operator_work has one definition across engines: a fused batch scan adds
  // each batch's visible rows and each non-final filter's survivors, which
  // is what the reference engine's SeqScan+Filter chain produces. For fully
  // drained SELECTs on the row store the totals are therefore equal at every
  // dop, and whatever is scored by executed work (the admission classifier,
  // Neo-lite, the index advisor's measured win) reads the same number.
  SeedTable("t", 20000, 30);
  SeedTable("d", 5000, 31);
  // The analytics benchmark's tables, scaled down: fact rows reference one
  // of 256 dim rows.
  Schema fact_schema({{"id", ValueType::kInt},
                      {"dim_id", ValueType::kInt},
                      {"a", ValueType::kInt},
                      {"b", ValueType::kDouble},
                      {"c", ValueType::kInt}});
  Table* fact = std::move(db_.catalog().CreateTable("fact", fact_schema)).ValueOrDie();
  Table* dim = std::move(db_.catalog().CreateTable(
                             "dim", Schema({{"id", ValueType::kInt},
                                            {"grp", ValueType::kInt}})))
                   .ValueOrDie();
  Rng rng(32);
  for (int64_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(fact->Insert({Value(i), Value(rng.UniformInt(0, 255)),
                              Value(rng.UniformInt(0, 999)),
                              Value(rng.UniformDouble(0.0, 100.0)),
                              Value(rng.UniformInt(0, 49))})
                    .ok());
  }
  for (int64_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(dim->Insert({Value(i), Value(i % 16)}).ok());
  }

  const std::vector<std::string> queries = {
      "SELECT * FROM t",
      "SELECT id, val FROM t WHERE val > 500",
      "SELECT id FROM t WHERE val > 200 AND grp < 20 AND tag = 'red'",
      "SELECT grp, COUNT(*), SUM(val) FROM t WHERE val > 100 GROUP BY grp "
      "HAVING COUNT(*) > 10",
      "SELECT t.id, d.val FROM t JOIN d ON t.grp = d.grp "
      "WHERE d.id < 64 AND t.val > 900",
      // The four analytics report shapes: scan_agg, group_agg, join_agg and
      // topk (its LIMIT sits above a Sort that drains the scan).
      "SELECT COUNT(*), SUM(b) FROM fact WHERE a < 400",
      "SELECT c, COUNT(*), SUM(b) FROM fact WHERE a < 600 GROUP BY c",
      "SELECT dim.grp, COUNT(*), SUM(fact.b) FROM fact JOIN dim ON "
      "fact.dim_id = dim.id WHERE fact.a < 500 GROUP BY dim.grp",
      "SELECT id, b FROM fact WHERE c = 7 ORDER BY b DESC, id LIMIT 10",
  };
  for (const auto& sql : queries) {
    db_.SetVectorized(false);
    const size_t reference = Run(sql).operator_work;
    EXPECT_GT(reference, 0u) << sql;
    db_.SetVectorized(true);
    for (size_t dop : {1, 8}) {
      db_.SetDop(dop);
      EXPECT_EQ(Run(sql).operator_work, reference) << sql << " at dop " << dop;
    }
    db_.SetDop(1);
  }
}

TEST_F(VectorizedExecTest, ExplainAnalyzeTracesBatchOperators) {
  SeedTable("t", 20000, 14);
  auto r = Run("EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM t WHERE val > 500 "
               "GROUP BY grp");
  // Batch operators surface in the same trace format; rows= counts real rows,
  // not batches.
  EXPECT_NE(r.message.find("VecScan"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("VecHashAggregate"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("rows="), std::string::npos) << r.message;
}

TEST_F(VectorizedExecTest, BatchesCountBatchesUnderRowParents) {
  SeedTable("t", 20000, 16);
  // Sort drains the scan row by row; batches= still counts the scan's 20
  // batches plus the call that ends the stream, not its 20000 rows.
  auto r = Run("EXPLAIN ANALYZE SELECT id FROM t ORDER BY id LIMIT 5");
  EXPECT_NE(r.message.find("VecScan(t) (est=20000 rows=20000 batches=21 "),
            std::string::npos)
      << r.message;
}

TEST_F(VectorizedExecTest, PlanCacheFingerprintSeparatesEngines) {
  exec::PlannerOptions batch_engine;
  exec::PlannerOptions reference_engine;
  reference_engine.vectorized = false;
  // A cached volcano plan must never be served on the batch engine (or vice
  // versa): the engine switch is part of the plan-cache key.
  EXPECT_NE(server::KnobFingerprint(batch_engine),
            server::KnobFingerprint(reference_engine));
}

TEST_F(VectorizedExecTest, SessionsPlanOnTheBatchEngine) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE pts (id INT, val DOUBLE)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO pts VALUES (1, 0.5), (2, 1.5)").ok());
  server::Service service(&db, {.workers = 2});
  // A session starts from the database's settings: the batch engine.
  auto s1 = service.OpenSession();
  auto r = service.Execute(s1->id(), "EXPLAIN SELECT val FROM pts WHERE id = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.ValueOrDie().message.find("VecScan"), std::string::npos);

  // The engine switch is database-wide and reaches sessions opened after it.
  db.SetVectorized(false);
  auto s2 = service.OpenSession();
  r = service.Execute(s2->id(), "EXPLAIN SELECT val FROM pts WHERE id = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().message.find("Vec"), std::string::npos);
  r = service.Execute(s1->id(), "EXPLAIN SELECT val FROM pts WHERE id = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.ValueOrDie().message.find("VecScan"), std::string::npos);
}

TEST_F(VectorizedExecTest, DeadlineCancelsAtBatchBoundary) {
  Database db;
  // ~10^6-row join intermediate: slow enough that a millisecond deadline
  // fires while batches are in flight.
  for (const char* name : {"big1", "big2"}) {
    ASSERT_TRUE(
        db.Execute(std::string("CREATE TABLE ") + name + " (id INT, k INT)")
            .ok());
    std::string ins = std::string("INSERT INTO ") + name + " VALUES ";
    for (size_t i = 0; i < 3000; ++i) {
      if (i > 0) ins += ", ";
      ins += "(" + std::to_string(i) + ", " + std::to_string(i % 3) + ")";
    }
    ASSERT_TRUE(db.Execute(ins).ok());
  }
  server::Service service(&db, {.workers = 1});
  auto s = service.OpenSession();
  s->set_statement_timeout_ms(10.0);
  auto r = service.Execute(
      s->id(), "SELECT big1.id FROM big1 JOIN big2 ON big1.k = big2.k");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout) << r.status().ToString();
  // The worker is free again: a cheap vectorized statement still succeeds.
  s->set_statement_timeout_ms(0.0);
  EXPECT_TRUE(service.Execute(s->id(), "SELECT id FROM big1 WHERE id = 1").ok());
}

TEST_F(VectorizedExecTest, ColumnMirrorInvalidatesOnDml) {
  // Above ColumnCache::kMinSlots, so the vectorized scan gathers from the
  // slot-major mirrors; every DML class must invalidate them.
  SeedTable("big", 6000, 99);
  const std::string q =
      "SELECT COUNT(*), SUM(val), MIN(id), MAX(id) FROM big WHERE val > 300";
  ExpectSameResults(q);  // populates the mirrors
  Run("INSERT INTO big VALUES (6000, 1, 999.5, 'red')");
  ExpectSameResults(q);
  Run("UPDATE big SET val = 0.5 WHERE id < 100");
  ExpectSameResults(q);
  Run("DELETE FROM big WHERE id >= 5900");
  ExpectSameResults(q);
}

TEST_F(VectorizedExecTest, ColumnMirrorSurvivesDropCreateCycle) {
  // A recreated table with the same name must never see the old table's
  // mirrors (entries are keyed by Table::uid, not name or address).
  SeedTable("cyc", 6000, 7);
  ExpectSameResults("SELECT SUM(val), COUNT(*) FROM cyc WHERE val > 100");
  Run("DROP TABLE cyc");
  SeedTable("cyc", 6000, 8);  // same name, different data
  ExpectSameResults("SELECT SUM(val), COUNT(*) FROM cyc WHERE val > 100");
}

TEST_F(VectorizedExecTest, MixedTypeDoubleColumnDeclinesMirror) {
  // A DOUBLE column physically holding INT values (legal) must not be
  // mirrored: coercing to double would change ToString results. The scan
  // falls back to row-major extraction with its exact demotion handling.
  Schema schema({{"id", ValueType::kInt}, {"v", ValueType::kDouble}});
  auto created = db_.catalog().CreateTable("mixed", schema);
  ASSERT_TRUE(created.ok());
  Table* t = std::move(created).ValueOrDie();
  for (int64_t i = 0; i < 6000; ++i) {
    Value v = (i % 3 == 0) ? Value(i) : Value(static_cast<double>(i) + 0.25);
    ASSERT_TRUE(t->Insert({Value(i), v}).ok());
  }
  // Twice: the second run exercises the stamped-uncacheable fast path.
  ExpectSameResults("SELECT v FROM mixed WHERE v > 5990");
  ExpectSameResults("SELECT COUNT(*), MIN(v), MAX(v) FROM mixed WHERE v > 10");
}

TEST(ColumnCacheTest, MirrorsTrackVersionAndUid) {
  Table t("t", Schema({{"a", ValueType::kInt}, {"s", ValueType::kString}}));
  for (size_t i = 0; i < exec::ColumnCache::kMinSlots; ++i) {
    ASSERT_TRUE(t.Insert({Value(static_cast<int64_t>(i)), Value("x")}).ok());
  }
  exec::ColumnCache cache;
  auto m1 = cache.Get(t, 0);
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(m1->col.rows, t.NumSlots());
  EXPECT_TRUE(m1->fully_stamped);
  EXPECT_EQ(m1->stamped_at, t.data_version());
  EXPECT_EQ(cache.Get(t, 0), m1);  // warm hit returns the same mirror
  EXPECT_EQ(cache.Get(t, 1), nullptr);  // string columns are not mirrored
  ASSERT_TRUE(t.Insert({Value(int64_t{7}), Value("y")}).ok());
  auto m2 = cache.Get(t, 0);  // data_version changed: fresh mirror
  ASSERT_NE(m2, nullptr);
  EXPECT_NE(m2, m1);
  EXPECT_EQ(m2->col.rows, t.NumSlots());
  EXPECT_GT(cache.ApproxBytes(), 0u);
  cache.Evict(t.uid());
  EXPECT_EQ(cache.ApproxBytes(), 0u);
  Table small("s", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(small.Insert({Value(int64_t{1})}).ok());
  EXPECT_EQ(cache.Get(small, 0), nullptr);  // below the slot threshold
  EXPECT_NE(small.uid(), t.uid());
}

TEST_F(VectorizedExecTest, ReadYourWritesThroughMirroredScan) {
  // Regression: the mirror/liveness fast path materializes latest-committed
  // state, so it must be declined for morsels a session's own open
  // transaction has uncommitted writes in — otherwise the writer's scan
  // misses its own updates (and everyone else's scan is gated per morsel,
  // not per table). 6000 rows keeps the table above ColumnCache::kMinSlots
  // so the vectorized scan actually resolves mirrors.
  SeedTable("ryw", 6000, 21);
  Run("SELECT SUM(grp), COUNT(*) FROM ryw");  // primes mirrors + liveness

  std::atomic<uint64_t> slot_a{0}, slot_b{0};
  ExecSettings sa = db_.SnapshotSettings();
  sa.txn_slot = &slot_a;
  ExecSettings sb = db_.SnapshotSettings();
  sb.txn_slot = &slot_b;
  auto run_in = [&](const ExecSettings& s, const std::string& sql) {
    auto r = db_.Execute(sql, s);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : QueryResult{};
  };
  auto count_in = [&](const ExecSettings& s, const std::string& sql) {
    auto r = run_in(s, sql);
    return r.rows.empty() ? int64_t{-1} : r.rows[0][0].AsInt();
  };

  run_in(sa, "BEGIN");
  run_in(sa, "UPDATE ryw SET grp = 999 WHERE id = 5");
  run_in(sa, "DELETE FROM ryw WHERE id = 7");
  // The writing session sees its own uncommitted update and delete through
  // the vectorized scan (its morsel declines the fast path)...
  EXPECT_EQ(count_in(sa, "SELECT COUNT(*) FROM ryw WHERE grp = 999"), 1);
  EXPECT_EQ(count_in(sa, "SELECT COUNT(*) FROM ryw WHERE id = 7"), 0);
  EXPECT_EQ(count_in(sa, "SELECT COUNT(*) FROM ryw"), 5999);
  // ...and matches the row engine on the same snapshot exactly (settings
  // carry the engine switch as it was when they were taken).
  db_.SetVectorized(false);
  ExecSettings sa_volcano = db_.SnapshotSettings();
  sa_volcano.txn_slot = &slot_a;
  EXPECT_EQ(count_in(sa_volcano, "SELECT COUNT(*) FROM ryw WHERE grp = 999"), 1);
  EXPECT_EQ(count_in(sa_volcano, "SELECT COUNT(*) FROM ryw"), 5999);
  db_.SetVectorized(true);
  // Another session still reads the committed state (same mirrors, same
  // per-morsel gate, different snapshot).
  EXPECT_EQ(count_in(sb, "SELECT COUNT(*) FROM ryw WHERE grp = 999"), 0);
  EXPECT_EQ(count_in(sb, "SELECT COUNT(*) FROM ryw WHERE id = 7"), 1);
  EXPECT_EQ(count_in(sb, "SELECT COUNT(*) FROM ryw"), 6000);

  run_in(sa, "COMMIT");
  EXPECT_EQ(count_in(sb, "SELECT COUNT(*) FROM ryw WHERE grp = 999"), 1);
  EXPECT_EQ(count_in(sb, "SELECT COUNT(*) FROM ryw WHERE id = 7"), 0);
  EXPECT_EQ(count_in(sb, "SELECT COUNT(*) FROM ryw"), 5999);

  // One scan whose windows take both paths. A reader whose snapshot predates
  // a committed UPDATE finds the updated windows stale (committed past its
  // read timestamp), and every reader finds the window holding another
  // session's uncommitted writes stale; those windows walk version chains,
  // and the others select on the mirrors, then gather.
  SeedTable("mix", 20000, 22);
  const std::vector<std::string> queries = {
      "SELECT id, grp, val FROM mix WHERE grp < 8 AND val > 100",
      "SELECT grp, COUNT(*), SUM(val) FROM mix WHERE val < 700 GROUP BY grp",
      "SELECT id, val FROM mix WHERE grp = 3 ORDER BY val DESC, id LIMIT 25",
  };
  for (const auto& q : queries) ExpectSameResultsAtDops(q);  // primes mirrors
  std::atomic<uint64_t> reader{0}, writer{0};
  ExecSettings sr = db_.SnapshotSettings();
  sr.txn_slot = &reader;
  ExecSettings sw = db_.SnapshotSettings();
  sw.txn_slot = &writer;
  const std::string updated =
      "SELECT COUNT(*) FROM mix WHERE grp = 3 AND id >= 3000 AND id < 3600";
  const int64_t before = count_in(sb, updated);
  ASSERT_LT(before, 600);
  run_in(sr, "BEGIN");
  Run("UPDATE mix SET grp = 3, val = val + 0.5 WHERE id >= 3000 AND id < 3600");
  run_in(sw, "BEGIN");
  run_in(sw, "UPDATE mix SET grp = 3 WHERE id = 15000");
  run_in(sw, "DELETE FROM mix WHERE id = 15001");
  for (const auto& q : queries) {
    ExpectSameResultsAtDops(q, &reader);
    ExpectSameResultsAtDops(q, &writer);
    ExpectSameResultsAtDops(q);
  }
  EXPECT_EQ(count_in(sr, updated), before);  // the old snapshot's rows
  EXPECT_EQ(count_in(sb, updated), 600);
  run_in(sw, "ROLLBACK");
  run_in(sr, "COMMIT");
}

TEST_F(VectorizedExecTest, BatchDrainRespectsSelectionVectors) {
  // Direct unit check of the row-drain protocol: a VecScanOp with a fused
  // filter drains only selected rows through the row-at-a-time Next().
  SeedTable("t", 5000, 15);
  db_.SetVectorized(true);
  auto expected = Run("SELECT * FROM t WHERE grp = 3").rows.size();
  db_.SetVectorized(false);
  auto via_volcano = Run("SELECT * FROM t WHERE grp = 3").rows.size();
  EXPECT_EQ(expected, via_volcano);
  EXPECT_GT(expected, 0u);
}

}  // namespace
}  // namespace aidb
