#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/schema.h"
#include "storage/serde.h"
#include "storage/value.h"
#include "storage/wal.h"

namespace aidb {
namespace {

using storage::WalRecordType;

// ----- Value / Tuple / Schema binary round-trips -----

Value RoundTrip(const Value& v) {
  std::string buf;
  v.AppendTo(&buf);
  serde::Reader r(buf);
  auto out = Value::Deserialize(&r);
  EXPECT_TRUE(out.ok()) << v.ToString();
  EXPECT_EQ(r.remaining(), 0u) << v.ToString();
  return std::move(out).ValueOrDie();
}

TEST(ValueSerde, AllTypesRoundTrip) {
  std::vector<Value> cases;
  cases.push_back(Value::Null());
  cases.push_back(Value(int64_t{0}));
  cases.push_back(Value(int64_t{-1}));
  cases.push_back(Value(std::numeric_limits<int64_t>::min()));
  cases.push_back(Value(std::numeric_limits<int64_t>::max()));
  cases.push_back(Value(0.0));
  cases.push_back(Value(-0.0));
  cases.push_back(Value(3.141592653589793));
  cases.push_back(Value(std::numeric_limits<double>::infinity()));
  cases.push_back(Value(std::numeric_limits<double>::denorm_min()));
  cases.push_back(Value(std::string()));  // empty string
  cases.push_back(Value(std::string("hello")));
  cases.push_back(Value(std::string("emb\0edded", 9)));  // NUL byte inside
  cases.push_back(Value(std::string(10000, 'x')));

  for (const Value& v : cases) {
    Value back = RoundTrip(v);
    EXPECT_EQ(back.type(), v.type());
    EXPECT_EQ(back, v) << v.ToString();
    if (v.type() == ValueType::kString)
      EXPECT_EQ(back.AsString(), v.AsString());  // byte-exact, not just Compare
  }
}

TEST(ValueSerde, NanRoundTripsAsNan) {
  std::string buf;
  Value(std::nan("")).AppendTo(&buf);
  serde::Reader r(buf);
  Value back = Value::Deserialize(&r).ValueOrDie();
  ASSERT_EQ(back.type(), ValueType::kDouble);
  EXPECT_TRUE(std::isnan(back.AsDouble()));
}

TEST(ValueSerde, RandomizedPropertyRoundTrip) {
  Rng rng(1234);
  for (int i = 0; i < 2000; ++i) {
    Value v;
    switch (rng.Uniform(4)) {
      case 0: v = Value::Null(); break;
      case 1: v = Value(static_cast<int64_t>(rng.UniformInt(-1000000, 1000000))); break;
      case 2: v = Value(rng.Gaussian(0.0, 1e6)); break;
      default: {
        std::string s;
        size_t n = rng.Uniform(64);
        for (size_t k = 0; k < n; ++k)
          s.push_back(static_cast<char>(rng.Uniform(256)));
        v = Value(std::move(s));
      }
    }
    EXPECT_EQ(RoundTrip(v), v);
  }
}

TEST(ValueSerde, TruncationAndBadTagAreErrors) {
  std::string buf;
  Value(std::string("payload")).AppendTo(&buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string prefix = buf.substr(0, cut);
    serde::Reader r(prefix);
    EXPECT_FALSE(Value::Deserialize(&r).ok()) << "cut=" << cut;
  }
  std::string bad = buf;
  bad[0] = static_cast<char>(0x7f);  // unknown type tag
  serde::Reader r(bad);
  EXPECT_FALSE(Value::Deserialize(&r).ok());
}

TEST(TupleSerde, MixedTupleWithNullsRoundTrips) {
  Tuple row = {Value(int64_t{7}), Value::Null(), Value(2.5),
               Value(std::string("")), Value(std::string("zed"))};
  std::string buf;
  AppendTuple(&buf, row);
  serde::Reader r(buf);
  Tuple back = DeserializeTuple(&r).ValueOrDie();
  ASSERT_EQ(back.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) EXPECT_EQ(back[i], row[i]);
}

TEST(SchemaSerde, SchemaRoundTrips) {
  Schema s({{"id", ValueType::kInt},
            {"score", ValueType::kDouble},
            {"name", ValueType::kString},
            {"note", ValueType::kNull}});
  std::string buf;
  s.AppendTo(&buf);
  serde::Reader r(buf);
  Schema back = Schema::Deserialize(&r).ValueOrDie();
  ASSERT_EQ(back.NumColumns(), s.NumColumns());
  for (size_t i = 0; i < s.NumColumns(); ++i) {
    EXPECT_EQ(back.column(i).name, s.column(i).name);
    EXPECT_EQ(back.column(i).type, s.column(i).type);
  }
}

// ----- CRC32 -----

TEST(Crc32, KnownVectorAndSensitivity) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(serde::Crc32("123456789", 9), 0xCBF43926u);
  std::string data = "The quick brown fox";
  uint32_t base = serde::Crc32(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mut = data;
    mut[i] ^= 0x01;  // single-bit flip anywhere must change the CRC
    EXPECT_NE(serde::Crc32(mut.data(), mut.size()), base) << i;
  }
}

// ----- WAL payload codecs -----

TEST(WalCodec, InsertPayloadRoundTrips) {
  storage::InsertPayload p;
  p.table = "t";
  p.first_row_id = 41;
  p.rows = {{Value(int64_t{1}), Value::Null()}, {Value(2.0), Value(std::string("x"))}};
  auto back = storage::DecodeInsert(storage::EncodeInsert(p)).ValueOrDie();
  EXPECT_EQ(back.table, "t");
  EXPECT_EQ(back.first_row_id, 41u);
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_EQ(back.rows[0][1], Value::Null());
  EXPECT_EQ(back.rows[1][1], Value(std::string("x")));
}

TEST(WalCodec, UpdateDeleteModelIndexRoundTrip) {
  storage::UpdatePayload u;
  u.table = "t";
  u.changes = {{3, {Value(int64_t{9})}}, {5, {Value::Null()}}};
  auto ub = storage::DecodeUpdate(storage::EncodeUpdate(u)).ValueOrDie();
  ASSERT_EQ(ub.changes.size(), 2u);
  EXPECT_EQ(ub.changes[1].first, 5u);

  storage::DeletePayload d{"t", {0, 2, 17}};
  auto db = storage::DecodeDelete(storage::EncodeDelete(d)).ValueOrDie();
  EXPECT_EQ(db.rows, (std::vector<RowId>{0, 2, 17}));

  storage::CreateModelPayload m{"m", "linear", "y", "t", {"a", "b"}};
  auto mb = storage::DecodeCreateModel(storage::EncodeCreateModel(m)).ValueOrDie();
  EXPECT_EQ(mb.features, (std::vector<std::string>{"a", "b"}));

  storage::CreateIndexPayload ix{"i1", "t", "a", false};
  auto ib = storage::DecodeCreateIndex(storage::EncodeCreateIndex(ix)).ValueOrDie();
  EXPECT_FALSE(ib.is_btree);

  EXPECT_EQ(storage::DecodeCommit(storage::EncodeCommit(77)).ValueOrDie(), 77u);
}

TEST(WalCodec, DecodeRejectsTruncatedPayloads) {
  storage::InsertPayload p;
  p.table = "table_name";
  p.rows = {{Value(int64_t{1})}};
  std::string enc = storage::EncodeInsert(p);
  for (size_t cut = 0; cut < enc.size(); ++cut)
    EXPECT_FALSE(storage::DecodeInsert(enc.substr(0, cut)).ok()) << cut;
}

// ----- WalWriter framing, group commit, scan -----

class WalFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: a shared one races sibling cases under ctest -j.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("aidb_wal_serde_test_") + info->name() + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "wal.log").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(WalFileTest, AppendScanRoundTripsRecordsInOrder) {
  storage::WalWriter::Options opts;
  opts.flush_interval = 4;
  auto wal = storage::WalWriter::Open(path_, 1, opts).ValueOrDie();
  for (int i = 0; i < 10; ++i) {
    auto lsn = wal->Append(WalRecordType::kCommit, storage::EncodeCommit(i + 1));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.ValueOrDie(), static_cast<uint64_t>(i + 1));
  }
  ASSERT_TRUE(wal->Flush().ok());
  auto scan = storage::ScanWalFile(path_).ValueOrDie();
  ASSERT_EQ(scan.records.size(), 10u);
  EXPECT_FALSE(scan.tail_torn);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  for (size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].lsn, i + 1);
    EXPECT_EQ(storage::DecodeCommit(scan.records[i].payload).ValueOrDie(), i + 1);
  }
}

TEST_F(WalFileTest, GroupCommitBatchesFsyncs) {
  storage::WalWriter::Options opts;
  opts.flush_interval = 8;
  opts.sync = false;
  auto wal = storage::WalWriter::Open(path_, 1, opts).ValueOrDie();
  for (int i = 0; i < 24; ++i)
    ASSERT_TRUE(wal->Append(WalRecordType::kCommit, storage::EncodeCommit(1)).ok());
  EXPECT_EQ(wal->stats().fsyncs, 3u);  // 24 records / interval 8
  EXPECT_EQ(wal->unflushed_records(), 0u);
  ASSERT_TRUE(wal->Append(WalRecordType::kCommit, storage::EncodeCommit(1)).ok());
  EXPECT_EQ(wal->unflushed_records(), 1u);  // durability lag until next drain
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(wal->unflushed_records(), 0u);
  EXPECT_EQ(wal->stats().records_appended, 25u);
}

TEST_F(WalFileTest, ScanStopsAtCorruptedFrame) {
  std::string file;
  for (int i = 0; i < 5; ++i)
    file += storage::EncodeWalFrame(i + 1, WalRecordType::kCommit,
                                    storage::EncodeCommit(i + 1));
  size_t good_bytes = file.size();
  std::string frame6 =
      storage::EncodeWalFrame(6, WalRecordType::kCommit, storage::EncodeCommit(6));
  frame6[frame6.size() / 2] ^= 0x10;  // corrupt the body: CRC must catch it
  file += frame6;
  { std::ofstream(path_, std::ios::binary) << file; }

  auto scan = storage::ScanWalFile(path_).ValueOrDie();
  EXPECT_EQ(scan.records.size(), 5u);
  EXPECT_TRUE(scan.tail_torn);
  EXPECT_EQ(scan.valid_bytes, good_bytes);
  EXPECT_EQ(scan.file_bytes, file.size());
}

TEST_F(WalFileTest, ScanToleratesTornTailAtEveryCut) {
  std::string file;
  for (int i = 0; i < 3; ++i)
    file += storage::EncodeWalFrame(i + 1, WalRecordType::kCommit,
                                    storage::EncodeCommit(i + 1));
  std::string last =
      storage::EncodeWalFrame(4, WalRecordType::kCommit, storage::EncodeCommit(4));
  for (size_t cut = 1; cut < last.size(); ++cut) {
    { std::ofstream(path_, std::ios::binary) << file + last.substr(0, cut); }
    auto scan = storage::ScanWalFile(path_).ValueOrDie();
    EXPECT_EQ(scan.records.size(), 3u) << cut;
    EXPECT_TRUE(scan.tail_torn) << cut;
    EXPECT_EQ(scan.valid_bytes, file.size()) << cut;
  }
}

TEST_F(WalFileTest, MissingFileScansEmpty) {
  auto scan = storage::ScanWalFile((dir_ / "nope.log").string()).ValueOrDie();
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.file_bytes, 0u);
  EXPECT_FALSE(scan.tail_torn);
}

}  // namespace
}  // namespace aidb
