#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/btree.h"
#include "storage/hash_index.h"
#include "storage/table.h"
#include "storage/value.h"

namespace aidb {
namespace {

TEST(ValueTest, TypesAndComparison) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{5}).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value(std::string("hi")).AsString(), "hi");
  // Cross-numeric comparison.
  EXPECT_TRUE(Value(int64_t{2}) < Value(2.5));
  EXPECT_TRUE(Value(int64_t{3}) == Value(3.0));
  // NULL sorts first.
  EXPECT_TRUE(Value::Null() < Value(int64_t{0}));
  EXPECT_TRUE(Value::Null() == Value::Null());
  // Strings sort after numbers (engine convention).
  EXPECT_TRUE(Value(int64_t{1}) < Value(std::string("a")));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(std::string("x")).ToString(), "'x'");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(TableTest, InsertGetDeleteUpdate) {
  Schema schema({{"id", ValueType::kInt}, {"name", ValueType::kString}});
  Table t("users", schema);
  auto r1 = t.Insert({Value(int64_t{1}), Value(std::string("alice"))});
  ASSERT_TRUE(r1.ok());
  auto r2 = t.Insert({Value(int64_t{2}), Value(std::string("bob"))});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(t.NumRows(), 2u);

  auto got = t.Get(r1.ValueOrDie());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie()[1].AsString(), "alice");

  ASSERT_TRUE(t.Update(r2.ValueOrDie(), {Value(int64_t{2}), Value(std::string("carol"))}).ok());
  EXPECT_EQ(t.Get(r2.ValueOrDie()).ValueOrDie()[1].AsString(), "carol");

  ASSERT_TRUE(t.Delete(r1.ValueOrDie()).ok());
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_FALSE(t.Get(r1.ValueOrDie()).ok());
  EXPECT_FALSE(t.Delete(r1.ValueOrDie()).ok());  // double delete
}

TEST(TableTest, RejectsBadArityAndType) {
  Schema schema({{"id", ValueType::kInt}});
  Table t("t", schema);
  EXPECT_FALSE(t.Insert({Value(int64_t{1}), Value(int64_t{2})}).ok());
  EXPECT_FALSE(t.Insert({Value(std::string("x"))}).ok());
  EXPECT_TRUE(t.Insert({Value::Null()}).ok());  // NULL always allowed
}

TEST(TableTest, IntAcceptedForDoubleColumn) {
  Schema schema({{"score", ValueType::kDouble}});
  Table t("t", schema);
  EXPECT_TRUE(t.Insert({Value(int64_t{3})}).ok());
}

TEST(BTreeTest, InsertAndFind) {
  BTree tree;
  for (int64_t k = 0; k < 1000; ++k) tree.Insert(k * 2, static_cast<uint64_t>(k));
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_TRUE(tree.Contains(500));
  EXPECT_FALSE(tree.Contains(501));
  auto vals = tree.Find(500);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 250u);
}

TEST(BTreeTest, Duplicates) {
  BTree tree;
  for (uint64_t i = 0; i < 10; ++i) tree.Insert(7, i);
  auto vals = tree.Find(7);
  EXPECT_EQ(vals.size(), 10u);
}

TEST(BTreeTest, RangeScanOrdered) {
  Rng rng(5);
  BTree tree;
  std::vector<int64_t> keys;
  for (int i = 0; i < 5000; ++i) {
    int64_t k = rng.UniformInt(0, 100000);
    keys.push_back(k);
    tree.Insert(k, static_cast<uint64_t>(i));
  }
  int64_t lo = 20000, hi = 40000;
  size_t expected = 0;
  for (int64_t k : keys)
    if (k >= lo && k <= hi) ++expected;
  int64_t prev = lo - 1;
  size_t count = 0;
  tree.RangeVisit(lo, hi, [&](int64_t k, uint64_t) {
    EXPECT_GE(k, prev);
    prev = k;
    ++count;
    return true;
  });
  EXPECT_EQ(count, expected);
}

TEST(BTreeTest, BulkLoadMatchesInserts) {
  std::vector<std::pair<int64_t, uint64_t>> sorted;
  for (int64_t k = 0; k < 10000; ++k) sorted.emplace_back(k, static_cast<uint64_t>(k));
  BTree bulk;
  bulk.BulkLoad(sorted);
  EXPECT_EQ(bulk.size(), 10000u);
  for (int64_t k : {0L, 42L, 9999L}) {
    auto v = bulk.Find(k);
    ASSERT_EQ(v.size(), 1u) << k;
    EXPECT_EQ(v[0], static_cast<uint64_t>(k));
  }
  EXPECT_EQ(bulk.RangeScan(100, 199).size(), 100u);
  EXPECT_GT(bulk.height(), 1u);
  EXPECT_GT(bulk.MemoryBytes(), 10000u * 16);
}

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_FALSE(tree.Contains(1));
  EXPECT_TRUE(tree.Find(1).empty());
  EXPECT_TRUE(tree.RangeScan(0, 100).empty());
}

TEST(HashIndexTest, InsertFindErase) {
  HashIndex idx;
  idx.Insert(Value(int64_t{1}), 10);
  idx.Insert(Value(int64_t{1}), 11);
  idx.Insert(Value(std::string("k")), 12);
  auto* v = idx.Find(Value(int64_t{1}));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->size(), 2u);
  // INT/DOUBLE coercion: 1 and 1.0 are the same key.
  ASSERT_NE(idx.Find(Value(1.0)), nullptr);
  idx.Erase(Value(int64_t{1}), 10);
  EXPECT_EQ(idx.Find(Value(int64_t{1}))->size(), 1u);
  EXPECT_EQ(idx.Find(Value(int64_t{99})), nullptr);
}

}  // namespace
}  // namespace aidb
