#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/btree_index.h"
#include "storage/column_table.h"
#include "storage/hash_index.h"
#include "storage/row_table.h"
#include "storage/rtree_index.h"

namespace bih {
namespace {

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt},
                 {"name", ColumnType::kString},
                 {"price", ColumnType::kDouble}});
}

TEST(RowTableTest, AppendGetScan) {
  RowTable t(TestSchema());
  RowId a = t.Append({Value(int64_t{1}), Value("x"), Value(1.0)});
  RowId b = t.Append({Value(int64_t{2}), Value("y"), Value(2.0)});
  EXPECT_EQ(2u, t.LiveCount());
  EXPECT_EQ(int64_t{1}, t.Get(a)[0].AsInt());
  EXPECT_EQ("y", t.Get(b)[1].AsString());
  int count = 0;
  t.Scan([&](RowId, const Row&) {
    ++count;
    return true;
  });
  EXPECT_EQ(2, count);
}

TEST(RowTableTest, DeleteSkipsTombstones) {
  RowTable t(TestSchema());
  RowId a = t.Append({Value(int64_t{1}), Value("x"), Value(1.0)});
  t.Append({Value(int64_t{2}), Value("y"), Value(2.0)});
  t.Delete(a);
  EXPECT_EQ(1u, t.LiveCount());
  EXPECT_FALSE(t.IsLive(a));
  std::vector<int64_t> seen;
  t.Scan([&](RowId, const Row& r) {
    seen.push_back(r[0].AsInt());
    return true;
  });
  ASSERT_EQ(1u, seen.size());
  EXPECT_EQ(2, seen[0]);
}

TEST(RowTableTest, ScanEarlyStop) {
  RowTable t(TestSchema());
  for (int i = 0; i < 10; ++i) {
    t.Append({Value(int64_t{i}), Value("r"), Value(0.0)});
  }
  int count = 0;
  t.Scan([&](RowId, const Row&) { return ++count < 3; });
  EXPECT_EQ(3, count);
}

TEST(RowTableTest, InPlaceUpdate) {
  RowTable t(TestSchema());
  RowId a = t.Append({Value(int64_t{1}), Value("x"), Value(1.0)});
  (*t.GetMutable(a))[2] = Value(9.5);
  EXPECT_DOUBLE_EQ(9.5, t.Get(a)[2].AsDouble());
}

TEST(ColumnTableTest, AppendGetRoundTrip) {
  ColumnTable t(TestSchema());
  t.Append({Value(int64_t{7}), Value("abc"), Value(3.25)});
  t.Append({Value(int64_t{8}), Value::Null(), Value(4.5)});
  EXPECT_EQ(int64_t{7}, t.Get(0, 0).AsInt());
  EXPECT_EQ("abc", t.Get(0, 1).AsString());
  EXPECT_TRUE(t.Get(1, 1).is_null());
  EXPECT_DOUBLE_EQ(4.5, t.Get(1, 2).AsDouble());
}

TEST(ColumnTableTest, DictionaryReusesCodes) {
  ColumnTable t(TestSchema());
  for (int i = 0; i < 100; ++i) {
    t.Append({Value(int64_t{i}), Value(i % 2 ? "odd" : "even"), Value(0.0)});
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(i % 2 ? "odd" : "even", t.Get(i, 1).AsString());
  }
}

TEST(ColumnTableTest, SetUpdatesInPlace) {
  ColumnTable t(TestSchema());
  RowId r = t.Append({Value(int64_t{1}), Value("x"), Value(1.0)});
  t.Set(r, 2, Value(2.5));
  EXPECT_DOUBLE_EQ(2.5, t.Get(r, 2).AsDouble());
  t.Set(r, 1, Value::Null());
  EXPECT_TRUE(t.Get(r, 1).is_null());
}

// --- B+-tree: randomized equivalence against std::multimap ---------------

struct BTreeModelTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeModelTest, MatchesReferenceMultimap) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  BTreeIndex bt;
  std::multimap<int64_t, RowId> ref;
  for (int step = 0; step < 4000; ++step) {
    int64_t k = rng.UniformInt(0, 200);
    if (rng.Bernoulli(0.7) || ref.empty()) {
      RowId rid = static_cast<RowId>(step);
      bt.Insert({Value(k)}, rid);
      ref.emplace(k, rid);
    } else {
      // Delete a random existing entry.
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                       0, static_cast<int64_t>(ref.size()) - 1)));
      EXPECT_TRUE(bt.Erase({Value(it->first)}, it->second));
      ref.erase(it);
    }
  }
  ASSERT_TRUE(bt.CheckInvariants());
  ASSERT_EQ(ref.size(), bt.size());
  // Range scans agree with the reference on random ranges.
  for (int trial = 0; trial < 50; ++trial) {
    int64_t lo = rng.UniformInt(0, 200);
    int64_t hi = lo + rng.UniformInt(0, 50);
    std::multiset<std::pair<int64_t, RowId>> expect, got;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first < hi; ++it) {
      expect.insert({it->first, it->second});
    }
    bt.ScanRange({Value(lo)}, {Value(hi)}, [&](const IndexKey& k, RowId r) {
      got.insert({k[0].AsInt(), r});
      return true;
    });
    EXPECT_EQ(expect, got) << "range [" << lo << "," << hi << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeModelTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(BTreeTest, CompositeKeysAndPrefixScan) {
  BTreeIndex bt;
  for (int64_t a = 0; a < 10; ++a) {
    for (int64_t b = 0; b < 10; ++b) {
      bt.Insert({Value(a), Value(b)}, static_cast<RowId>(a * 10 + b));
    }
  }
  std::vector<RowId> got;
  bt.ScanPrefix({Value(int64_t{4})}, [&](const IndexKey&, RowId r) {
    got.push_back(r);
    return true;
  });
  ASSERT_EQ(10u, got.size());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(static_cast<RowId>(40 + i), got[i]);
}

TEST(BTreeTest, DuplicateKeys) {
  BTreeIndex bt;
  for (RowId r = 0; r < 100; ++r) bt.Insert({Value(int64_t{5})}, r);
  size_t count = 0;
  bt.Lookup({Value(int64_t{5})}, [&](RowId) {
    ++count;
    return true;
  });
  EXPECT_EQ(100u, count);
  EXPECT_TRUE(bt.Erase({Value(int64_t{5})}, 42));
  EXPECT_FALSE(bt.Erase({Value(int64_t{5})}, 42));
  EXPECT_EQ(99u, bt.size());
}

TEST(BTreeTest, EarlyStopScan) {
  BTreeIndex bt;
  for (RowId r = 0; r < 1000; ++r) bt.Insert({Value(int64_t(r))}, r);
  size_t seen = 0;
  bt.ScanRange({}, {}, [&](const IndexKey&, RowId) { return ++seen < 10; });
  EXPECT_EQ(10u, seen);
}

TEST(BTreeTest, FirstLastKey) {
  BTreeIndex bt;
  IndexKey k;
  EXPECT_FALSE(bt.FirstKey(&k));
  for (int64_t v : {42, 7, 99, 13}) bt.Insert({Value(v)}, 0);
  ASSERT_TRUE(bt.FirstKey(&k));
  EXPECT_EQ(7, k[0].AsInt());
  ASSERT_TRUE(bt.LastKey(&k));
  EXPECT_EQ(99, k[0].AsInt());
}

TEST(BTreeTest, GrowsTall) {
  BTreeIndex bt;
  for (RowId r = 0; r < 50000; ++r) bt.Insert({Value(int64_t(r))}, r);
  EXPECT_GE(bt.height(), 3);
  EXPECT_TRUE(bt.CheckInvariants());
}

TEST(BTreeTest, StringKeys) {
  BTreeIndex bt;
  bt.Insert({Value("banana")}, 1);
  bt.Insert({Value("apple")}, 2);
  bt.Insert({Value("cherry")}, 3);
  std::vector<std::string> order;
  bt.ScanRange({}, {}, [&](const IndexKey& k, RowId) {
    order.push_back(k[0].AsString());
    return true;
  });
  EXPECT_EQ((std::vector<std::string>{"apple", "banana", "cherry"}), order);
}

// --- R-tree: randomized equivalence against brute force ------------------

struct RTreeModelTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeModelTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  RTreeIndex rt;
  std::vector<std::pair<Rect, RowId>> ref;
  for (RowId r = 0; r < 2000; ++r) {
    int64_t x = rng.UniformInt(0, 1000);
    int64_t y = rng.UniformInt(0, 1000);
    Rect rect{{x, y}, {x + rng.UniformInt(0, 50), y + rng.UniformInt(0, 50)}};
    rt.Insert(rect, r);
    ref.emplace_back(rect, r);
  }
  ASSERT_TRUE(rt.CheckInvariants());
  ASSERT_EQ(ref.size(), rt.size());
  for (int trial = 0; trial < 30; ++trial) {
    int64_t x = rng.UniformInt(0, 1000);
    int64_t y = rng.UniformInt(0, 1000);
    Rect q{{x, y}, {x + rng.UniformInt(0, 100), y + rng.UniformInt(0, 100)}};
    std::set<RowId> expect, got;
    for (const auto& [rect, rid] : ref) {
      if (rect.Intersects(q)) expect.insert(rid);
    }
    rt.Search(q, [&](const Rect&, RowId rid) {
      got.insert(rid);
      return true;
    });
    EXPECT_EQ(expect, got);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeModelTest, ::testing::Values(1, 2, 3));

TEST(RTreeTest, PeriodMapping) {
  RTreeIndex rt;
  // Period [10, 20) and an open-ended period [30, forever).
  rt.Insert(Rect::FromPeriod(Period(10, 20)), 1);
  rt.Insert(Rect::FromPeriod(Period(30, Period::kForever)), 2);
  auto count_at = [&](int64_t t) {
    int n = 0;
    rt.Search(Rect::Point(t, 0), [&](const Rect&, RowId) {
      ++n;
      return true;
    });
    return n;
  };
  EXPECT_EQ(1, count_at(10));
  EXPECT_EQ(1, count_at(19));
  EXPECT_EQ(0, count_at(20));  // half-open end
  EXPECT_EQ(0, count_at(25));
  EXPECT_EQ(1, count_at(30));
  EXPECT_EQ(1, count_at(1'000'000'000));
}

TEST(RTreeTest, EraseRemovesEntry) {
  RTreeIndex rt;
  Rect r{{1, 1}, {2, 2}};
  rt.Insert(r, 7);
  EXPECT_TRUE(rt.Erase(r, 7));
  EXPECT_FALSE(rt.Erase(r, 7));
  EXPECT_EQ(0u, rt.size());
  int n = 0;
  rt.Search(Rect{{0, 0}, {10, 10}}, [&](const Rect&, RowId) {
    ++n;
    return true;
  });
  EXPECT_EQ(0, n);
}

TEST(RTreeTest, EarlyStop) {
  RTreeIndex rt;
  for (RowId r = 0; r < 100; ++r) rt.Insert(Rect{{0, 0}, {1, 1}}, r);
  int n = 0;
  rt.Search(Rect{{0, 0}, {5, 5}}, [&](const Rect&, RowId) { return ++n < 5; });
  EXPECT_EQ(5, n);
}

TEST(HashIndexTest, InsertLookupErase) {
  HashIndex hi;
  hi.Insert({Value(int64_t{1}), Value("a")}, 10);
  hi.Insert({Value(int64_t{1}), Value("a")}, 11);
  hi.Insert({Value(int64_t{2}), Value("b")}, 20);
  std::set<RowId> got;
  hi.Lookup({Value(int64_t{1}), Value("a")}, [&](RowId r) {
    got.insert(r);
    return true;
  });
  EXPECT_EQ((std::set<RowId>{10, 11}), got);
  EXPECT_TRUE(hi.Erase({Value(int64_t{1}), Value("a")}, 10));
  EXPECT_FALSE(hi.Erase({Value(int64_t{1}), Value("a")}, 10));
  EXPECT_EQ(2u, hi.size());
}

}  // namespace
}  // namespace bih
