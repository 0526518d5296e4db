#include "src/common/soa_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"

namespace eva {
namespace {

TEST(EpochColumnTest, SetFindClearBasics) {
  EpochColumn<int> column;
  EXPECT_EQ(column.Find(3), nullptr);
  column.Set(3, 30);
  column.Set(7, 70);
  ASSERT_NE(column.Find(3), nullptr);
  EXPECT_EQ(*column.Find(3), 30);
  EXPECT_EQ(*column.Find(7), 70);
  EXPECT_EQ(column.Find(5), nullptr);
  column.Clear();
  EXPECT_EQ(column.Find(3), nullptr);
  EXPECT_EQ(column.Find(7), nullptr);
  column.Set(3, 31);
  EXPECT_EQ(*column.Find(3), 31);
}

// The property the refactor rests on: an EpochColumn cleared per round is
// observationally equivalent to a per-round std::unordered_map rebuild.
TEST(EpochColumnTest, EpochInvalidationMatchesPerRoundMapSemantics) {
  EpochColumn<std::int64_t> column;
  Rng rng(20260808);
  for (int round = 0; round < 200; ++round) {
    std::unordered_map<std::size_t, std::int64_t> reference;
    const int writes = static_cast<int>(rng.UniformInt(0, 40));
    for (int w = 0; w < writes; ++w) {
      const std::size_t key = static_cast<std::size_t>(rng.UniformInt(0, 99));
      const std::int64_t value = rng.UniformInt(-1000, 1000);
      // Mixed write API: Set and Touch must agree with map assignment.
      if (rng.UniformInt(0, 1) == 0) {
        column.Set(key, value);
      } else {
        column.Touch(key) = value;
      }
      reference[key] = value;
    }
    for (std::size_t key = 0; key < 110; ++key) {
      const auto it = reference.find(key);
      const std::int64_t* found = column.Find(key);
      ASSERT_EQ(found != nullptr, it != reference.end())
          << "round " << round << " key " << key;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
      EXPECT_EQ(column.Contains(key), it != reference.end());
    }
    // End of round: the map is thrown away, the column is epoch-cleared.
    column.Clear();
  }
}

TEST(IdSetTest, MatchesStdSetUnderRandomChurn) {
  IdSet<std::int64_t> flat;
  std::set<std::int64_t> reference;
  Rng rng(99);
  for (int op = 0; op < 5000; ++op) {
    const std::int64_t id = rng.UniformInt(0, 60);
    if (rng.UniformInt(0, 2) == 0) {
      EXPECT_EQ(flat.erase(id), reference.erase(id) > 0);
    } else {
      EXPECT_EQ(flat.insert(id), reference.insert(id).second);
    }
    ASSERT_EQ(flat.size(), reference.size());
  }
  // Iteration order must be identical to std::set (ascending).
  auto it = reference.begin();
  for (const std::int64_t id : flat) {
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(id, *it);
    ++it;
  }
  EXPECT_EQ(it, reference.end());
}

TEST(IdSetTest, AssignSortedReplacesContents) {
  IdSet<std::int64_t> flat;
  flat.insert(9);
  flat.insert(1);
  const std::vector<std::int64_t> next = {2, 4, 8};
  flat.AssignSorted(next);
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_TRUE(flat.contains(4));
  EXPECT_FALSE(flat.contains(1));
  std::vector<std::int64_t> seen(flat.begin(), flat.end());
  EXPECT_EQ(seen, next);
}

TEST(FlatMemoMapTest, MatchesUnorderedMapUnderRandomChurn) {
  struct IdentityHash {
    std::size_t operator()(std::int64_t key) const { return static_cast<std::size_t>(key); }
  };
  FlatMemoMap<std::int64_t, int, IdentityHash> map;
  std::unordered_map<std::int64_t, int> reference;
  Rng rng(20260808);
  for (int op = 0; op < 20000; ++op) {
    // Keys deliberately cluster in the low bits (multiples of a power of
    // two) — the shape the probe-start mixer has to survive.
    const std::int64_t key = rng.UniformInt(0, 400) * 64;
    const std::size_t hash = IdentityHash()(key);
    if (rng.UniformInt(0, 2) == 0) {
      const int* found = map.Find(key, hash);
      const auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end()) << "key " << key;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    } else {
      const int value = static_cast<int>(rng.UniformInt(-1000, 1000));
      map.Upsert(key, hash, [&] { return key; }) = value;
      reference[key] = value;
      ASSERT_EQ(map.size(), reference.size());
    }
    if (op % 4999 == 0) {
      map.Clear();
      reference.clear();
    }
  }
}

// The heterogeneous-probe contract the TNRP set memo relies on: stored
// keys intern their payload in caller-owned storage, probes carry the
// expensive form, and the Eq functor bridges the two. The stored key must
// be materialized exactly once per distinct probe.
TEST(FlatMemoMapTest, HeterogeneousProbeInternsKeyOncePerEntry) {
  struct Stored {
    std::size_t hash = 0;
    std::size_t offset = 0;
    std::size_t count = 0;
  };
  struct Probe {
    std::size_t hash = 0;
    std::vector<int> members;
  };
  struct StoredHash {
    std::size_t operator()(const Stored& key) const { return key.hash; }
  };
  struct StoredEq {
    const std::vector<int>* blob;
    bool operator()(const Stored& stored, const Probe& probe) const {
      return stored.hash == probe.hash && stored.count == probe.members.size() &&
             std::equal(probe.members.begin(), probe.members.end(),
                        blob->begin() + static_cast<std::ptrdiff_t>(stored.offset));
    }
  };
  std::vector<int> blob;
  FlatMemoMap<Stored, int, StoredHash, StoredEq> map{StoredHash{}, StoredEq{&blob}};

  int interned = 0;
  auto upsert = [&](const Probe& probe, int value) {
    map.Upsert(probe, probe.hash, [&] {
      ++interned;
      Stored stored;
      stored.hash = probe.hash;
      stored.offset = blob.size();
      stored.count = probe.members.size();
      blob.insert(blob.end(), probe.members.begin(), probe.members.end());
      return stored;
    }) = value;
  };

  // Two distinct probes sharing a hash (worst case) stay distinct entries.
  const Probe a{17, {1, 2, 3}};
  const Probe b{17, {1, 2, 4}};
  upsert(a, 100);
  upsert(b, 200);
  EXPECT_EQ(interned, 2);
  EXPECT_EQ(map.size(), 2u);

  // Overwriting through an equal probe reuses the interned key.
  upsert(a, 101);
  EXPECT_EQ(interned, 2);
  ASSERT_NE(map.Find(a, a.hash), nullptr);
  EXPECT_EQ(*map.Find(a, a.hash), 101);
  ASSERT_NE(map.Find(b, b.hash), nullptr);
  EXPECT_EQ(*map.Find(b, b.hash), 200);

  // Force growth past the initial capacity; interned entries must survive
  // the re-insertion (Hash::operator() over stored keys).
  for (int i = 0; i < 200; ++i) {
    upsert(Probe{static_cast<std::size_t>(1000 + i), {i}}, i);
  }
  EXPECT_EQ(*map.Find(a, a.hash), 101);
  EXPECT_EQ(*map.Find(b, b.hash), 200);
  EXPECT_EQ(map.size(), 202u);
}

TEST(PagedTableTest, EmplaceFindEraseIterate) {
  PagedTable<int> table;
  EXPECT_TRUE(table.empty());
  for (std::int64_t id = 0; id < 1500; ++id) {
    table.Emplace(id) = static_cast<int>(id * 2);
  }
  EXPECT_EQ(table.size(), 1500u);
  EXPECT_EQ(table.at(1234), 2468);
  ASSERT_NE(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(1500), nullptr);

  // Pointers are stable across growth.
  int* early = table.Find(3);
  for (std::int64_t id = 1500; id < 4000; ++id) {
    table.Emplace(id) = static_cast<int>(id * 2);
  }
  EXPECT_EQ(table.Find(3), early);

  // Erase odd ids; iteration yields the surviving ids ascending.
  for (std::int64_t id = 1; id < 4000; id += 2) {
    table.Erase(id);
  }
  EXPECT_EQ(table.size(), 2000u);
  std::int64_t expected = 0;
  for (auto it = table.begin(); it != table.end(); ++it) {
    EXPECT_EQ(it.id(), expected);
    EXPECT_EQ(*it, static_cast<int>(expected * 2));
    expected += 2;
  }
  EXPECT_EQ(expected, 4000);
}

TEST(PagedTableTest, IterationSkipsFullyErasedPages) {
  PagedTable<int> table;
  const std::int64_t page = static_cast<std::int64_t>(PagedTable<int>::kPageSize);
  for (std::int64_t id = 0; id < 3 * page; ++id) {
    table.Emplace(id) = 1;
  }
  // Erase the whole middle page.
  for (std::int64_t id = page; id < 2 * page; ++id) {
    table.Erase(id);
  }
  std::size_t seen = 0;
  for (auto it = table.begin(); it != table.end(); ++it) {
    EXPECT_TRUE(it.id() < page || it.id() >= 2 * page);
    ++seen;
  }
  EXPECT_EQ(seen, table.size());
}

}  // namespace
}  // namespace eva
