#include "src/common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <vector>

namespace eva {
namespace {

TEST(MonotonicArenaTest, AllocationsAreAlignedAndDisjoint) {
  MonotonicArena arena(64);
  char* a = arena.AllocateArray<char>(3);
  double* d = arena.AllocateArray<double>(2);
  std::uint32_t* u = arena.AllocateArray<std::uint32_t>(5);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(d, nullptr);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u) % alignof(std::uint32_t), 0u);
  // Writes to each block must not clobber the others.
  std::memset(a, 0xAB, 3);
  d[0] = 1.5;
  d[1] = -2.5;
  for (int i = 0; i < 5; ++i) u[i] = static_cast<std::uint32_t>(i);
  EXPECT_EQ(a[2], static_cast<char>(0xAB));
  EXPECT_EQ(d[0], 1.5);
  EXPECT_EQ(d[1], -2.5);
  EXPECT_EQ(u[4], 4u);
}

TEST(MonotonicArenaTest, LargeAllocationExceedingChunkSizeSucceeds) {
  MonotonicArena arena(32);
  // Far larger than the min chunk and the doubling sequence's next step.
  constexpr std::size_t kBig = 1 << 20;
  unsigned char* block = arena.AllocateArray<unsigned char>(kBig);
  ASSERT_NE(block, nullptr);
  block[0] = 1;
  block[kBig - 1] = 2;
  EXPECT_EQ(block[0], 1);
  EXPECT_EQ(block[kBig - 1], 2);
  // A small allocation after the spike still works.
  int* small = arena.AllocateArray<int>(1);
  ASSERT_NE(small, nullptr);
  *small = 7;
  EXPECT_EQ(*small, 7);
  EXPECT_GE(arena.BytesReserved(), kBig);
}

TEST(MonotonicArenaTest, ResetReusesMemoryWithoutGrowth) {
  MonotonicArena arena(128);
  for (int i = 0; i < 16; ++i) {
    arena.AllocateArray<double>(64);
  }
  const std::size_t reserved = arena.BytesReserved();
  for (int round = 0; round < 100; ++round) {
    arena.Reset();
    EXPECT_EQ(arena.BytesUsed(), 0u);
    for (int i = 0; i < 16; ++i) {
      ASSERT_NE(arena.AllocateArray<double>(64), nullptr);
    }
    // Steady state: no new chunks after the first pass sized the arena.
    EXPECT_EQ(arena.BytesReserved(), reserved);
  }
}

TEST(MonotonicArenaTest, MarkRewindReclaimsFrameScopedAllocations) {
  MonotonicArena arena(256);
  int* outer = arena.AllocateArray<int>(4);
  outer[0] = 42;
  const MonotonicArena::Marker mark = arena.Mark();
  const std::size_t used_at_mark = arena.BytesUsed();
  for (int depth = 0; depth < 50; ++depth) {
    arena.AllocateArray<double>(100);
  }
  arena.Rewind(mark);
  EXPECT_EQ(arena.BytesUsed(), used_at_mark);
  // The outer allocation survives the rewind.
  EXPECT_EQ(outer[0], 42);
  // Re-allocating after the rewind lands back inside the reserved chunks.
  const std::size_t reserved = arena.BytesReserved();
  for (int depth = 0; depth < 50; ++depth) {
    arena.AllocateArray<double>(100);
  }
  EXPECT_EQ(arena.BytesReserved(), reserved);
}

TEST(ArenaAllocatorTest, StlContainerRoundTrip) {
  MonotonicArena arena;
  ArenaVector<int> values{ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 1000; ++i) {
    values.push_back(i);
  }
  EXPECT_EQ(std::accumulate(values.begin(), values.end(), 0), 999 * 1000 / 2);

  // Rebinding works: a node-based container using the element allocator.
  std::unordered_map<int, double, std::hash<int>, std::equal_to<int>,
                     ArenaAllocator<std::pair<const int, double>>>
      map{0, std::hash<int>(), std::equal_to<int>(),
          ArenaAllocator<std::pair<const int, double>>(&arena)};
  for (int i = 0; i < 100; ++i) {
    map[i] = i * 0.5;
  }
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.at(42), 21.0);

  // Copies propagate the allocator and compare equal element-wise.
  ArenaVector<int> copy = values;
  EXPECT_EQ(copy.get_allocator().arena(), &arena);
  EXPECT_TRUE(std::equal(values.begin(), values.end(), copy.begin()));
}

TEST(ScratchLeaseTest, ReusesFrameAcrossLeases) {
  std::vector<int>* first = nullptr;
  {
    ScratchLease<std::vector<int>> lease;
    lease->assign(100, 7);
    first = lease.operator->();
  }
  {
    ScratchLease<std::vector<int>> lease;
    // Same thread, same depth: same pooled object, capacity retained.
    EXPECT_EQ(lease.operator->(), first);
    EXPECT_GE(lease->capacity(), 100u);
  }
}

TEST(ScratchLeaseTest, NestedLeasesGetDistinctFrames) {
  ScratchLease<std::vector<int>> outer;
  outer->assign(10, 1);
  {
    ScratchLease<std::vector<int>> inner;
    EXPECT_NE(inner.operator->(), outer.operator->());
    inner->assign(5, 2);
  }
  // The outer frame is untouched by the inner lease.
  EXPECT_EQ(outer->size(), 10u);
  EXPECT_EQ((*outer)[0], 1);
}

TEST(ScratchLeaseTest, FramesArePerThread) {
  std::vector<int>* main_frame = nullptr;
  {
    ScratchLease<std::vector<int>> lease;
    main_frame = lease.operator->();
  }
  std::vector<int>* worker_frame = nullptr;
  std::thread worker([&worker_frame] {
    ScratchLease<std::vector<int>> lease;
    worker_frame = lease.operator->();
    lease->assign(3, 9);
  });
  worker.join();
  EXPECT_NE(worker_frame, main_frame);
}

}  // namespace
}  // namespace eva
