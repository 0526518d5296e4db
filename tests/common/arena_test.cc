#include "src/common/arena.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace eva {
namespace {

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
