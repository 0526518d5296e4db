#include "src/cloud/delays.h"

#include <gtest/gtest.h>

namespace eva {
namespace {

TEST(DelayRangeTest, MeanIsMeasuredAverage) {
  const DelayRange range{6.0, 83.0, 19.0};
  EXPECT_DOUBLE_EQ(range.Mean(), 19.0);
}

TEST(DelayRangeTest, SampleStaysInRange) {
  const DelayRange range{140.0, 251.0, 190.0};
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const SimTime sample = range.Sample(rng);
    EXPECT_GE(sample, 140.0);
    EXPECT_LE(sample, 251.0);
  }
}

TEST(DelayRangeTest, SampleMeanTracksMeasuredAverage) {
  const DelayRange range{6.0, 83.0, 19.0};
  Rng rng(2);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += range.Sample(rng);
  }
  // Expected value of the mixture is (min + 2*avg + max) / 4 = 31.75; must
  // land well below the range midpoint (44.5), reflecting the skew.
  EXPECT_NEAR(sum / n, 31.75, 1.0);
}

TEST(DelayRangeTest, DegenerateRangeReturnsAverage) {
  const DelayRange range{5.0, 5.0, 5.0};
  Rng rng(3);
  EXPECT_DOUBLE_EQ(range.Sample(rng), 5.0);
}

TEST(CloudDelayModelTest, DeterministicProvisioningDelay) {
  // Table 1 averages: acquisition 19s + setup 190s.
  EXPECT_DOUBLE_EQ(ProvisioningDelay(nullptr), 209.0);
}

TEST(CloudDelayModelTest, StochasticProvisioningDelayWithinBounds) {
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const SimTime delay = ProvisioningDelay(&rng);
    EXPECT_GE(delay, 6.0 + 140.0);
    EXPECT_LE(delay, 83.0 + 251.0);
  }
}

}  // namespace
}  // namespace eva
