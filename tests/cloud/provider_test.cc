// CloudProvider unit tests: tiered catalog layout, admission/denial
// accounting, quote snapshots with the risk premium, and spot-aware cost.

#include "src/cloud/provider.h"

#include <gtest/gtest.h>

namespace eva {
namespace {

CloudProviderOptions SpotOptions() {
  CloudProviderOptions options;
  options.enabled = true;
  options.spot.enabled = true;
  options.spot.seed = 9;
  return options;
}

TEST(CloudProviderTest, DisabledSpotKeepsBaseCatalogIdentity) {
  const InstanceCatalog base = InstanceCatalog::AwsDefault();
  CloudProviderOptions options;
  options.enabled = true;
  const CloudProvider provider(base, options);
  EXPECT_FALSE(provider.spot_enabled());
  EXPECT_EQ(provider.tiered_catalog().NumTypes(), 21);
  EXPECT_EQ(&provider.tiered_catalog(), &provider.base_catalog());
  EXPECT_FALSE(provider.IsSpotType(20));
  EXPECT_EQ(provider.BaseType(20), 20);
}

TEST(CloudProviderTest, TieredCatalogAppendsSpotTwins) {
  const InstanceCatalog base = InstanceCatalog::AwsDefault();
  const CloudProvider provider(base, SpotOptions());
  const InstanceCatalog& tiered = provider.tiered_catalog();
  ASSERT_EQ(tiered.NumTypes(), 42);
  for (int i = 0; i < 21; ++i) {
    // Base prefix verbatim...
    EXPECT_EQ(tiered.Get(i).name, base.Get(i).name);
    EXPECT_EQ(tiered.Get(i).cost_per_hour, base.Get(i).cost_per_hour);
    // ...spot twin with same family and capacity.
    const InstanceType& spot = tiered.Get(i + 21);
    EXPECT_EQ(spot.name, base.Get(i).name + "-spot");
    EXPECT_EQ(spot.family, base.Get(i).family);
    EXPECT_EQ(spot.capacity.cpus(), base.Get(i).capacity.cpus());
    EXPECT_TRUE(provider.IsSpotType(i + 21));
    EXPECT_EQ(provider.BaseType(i + 21), i);
  }
}

TEST(CloudProviderTest, QuoteCatalogPricesSpotWithRiskPremium) {
  const InstanceCatalog base = InstanceCatalog::AwsDefault();
  const CloudProvider provider(base, SpotOptions());
  const SimTime t = 12345.0;
  const auto quote = provider.SharedQuoteCatalog(t, /*risk_premium=*/0.25);
  ASSERT_EQ(quote->NumTypes(), 42);
  for (int i = 0; i < 21; ++i) {
    EXPECT_EQ(quote->Get(i).cost_per_hour, base.Get(i).cost_per_hour);
    EXPECT_EQ(quote->Get(i + 21).cost_per_hour, provider.market().Quote(i, t) * 1.25);
  }
}

TEST(CloudProviderTest, AdmissionDeniesWhenFamilyPoolExhausted) {
  const InstanceCatalog base = InstanceCatalog::AwsDefault();
  CloudProviderOptions options;
  options.enabled = true;
  options.family_capacity = {2, -1, -1};  // Two P3 slots, the rest unlimited.
  CloudProvider provider(base, options);

  EXPECT_TRUE(provider.TryAcquire(0, 0.0));   // p3.2xlarge
  EXPECT_TRUE(provider.TryAcquire(1, 0.0));   // p3.8xlarge
  EXPECT_FALSE(provider.TryAcquire(2, 0.0));  // Pool exhausted.
  EXPECT_TRUE(provider.TryAcquire(3, 0.0));   // c7i.large: unlimited family.

  provider.Release(0, 0.0, 3600.0);
  EXPECT_TRUE(provider.TryAcquire(2, 3600.0));  // Slot came back.

  // Finalizing requires every grant released.
  provider.Release(1, 0.0, 3600.0);
  provider.Release(2, 3600.0, 3600.0);
  provider.Release(3, 0.0, 3600.0);
  const CloudProviderMetrics metrics = provider.FinalizeMetrics(3600.0);
  const auto& p3 = metrics.families[0];
  EXPECT_EQ(p3.granted, 3);
  EXPECT_EQ(p3.denied, 1);
  EXPECT_EQ(p3.released, 3);
  EXPECT_EQ(p3.peak_in_use, 2);
  EXPECT_EQ(p3.capacity, 2);
  EXPECT_DOUBLE_EQ(p3.instance_hours, 2.0);
  // Both slots busy for the whole horizon.
  EXPECT_DOUBLE_EQ(p3.avg_utilization, 1.0);
  EXPECT_EQ(metrics.TotalGranted(), 4);
  EXPECT_EQ(metrics.TotalDenied(), 1);
}

TEST(CloudProviderTest, FiniteFamilyMaskTracksCapacities) {
  const InstanceCatalog base = InstanceCatalog::AwsDefault();
  CloudProviderOptions options;
  options.enabled = true;
  options.family_capacity = {2, -1, 0};  // P3 and R7i finite, C7i unlimited.
  const CloudProvider provider(base, options);
  EXPECT_EQ(provider.finite_family_mask(), 0b101u);

  CloudProviderOptions unlimited;
  unlimited.enabled = true;
  EXPECT_EQ(CloudProvider(base, unlimited).finite_family_mask(), 0u);
}

TEST(CloudProviderTest, SharedQuoteCatalogCachesByPriceStepAndPremium) {
  const InstanceCatalog base = InstanceCatalog::AwsDefault();
  const CloudProvider provider(base, SpotOptions());
  const double step_s = provider.market().options().price_step_s;

  // Same price step, same premium: the identical snapshot object — the
  // identity the Eva round memo and pricing caches key on.
  const auto a = provider.SharedQuoteCatalog(100.0, 0.25);
  const auto b = provider.SharedQuoteCatalog(100.0 + step_s * 0.5, 0.25);
  EXPECT_EQ(a.get(), b.get());

  // Crossing a step boundary or changing the premium makes a new snapshot.
  const auto c = provider.SharedQuoteCatalog(100.0 + step_s, 0.25);
  EXPECT_NE(a.get(), c.get());
  const auto d = provider.SharedQuoteCatalog(100.0, 0.5);
  EXPECT_NE(a.get(), d.get());

  // Prices are the quote at `t` times (1 + premium), bit for bit.
  const SimTime t = 3.0 * step_s + 17.0;
  const auto shared = provider.SharedQuoteCatalog(t, 0.25);
  ASSERT_EQ(shared->NumTypes(), 42);
  for (int i = 0; i < 21; ++i) {
    EXPECT_EQ(shared->Get(i).cost_per_hour, base.Get(i).cost_per_hour);
    EXPECT_EQ(shared->Get(i + 21).cost_per_hour, provider.market().Quote(i, t) * 1.25);
  }
}

TEST(CloudProviderTest, SharedQuoteCatalogWithoutSpotIsOneBaseSnapshot) {
  const InstanceCatalog base = InstanceCatalog::AwsDefault();
  CloudProviderOptions options;
  options.enabled = true;
  const CloudProvider provider(base, options);
  const auto a = provider.SharedQuoteCatalog(0.0, 0.25);
  const auto b = provider.SharedQuoteCatalog(99999.0, 0.75);
  EXPECT_EQ(a.get(), b.get());  // Prices never move without a spot market.
  EXPECT_EQ(a->NumTypes(), 21);
  EXPECT_EQ(a->Get(5).cost_per_hour, base.Get(5).cost_per_hour);
}

TEST(CloudProviderTest, UnlimitedPoolPeakIsSweptFromLifetimes) {
  const InstanceCatalog base = InstanceCatalog::AwsDefault();
  CloudProviderOptions options;
  options.enabled = true;  // All families unlimited.
  CloudProvider provider(base, options);

  // Overlapping lifetimes [0,1h], [0.5h,3h] and [2h,4h], released out of
  // start order: concurrency peaks at 2 (never 3), whatever order the
  // tallies landed in. FinalizeMetrics runs once everything is released.
  EXPECT_TRUE(provider.TryAcquire(0, 0.0));
  EXPECT_TRUE(provider.TryAcquire(1, 1800.0));
  provider.Release(0, 0.0, 3600.0);
  EXPECT_TRUE(provider.TryAcquire(2, 7200.0));
  provider.Release(2, 7200.0, 14400.0);
  provider.Release(1, 1800.0, 10800.0);

  const CloudProviderMetrics metrics = provider.FinalizeMetrics(14400.0);
  const auto& p3 = metrics.families[0];
  EXPECT_EQ(p3.granted, 3);
  EXPECT_EQ(p3.released, 3);
  EXPECT_EQ(p3.denied, 0);
  EXPECT_EQ(p3.peak_in_use, 2);
  EXPECT_DOUBLE_EQ(p3.instance_hours, 1.0 + 2.5 + 2.0);
}

TEST(CloudProviderTest, InstanceCostUsesSpotTraceForSpotTypes) {
  const InstanceCatalog base = InstanceCatalog::AwsDefault();
  const CloudProvider provider(base, SpotOptions());
  const Money on_demand = provider.InstanceCost(0, 0.0, 7200.0);
  EXPECT_EQ(on_demand, CostForUptime(base.Get(0).cost_per_hour, 7200.0));
  const Money spot = provider.InstanceCost(21, 0.0, 7200.0);
  EXPECT_EQ(spot, provider.market().CostForInterval(0, 0.0, 7200.0));
  EXPECT_NE(spot, on_demand);
}

}  // namespace
}  // namespace eva
