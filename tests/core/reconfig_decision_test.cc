#include "src/core/reconfig_decision.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eva {
namespace {

TEST(EventRateEstimatorTest, InitialValues) {
  const EventRateEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.events_per_hour(), EventRateEstimator::kInitialEventsPerHour);
  EXPECT_DOUBLE_EQ(estimator.full_probability(),
                   EventRateEstimator::kInitialFullProbability);
}

TEST(EventRateEstimatorTest, DHatFormula) {
  // D_hat = -1 / (lambda * ln(1 - p)).
  const EventRateEstimator estimator;
  EXPECT_NEAR(estimator.ExpectedConfigurationDurationHours(),
              -1.0 / (EventRateEstimator::kInitialEventsPerHour *
                      std::log(1.0 - EventRateEstimator::kInitialFullProbability)),
              1e-12);
}

TEST(EventRateEstimatorTest, RateEmaTracksObservedRate) {
  EventRateEstimator estimator;
  // 300-second rounds with 1 event each => 12 events/hour.
  for (int i = 0; i < 200; ++i) {
    estimator.RecordRound(1, 300.0, false);
  }
  EXPECT_NEAR(estimator.events_per_hour(), 12.0, 0.5);
}

TEST(EventRateEstimatorTest, ZeroElapsedDoesNotUpdateRate) {
  EventRateEstimator estimator;
  estimator.RecordRound(5, 0.0, false);
  EXPECT_DOUBLE_EQ(estimator.events_per_hour(), EventRateEstimator::kInitialEventsPerHour);
}

TEST(EventRateEstimatorTest, ProbabilityConvergesTowardAdoptionFrequency) {
  EventRateEstimator estimator;
  for (int i = 0; i < 300; ++i) {
    estimator.RecordRound(1, 300.0, i % 4 == 0);  // Full adopted 25% of rounds.
  }
  EXPECT_NEAR(estimator.full_probability(), 0.25, 0.1);
}

TEST(EventRateEstimatorTest, ProbabilityClamped) {
  EventRateEstimator estimator;
  for (int i = 0; i < 500; ++i) {
    estimator.RecordRound(3, 300.0, true);
  }
  EXPECT_LE(estimator.full_probability(), EventRateEstimator::kMaxProbability);
  for (int i = 0; i < 2000; ++i) {
    estimator.RecordRound(3, 300.0, false);
  }
  EXPECT_GE(estimator.full_probability(), EventRateEstimator::kMinProbability);
}

TEST(EventRateEstimatorTest, RoundsWithoutEventsDoNotMoveProbability) {
  EventRateEstimator estimator;
  const double before = estimator.full_probability();
  estimator.RecordRound(0, 300.0, true);
  EXPECT_DOUBLE_EQ(estimator.full_probability(), before);
}

TEST(EventRateEstimatorTest, HigherEventRateShortensDHat) {
  EventRateEstimator fast;
  EventRateEstimator slow;
  for (int i = 0; i < 200; ++i) {
    fast.RecordRound(4, 300.0, false);
    slow.RecordRound(0, 300.0, false);
  }
  EXPECT_LT(fast.ExpectedConfigurationDurationHours(),
            slow.ExpectedConfigurationDurationHours());
}

TEST(ShouldAdoptFullTest, FullWinsWithBigSavingsAndLongHorizon) {
  // S_F = 2 $/hr vs S_P = 0.5; M_F = 1 vs M_P = 0; D = 2h.
  EXPECT_TRUE(ShouldAdoptFull(2.0, 0.5, 1.0, 0.0, 2.0));
}

TEST(ShouldAdoptFullTest, PartialWinsWhenHorizonShort) {
  // Same savings/overheads but D = 0.5h: 2*0.5-1 = 0 vs 0.5*0.5-0 = 0.25.
  EXPECT_FALSE(ShouldAdoptFull(2.0, 0.5, 1.0, 0.0, 0.5));
}

TEST(ShouldAdoptFullTest, TieGoesToPartial) {
  EXPECT_FALSE(ShouldAdoptFull(1.0, 1.0, 0.0, 0.0, 1.0));
}

TEST(ShouldAdoptFullTest, ExpensiveMigrationSuppressesFull) {
  EXPECT_TRUE(ShouldAdoptFull(2.0, 0.5, 1.0, 0.0, 1.0));
  EXPECT_FALSE(ShouldAdoptFull(2.0, 0.5, 5.0, 0.0, 1.0));
}

using Policy = EscalationPolicy;

// Consecutive fallbacks that lift the fallback EMA, from a fresh window,
// past the escalation threshold (18 at alpha 0.05 and 0.60).
int FallbacksToEscalate() {
  double rate = 0.0;
  int fallbacks = 0;
  while (rate <= Policy::kFallbackRateEnter) {
    rate = Policy::kFallbackEmaAlpha + (1.0 - Policy::kFallbackEmaAlpha) * rate;
    ++fallbacks;
  }
  return fallbacks;
}

void RecordPacks(EscalationPolicy& policy, int packs, bool fell_back) {
  for (int i = 0; i < packs; ++i) {
    policy.RecordPack(fell_back);
  }
}

TEST(EscalationPolicyTest, StartsCalm) {
  const EscalationPolicy policy;
  EXPECT_FALSE(policy.escalated());
  EXPECT_EQ(policy.escalations(), 0);
  EXPECT_DOUBLE_EQ(policy.fallback_rate(), 0.0);
}

TEST(EscalationPolicyTest, DivergenceAtThresholdEscalates) {
  EscalationPolicy policy;
  policy.RecordDivergence(std::nextafter(Policy::kDivergenceEnter, 0.0));  // Below: nothing.
  EXPECT_FALSE(policy.escalated());
  policy.RecordDivergence(Policy::kDivergenceEnter);  // Enter threshold is inclusive.
  EXPECT_TRUE(policy.escalated());
  EXPECT_EQ(policy.escalations(), 1);
}

TEST(EscalationPolicyTest, HysteresisBandHoldsTheLatch) {
  EscalationPolicy policy;
  policy.RecordDivergence(2.0 * Policy::kDivergenceEnter);
  ASSERT_TRUE(policy.escalated());
  // Hold for kMinHoldPacks exact packs, then measure a divergence inside
  // the (exit, enter) band: the latch must not release.
  RecordPacks(policy, Policy::kMinHoldPacks, /*fell_back=*/false);
  policy.RecordDivergence((Policy::kDivergenceExit + Policy::kDivergenceEnter) / 2.0);
  EXPECT_TRUE(policy.escalated());
  // At (or below) the exit threshold the latch clears and — with the hold
  // already served — the policy de-escalates.
  policy.RecordDivergence(Policy::kDivergenceExit);
  EXPECT_FALSE(policy.escalated());
  EXPECT_EQ(policy.escalations(), 1);
}

TEST(EscalationPolicyTest, MinHoldDelaysDeescalation) {
  EscalationPolicy policy;
  policy.RecordDivergence(0.5);
  ASSERT_TRUE(policy.escalated());
  // Divergence clears immediately, but only kMinHoldPacks exact packs
  // release the policy.
  policy.RecordDivergence(0.0);
  EXPECT_TRUE(policy.escalated());
  RecordPacks(policy, Policy::kMinHoldPacks - 1, /*fell_back=*/false);
  EXPECT_TRUE(policy.escalated());
  policy.RecordPack(false);
  EXPECT_FALSE(policy.escalated());
}

TEST(EscalationPolicyTest, FallbackRateSpikesEscalate) {
  EscalationPolicy policy;
  RecordPacks(policy, FallbacksToEscalate() - 1, /*fell_back=*/true);
  EXPECT_FALSE(policy.escalated());
  policy.RecordPack(true);
  EXPECT_TRUE(policy.escalated());
  EXPECT_EQ(policy.escalations(), 1);
}

TEST(EscalationPolicyTest, DeescalationResetsTheFallbackWindow) {
  EscalationPolicy policy;
  RecordPacks(policy, FallbacksToEscalate(), /*fell_back=*/true);
  ASSERT_TRUE(policy.escalated());
  // Packs while escalated do not feed the EMA; after the hold plus a clear
  // divergence reading the policy releases with a fresh window.
  RecordPacks(policy, Policy::kMinHoldPacks, /*fell_back=*/false);
  policy.RecordDivergence(0.0);
  ASSERT_FALSE(policy.escalated());
  EXPECT_DOUBLE_EQ(policy.fallback_rate(), 0.0);
  // A fresh window needs the full run of fallbacks again to re-escalate.
  RecordPacks(policy, FallbacksToEscalate() - 1, /*fell_back=*/true);
  EXPECT_FALSE(policy.escalated());
  EXPECT_EQ(policy.escalations(), 1);
}

TEST(EscalationPolicyTest, ReescalationCountsEpisodes) {
  EscalationPolicy policy;
  for (int episode = 0; episode < 3; ++episode) {
    policy.RecordDivergence(2.0 * Policy::kDivergenceEnter);
    ASSERT_TRUE(policy.escalated());
    RecordPacks(policy, Policy::kMinHoldPacks, /*fell_back=*/false);
    policy.RecordDivergence(0.0);
    ASSERT_FALSE(policy.escalated());
  }
  EXPECT_EQ(policy.escalations(), 3);
}

}  // namespace
}  // namespace eva
