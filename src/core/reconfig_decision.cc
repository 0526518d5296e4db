#include "src/core/reconfig_decision.h"

#include <algorithm>
#include <cmath>

namespace eva {

void EventRateEstimator::RecordRound(int events, SimTime elapsed_s, bool adopted_full) {
  if (elapsed_s > 0.0) {
    const double observed_rate = static_cast<double>(events) / SecondsToHours(elapsed_s);
    events_per_hour_ = kEmaAlpha * observed_rate + (1.0 - kEmaAlpha) * events_per_hour_;
  }
  // p is the per-event probability of triggering a Full Reconfiguration;
  // attribute this round's adoption outcome to each event it contained.
  for (int i = 0; i < events; ++i) {
    full_probability_ =
        kEmaAlpha * (adopted_full ? 1.0 : 0.0) + (1.0 - kEmaAlpha) * full_probability_;
  }
  full_probability_ = std::clamp(full_probability_, kMinProbability, kMaxProbability);
}

double EventRateEstimator::ExpectedConfigurationDurationHours() const {
  const double lambda = std::max(events_per_hour_, 1e-6);
  const double p = std::clamp(full_probability_, kMinProbability, kMaxProbability);
  // D_hat = -1 / (lambda * ln(1 - p)); ln(1-p) < 0 so D_hat > 0.
  return -1.0 / (lambda * std::log(1.0 - p));
}

void EscalationPolicy::Escalate() {
  escalated_ = true;
  hold_ = 0;
  ++escalations_;
}

void EscalationPolicy::MaybeDeescalate() {
  if (hold_ >= kMinHoldPacks && !divergence_high_) {
    escalated_ = false;
    hold_ = 0;
    fallback_rate_ = 0.0;  // Fresh observation window for the new regime.
  }
}

void EscalationPolicy::RecordPack(bool fell_back) {
  if (escalated_) {
    ++hold_;
    MaybeDeescalate();
    return;
  }
  fallback_rate_ = kFallbackEmaAlpha * (fell_back ? 1.0 : 0.0) +
                   (1.0 - kFallbackEmaAlpha) * fallback_rate_;
  if (fallback_rate_ > kFallbackRateEnter) {
    Escalate();
  }
}

void EscalationPolicy::RecordDivergence(double cost_divergence) {
  if (cost_divergence >= kDivergenceEnter) {
    divergence_high_ = true;
    if (!escalated_) {
      Escalate();
    }
  } else if (cost_divergence <= kDivergenceExit) {
    divergence_high_ = false;
    MaybeDeescalate();
  }
  // Between exit and enter: the hysteresis band — state unchanged.
}

bool ShouldAdoptFull(Money saving_full_per_hour, Money saving_partial_per_hour,
                     Money migration_cost_full, Money migration_cost_partial,
                     double expected_duration_hours) {
  const Money net_full = saving_full_per_hour * expected_duration_hours - migration_cost_full;
  const Money net_partial =
      saving_partial_per_hour * expected_duration_hours - migration_cost_partial;
  return net_full > net_partial;
}

}  // namespace eva
