// The quantitative Full-vs-Partial criterion (§4.5).
//
// Eva adopts Full Reconfiguration when the provisioning savings it unlocks
// outlast the migration overhead it incurs:
//     S_F * D - M_F > S_P * D - M_P                       (Equation 1)
// where S is each candidate's instantaneous provisioning saving ($/hr,
// computed as sum over instances of TNRP - cost), M is the migration cost
// of switching to the candidate ($), and D is how long the configuration
// will last. D is unknown; modeling job arrivals/completions ("events") as
// a Poisson process with rate lambda, and each event triggering a Full
// Reconfiguration with probability p, the expected time to the next Full
// Reconfiguration is
//     D_hat = -1 / (lambda * ln(1 - p)).
// lambda and p are estimated online with exponential moving averages.

#ifndef SRC_CORE_RECONFIG_DECISION_H_
#define SRC_CORE_RECONFIG_DECISION_H_

#include "src/common/units.h"

namespace eva {

// Online estimator for lambda (events/hour) and p (P[event adopts Full]).
class EventRateEstimator {
 public:
  // The EMAs' seeds, their smoothing factor, and the clamp on p that keeps
  // D_hat finite.
  static constexpr double kInitialEventsPerHour = 6.0;
  static constexpr double kInitialFullProbability = 0.5;
  static constexpr double kEmaAlpha = 0.1;
  static constexpr double kMinProbability = 0.02;
  static constexpr double kMaxProbability = 0.98;

  // Reports one scheduling round: how many arrival/completion events were
  // seen since the previous round, the elapsed wall time, and whether the
  // round adopted Full Reconfiguration.
  void RecordRound(int events, SimTime elapsed_s, bool adopted_full);

  double events_per_hour() const { return events_per_hour_; }
  double full_probability() const { return full_probability_; }

  // D_hat in hours.
  double ExpectedConfigurationDurationHours() const;

 private:
  double events_per_hour_ = kInitialEventsPerHour;
  double full_probability_ = kInitialFullProbability;
};

// Equation 1. All S/M values in dollars-per-hour / dollars; duration in
// hours. Returns true when Full Reconfiguration should be adopted.
bool ShouldAdoptFull(Money saving_full_per_hour, Money saving_partial_per_hour,
                     Money migration_cost_full, Money migration_cost_partial,
                     double expected_duration_hours);

// Auto-escalation policy for the incremental fast path: decides when the
// delta-touched repacking should be abandoned for exact Algorithm 1 until
// further notice. Two triggers, both with hysteresis so the policy cannot
// flap round-to-round:
//
//   * divergence — the relative provisioning-cost divergence measured at
//     the last exact-repack reconciliation met `kDivergenceEnter`; the
//     trigger stays latched until a later reconciliation measures at or
//     below `kDivergenceExit` (values in between change nothing);
//   * fallback frequency — the EMA of how often the incremental path fell
//     back to a full repack exceeded `kFallbackRateEnter` (when most packs
//     fall back anyway, the incremental bookkeeping is pure overhead).
//
// Once escalated, the policy holds for at least `kMinHoldPacks` exact
// packs, and de-escalates only when the divergence latch has cleared (while
// escalated the incumbent *is* the exact configuration, so reconciliations
// truthfully record zero divergence). De-escalation resets the fallback EMA
// to start a fresh observation window. Purely deterministic: state advances
// only through RecordPack/RecordDivergence, which the scheduler calls once
// per computed pack — never on memo-replayed or coalesced rounds.
class EscalationPolicy {
 public:
  static constexpr double kDivergenceEnter = 0.15;  // Relative cost divergence that escalates.
  static constexpr double kDivergenceExit = 0.05;   // Divergence that releases the latch.
  static constexpr double kFallbackRateEnter = 0.60;
  static constexpr double kFallbackEmaAlpha = 0.05;
  static constexpr int kMinHoldPacks = 32;  // Exact packs held before de-escalation.

  // Records one incremental-mode pack: whether the incremental path fell
  // back to a full repack (ignored while escalated — packs then run exact
  // by policy, and only advance the hold counter).
  void RecordPack(bool fell_back);

  // Records the relative provisioning-cost divergence measured at an
  // exact-repack reconciliation.
  void RecordDivergence(double cost_divergence);

  // True when packs should run exact Algorithm 1 until further notice.
  bool escalated() const { return escalated_; }

  double fallback_rate() const { return fallback_rate_; }
  int escalations() const { return escalations_; }

 private:
  void Escalate();
  void MaybeDeescalate();

  double fallback_rate_ = 0.0;
  bool divergence_high_ = false;  // The divergence latch.
  bool escalated_ = false;
  int hold_ = 0;  // Exact packs since escalating.
  int escalations_ = 0;
};

}  // namespace eva

#endif  // SRC_CORE_RECONFIG_DECISION_H_
