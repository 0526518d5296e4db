// Deterministic spot-price market for the cloud provider subsystem.
//
// Real clouds sell interruptible "spot" capacity at a steep, time-varying
// discount and reclaim it with a short warning when demand spikes. This
// model reproduces the decision-relevant structure — a piecewise-constant
// per-type price trace, occasional spikes above the on-demand price, and a
// preemption predicate tied to the price — while staying exactly
// reproducible:
//
//   * the price of a type during step k is a PURE FUNCTION of
//     (seed, type, k), computed by integer hashing — no sequential RNG
//     state, so quotes can be evaluated in any order, from any thread, by
//     any number of tenants, and always agree bit-for-bit;
//   * an instance is preempted exactly when its type's quote reaches the
//     preemption threshold (a fraction of the on-demand price), so the set
//     of preemption events is a deterministic function of virtual time;
//   * the cost of holding a spot instance over [t0, t1] is the integral of
//     the trace over that interval, folded over ascending steps so repeated
//     evaluations are bit-identical.

#ifndef SRC_CLOUD_SPOT_MARKET_H_
#define SRC_CLOUD_SPOT_MARKET_H_

#include <cstdint>

#include "src/cloud/instance_type.h"
#include "src/common/units.h"

namespace eva {

struct SpotMarketOptions {
  bool enabled = false;

  // Repricing interval: the trace is constant within a step.
  SimTime price_step_s = 15.0 * kSecondsPerMinute;

  // Steady-state quote as a fraction of the on-demand price, drawn
  // uniformly per (type, step) in [min, max] — the historical 60-90% spot
  // discount band.
  double min_price_fraction = 0.25;
  double max_price_fraction = 0.60;

  // Per-step probability that a type's pool spikes: the quote jumps to
  // spike_price_fraction x on-demand, which (at the default threshold)
  // preempts every spot instance of that type.
  double spike_probability = 0.04;
  double spike_price_fraction = 1.5;

  // Preemption predicate: quote >= preemption_price_fraction x on-demand.
  double preemption_price_fraction = 1.0;

  // Notice between the preemption warning and the instance being reclaimed
  // (the AWS two-minute warning).
  SimTime warning_s = 120.0;

  std::uint64_t seed = 1234;
};

class SpotMarket {
 public:
  // `base` is the on-demand catalog; quotes are per base-type index.
  // The catalog must outlive the market.
  SpotMarket(const InstanceCatalog& base, SpotMarketOptions options);

  const SpotMarketOptions& options() const { return options_; }

  // Quote as a fraction of the on-demand price during the step containing t.
  double PriceFraction(int base_type, SimTime t) const {
    return FractionForStep(base_type, StepOf(t));
  }

  // Hourly spot price of `base_type` at time t.
  Money Quote(int base_type, SimTime t) const { return QuoteAtStep(base_type, StepOf(t)); }

  // The price step containing t (a boundary belongs to the step it opens;
  // see StepClock). Prices are a pure function of (seed, type, step), so a
  // step index is a complete cache key for a quote snapshot — the
  // provider's shared quote-catalog cache keys on it.
  std::int64_t StepOf(SimTime t) const { return clock_.StepOf(t); }

  // Hourly spot price of `base_type` during `step`.
  Money QuoteAtStep(int base_type, std::int64_t step) const {
    return base_.Get(base_type).cost_per_hour * FractionForStep(base_type, step);
  }

  // True when holding spot capacity of this type at time t triggers a
  // preemption (quote at or above the threshold).
  bool IsPreempting(int base_type, SimTime t) const {
    return PriceFraction(base_type, t) >= options_.preemption_price_fraction - 1e-12;
  }

  // The earliest step boundary strictly after t — where the next repricing
  // (and therefore the next possible preemption transition) happens.
  SimTime NextStepBoundary(SimTime t) const { return clock_.NextStepBoundary(t); }

  // Dollar cost of holding one spot instance of `base_type` over [t0, t1]:
  // the price-trace integral, folded over ascending steps. Returns 0 for
  // empty/inverted intervals.
  Money CostForInterval(int base_type, SimTime t0, SimTime t1) const;

 private:
  // The price fraction of one step — the single source every public query
  // derives from.
  double FractionForStep(int base_type, std::int64_t step) const;

  const InstanceCatalog& base_;
  SpotMarketOptions options_;
  StepClock clock_;
};

}  // namespace eva

#endif  // SRC_CLOUD_SPOT_MARKET_H_
