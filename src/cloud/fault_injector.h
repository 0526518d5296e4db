// Deterministic fault-injection model for the cloud provider subsystem.
//
// Real fleets lose capacity in ways spot preemption's polite two-minute
// warning never exercises: an availability zone drops and takes every
// instance in it down at once, a bad kernel or switch kills a correlated
// batch of one family, and planned maintenance drains machines with advance
// notice. This model reproduces those three shapes — zone outages,
// correlated instance failures, maintenance drains — while staying exactly
// reproducible, in the style of SpotMarket:
//
//   * whether a fault of a given kind fires in step k is a PURE FUNCTION of
//     (seed, kind, entity, k) — StepHash, the spot market's hash — with no
//     sequential RNG state, so schedules can be evaluated in any order, from
//     any thread, by any number of tenants, and always agree bit-for-bit;
//   * an instance's zone is a pure hash of (tenant, instance id) over the
//     zones that are up at launch, so placement replays identically;
//   * the capacity clamp during an outage window (capacity scaled by the
//     fraction of zones still up) is a pure function of time, so
//     CloudProvider::TryAcquire can consult it without any event plumbing.
//
// The model only *decides*; acting on a decision (killing instances,
// starting drains) is MarketEvents' job (src/sim/market_events.h), driven
// by kFaultCheck events at step boundaries. Everything is gated behind
// `enabled` (default off), so a fault-free run never consults the model and
// stays bit-exact.

#ifndef SRC_CLOUD_FAULT_INJECTOR_H_
#define SRC_CLOUD_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/common/units.h"

namespace eva {

struct FaultInjectorOptions {
  // Master switch. Disabled: no fault ever fires, no capacity is ever
  // clamped, and the simulator never arms a fault check.
  bool enabled = false;

  // Number of availability zones instances are spread over. Outages and
  // drains are per-zone events.
  int num_zones = 4;

  // Fault schedule granularity: each kind rolls once per (entity, step).
  SimTime check_period_s = 15.0 * kSecondsPerMinute;

  // Zone outage: per (zone, step) probability that the zone drops at the
  // step boundary. Every instance in the zone is killed abruptly (running
  // containers lost, like stragglers at spot reclaim) and the finite family
  // pools are clamped by the down-zone fraction for the outage window.
  double zone_outage_probability = 0.02;
  SimTime zone_outage_duration_s = 30.0 * kSecondsPerMinute;

  // Correlated instance failure: per (family, step) probability that a
  // seeded burst kills up to `correlated_failure_size` instances of one
  // family at once (victims ranked by hash — deterministic, not "the
  // oldest" or "the newest").
  double correlated_failure_probability = 0.01;
  int correlated_failure_size = 4;

  // Maintenance drain: per (zone, step) probability that every instance in
  // the zone is put into a graceful drain — tasks evicted through the
  // checkpoint-then-pend path with `drain_notice_s` of lead time (longer
  // than the 120 s spot warning, so checkpoints normally finish), after
  // which whatever is still aboard is reclaimed abruptly.
  double drain_probability = 0.01;
  SimTime drain_notice_s = 10.0 * kSecondsPerMinute;

  std::uint64_t seed = 8675309;
};

class FaultModel {
 public:
  explicit FaultModel(FaultInjectorOptions options)
      : options_(options), clock_{options.check_period_s} {}

  const FaultInjectorOptions& options() const { return options_; }
  bool enabled() const { return options_.enabled; }

  // The fault step containing t (a boundary timestamp belongs to the step
  // it opens; see StepClock), and the earliest boundary strictly after t —
  // where the next kFaultCheck fires.
  std::int64_t StepOf(SimTime t) const { return clock_.StepOf(t); }
  SimTime NextStepBoundary(SimTime t) const { return clock_.NextStepBoundary(t); }

  // --- Fault schedules: pure in (seed, kind, entity, step) ---------------
  bool ZoneOutageStartsAt(int zone, std::int64_t step) const;
  bool CorrelatedFailureAt(int family, std::int64_t step) const;
  bool DrainStartsAt(int zone, std::int64_t step) const;

  // Whether `zone` is inside an outage window at time t: an outage starting
  // at step s covers [s * period, s * period + duration).
  bool ZoneDownAt(int zone, SimTime t) const;
  int UpZoneCount(SimTime t) const;

  // Capacity clamp during outages: capacity scaled by up / total zones
  // (floored). Unlimited pools (capacity < 0) pass through untouched, as
  // does everything when no zone is down.
  int ClampedCapacity(int capacity, SimTime t) const;

  // Deterministic zone assignment for an instance launched at `launch_time`:
  // a hash of (tenant, instance id) over the zones up at launch (all zones
  // when none is up). Pure, so every replay places identically.
  int ZoneAt(int tenant_id, std::int64_t instance_id, SimTime launch_time) const;

  // Victim ordering for a correlated burst: the K live instances of the
  // family with the smallest ranks die. Pure in (seed, tenant, instance,
  // step), so the victim set is independent of iteration order.
  std::uint64_t VictimRank(int tenant_id, std::int64_t instance_id,
                           std::int64_t step) const;

 private:
  FaultInjectorOptions options_;
  StepClock clock_;
};

}  // namespace eva

#endif  // SRC_CLOUD_FAULT_INJECTOR_H_
