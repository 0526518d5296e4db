// Cloud provider market: finite regional capacity, a spot tier, and the
// admission/accounting surface several tenant simulators can share.
//
// The seed reproduction provisioned from an idealized cloud — 21 on-demand
// types, infinite supply, fixed prices. This subsystem makes the provider a
// first-class actor:
//
//   * Capacity. Each instance family has a regional pool of at most
//     `family_capacity[f]` concurrent instances (-1 = unlimited, the
//     default). TryAcquire admits or denies a launch; Release returns the
//     slot. With every pool unlimited the provider is pass-through and the
//     simulation trajectory is bit-identical to the providerless engine.
//
//   * Tiers. With the spot market enabled the provider exposes a *tiered
//     catalog*: indices [0, N) are the base on-demand types verbatim and
//     [N, 2N) are their spot twins (same family/capacity, "-spot" names).
//     Capacities and type indices key off this stable object, while the
//     per-round *decision* prices come from a quote snapshot — the same
//     layout with spot entries at the current quote times (1 + risk
//     premium). Schedulers therefore price spot against on-demand with zero
//     structural changes: Algorithm 1 walks the tiered catalog exactly as
//     it walks the base one.
//
//   * Multi-tenancy, sharded. Several simulators may share one provider
//     (see sim/federation.h). Accounting is partitioned into one shard per
//     instance family, each behind its own mutex. Only a federation whose
//     pools are all unlimited calls the provider concurrently: there every
//     grant is unconditional and every mutation — grants, releases,
//     preemption records — is commutative per shard (integer tallies plus
//     unordered record lists sorted deterministically at Finalize). A
//     federation with a finite pool calls it from one thread, in
//     (virtual time, tenant index) order, so finite grants are serialized.
//     Either way provider state and metrics are bit-reproducible across
//     runs and thread-pool sizes.

#ifndef SRC_CLOUD_PROVIDER_H_
#define SRC_CLOUD_PROVIDER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/cloud/fault_injector.h"
#include "src/cloud/instance_type.h"
#include "src/cloud/spot_market.h"
#include "src/common/units.h"

namespace eva {

struct CloudProviderOptions {
  // Master switch. Disabled: infinite capacity, on-demand only — the
  // simulator never consults the provider and stays bit-exact with the
  // providerless engine.
  bool enabled = false;

  // Max concurrent instances per family across all tenants and both tiers;
  // -1 = unlimited.
  std::array<int, kNumInstanceFamilies> family_capacity = {-1, -1, -1};

  SpotMarketOptions spot;

  // Fault injection (zone outages clamp finite pools for their window; see
  // src/cloud/fault_injector.h). The simulator propagates its own
  // SimulatorOptions::faults here, so provider clamps and simulator kill
  // events always read one schedule.
  FaultInjectorOptions faults;
};

// `provider` with the simulator's fault schedule when that is on: a provider
// must clamp capacity off the same schedule its tenants kill instances from.
// Per-simulator providers and the federation's shared one both build their
// options here.
inline CloudProviderOptions MergedProviderOptions(CloudProviderOptions provider,
                                                  const FaultInjectorOptions& faults) {
  if (faults.enabled) {
    provider.faults = faults;
  }
  return provider;
}

// Provider-level accounting across all tenants.
struct CloudProviderMetrics {
  struct Family {
    int capacity = -1;
    std::int64_t granted = 0;
    std::int64_t denied = 0;
    std::int64_t preempted = 0;  // Preemption warnings issued.
    std::int64_t released = 0;
    // Subset of `denied` attributable to the fault model's outage clamp:
    // the pool had nominal headroom but the windowed capacity did not.
    std::int64_t fault_denied = 0;
    int peak_in_use = 0;
    double instance_hours = 0.0;  // Sum of released-instance uptimes.
    // Time-weighted pool utilization: instance-time / (capacity x horizon).
    // 0 when the pool is unlimited or the horizon is empty.
    double avg_utilization = 0.0;
  };

  std::array<Family, kNumInstanceFamilies> families;

  std::int64_t TotalGranted() const { return Total(&Family::granted); }
  std::int64_t TotalDenied() const { return Total(&Family::denied); }
  std::int64_t TotalPreempted() const { return Total(&Family::preempted); }

 private:
  std::int64_t Total(std::int64_t Family::*field) const;
};

class CloudProvider {
 public:
  // `base` is copied; the provider is self-contained and may outlive it.
  CloudProvider(const InstanceCatalog& base, CloudProviderOptions options);

  const CloudProviderOptions& options() const { return options_; }
  const InstanceCatalog& base_catalog() const { return base_; }

  // The stable catalog simulations run against: the base catalog when spot
  // is off, base + spot twins when on. Object identity is stable for the
  // provider's lifetime (the cluster state keeps a reference to it).
  const InstanceCatalog& tiered_catalog() const {
    return spot_enabled() ? tiered_ : base_;
  }

  bool spot_enabled() const { return options_.spot.enabled; }
  int num_base_types() const { return base_.NumTypes(); }

  // Tier helpers on tiered-catalog indices.
  bool IsSpotType(int type_index) const {
    return spot_enabled() && type_index >= num_base_types();
  }
  int BaseType(int type_index) const {
    return IsSpotType(type_index) ? type_index - num_base_types() : type_index;
  }

  const SpotMarket& market() const { return market_; }

  // Bit f set <=> family f's pool is finite. Only finite families can make
  // two tenants conflict (an unlimited pool grants unconditionally and its
  // tallies are commutative), so the federation driver runs its tenants
  // independently only when this mask is empty.
  std::uint32_t finite_family_mask() const { return finite_family_mask_; }

  // Family of a tiered-catalog index (pure; spot twins share their base
  // type's family).
  InstanceFamily FamilyOf(int type_index) const {
    return tiered_catalog().Get(type_index).family;
  }

  // Decision-price snapshot at time `now`: base entries verbatim, spot
  // entries at quote x (1 + risk_premium). Shared and cached by (price
  // step, risk premium): spot prices are a pure function of the step, so
  // every round that falls in one step sees the *same object*. Two
  // consequences the federation leans on: (a) N tenants rounding in the
  // same step build one catalog instead of N, from any thread, in any
  // order; (b) catalog identity means "prices bit-identical", so
  // scheduler-side caches keyed on catalog identity (round memos, TNRP
  // rebinds) are invalidated exactly when prices move. Entries are never
  // evicted — the map is bounded by horizon / price_step (and reusing a
  // freed address for a new step would alias identity-keyed caches).
  std::shared_ptr<const InstanceCatalog> SharedQuoteCatalog(
      SimTime now, double risk_premium) const;

  // --- Admission and accounting -----------------------------------------
  // Grants or denies one instance of `type_index` (tiered index). Grants on
  // a *finite* family must be serialized in tenant-index order by the
  // caller (the federation's barrier loop; a single-tenant simulator is
  // trivially serial). Grants on unlimited families are commutative and
  // may run concurrently. During a zone outage window,
  // finite capacity is clamped by the down-zone fraction, so admission
  // denies into the outage even with nominal headroom.
  bool TryAcquire(int type_index, SimTime now);

  // Returns the slot and records the uptime. Thread-safe; commutative, so
  // concurrent releases from an unlimited-pool federation's tenants are
  // deterministic in effect. Fails when the family has no live grant.
  void Release(int type_index, SimTime acquired_at, SimTime now);

  // Counts a preemption warning. Thread-safe.
  void RecordPreemption(int type_index);

  // True cost of holding `type_index` over [t0, t1]: the spot-trace
  // integral for spot types, flat hourly price otherwise. Pure.
  Money InstanceCost(int type_index, SimTime t0, SimTime t1) const;

  // Snapshot of the counters plus derived utilization over [0, horizon].
  // Sorts the (unordered) release records first, so the result is
  // independent of release arrival order. peak_in_use is the incremental
  // maximum for finite pools (grants are serialized, so it is exact) and a
  // sorted interval sweep over lifetimes for unlimited pools (whose grants
  // may interleave across threads; ties count a start before an end, so
  // touching intervals overlap).
  //
  // Contract: call it once every instance is released (checked: a family
  // with a live grant aborts). Instance-hours and the unlimited-pool peak
  // are built from released lifetimes only, so a still-live instance would
  // count in neither. Simulator::Finish releases whatever a tenant still
  // holds, and RunFederation finalizes after every tenant's Finish.
  CloudProviderMetrics FinalizeMetrics(SimTime horizon) const;

 private:
  static InstanceCatalog MakeTiered(const InstanceCatalog& base,
                                    const SpotMarket& market);

  const InstanceCatalog base_;
  const CloudProviderOptions options_;
  SpotMarket market_;
  FaultModel fault_model_;
  InstanceCatalog tiered_;  // == base twins appended; unused when spot off.
  std::uint32_t finite_family_mask_ = 0;

  // One independently-lockable shard per instance family (the ytsaurus
  // node-shard idiom): tenants touching disjoint families never share a
  // lock.
  struct FamilyShard {
    mutable std::mutex mutex;
    int in_use = 0;
    // Exact for finite pools (grants serialized by the caller); unused for
    // unlimited pools, whose peak comes from the Finalize sweep.
    int peak_in_use = 0;
    std::int64_t granted = 0;
    std::int64_t denied = 0;
    std::int64_t preempted = 0;
    std::int64_t released = 0;
    std::int64_t fault_denied = 0;  // Denials attributable to the outage clamp.
    // Released-instance lifetimes, in arrival order (nondeterministic under
    // concurrency); FinalizeMetrics sorts before folding.
    std::vector<std::pair<SimTime, SimTime>> lifetimes;
  };
  std::array<FamilyShard, kNumInstanceFamilies> shards_;

  // Shared quote snapshots keyed by (price step, risk premium). Guarded by
  // its own mutex so quoting never contends with admission shards.
  mutable std::mutex quote_mutex_;
  mutable std::map<std::pair<std::int64_t, double>,
                   std::shared_ptr<const InstanceCatalog>>
      quote_cache_;
  mutable std::shared_ptr<const InstanceCatalog> base_snapshot_;  // Spot off.
};

}  // namespace eva

#endif  // SRC_CLOUD_PROVIDER_H_
