#include "src/cloud/provider.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace eva {

std::int64_t CloudProviderMetrics::Total(std::int64_t Family::*field) const {
  std::int64_t total = 0;
  for (const Family& family : families) {
    total += family.*field;
  }
  return total;
}

namespace {

// The one copy of the tier layout: base types verbatim, then one "-spot"
// twin per type (same family/capacity) priced by `spot_price(index, base
// hourly price)`. Both the stable tiered catalog and every per-round quote
// snapshot are built through here, so their indices can never diverge.
template <typename PriceFn>
std::vector<InstanceType> TieredTypes(const InstanceCatalog& base,
                                      const PriceFn& spot_price) {
  std::vector<InstanceType> types = base.types();
  types.reserve(types.size() * 2);
  for (int i = 0; i < base.NumTypes(); ++i) {
    InstanceType spot = base.Get(i);
    spot.name += "-spot";
    spot.cost_per_hour = spot_price(i, spot.cost_per_hour);
    types.push_back(std::move(spot));
  }
  return types;
}

// Max overlap of the closed intervals {[s, e]}: sorted sweep, starts before
// ends at equal times. Order-independent by construction — the input is
// treated as a multiset.
int SweptPeak(const std::vector<std::pair<SimTime, SimTime>>& lifetimes) {
  std::vector<SimTime> starts;
  std::vector<SimTime> ends;
  starts.reserve(lifetimes.size());
  ends.reserve(lifetimes.size());
  for (const auto& [start, end] : lifetimes) {
    starts.push_back(start);
    ends.push_back(std::max(end, start));
  }
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  int current = 0;
  int peak = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < starts.size()) {
    if (j < ends.size() && ends[j] < starts[i]) {
      --current;
      ++j;
    } else {
      ++current;
      ++i;
      peak = std::max(peak, current);
    }
  }
  return peak;
}

}  // namespace

InstanceCatalog CloudProvider::MakeTiered(const InstanceCatalog& base,
                                          const SpotMarket& market) {
  // The stable catalog's spot price is the band midpoint — a placeholder
  // for display only. Decision prices come from the quote snapshots and
  // true costs from InstanceCost; neither reads this entry.
  const double midpoint = 0.5 * (market.options().min_price_fraction +
                                 market.options().max_price_fraction);
  return InstanceCatalog(
      TieredTypes(base, [midpoint](int, Money price) { return price * midpoint; }));
}

CloudProvider::CloudProvider(const InstanceCatalog& base, CloudProviderOptions options)
    : base_(base),
      options_(options),
      market_(base_, options_.spot),
      fault_model_(options_.faults),
      tiered_(options_.spot.enabled ? MakeTiered(base_, market_)
                                    : InstanceCatalog({})) {
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    if (options_.family_capacity[f] >= 0) {
      finite_family_mask_ |= 1u << f;
    }
  }
}

std::shared_ptr<const InstanceCatalog> CloudProvider::SharedQuoteCatalog(
    SimTime now, double risk_premium) const {
  std::lock_guard<std::mutex> lock(quote_mutex_);
  if (!spot_enabled()) {
    if (base_snapshot_ == nullptr) {
      base_snapshot_ = std::make_shared<InstanceCatalog>(base_.types());
    }
    return base_snapshot_;
  }
  const std::int64_t step = market_.StepOf(now);
  const auto key = std::make_pair(step, risk_premium);
  auto it = quote_cache_.find(key);
  if (it != quote_cache_.end()) {
    return it->second;
  }
  // Quote(now) == QuoteAtStep(StepOf(now)), and every `now` in this step
  // maps here.
  auto snapshot = std::make_shared<const InstanceCatalog>(
      TieredTypes(base_, [this, step, risk_premium](int index, Money) {
        return market_.QuoteAtStep(index, step) * (1.0 + risk_premium);
      }));
  quote_cache_.emplace(key, snapshot);
  return snapshot;
}

bool CloudProvider::TryAcquire(int type_index, SimTime now) {
  const auto family = static_cast<std::size_t>(FamilyOf(type_index));
  const int capacity = options_.family_capacity[family];
  // Windowed outage clamp: a pure function of time, so it is computed
  // outside the shard lock and agrees across tenants and threads.
  const int effective =
      fault_model_.enabled() ? fault_model_.ClampedCapacity(capacity, now) : capacity;
  FamilyShard& shard = shards_[family];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (capacity >= 0 && shard.in_use >= effective) {
    ++shard.denied;
    if (shard.in_use < capacity) {
      ++shard.fault_denied;  // Nominal headroom existed; the clamp denied.
    }
    return false;
  }
  ++shard.in_use;
  ++shard.granted;
  if (capacity >= 0) {
    shard.peak_in_use = std::max(shard.peak_in_use, shard.in_use);
  }
  return true;
}

void CloudProvider::Release(int type_index, SimTime acquired_at, SimTime now) {
  FamilyShard& shard = shards_[static_cast<std::size_t>(FamilyOf(type_index))];
  std::lock_guard<std::mutex> lock(shard.mutex);
  EVA_CHECK(shard.in_use > 0, "provider release without a live grant");
  --shard.in_use;
  ++shard.released;
  shard.lifetimes.emplace_back(acquired_at, now);
}

void CloudProvider::RecordPreemption(int type_index) {
  const auto family = static_cast<std::size_t>(FamilyOf(type_index));
  FamilyShard& shard = shards_[family];
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.preempted;
}

Money CloudProvider::InstanceCost(int type_index, SimTime t0, SimTime t1) const {
  if (IsSpotType(type_index)) {
    return market_.CostForInterval(BaseType(type_index), t0, t1);
  }
  return CostForUptime(tiered_catalog().Get(type_index).cost_per_hour,
                       std::max(t1 - t0, 0.0));
}

CloudProviderMetrics CloudProvider::FinalizeMetrics(SimTime horizon) const {
  CloudProviderMetrics metrics;
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    const FamilyShard& shard = shards_[f];
    std::lock_guard<std::mutex> lock(shard.mutex);
    EVA_CHECK(shard.in_use == 0, "provider finalized with a live grant");
    CloudProviderMetrics::Family& out = metrics.families[f];
    out.capacity = options_.family_capacity[f];
    out.granted = shard.granted;
    out.denied = shard.denied;
    out.preempted = shard.preempted;
    out.released = shard.released;
    out.fault_denied = shard.fault_denied;
    // Fold lifetimes in (start, end) order: the records arrive in
    // nondeterministic order under concurrent release, and floating-point
    // sums are order-sensitive — sorting first makes the fold reproducible.
    std::vector<std::pair<SimTime, SimTime>> sorted = shard.lifetimes;
    std::sort(sorted.begin(), sorted.end());
    double instance_seconds = 0.0;
    for (const auto& [start, end] : sorted) {
      instance_seconds += std::max(end - start, 0.0);
    }
    out.instance_hours = SecondsToHours(instance_seconds);
    // Unlimited pools grant concurrently, so their running max would depend
    // on thread interleaving; sweep the (multiset-deterministic) lifetimes
    // instead.
    out.peak_in_use = out.capacity >= 0 ? shard.peak_in_use : SweptPeak(sorted);
    if (out.capacity > 0 && horizon > 0.0) {
      out.avg_utilization = instance_seconds / (static_cast<double>(out.capacity) * horizon);
    }
  }
  return metrics;
}

}  // namespace eva
