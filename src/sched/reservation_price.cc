#include "src/sched/reservation_price.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/arena.h"
#include "src/common/hash.h"

namespace eva {
namespace {

// Per-(thread, depth) leased scratch (see common/arena.h) for the TNRP
// paths. The depth frames matter: SetTnrpPlusOne's miss path holds a
// TaskPtrScratch lease for the joined set while ComputeSetTnrp leases
// another frame for each member's partner list.
struct TaskPtrScratch {
  std::vector<const TaskInfo*> ptrs;
};

struct WorkloadScratch {
  std::vector<WorkloadId> workloads;
};

struct SortScratch {
  std::vector<std::pair<Money, const TaskInfo*>> keyed;
};

std::uint64_t BitsOf(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

std::size_t TnrpCalculator::SetHashSeed(int family) {
  return HashCombine(0x5e74c0de, static_cast<std::size_t>(family) + 0x7f);
}

std::size_t TnrpCalculator::SetHashExtend(std::size_t seed, std::int32_t pricing_class) {
  return HashCombine(seed, static_cast<std::size_t>(pricing_class));
}

TnrpCalculator::TnrpCalculator(const SchedulingContext& context, Options options,
                               const ThroughputEstimator* estimator)
    : context_(&context),
      options_(options),
      estimator_(estimator),
      bound_catalog_(context.catalog) {}
// The flat RP cache is built on Rebind only: a freshly constructed
// calculator is usually a per-round temporary (the baselines), for which
// allocating an id-indexed array every round would cost more than the hash
// probes it avoids. Long-lived calculators (EvaScheduler's) rebind every
// round and get the flat path from round two on.

void TnrpCalculator::GrowRpFlat() {
  TaskId max_id = -1;
  for (const TaskInfo& task : context_->tasks) {
    max_id = std::max(max_id, task.id);
  }
  // Guard against pathological sparse ids blowing up the flat array; such
  // contexts simply stay on the hash fallback.
  constexpr TaskId kMaxFlat = 1 << 22;
  if (max_id >= 0 && max_id < kMaxFlat &&
      static_cast<std::size_t>(max_id) >= rp_flat_.size()) {
    rp_flat_.resize(static_cast<std::size_t>(max_id) + 1);
    rp_flat_filled_.resize(static_cast<std::size_t>(max_id) + 1, 0);
  }
}

void TnrpCalculator::Rebind(const SchedulingContext& context,
                            const ThroughputEstimator* estimator) {
  const bool catalog_changed = context.catalog != bound_catalog_;
  const ThroughputEstimator* previous = this->estimator();
  context_ = &context;
  estimator_ = estimator;
  bound_catalog_ = context.catalog;
  const bool estimator_changed = this->estimator() != previous;
  if (catalog_changed) {
    rp_sparse_.clear();
    std::fill(rp_flat_filled_.begin(), rp_flat_filled_.end(), 0);
    classes_.clear();
  }
  GrowRpFlat();
  if (catalog_changed || estimator_changed) {
    // Set TNRPs embed both RPs (catalog-derived) and throughput estimates;
    // version stamps only track mutations of the *same* estimator object.
    for (SetShard& shard : set_shards_) {
      shard.cache.Clear();
      shard.blob.clear();
    }
  }
  // Memory aging for long traces: entries for retired tasks (and version-
  // invalidated estimates) are never evicted individually, so on 100k-job
  // runs the set memo would grow with the whole trace. Dropping a shard
  // that outgrows the bound keeps memory O(working set); caches only affect
  // speed, never values, so results are unchanged — and the bound is
  // deterministic, so the decision trajectory stays reproducible.
  constexpr std::size_t kMaxCachedEntriesPerShard = std::size_t{1} << 16;
  for (SetShard& shard : set_shards_) {
    if (shard.cache.size() > kMaxCachedEntriesPerShard) {
      shard.cache.Clear();
      shard.blob.clear();
    }
  }
}

Money TnrpCalculator::ComputeReservationPrice(const TaskInfo& task) const {
  // Minimum cost of executing the task's work: cost per hour divided by the
  // task's relative speed on the hosting family. With homogeneous speedups
  // (all 1.0) this reduces to the paper's original definition.
  Money best = 0.0;
  bool found = false;
  for (const InstanceType& type : context_->catalog->types()) {
    if (!task.DemandFor(type.family).FitsWithin(type.capacity)) {
      continue;
    }
    const double speedup = task.SpeedupOn(type.family);
    if (speedup <= 0.0) {
      continue;
    }
    const Money effective = type.cost_per_hour / speedup;
    if (!found || effective < best) {
      best = effective;
      found = true;
    }
  }
  return best;
}

TnrpCalculator::RpEntry TnrpCalculator::RpEntryFor(const TaskInfo& task) const {
  const auto index = static_cast<std::size_t>(task.id);
  const bool flat = task.id >= 0 && index < rp_flat_.size();
  if (flat && rp_flat_filled_[index]) {
    ++cache_stats_.rp_hits;
    return rp_flat_[index];
  }
  if (!flat) {
    const auto cached = rp_sparse_.find(task.id);
    if (cached != rp_sparse_.end()) {
      ++cache_stats_.rp_hits;
      return cached->second;
    }
  }
  ++cache_stats_.rp_misses;
  RpEntry entry;
  entry.rp = ComputeReservationPrice(task);
  entry.job_size = context_->JobSize(task.job);
  entry.pricing_class = InternClass(task, entry);
  if (flat) {
    rp_flat_[index] = entry;
    rp_flat_filled_[index] = 1;
  } else {
    rp_sparse_[task.id] = entry;
  }
  return entry;
}

std::int32_t TnrpCalculator::InternClass(const TaskInfo& task, const RpEntry& entry) const {
  std::array<std::uint64_t, kNumInstanceFamilies> speedup_bits{};
  for (std::size_t f = 0; f < kNumInstanceFamilies; ++f) {
    speedup_bits[f] = BitsOf(task.family_speedup[f]);
  }
  const ClassKey key(task.workload, entry.job_size, BitsOf(entry.rp), speedup_bits);
  const auto next = static_cast<std::int32_t>(classes_.size());
  return classes_.try_emplace(key, next).first->second;
}

Money TnrpCalculator::ReservationPrice(const TaskInfo& task) const {
  return RpEntryFor(task).rp;
}

int TnrpCalculator::PricingClass(const TaskInfo& task) const {
  return RpEntryFor(task).pricing_class;
}

Money TnrpCalculator::ComputeTnrp(const TaskInfo& task,
                                  const std::vector<WorkloadId>& partner_workloads,
                                  Money rp, int job_size) const {
  const ThroughputEstimator* throughput = estimator();
  const double tput =
      throughput != nullptr ? throughput->Estimate(task.workload, partner_workloads) : 1.0;
  if (!options_.multi_task_aware || job_size <= 1) {
    return tput * rp;
  }
  // §4.4: the straggler effect propagates to every sibling; charge the full
  // job-level loss to this placement. All tasks of a job share demands, so
  // each sibling's RP equals this task's.
  return rp - static_cast<double>(job_size) * (1.0 - tput) * rp;
}

Money TnrpCalculator::TaskTnrp(const TaskInfo& task,
                               const std::vector<const TaskInfo*>& partners,
                               std::optional<InstanceFamily> family) const {
  const double speedup = family.has_value() ? task.SpeedupOn(*family) : 1.0;
  const RpEntry entry = RpEntryFor(task);
  const Money rp = entry.rp * speedup;
  if (!options_.interference_aware || partners.empty()) {
    return rp;
  }
  // The partner workloads in caller order: floating-point folds over the
  // partners are order-sensitive. Leased per (thread, depth), so nothing
  // allocates in steady state.
  ScratchLease<WorkloadScratch> workload_scratch;
  std::vector<WorkloadId>& partner_workloads = workload_scratch->workloads;
  partner_workloads.clear();
  for (const TaskInfo* partner : partners) {
    partner_workloads.push_back(partner->workload);
  }
  return ComputeTnrp(task, partner_workloads, rp, entry.job_size);
}

Money TnrpCalculator::PairTnrp(const TaskInfo& first, const TaskInfo& second,
                               std::optional<InstanceFamily> family) const {
  ScratchLease<TaskPtrScratch> partner_scratch;
  std::vector<const TaskInfo*>& partner = partner_scratch->ptrs;
  partner.assign(1, &second);
  const Money first_tnrp = TaskTnrp(first, partner, family);
  partner[0] = &first;
  return first_tnrp + TaskTnrp(second, partner, family);
}

Money TnrpCalculator::ComputeSetTnrp(const std::vector<const TaskInfo*>& tasks,
                                     std::optional<InstanceFamily> family) const {
  Money total = 0.0;
  ScratchLease<TaskPtrScratch> partner_scratch;
  std::vector<const TaskInfo*>& partners = partner_scratch->ptrs;
  partners.clear();
  partners.reserve(tasks.size());
  // Partners are the members at every other *position*: a set that lists
  // one task twice prices it against its other copy, as the two-member
  // path does, so equal class sequences always price equally.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    partners.clear();
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      if (j != i) {
        partners.push_back(tasks[j]);
      }
    }
    total += TaskTnrp(*tasks[i], partners, family);
  }
  return total;
}

template <typename ComputeFn>
Money TnrpCalculator::CachedSetTnrp(const SetKey& key, std::uint64_t row_sum,
                                    const ComputeFn& compute) const {
  // `key` is typically a thread-local scratch: it is only copied into the
  // cache on a miss, so the hit path allocates nothing.
  SetShard& shard = set_shards_[key.hash % kNumShards];
  const SetEntry* cached = shard.cache.Find(key, key.hash);
  if (cached != nullptr && cached->row_sum == row_sum) {
    ++cache_stats_.set_hits;
    return cached->value;
  }
  ++cache_stats_.set_misses;
  const Money value = compute();
  shard.cache.Upsert(key, key.hash, [&] {
    // First insertion of this set: intern the class sequence.
    StoredSetKey stored;
    stored.hash = key.hash;
    stored.family = key.family;
    stored.offset = shard.blob.size();
    stored.count = static_cast<std::uint32_t>(key.classes.size());
    shard.blob.insert(shard.blob.end(), key.classes.begin(), key.classes.end());
    return stored;
  }) = {value, row_sum};
  return value;
}

Money TnrpCalculator::SetTnrp(const std::vector<const TaskInfo*>& tasks,
                              std::optional<InstanceFamily> family) const {
  if (tasks.size() <= 1) {
    // Singleton and empty sets short-circuit to the (cached) RP path.
    return tasks.empty() ? 0.0 : TaskTnrp(*tasks.front(), {}, family);
  }
  if (tasks.size() == 2) {
    // Pair sets — the packing's bread and butter — skip the set cache.
    return PairTnrp(*tasks[0], *tasks[1], family);
  }
  // Ordered key (see SetKey): the sum over members is folded in
  // presentation order.
  const ThroughputEstimator* throughput = estimator();
  ScratchLease<SetKey> key_lease;
  SetKey& key = *key_lease;
  key.family = family.has_value() ? static_cast<int>(*family) : -1;
  key.hash = SetHashSeed(key.family);
  key.classes.clear();
  key.classes.reserve(tasks.size());
  std::uint64_t row_sum = 0;
  for (const TaskInfo* task : tasks) {
    const std::int32_t pricing_class = RpEntryFor(*task).pricing_class;
    key.classes.push_back(pricing_class);
    key.hash = SetHashExtend(key.hash, pricing_class);
    if (throughput != nullptr) {
      row_sum += throughput->RowVersion(task->workload);
    }
  }
  return CachedSetTnrp(key, row_sum, [&] { return ComputeSetTnrp(tasks, family); });
}

Money TnrpCalculator::SetTnrpPlusOne(const std::vector<const TaskInfo*>& members,
                                     const TaskInfo& candidate,
                                     std::optional<InstanceFamily> family) const {
  if (members.empty()) {
    return TaskTnrp(candidate, {}, family);
  }
  if (members.size() == 1) {
    return PairTnrp(*members[0], candidate, family);
  }
  const ThroughputEstimator* throughput = estimator();
  ScratchLease<SetKey> key_lease;
  SetKey& key = *key_lease;
  key.family = family.has_value() ? static_cast<int>(*family) : -1;
  key.hash = SetHashSeed(key.family);
  key.classes.clear();
  key.classes.reserve(members.size() + 1);
  std::uint64_t row_sum = 0;
  for (const TaskInfo* member : members) {
    const std::int32_t pricing_class = RpEntryFor(*member).pricing_class;
    key.classes.push_back(pricing_class);
    key.hash = SetHashExtend(key.hash, pricing_class);
    if (throughput != nullptr) {
      row_sum += throughput->RowVersion(member->workload);
    }
  }
  const std::int32_t candidate_class = RpEntryFor(candidate).pricing_class;
  key.classes.push_back(candidate_class);
  key.hash = SetHashExtend(key.hash, candidate_class);
  if (throughput != nullptr) {
    row_sum += throughput->RowVersion(candidate.workload);
  }
  return CachedSetTnrp(key, row_sum, [&] {
    ScratchLease<TaskPtrScratch> joined_scratch;
    std::vector<const TaskInfo*>& joined = joined_scratch->ptrs;
    joined.assign(members.begin(), members.end());
    joined.push_back(&candidate);
    return ComputeSetTnrp(joined, family);
  });
}

Money TnrpCalculator::SetRp(const std::vector<const TaskInfo*>& tasks) const {
  Money total = 0.0;
  for (const TaskInfo* task : tasks) {
    total += ReservationPrice(*task);
  }
  return total;
}

void SortTasksByRpDesc(const TnrpCalculator& calculator,
                       std::vector<const TaskInfo*>& tasks) {
  ScratchLease<SortScratch> sort_scratch;  // Pooled per (thread, depth).
  std::vector<std::pair<Money, const TaskInfo*>>& keyed = sort_scratch->keyed;
  keyed.clear();
  keyed.reserve(tasks.size());
  for (const TaskInfo* task : tasks) {
    keyed.emplace_back(calculator.ReservationPrice(*task), task);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const std::pair<Money, const TaskInfo*>& a,
               const std::pair<Money, const TaskInfo*>& b) {
              if (a.first != b.first) {
                return a.first > b.first;
              }
              return a.second->id < b.second->id;
            });
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    tasks[i] = keyed[i].second;
  }
}

}  // namespace eva
