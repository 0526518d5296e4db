// Reservation price (RP) and throughput-normalized reservation price (TNRP)
// calculators (§4.2-§4.4).
//
// RP(tau) is the hourly cost of the cheapest instance type capable of
// hosting tau alone — the maximum hourly price worth paying for the task.
// TNRP scales RP by the (estimated) normalized throughput the task would
// achieve under a given co-location, so that a task-to-instance assignment
// is cost-efficient exactly when TNRP(T) >= instance cost. For multi-task
// jobs, the degradation a placement inflicts on the whole data-parallel job
// is charged to that placement:
//   TNRP(tau, T) = RP(tau) - sum_{tau' in job(tau)} (1 - tput_{tau,T}) * RP(tau').
//
// TNRP depends on a task only through its pricing class: its workload, job
// size, RP and per-family speedups — not its id and not its demands beyond
// the RP they yield. The calculator caches what is expensive or recurs so
// the scheduling decision path can be delta-incremental across rounds and
// share work across tasks:
//   * RP, job size and the interned pricing class are cached per task id
//     (demands and speedups are immutable per id);
//   * a task's TNRP is computed on every call: one throughput estimate and
//     a few multiplies, cheaper than a memo probe;
//   * set TNRPs of three or more members are memoized per caller-order
//     class sequence and family, stamped with the members' estimator row
//     versions — entries invalidate themselves exactly when new
//     observations change the estimates they were derived from.
// Rebind() points a long-lived calculator at the next round's context while
// keeping the caches. A calculator is not thread-safe: every pricing call
// of one calculator must come from one thread at a time.

#ifndef SRC_SCHED_RESERVATION_PRICE_H_
#define SRC_SCHED_RESERVATION_PRICE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/common/soa_table.h"
#include "src/sched/throughput_estimator.h"
#include "src/sched/types.h"

namespace eva {

class TnrpCalculator {
 public:
  struct Options {
    // When false, throughput is treated as 1.0 everywhere — this is the
    // Eva-RP ablation of Figure 4.
    bool interference_aware = true;

    // When false, tasks of multi-task jobs are treated as independent —
    // the Eva-Single ablation of Table 6 / Figure 7.
    bool multi_task_aware = true;
  };

  struct CacheStats {
    std::uint64_t rp_hits = 0;
    std::uint64_t rp_misses = 0;
    std::uint64_t set_hits = 0;
    std::uint64_t set_misses = 0;
  };

  // `estimator` overrides context.throughput when given — long-lived
  // schedulers pass their own table here so each round's context does not
  // have to be copied just to re-bind its throughput pointer.
  TnrpCalculator(const SchedulingContext& context, Options options,
                 const ThroughputEstimator* estimator = nullptr);

  // Points the calculator at a new context while keeping the memoized
  // caches — the cross-round fast path. Contract: task and job ids must be
  // stable identities (the same id always denotes the same demands,
  // workload, speedups, and job size). The caches are dropped automatically
  // when the bound catalog or throughput estimator is a different object.
  void Rebind(const SchedulingContext& context,
              const ThroughputEstimator* estimator = nullptr);

  // RP(tau): hourly cost of the cheapest fitting type. With heterogeneous
  // per-family speedups (§4.2's extension) this becomes the minimum cost of
  // executing one unit of work: min_k C_k / speedup(family(k)) over fitting
  // types. Cached per task. Tasks that fit no instance type have RP 0 (the
  // simulator rejects such jobs at admission, so this is defensive).
  Money ReservationPrice(const TaskInfo& task) const;

  // Dense id of the task's pricing class (workload, job size, RP, family
  // speedups). Tasks of one class return identical values from every TNRP
  // call, whatever their ids and demands. Ids stay stable until the bound
  // catalog changes.
  int PricingClass(const TaskInfo& task) const;

  // TNRP of one task co-located with `partners` (the other tasks on the
  // same hypothetical instance, excluding the task itself). May be negative
  // for multi-task jobs under severe interference. When `family` is given,
  // the task's relative speed on that family scales its value (§4.2).
  Money TaskTnrp(const TaskInfo& task, const std::vector<const TaskInfo*>& partners,
                 std::optional<InstanceFamily> family = std::nullopt) const;

  // TNRP of a set of tasks placed together: sum of per-task TNRP where each
  // member's partners are the members at every other position. Sets of
  // three or more are memoized (keyed on the caller-order pricing-class
  // sequence + family, stamped with the members' row versions), so the
  // packing's repeated evaluations of recurring compositions cost one hash
  // lookup, whichever tasks make them up.
  Money SetTnrp(const std::vector<const TaskInfo*>& tasks,
                std::optional<InstanceFamily> family = std::nullopt) const;

  // SetTnrp(members + {candidate}) without materializing the joined set on
  // the cache-hit path — the packing argmax's inner-loop shape.
  Money SetTnrpPlusOne(const std::vector<const TaskInfo*>& members,
                       const TaskInfo& candidate,
                       std::optional<InstanceFamily> family = std::nullopt) const;

  // Plain reservation-price sum of a set (used by Eva-RP and the
  // cost-efficiency walk-through of §4.2).
  Money SetRp(const std::vector<const TaskInfo*>& tasks) const;

  const Options& options() const { return options_; }
  const CacheStats& cache_stats() const { return cache_stats_; }

 private:
  // The set memo is split over kNumShards tables, for memory rather than
  // for concurrency. A FlatMemoMap (and a shard's class blob) doubles when
  // it grows, holding the old and new storage alive together during the
  // copy; split 16 ways, each doubling moves about a sixteenth of the memo.
  // The per-shard size bound in Rebind likewise ages a sixteenth at a time.
  // Shards are picked by key hash: class ids are few and skewed, so picking
  // by class would crowd a few shards. Each shard is a flat open-addressing
  // table, lookup-only (never iterated), so the layout cannot affect any
  // value or order the scheduler produces.
  static constexpr std::size_t kNumShards = 16;

  // RP, job size and pricing class are all immutable per task id, so they
  // share a cache entry (job size feeds the §4.4 multi-task term without
  // re-touching the context's job index on every TNRP miss).
  struct RpEntry {
    Money rp = 0.0;
    int job_size = 1;
    std::int32_t pricing_class = -1;
  };

  // Pricing-class interning key: (workload, job size, RP, family
  // speedups). Doubles are keyed by bit pattern, so one class never merges
  // values an uncached evaluation could tell apart.
  using ClassKey = std::tuple<WorkloadId, int, std::uint64_t,
                              std::array<std::uint64_t, kNumInstanceFamilies>>;

  // Set memo key: the members' pricing classes in caller order, candidate
  // last — NOT canonicalized: the sum over members is folded in caller
  // order, and a cached value must reproduce an uncached evaluation of the
  // same call bit for bit.
  struct SetKey {
    std::size_t hash = 0;  // Precomputed at key build; the map hash is O(1).
    int family = -1;
    std::vector<std::int32_t> classes;

    bool operator==(const SetKey& other) const {
      return hash == other.hash && family == other.family && classes == other.classes;
    }
  };

  // Seeds/extends the incremental SetKey hash (caller-order fold).
  static std::size_t SetHashSeed(int family);
  static std::size_t SetHashExtend(std::size_t seed, std::int32_t pricing_class);

  struct SetEntry {
    Money value = 0.0;
    // Sum of the members' estimator row versions at compute time. Row
    // versions are monotonic, so the sum changes exactly when an estimate
    // any member's TNRP depends on could have — per-set invalidation
    // instead of flushing everything on every table write.
    std::uint64_t row_sum = 0;
  };

  // Stored set-memo key: the class sequence is interned into the shard's
  // class blob (offset/count), so SetKey — which owns a classes vector —
  // is only ever a caller-side probe/scratch. Inserting an entry appends to
  // the blob (amortized) instead of copying a vector per stored key.
  struct StoredSetKey {
    std::size_t hash = 0;
    std::size_t offset = 0;
    std::uint32_t count = 0;
    std::int32_t family = -1;
  };

  struct StoredSetKeyHash {
    std::size_t operator()(const StoredSetKey& key) const { return key.hash; }
  };

  // Compares an interned key against a probe SetKey; bound to the owning
  // shard's blob.
  struct StoredSetKeyEq {
    const std::vector<std::int32_t>* blob = nullptr;
    bool operator()(const StoredSetKey& stored, const SetKey& probe) const {
      return stored.hash == probe.hash && stored.family == probe.family &&
             stored.count == probe.classes.size() &&
             std::equal(probe.classes.begin(), probe.classes.end(),
                        blob->begin() + static_cast<std::ptrdiff_t>(stored.offset));
    }
  };

  // `cache` compares against `blob` through a pointer, so a shard is
  // never copied.
  struct SetShard {
    SetShard() = default;
    SetShard(const SetShard&) = delete;
    SetShard& operator=(const SetShard&) = delete;

    std::vector<std::int32_t> blob;  // Interned class sequences (cleared with cache).
    FlatMemoMap<StoredSetKey, SetEntry, StoredSetKeyHash, StoredSetKeyEq> cache{
        StoredSetKeyHash{}, StoredSetKeyEq{&blob}};
  };

  const ThroughputEstimator* estimator() const {
    return estimator_ != nullptr ? estimator_ : context_->throughput;
  }

  RpEntry RpEntryFor(const TaskInfo& task) const;
  Money ComputeReservationPrice(const TaskInfo& task) const;
  std::int32_t InternClass(const TaskInfo& task, const RpEntry& entry) const;

  // TaskTnrp(first, {second}) + TaskTnrp(second, {first}): the two-member
  // set, which the set memo skips.
  Money PairTnrp(const TaskInfo& first, const TaskInfo& second,
                 std::optional<InstanceFamily> family) const;
  Money ComputeTnrp(const TaskInfo& task, const std::vector<WorkloadId>& partner_workloads,
                    Money rp, int job_size) const;
  Money ComputeSetTnrp(const std::vector<const TaskInfo*>& tasks,
                       std::optional<InstanceFamily> family) const;
  // Shared slow/fast-path body of SetTnrp / SetTnrpPlusOne: looks up the
  // prepared key (a caller-owned scratch, copied only on miss), computing
  // via `compute` on miss. `row_sum` is the members' current row-version
  // sum (see SetEntry).
  template <typename ComputeFn>
  Money CachedSetTnrp(const SetKey& key, std::uint64_t row_sum,
                      const ComputeFn& compute) const;

  // Grows the flat RP cache to cover the bound context's task ids (called
  // from Rebind, between rounds).
  void GrowRpFlat();

  const SchedulingContext* context_;
  Options options_;
  const ThroughputEstimator* estimator_;

  // Catalog the caches were computed against. Rebind must compare the new
  // context's catalog against this saved value, NOT against
  // context_->catalog: callers (the simulator) refill one context object in
  // place across rounds, so by Rebind time the old object already carries
  // the new catalog pointer and the comparison would always read "same" —
  // silently keeping RP/TNRP entries priced off a catalog that changed
  // (the spot tier's per-round quote snapshots).
  const InstanceCatalog* bound_catalog_ = nullptr;

  // Flat RP cache for the dense task-id universe (simulator ids are
  // sequential): the RP lookup is the innermost pricing primitive, and a
  // vector index beats the hash probe it replaces by an order of magnitude.
  // Ids beyond the flat range (hand-built contexts) fall back to the map.
  mutable std::vector<RpEntry> rp_flat_;
  mutable std::vector<std::uint8_t> rp_flat_filled_;
  mutable std::unordered_map<TaskId, RpEntry> rp_sparse_;
  // Pricing classes interned so far; dropped with the RP cache. Probed
  // only on an RP miss.
  mutable std::map<ClassKey, std::int32_t> classes_;
  mutable std::array<SetShard, kNumShards> set_shards_;
  mutable CacheStats cache_stats_;
};

// Sorts tasks by descending reservation price with deterministic ascending-id
// tie-break — the candidate order of Algorithm 1 and the incremental
// baselines. Computes each RP exactly once into a keyed vector before
// sorting (the previous comparator-driven sorts re-priced tasks on every
// comparison, O(n log n) calculator calls).
void SortTasksByRpDesc(const TnrpCalculator& calculator,
                       std::vector<const TaskInfo*>& tasks);

}  // namespace eva

#endif  // SRC_SCHED_RESERVATION_PRICE_H_
