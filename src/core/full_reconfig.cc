#include "src/core/full_reconfig.h"

#include <algorithm>

#include "src/common/arena.h"
#include "src/common/format.h"
#include "src/common/logging.h"

namespace eva {
namespace {

// True if `task` fits in the remaining capacity of an instance of `type`.
bool Fits(const TaskInfo& task, const InstanceType& type, const ResourceVector& used) {
  return (used + task.DemandFor(type.family)).FitsWithin(type.capacity);
}

// Result of scanning the candidate pool for the TNRP argmax.
struct ArgmaxResult {
  int candidate = -1;
  Money tnrp = 0.0;
  std::size_t live_position = 0;  // The candidate's position in the live list.
};

// Pooled per-round packing scratch, leased per (thread, nesting level) via
// the codebase's one sanctioned thread-local scratch mechanism (see
// common/arena.h); the downsizing step reuses `members` once the greedy
// pass is done with it.
struct PackScratch {
  std::vector<bool> assigned;
  std::vector<const TaskInfo*> members;
  std::vector<std::size_t> member_indices;
  std::vector<int> classes;      // Pricing class per pool slot.
  std::vector<bool> class_seen;  // Per scan: a fitting candidate had the class.
  // Unassigned slots that fit an empty instance of the current type, in
  // pool order.
  std::vector<std::size_t> type_slots;
  // The tentative instance's live candidates: `type_slots` minus the
  // members and the slots that stopped fitting, in pool order.
  std::vector<std::size_t> live;
};

// Caller-facing entry points' pool-building scratch.
struct PoolScratch {
  std::vector<const TaskInfo*> pool;
};

// Argmax over the live candidates: the fitting task whose addition
// maximizes TNRP(members + {task}); earliest index wins exact ties (the `>`
// below, over a list kept in pool order). A candidate prices as its pricing
// class, so once one candidate of a class has been priced, later ones of
// that class tie and lose: they are skipped unpriced and stay live. A slot
// that fails Fits leaves the list for good: `used` only grows (demands are
// non-negative), so it cannot fit this instance again. The class ignores
// demands, so it is marked only after the candidate passes Fits.
ArgmaxResult ScanCandidates(const std::vector<const TaskInfo*>& pool, PackScratch& scratch,
                            const InstanceType& type, const ResourceVector& used,
                            const TnrpCalculator& calculator) {
  std::vector<bool>& class_seen = scratch.class_seen;
  std::fill(class_seen.begin(), class_seen.end(), false);
  std::vector<std::size_t>& live = scratch.live;
  ArgmaxResult best;
  std::size_t kept = 0;
  for (const std::size_t i : live) {
    const auto pricing_class = static_cast<std::size_t>(scratch.classes[i]);
    if (class_seen[pricing_class]) {
      live[kept++] = i;
      continue;
    }
    if (!Fits(*pool[i], type, used)) {
      continue;
    }
    class_seen[pricing_class] = true;
    const Money tnrp = calculator.SetTnrpPlusOne(scratch.members, *pool[i], type.family);
    if (best.candidate < 0 || tnrp > best.tnrp) {
      best.candidate = static_cast<int>(i);
      best.tnrp = tnrp;
      best.live_position = kept;
    }
    live[kept++] = i;
  }
  live.resize(kept);
  return best;
}

}  // namespace

void PackByReservationPriceInto(const SchedulingContext& context,
                                const TnrpCalculator& calculator,
                                std::vector<const TaskInfo*>& pool,
                                const PackingOptions& options, ConfigAppender& out) {
  // Deterministic candidate order: descending RP, then ascending id. The
  // argmax below breaks ties by this order, matching the VSBPP heuristic's
  // "largest ball first" intuition.
  SortTasksByRpDesc(calculator, pool);

  // Per-round scratch, pooled per (thread, nesting level): the packing runs
  // (at least) twice per changed round, and these grow-to-pool-size buffers
  // dominated its allocation profile.
  ScratchLease<PackScratch> scratch;
  std::vector<bool>& assigned = scratch->assigned;
  std::vector<const TaskInfo*>& members = scratch->members;
  std::vector<std::size_t>& member_indices = scratch->member_indices;
  std::vector<std::size_t>& type_slots = scratch->type_slots;
  std::vector<std::size_t>& live = scratch->live;
  assigned.assign(pool.size(), false);
  std::vector<int>& classes = scratch->classes;
  classes.resize(pool.size());
  int num_classes = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    classes[i] = calculator.PricingClass(*pool[i]);
    num_classes = std::max(num_classes, classes[i] + 1);
  }
  scratch->class_seen.assign(static_cast<std::size_t>(num_classes), false);
  std::size_t num_assigned = 0;
  const std::size_t pack_begin = out.used();

  for (int type_index : context.catalog->IndicesByDescendingCost()) {
    const InstanceType& type = context.catalog->Get(type_index);
    if (num_assigned == pool.size()) {
      break;
    }
    type_slots.clear();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!assigned[i] && Fits(*pool[i], type, ResourceVector())) {
        type_slots.push_back(i);
      }
    }
    while (true) {
      // Open a tentative instance of this type and fill it greedily.
      members.clear();
      member_indices.clear();
      ResourceVector used;
      Money best_set_tnrp = 0.0;
      type_slots.erase(std::remove_if(type_slots.begin(), type_slots.end(),
                                      [&](std::size_t i) { return assigned[i]; }),
                       type_slots.end());
      live.assign(type_slots.begin(), type_slots.end());

      while (true) {
        // Pick the unassigned, fitting task that maximizes TNRP(T + {tau}).
        const ArgmaxResult best = ScanCandidates(pool, *scratch, type, used, calculator);
        if (best.candidate < 0) {
          break;  // Nothing fits anymore.
        }
        if (!members.empty() && best.tnrp < best_set_tnrp) {
          break;  // Line 9-11: adding would reduce the set's TNRP.
        }
        const auto chosen = static_cast<std::size_t>(best.candidate);
        members.push_back(pool[chosen]);
        member_indices.push_back(chosen);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(best.live_position));
        used += pool[chosen]->DemandFor(type.family);
        best_set_tnrp = best.tnrp;
      }

      // Line 14: keep the instance only if the assignment is cost-efficient.
      const bool cost_efficient =
          !members.empty() &&
          best_set_tnrp + kCostEfficiencyEpsilon * type.cost_per_hour >= type.cost_per_hour;
      if (!cost_efficient) {
        break;  // Move on to the next cheaper instance type.
      }
      ConfigInstance& instance = out.Append();
      instance.type_index = type_index;
      for (const TaskInfo* member : members) {
        instance.tasks.push_back(member->id);
      }
      for (std::size_t index : member_indices) {
        assigned[index] = true;
      }
      num_assigned += member_indices.size();
    }
  }

  // Downsizing step of the VSBPP heuristic: a set that was filled on a large
  // type but fits a cheaper one moves there (e.g. two 2-GPU tasks packed
  // while iterating the 8-GPU type fit the 4-GPU type at half the price).
  if (options.shrink_to_cheapest_type) {
    for (std::size_t index = pack_begin; index < out.used(); ++index) {
      ConfigInstance& instance = out[index];
      members.clear();
      for (TaskId id : instance.tasks) {
        if (const TaskInfo* task = context.FindTask(id)) {
          members.push_back(task);
        }
      }
      // Pick the fitting type with the largest net value (TNRP - cost).
      // With homogeneous speedups this is simply the cheapest fitting type;
      // with §4.2's heterogeneous families it also weighs where the set
      // runs fastest per dollar.
      int best_type = instance.type_index;
      Money best_net =
          calculator.SetTnrp(members, context.catalog->Get(best_type).family) -
          context.catalog->Get(best_type).cost_per_hour;
      for (int k = 0; k < context.catalog->NumTypes(); ++k) {
        const InstanceType& type = context.catalog->Get(k);
        ResourceVector total;
        for (const TaskInfo* member : members) {
          total += member->DemandFor(type.family);
        }
        if (!total.FitsWithin(type.capacity)) {
          continue;
        }
        const Money net = calculator.SetTnrp(members, type.family) - type.cost_per_hour;
        if (net > best_net + 1e-12) {
          best_net = net;
          best_type = k;
        }
      }
      instance.type_index = best_type;
    }
  }

  // Safety net: the greedy pass can strand a task when a tentative set at
  // its reservation-price type failed the cost test as a group. Hosting the
  // task alone on its RP instance is cost-efficient by definition
  // (TNRP = RP = C_k with no co-location), so fall back to that.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (assigned[i]) {
      continue;
    }
    const std::optional<int> type_index = context.catalog->CheapestFitting(
        [task = pool[i]](InstanceFamily family) { return task->DemandFor(family); });
    if (!type_index.has_value()) {
      EVA_LOG_WARNING("task " EVA_PRId64 " fits no instance type; leaving unassigned",
                      pool[i]->id);
      continue;
    }
    ConfigInstance& instance = out.Append();
    instance.type_index = *type_index;
    instance.tasks.push_back(pool[i]->id);
  }
}

void FullReconfigurationInto(const SchedulingContext& context,
                             const TnrpCalculator& calculator,
                             const PackingOptions& options, ClusterConfig& out) {
  ScratchLease<PoolScratch> scratch;
  std::vector<const TaskInfo*>& pool = scratch->pool;
  pool.clear();
  pool.reserve(context.tasks.size());
  for (const TaskInfo& task : context.tasks) {
    pool.push_back(&task);
  }
  ConfigAppender appender(out.instances);
  PackByReservationPriceInto(context, calculator, pool, options, appender);
  appender.Finish();
}

ClusterConfig FullReconfiguration(const SchedulingContext& context,
                                  const TnrpCalculator& calculator,
                                  const PackingOptions& options) {
  ClusterConfig config;
  FullReconfigurationInto(context, calculator, options, config);
  return config;
}

}  // namespace eva
