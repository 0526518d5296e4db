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
};

// Pooled per-round packing scratch, leased per (thread, nesting level) via
// the codebase's one sanctioned thread-local scratch mechanism (see
// common/arena.h); the downsizing step reuses `members` once the greedy
// pass is done with it.
struct PackScratch {
  std::vector<bool> assigned;
  std::vector<bool> in_tentative_set;
  std::vector<const TaskInfo*> members;
  std::vector<std::size_t> member_indices;
  std::vector<int> classes;      // Pricing class per pool slot.
  std::vector<bool> class_seen;  // Per scan: a fitting candidate had the class.
};

// Caller-facing entry points' pool-building scratch.
struct PoolScratch {
  std::vector<const TaskInfo*> pool;
};

// Argmax over the pool: the unassigned, fitting task whose addition
// maximizes TNRP(members + {task}); earliest index wins exact ties (the `>`
// below). A candidate prices as its pricing class, so once one candidate of
// a class has been priced, later ones of that class tie and lose: they are
// skipped unpriced. The class ignores demands, so it is marked only after
// the candidate passes Fits.
ArgmaxResult ScanCandidates(const std::vector<const TaskInfo*>& pool, PackScratch& scratch,
                            const InstanceType& type, const ResourceVector& used,
                            const TnrpCalculator& calculator) {
  std::vector<bool>& class_seen = scratch.class_seen;
  std::fill(class_seen.begin(), class_seen.end(), false);
  ArgmaxResult best;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (scratch.assigned[i] || scratch.in_tentative_set[i] || !Fits(*pool[i], type, used)) {
      continue;
    }
    const auto pricing_class = static_cast<std::size_t>(scratch.classes[i]);
    if (class_seen[pricing_class]) {
      continue;
    }
    class_seen[pricing_class] = true;
    const Money tnrp = calculator.SetTnrpPlusOne(scratch.members, *pool[i], type.family);
    if (best.candidate < 0 || tnrp > best.tnrp) {
      best.candidate = static_cast<int>(i);
      best.tnrp = tnrp;
    }
  }
  return best;
}

}  // namespace

void PackByReservationPriceInto(const SchedulingContext& context,
                                const TnrpCalculator& calculator,
                                std::vector<const TaskInfo*>& pool,
                                const PackingOptions& options, ConfigAppender& out,
                                std::vector<TaskId>* unassigned) {
  // Deterministic candidate order: descending RP, then ascending id. The
  // argmax below breaks ties by this order, matching the VSBPP heuristic's
  // "largest ball first" intuition.
  SortTasksByRpDesc(calculator, pool);

  // Per-round scratch, pooled per (thread, nesting level): the packing runs
  // (at least) twice per changed round, and these grow-to-pool-size buffers
  // dominated its allocation profile.
  ScratchLease<PackScratch> scratch;
  std::vector<bool>& assigned = scratch->assigned;
  std::vector<bool>& in_tentative_set = scratch->in_tentative_set;
  std::vector<const TaskInfo*>& members = scratch->members;
  std::vector<std::size_t>& member_indices = scratch->member_indices;
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
    // Marks pool members tentatively placed on the instance being filled,
    // so the argmax never re-selects a task already in T.
    in_tentative_set.assign(pool.size(), false);
    while (true) {
      // Open a tentative instance of this type and fill it greedily.
      members.clear();
      member_indices.clear();
      ResourceVector used;
      Money best_set_tnrp = 0.0;
      std::fill(in_tentative_set.begin(), in_tentative_set.end(), false);

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
        in_tentative_set[chosen] = true;
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
    if (!options.assign_leftovers_standalone) {
      if (unassigned != nullptr) {
        unassigned->push_back(pool[i]->id);
      }
      continue;
    }
    const std::optional<int> type_index = context.catalog->CheapestFitting(
        [task = pool[i]](InstanceFamily family) { return task->DemandFor(family); });
    if (!type_index.has_value()) {
      EVA_LOG_WARNING("task " EVA_PRId64 " fits no instance type; leaving unassigned",
                      pool[i]->id);
      if (unassigned != nullptr) {
        unassigned->push_back(pool[i]->id);
      }
      continue;
    }
    ConfigInstance& instance = out.Append();
    instance.type_index = *type_index;
    instance.tasks.push_back(pool[i]->id);
  }
}

PackingResult PackByReservationPrice(const SchedulingContext& context,
                                     const TnrpCalculator& calculator,
                                     std::vector<const TaskInfo*> pool,
                                     const PackingOptions& options) {
  PackingResult result;
  ConfigAppender out(result.instances);
  PackByReservationPriceInto(context, calculator, pool, options, out,
                             &result.unassigned);
  out.Finish();
  return result;
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
  PackByReservationPriceInto(context, calculator, pool, options, appender,
                             /*unassigned=*/nullptr);
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
