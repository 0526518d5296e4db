#include "src/core/incremental_reconfig.h"

#include <algorithm>

#include "src/common/arena.h"
#include "src/common/logging.h"
#include "src/common/soa_table.h"

namespace eva {
namespace {

// Per-call scratch, leased per (thread, depth). The two membership sets are
// epoch-stamped columns over the dense task-id space: O(1) Clear, no
// per-insert node allocation.
struct IncrementalScratch {
  EpochColumn<char> retargeted;
  EpochColumn<char> kept_tasks;
  std::vector<const TaskInfo*> members;
  std::vector<const TaskInfo*> repack;
};

}  // namespace

IncrementalOutcome IncrementalReconfigurationInto(const SchedulingContext& context,
                                                  const TnrpCalculator& calculator,
                                                  const ClusterConfig& previous,
                                                  ClusterConfig& out) {
  EVA_CHECK(&out != &previous, "out must not alias previous");
  const RoundDelta& delta = context.delta;
  const std::size_t pool_size = std::max<std::size_t>(1, context.tasks.size());
  const bool oversized = static_cast<double>(delta.TouchedCount()) >
                         kFullRepackFraction * static_cast<double>(pool_size);
  if (!delta.complete || previous.instances.empty() || oversized) {
    FullReconfigurationInto(context, calculator, {}, out);
    return !delta.complete          ? IncrementalOutcome::kFullIncompleteDelta
           : previous.instances.empty() ? IncrementalOutcome::kFullNoPrevious
                                        : IncrementalOutcome::kFullOversizedDelta;
  }

  ScratchLease<IncrementalScratch> scratch;
  EpochColumn<char>& retargeted = scratch->retargeted;
  retargeted.Clear();
  for (TaskId id : delta.tasks_retargeted) {
    if (id >= 0) {
      retargeted.Touch(static_cast<std::size_t>(id)) = 1;
    }
  }

  ConfigAppender appender(out.instances);

  // Keep previous instances whose membership survived the delta untouched
  // and whose task set still covers its cost under the current estimates.
  EpochColumn<char>& kept_tasks = scratch->kept_tasks;
  kept_tasks.Clear();
  std::vector<const TaskInfo*>& members = scratch->members;
  for (const ConfigInstance& instance : previous.instances) {
    members.clear();
    bool touched = false;
    for (TaskId id : instance.tasks) {
      const TaskInfo* task = context.FindTask(id);
      if (task == nullptr || (id >= 0 && retargeted.Contains(static_cast<std::size_t>(id)))) {
        touched = true;  // Completed or migrated since last round.
        break;
      }
      members.push_back(task);
    }
    if (touched || members.empty()) {
      continue;  // Members (if any) fall through to the repack pool.
    }
    const InstanceType& type = context.catalog->Get(instance.type_index);
    const Money cost = type.cost_per_hour;
    if (calculator.SetTnrp(members, type.family) + kCostEfficiencyEpsilon * cost < cost) {
      continue;  // No longer cost-efficient; release and repack.
    }
    ConfigInstance& kept = appender.Append();
    kept.type_index = instance.type_index;
    kept.reuse_instance = instance.reuse_instance;
    kept.tasks = instance.tasks;
    // Pin the kept set to the instance actually hosting it, so the differ
    // cannot shuffle task sets between same-typed instances.
    const InstanceId common = members.front()->current_instance;
    if (common != kInvalidInstanceId) {
      bool all_same = true;
      for (const TaskInfo* member : members) {
        all_same = all_same && member->current_instance == common;
      }
      const InstanceInfo* host = all_same ? context.FindInstance(common) : nullptr;
      if (host != nullptr && host->type_index == instance.type_index) {
        kept.reuse_instance = common;
      }
    }
    for (TaskId id : kept.tasks) {
      if (id >= 0) {
        kept_tasks.Touch(static_cast<std::size_t>(id)) = 1;
      }
    }
  }

  // Everything not kept — arrivals, evictees of touched or inefficient
  // instances — goes through Algorithm 1's greedy.
  std::vector<const TaskInfo*>& repack = scratch->repack;
  repack.clear();
  for (const TaskInfo& task : context.tasks) {
    if (!kept_tasks.Contains(static_cast<std::size_t>(task.id))) {
      repack.push_back(&task);
    }
  }
  PackByReservationPriceInto(context, calculator, repack, {}, appender);
  appender.Finish();
  return IncrementalOutcome::kIncremental;
}

}  // namespace eva
