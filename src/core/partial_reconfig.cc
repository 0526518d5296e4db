#include "src/core/partial_reconfig.h"

#include "src/common/arena.h"

namespace eva {
namespace {

// Per-call scratch, leased per (thread, depth): Partial Reconfiguration runs
// every changed round.
struct PartialScratch {
  std::vector<const TaskInfo*> pool;
  std::vector<const TaskInfo*> members;
};

}  // namespace

void PartialReconfigurationInto(const SchedulingContext& context,
                                const TnrpCalculator& calculator,
                                const PackingOptions& options, ClusterConfig& out) {
  ScratchLease<PartialScratch> scratch;
  std::vector<const TaskInfo*>& pool = scratch->pool;
  std::vector<const TaskInfo*>& members = scratch->members;
  pool.clear();
  ConfigAppender appender(out.instances);

  // (a) Unassigned tasks from recently submitted jobs.
  for (const TaskInfo& task : context.tasks) {
    if (task.current_instance == kInvalidInstanceId) {
      pool.push_back(&task);
    }
  }

  // (b) Tasks on instances that are no longer cost-efficient; those
  // instances are released. Every other instance is kept unchanged.
  for (const InstanceInfo& instance : context.instances) {
    members.clear();
    for (TaskId task_id : instance.tasks) {
      if (const TaskInfo* task = context.FindTask(task_id)) {
        members.push_back(task);
      }
    }
    const InstanceType& type = context.catalog->Get(instance.type_index);
    const Money cost = type.cost_per_hour;
    const bool cost_efficient =
        !members.empty() &&
        calculator.SetTnrp(members, type.family) + kCostEfficiencyEpsilon * cost >= cost;
    if (cost_efficient) {
      ConfigInstance& kept = appender.Append();
      kept.type_index = instance.type_index;
      kept.reuse_instance = instance.id;
      kept.tasks = instance.tasks;
    } else {
      for (const TaskInfo* member : members) {
        pool.push_back(member);
      }
    }
  }

  PackByReservationPriceInto(context, calculator, pool, options, appender);
  appender.Finish();
}

ClusterConfig PartialReconfiguration(const SchedulingContext& context,
                                     const TnrpCalculator& calculator,
                                     const PackingOptions& options) {
  ClusterConfig config;
  PartialReconfigurationInto(context, calculator, options, config);
  return config;
}

}  // namespace eva
