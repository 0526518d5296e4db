// Diffing a desired ClusterConfig against the running cluster.
//
// Schedulers express *what* the cluster should look like; this differ
// decides the cheapest way to get there: which running instances to keep
// (possibly with a different task set), which to terminate, which new ones
// to launch, and which tasks migrate. Both the simulator (to apply a
// configuration) and Eva's decision criterion (to price migration overhead,
// §4.5) use it, so the two always agree on what a reconfiguration entails.

#ifndef SRC_SCHED_CONFIG_DIFF_H_
#define SRC_SCHED_CONFIG_DIFF_H_

#include <vector>

#include "src/sched/types.h"

namespace eva {

struct ConfigDiff {
  // One desired instance bound to either an existing instance (existing_id
  // valid) or a fresh launch (existing_id == kInvalidInstanceId).
  struct Binding {
    int config_index = -1;  // Index into ClusterConfig::instances.
    int type_index = -1;
    InstanceId existing_id = kInvalidInstanceId;
    std::vector<TaskId> tasks;
  };

  // A task changing instances (from_instance may be kInvalidInstanceId for
  // a first placement, which costs a launch but no checkpoint).
  struct Move {
    TaskId task = kInvalidTaskId;
    InstanceId from_instance = kInvalidInstanceId;
    int to_binding = -1;  // Index into `bindings`.
  };

  std::vector<Binding> bindings;
  std::vector<InstanceId> terminate;  // Running instances not in the config.
  std::vector<Move> moves;

  int NumLaunches() const;
  int NumMigrations() const;  // Moves with a valid source instance.
};

// Computes the diff. Binding preference order:
//   1. explicit reuse_instance requests (honored when type matches),
//   2. greedy same-type matching by descending task overlap,
//   3. remaining same-type instances (avoids a launch even with 0 overlap),
//   4. fresh launches.
ConfigDiff DiffConfig(const SchedulingContext& context, const ClusterConfig& desired);

// Same computation into caller-owned storage, rewriting `out` in place so
// its vectors' capacity is reused — the per-round fast path for callers
// that diff every round (the simulator's apply, Eva's migration pricing).
void DiffConfigInto(const SchedulingContext& context, const ClusterConfig& desired,
                    ConfigDiff& out);

// Estimated dollar cost of executing the diff (§4.5's M term): for every
// migrated task, checkpoint + launch delays priced at the destination
// instance's hourly rate, scaled by `migration_delay_multiplier`; for every
// fresh launch, the Table 1 mean provisioning delay priced at the new
// instance's rate. First placements of new tasks price only the launch
// delay (no checkpoint).
Money EstimateMigrationCost(const SchedulingContext& context, const ConfigDiff& diff,
                            double migration_delay_multiplier);

// Edit distance between two configurations, counted in instances: the
// number of instances present in one config but not the other, where two
// instances match iff they have the same type and the same task set
// (order-insensitive; reuse_instance hints are ignored — they steer the
// differ, not the configuration's semantics). Zero iff the configs describe
// the same placement. Used to measure how far the incremental incumbent
// drifted from the exact repack at reconciliation.
int ConfigEditDistance(const ClusterConfig& a, const ClusterConfig& b);

}  // namespace eva

#endif  // SRC_SCHED_CONFIG_DIFF_H_
