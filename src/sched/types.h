// Scheduler-facing types: what a scheduler sees (SchedulingContext) and what
// it returns (ClusterConfig).
//
// The simulator builds a context each scheduling period (§3); a scheduler
// returns the desired cluster configuration — the number of instances, the
// type of each instance, and the task-to-instance assignment. The simulator
// then diffs the desired configuration against the running cluster and
// issues launch/terminate/migrate actions.

#ifndef SRC_SCHED_TYPES_H_
#define SRC_SCHED_TYPES_H_

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/cloud/instance_type.h"
#include "src/common/resources.h"
#include "src/common/soa_table.h"
#include "src/common/units.h"
#include "src/obs/stat_schema.h"
#include "src/workload/workload.h"

namespace eva {

class ThroughputEstimator;

// A task as visible to schedulers.
struct TaskInfo {
  TaskId id = kInvalidTaskId;
  JobId job = kInvalidJobId;
  WorkloadId workload = kInvalidWorkloadId;
  ResourceVector demand_p3;
  ResourceVector demand_cpu;

  // Relative per-iteration speed of this task on each instance family
  // (§4.2 "Generalizability to Heterogeneous Resources"): e.g. a CPU job
  // that runs 1.5x faster on C7i's higher-frequency cores. 1.0 everywhere
  // means the homogeneous model used in the paper's main evaluation.
  std::array<double, kNumInstanceFamilies> family_speedup = {1.0, 1.0, 1.0};

  double SpeedupOn(InstanceFamily family) const {
    return family_speedup[static_cast<std::size_t>(family)];
  }

  // Instance currently hosting the task, or kInvalidInstanceId if the task
  // has not been placed yet (recently submitted).
  InstanceId current_instance = kInvalidInstanceId;

  // Remaining standalone work in seconds, if the scheduler has been granted
  // runtime estimates (Stratus's best case is evaluated with perfect
  // estimates, §6.1). Negative when unknown.
  SimTime remaining_work_s = -1.0;

  const ResourceVector& DemandFor(InstanceFamily family) const {
    return family == InstanceFamily::kP3 ? demand_p3 : demand_cpu;
  }
};

// A provisioned (or provisioning) instance as visible to schedulers.
struct InstanceInfo {
  InstanceId id = kInvalidInstanceId;
  int type_index = -1;
  std::vector<TaskId> tasks;
};

// What changed in the cluster since the previous scheduling round. Produced
// by the simulator (ClusterState accumulates it as mutations happen, O(1)
// per event) and, in a real deployment, by the master from the runtime's
// arrival/completion/placement notifications. Schedulers use it to scope
// incremental work: memoized-TNRP invalidation, delta-touched repacking,
// and skipping recomputation entirely on quiescent rounds. `complete` is
// false when the producer cannot enumerate the changes (e.g. a context
// assembled by hand); consumers must then assume everything changed.
struct RoundDelta {
  bool complete = false;
  std::vector<JobId> jobs_arrived;
  std::vector<JobId> jobs_completed;
  std::vector<TaskId> tasks_retargeted;  // Target instance changed.
  std::vector<InstanceId> instances_launched;
  std::vector<InstanceId> instances_terminated;

  bool Empty() const {
    return jobs_arrived.empty() && jobs_completed.empty() && tasks_retargeted.empty() &&
           instances_launched.empty() && instances_terminated.empty();
  }

  // Number of changed entities — the magnitude incremental consumers
  // compare against their full-recompute thresholds.
  std::size_t TouchedCount() const {
    return jobs_arrived.size() + jobs_completed.size() + tasks_retargeted.size() +
           instances_launched.size() + instances_terminated.size();
  }

  void Clear() {
    complete = false;
    jobs_arrived.clear();
    jobs_completed.clear();
    tasks_retargeted.clear();
    instances_launched.clear();
    instances_terminated.clear();
  }
};

// Snapshot handed to Scheduler::Schedule each period.
class SchedulingContext {
 public:
  SimTime now_s = 0.0;
  const InstanceCatalog* catalog = nullptr;

  // Changes since the previous round (see RoundDelta). Default-constructed
  // (complete == false) when the producer does not track deltas.
  RoundDelta delta;

  // Throughput estimates the scheduler is entitled to. For Eva this is the
  // learned co-location table; for Owl it is the offline profile (the paper
  // grants Owl the full pairwise profile); may be null for throughput-
  // oblivious schedulers.
  const ThroughputEstimator* throughput = nullptr;

  std::vector<TaskInfo> tasks;
  std::vector<InstanceInfo> instances;

  // Must be called after populating tasks/instances; builds lookup indices.
  void Finalize();

  const TaskInfo* FindTask(TaskId id) const;
  const InstanceInfo* FindInstance(InstanceId id) const;

  // Number of tasks in the given job.
  int JobSize(JobId job) const;

 private:
  // Epoch-stamped flat indices for the dense id universe the simulator
  // produces (sequential task/job/instance ids). Finalize() Clear()s the
  // columns, so the previous round's entries expire in O(1) — the
  // unordered_map rebuild this replaces allocated a node per task per live
  // round. Ids outside the flat envelope fall back to the hash maps
  // (hand-built contexts); the columns grow amortized to the largest id
  // seen and persist across Finalize calls.
  EpochColumn<std::uint32_t> task_flat_;      // id -> position in tasks.
  EpochColumn<std::uint32_t> instance_flat_;  // id -> position in instances.
  EpochColumn<std::uint32_t> job_size_flat_;  // job id -> task count.
  std::unordered_map<TaskId, std::size_t> task_index_;  // Sparse-id fallbacks.
  std::unordered_map<InstanceId, std::size_t> instance_index_;
  std::unordered_map<JobId, int> job_size_;
};

// One desired instance in a configuration.
struct ConfigInstance {
  int type_index = -1;

  // When set, the scheduler asks to keep this existing instance (Partial
  // Reconfiguration and the incremental baselines set this). When unset,
  // the simulator's differ may still match the entry to a running instance
  // of the same type to avoid needless churn.
  InstanceId reuse_instance = kInvalidInstanceId;

  std::vector<TaskId> tasks;
};

// The desired cluster configuration. Tasks not mentioned anywhere are
// treated as intentionally unscheduled (left pending).
struct ClusterConfig {
  std::vector<ConfigInstance> instances;

  Money HourlyCost(const InstanceCatalog& catalog) const;

  // Verifies structural invariants: valid type indices, no task assigned
  // twice, and per-instance demands within capacity. Returns an error
  // description, or nullopt if valid.
  std::optional<std::string> Validate(const SchedulingContext& context) const;
};

// Decision-path counters a scheduler exports at the end of a run (see
// Scheduler::ExportCounters); the simulator copies them into
// SimulationMetrics, which publishes them as "scheduler.*". All zero for
// schedulers that don't override the export — only Eva populates them
// today: its round memo's accounting, and the incremental fast path's
// pack/fallback/reconciliation accounting. One field list (see
// obs/stat_schema.h).
#define EVA_SCHEDULER_COUNTER_FIELDS(X)                                        \
  /* How each round's Full candidate was produced: exact Algorithm 1 packs,    \
     delta-touched incremental repacks, and exact packs forced by the          \
     escalation policy. */                                                     \
  X(int, packs_full, 0, kCounter, kSum)                                        \
  X(int, packs_incremental, 0, kCounter, kSum)                                 \
  X(int, packs_escalated, 0, kCounter, kSum)                                   \
  /* Bounded-divergence reconciliation: exact repacks run alongside the        \
     incremental incumbent, measured and adopted. */                           \
  X(int, reconciliations, 0, kCounter, kSum)                                   \
  /* Escalation episodes (the policy latching to exact mode), as opposed to    \
     packs_escalated which counts the packs run while latched. */              \
  X(int, escalations, 0, kCounter, kSum)                                       \
  /* Why incremental packs fell back to a full repack. */                      \
  X(int, fallback_incomplete_delta, 0, kCounter, kSum)                         \
  X(int, fallback_oversized_delta, 0, kCounter, kSum)                          \
  X(int, fallback_no_previous, 0, kCounter, kSum)                              \
  /* Divergence measured at reconciliations: relative hourly-cost delta of     \
     the incremental incumbent vs the exact repack, and the config edit        \
     distance between them (see ConfigEditDistance). */                        \
  X(double, last_divergence_cost, 0.0, kGauge, kLast)                          \
  X(double, max_divergence_cost, 0.0, kGauge, kMax)                            \
  X(int, last_divergence_edits, 0, kCounter, kLast)                            \
  X(int, max_divergence_edits, 0, kCounter, kMax)                              \
  /* Largest number of packs any configuration ran unreconciled — the          \
     realized staleness bound (<= the reconciliation cadence). */              \
  X(int, max_kept_staleness, 0, kCounter, kMax)                                \
  /* Round memo: rounds decided, rounds adopting Full, and job arrivals plus   \
     completions seen. */                                                      \
  X(int, rounds, 0, kCounter, kSum)                                            \
  X(int, full_adopted, 0, kCounter, kSum)                                      \
  X(int, events_seen, 0, kCounter, kSum)                                       \
  /* Rounds replayed from the memo, and why the others were not: the           \
     throughput table changed, or the task set, placements or instances        \
     did. */                                                                   \
  X(int, rounds_reused, 0, kCounter, kSum)                                     \
  X(int, reuse_miss_table, 0, kCounter, kSum)                                  \
  X(int, reuse_miss_context, 0, kCounter, kSum)                                \
  /* Subset of rounds_reused absorbed via CoalesceQuiescentRounds — rounds     \
     for which the scheduler was never even invoked. */                        \
  X(int, rounds_coalesced, 0, kCounter, kSum)

struct SchedulerCounters {
  EVA_SCHEDULER_COUNTER_FIELDS(EVA_STAT_MEMBER)
  EVA_STAT_SCHEMA(SchedulerCounters, "scheduler", EVA_SCHEDULER_COUNTER_FIELDS)
};

}  // namespace eva

#endif  // SRC_SCHED_TYPES_H_
