// Mutable cluster state for the simulator: jobs, tasks and instances, plus
// the time-weighted capacity/allocation integrals the paper's tables report.
//
// All mutations go through the methods below, which maintain the invariants
// the rest of the engine relies on:
//   * an instance's `present` set contains exactly the tasks whose container
//     lives on it (states kRunning / kCheckpointing) — terminal transitions
//     prune it, so colocation lookups can never see a stale entry;
//   * the composition sums IntegrateTo() integrates are cached and re-summed
//     in one pass over the live instances only after a mutation. Capacities
//     and assigned-task counts are integral, so their sums are exact in any
//     order;
//   * the allocation sums may involve fractional demands, whose floating-
//     point folds are order-sensitive — they are therefore recomputed with
//     the exact same global instance-id-order fold as always, but over
//     per-instance cached demand vectors (rebuilt only for instances whose
//     assignment changed), eliminating the per-task map lookups of a full
//     rescan while reproducing its results bit-for-bit;
//   * every mutation is also accumulated into a RoundDelta (O(1) per
//     event), which the simulator hands to the scheduler each round so the
//     decision layer can be delta-incremental too.

#ifndef SRC_SIM_CLUSTER_STATE_H_
#define SRC_SIM_CLUSTER_STATE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/cloud/instance_type.h"
#include "src/common/soa_table.h"
#include "src/common/resources.h"
#include "src/common/units.h"
#include "src/sched/types.h"
#include "src/sim/metrics.h"
#include "src/workload/job.h"

namespace eva {

enum class TaskState {
  kPending,        // Arrived, never placed.
  kWaiting,        // Assigned, waiting for the target instance to be ready.
  kLaunching,      // Container starting on the target instance.
  kRunning,        // Executing.
  kCheckpointing,  // Stopping on the source instance before a migration.
  kDone,
};

struct JobRec;

struct TaskRec {
  TaskId id = kInvalidTaskId;
  JobId job = kInvalidJobId;
  WorkloadId workload = kInvalidWorkloadId;
  TaskState state = TaskState::kPending;
  InstanceId target = kInvalidInstanceId;  // Assigned destination.
  InstanceId source = kInvalidInstanceId;  // Where the container lives now.
  int version = 0;                         // Guards in-flight events.

  // When the current container started executing (-1 when it never has) —
  // the fault accounting's lost-work baseline for abruptly destroyed
  // containers. Stamped by TaskLifecycle::OnLaunchDone.
  SimTime running_since = -1.0;

  // Owning job record (map nodes are pointer-stable). Saves the hot
  // execution-model paths a per-event map lookup that would grow with the
  // trace; valid for the task's whole lifetime (tasks are retired together
  // with their job).
  JobRec* job_ref = nullptr;
};

struct JobRec {
  JobSpec spec;
  std::vector<TaskId> tasks;
  bool active = false;
  SimTime remaining_work_s = 0.0;
  SimTime running_seconds = 0.0;
  SimTime completion_time = 0.0;
  double current_rate = 0.0;  // Normalized throughput while fully running.
};

struct InstRec {
  InstanceId id = kInvalidInstanceId;
  int type_index = -1;
  bool ready = false;
  bool condemned = false;
  SimTime launch_time = 0.0;
  SimTime ready_time = 0.0;

  // Fault injection: the availability zone this instance was placed in (a
  // pure hash at launch; 0 when faults are off) — zone outages and drains
  // select victims by it.
  int zone = 0;
  // Flat sorted id sets (identical iteration order to the std::sets they
  // replaced): per-event retarget/migration churn mutates these, and set
  // node allocation dominated the engine's per-event allocation count.
  IdSet<TaskId> assigned;  // Tasks targeted at this instance.
  IdSet<TaskId> present;   // Containers physically on this instance.

  // Demand vectors of `assigned`, in set (id) order, on this instance's
  // family — the allocation integral's operands, cached so the global fold
  // needs no map lookups. Rebuilt lazily when `demands_dirty`.
  std::vector<ResourceVector> member_demands;
  bool demands_dirty = true;
};

class ClusterState {
 public:
  explicit ClusterState(const InstanceCatalog& catalog);

  // --- Lookup -----------------------------------------------------------
  const std::map<JobId, JobRec>& jobs() const { return jobs_; }
  // Paged table (O(1) hot-path lookups, stable record pointers, one
  // allocation per page instead of per task); iterates ascending by id.
  const PagedTable<TaskRec, TaskId>& tasks() const { return tasks_; }
  const std::map<InstanceId, InstRec>& instances() const { return instances_; }
  const std::set<JobId>& active_jobs() const { return active_; }
  int num_active() const { return static_cast<int>(active_.size()); }
  bool HasLiveInstances() const { return !instances_.empty(); }

  JobRec* FindJob(JobId id);
  const JobRec* FindJob(JobId id) const;
  TaskRec* FindTask(TaskId id);
  InstRec* FindInstance(InstanceId id);
  const InstRec* FindInstance(InstanceId id) const;

  // --- Jobs and tasks ---------------------------------------------------
  // Creates the job record plus one TaskRec per task; the job starts active
  // with its full standalone duration as remaining work.
  JobRec& AddJob(const JobSpec& spec);

  // active -> false; records the completion time, zeroes the rate.
  void DeactivateJob(JobRec& job, SimTime now);

  // Retires a completed job: folds its completion statistics into the
  // archive FinalizeMetrics consumes and erases the job and task records, so
  // the hot-path maps stay O(active) instead of O(total trace) on large
  // traces. Requires the job to be inactive with every task detached
  // (kDone). Invalidates all references to the job and its tasks.
  void RetireJob(JobId id);

  // --- Instance lifecycle -----------------------------------------------
  InstRec& CreateInstance(int type_index, SimTime launch_time, SimTime ready_time);
  void Condemn(InstanceId id);

  // Terminates the instance iff it is condemned with no assigned or present
  // tasks: accumulates its cost + uptime and erases it. Returns true if the
  // instance was terminated.
  bool MaybeTerminate(InstanceId id, SimTime now);

  // End-of-run cleanup: pay for everything still alive.
  void TerminateAllLive(SimTime now);

  // --- Assignment and container presence --------------------------------
  // Points `task` at `dest`: removes it from the previous target's assigned
  // set (if any) and inserts it into dest's. Does not change task state.
  void SetTarget(TaskRec& task, InstanceId dest);

  // Detaches `task` from its target without assigning a new one (spot
  // eviction): removed from the target's assigned set, target cleared,
  // recorded in the round delta. No-op for unassigned tasks.
  void ClearTarget(TaskRec& task);

  // The container lands on the task's target: source = target, present +=.
  void PlaceContainer(TaskRec& task);

  // The container leaves its source instance (checkpoint finished):
  // present -=, source cleared. Returns the former source id.
  InstanceId RemoveContainer(TaskRec& task);

  // Terminal transition: bumps the version (cancelling in-flight events),
  // prunes the task from both the present and assigned sets, clears
  // source/target and marks the task kDone. Returns {source, target} as they
  // were, for the caller's instance-termination sweep.
  struct DetachResult {
    InstanceId source = kInvalidInstanceId;
    InstanceId target = kInvalidInstanceId;
  };
  DetachResult MarkTaskDone(TaskRec& task);

  // --- Time integration --------------------------------------------------
  // Accumulates capacity/allocation/instance-count integrals over dt using
  // the cached composition sums (recomputed lazily after a mutation).
  void IntegrateTo(SimTime dt);

  // --- Outputs ------------------------------------------------------------
  // Snapshot handed to Scheduler::Schedule (active jobs' tasks + live,
  // non-condemned instances), in deterministic id order.
  // Every task carries its job's exact remaining work (the paper grants
  // Stratus its best case; other schedulers ignore it). Written into a
  // caller-owned context, reusing its vectors' capacity and its index maps'
  // buckets (a fresh context allocates a dozen containers every round).
  void FillContext(SimTime now, SchedulingContext& context) const;

  // Drains the changes accumulated since the previous call (O(delta)) into
  // `out`: entries are deduplicated and sorted, complete is set. `out` is
  // rewritten in place (capacity reused) and the accumulator keeps its
  // buffers, so neither side allocates at steady state. The simulator
  // attaches the result to the round's SchedulingContext.
  void DrainRoundDelta(RoundDelta& out);

  // Whether anything has accumulated since the last DrainRoundDelta — the
  // O(1) emptiness probe the quiescence-aware round trigger uses (an empty
  // delta need not be drained: taking it would yield the same empty result).
  bool HasPendingDelta() const { return !round_delta_.Empty(); }

  // Fills cost, uptime distribution, instance counters, the time-weighted
  // table metrics and the completed-job JCT/throughput/idle averages.
  void FinalizeMetrics(SimulationMetrics& metrics) const;

  // Total executing seconds accumulated so far — retired jobs' archives
  // plus live jobs' running tallies. The fault accounting's goodput
  // denominator (executed work; lost work is tracked by MarketEvents).
  double TotalRunningSeconds() const;

  // --- Cloud provider hook -----------------------------------------------
  // Invoked whenever an instance's [launch, end] lifetime ends
  // (MaybeTerminate and TerminateAllLive) and returns its cost: the
  // provider's capacity-release channel and custom pricing (the spot tier's
  // time-varying trace). Unset (the default): CostForUptime(catalog hourly
  // price, uptime) — the exact original expression, bit-for-bit.
  using InstanceEndFn = std::function<Money(int type_index, SimTime launch, SimTime end)>;
  void set_instance_end_fn(InstanceEndFn fn) { end_fn_ = std::move(fn); }

 private:
  void MarkAssignmentChanged(InstanceId instance_id);
  void RefreshCompositionSums();

  // Shared tail of every termination path: accrues cost (through the end
  // hook when set) and the uptime sample.
  void AccrueTerminated(const InstRec& instance, SimTime now);

  const InstanceCatalog& catalog_;

  std::map<JobId, JobRec> jobs_;             // Live (not yet retired).
  PagedTable<TaskRec, TaskId> tasks_;        // Live (not yet retired).
  std::map<InstanceId, InstRec> instances_;  // Live (provisioning/ready).
  std::set<JobId> active_;
  int active_task_count_ = 0;  // Sum of num_tasks over active_ (context size).
  TaskId next_task_id_ = 0;
  InstanceId next_instance_id_ = 0;

  // Completion statistics of retired jobs, in retirement (completion)
  // order; FinalizeMetrics re-sorts by id so the statistics fold in the
  // exact order the old keep-everything jobs_ iteration used.
  struct CompletedJob {
    JobId id = kInvalidJobId;
    SimTime arrival_time_s = 0.0;
    SimTime completion_time = 0.0;
    SimTime running_seconds = 0.0;
    SimTime duration_s = 0.0;
  };
  std::vector<CompletedJob> completed_;

  // The composition sums IntegrateTo consumes. `composition_dirty_` forces
  // the capacity/count re-sum; `alloc_dirty_` also forces the allocation
  // refold (set only when an assignment changes, not when an empty instance
  // launches or terminates).
  bool composition_dirty_ = true;
  bool alloc_dirty_ = true;
  double cached_cap_[kNumResources] = {0, 0, 0};
  double cached_alloc_[kNumResources] = {0, 0, 0};
  double cached_assigned_tasks_ = 0.0;

  RoundDelta round_delta_;

  InstanceEndFn end_fn_;

  // Metric accumulators.
  std::int64_t instances_launched_ = 0;
  Money total_cost_ = 0.0;
  std::vector<double> uptime_hours_;
  double instance_seconds_ = 0.0;       // integral of #live instances dt
  double task_instance_seconds_ = 0.0;  // integral of sum(assigned) dt
  double cap_seconds_[kNumResources] = {0, 0, 0};
  double alloc_seconds_[kNumResources] = {0, 0, 0};
};

}  // namespace eva

#endif  // SRC_SIM_CLUSTER_STATE_H_
