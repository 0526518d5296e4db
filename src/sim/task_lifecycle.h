// The task state machine: retargeting, container launch, checkpointing and
// job completion.
//
// Transitions mutate ClusterState, schedule the corresponding delayed events
// (versioned, so superseded transitions cancel in-flight ones), and mark the
// affected jobs dirty in the ExecutionModel. Keeping this machinery separate
// from the orchestrator makes the reconfiguration path — the paper's core
// subject — independently testable.
//
//   kPending ─Retarget→ kWaiting ─TryLaunch→ kLaunching ─OnLaunchDone→ kRunning
//   kRunning ─Retarget→ kCheckpointing ─OnCheckpointDone→ kWaiting → ...
//   kRunning ─Evict→ kCheckpointing (no target) ─OnCheckpointDone→ kPending
//   any ─CompleteJob→ kDone

#ifndef SRC_SIM_TASK_LIFECYCLE_H_
#define SRC_SIM_TASK_LIFECYCLE_H_

#include "src/sim/cluster_state.h"
#include "src/sim/event_queue.h"
#include "src/sim/execution_model.h"
#include "src/sim/metrics.h"

namespace eva {

class TaskLifecycle {
 public:
  TaskLifecycle(ClusterState* state, ExecutionModel* exec, EventQueue* queue,
                double migration_delay_multiplier)
      : state_(state),
        exec_(exec),
        queue_(queue),
        migration_delay_multiplier_(migration_delay_multiplier) {}

  // Points the task at a new destination instance and starts the migration
  // machinery appropriate for its current state (checkpoint if running,
  // launch if the destination is ready, park otherwise).
  void Retarget(TaskRec& task, InstanceId dest, SimTime now);

  // Starts the container launch if the task is waiting on a ready instance.
  void TryLaunch(TaskRec& task, SimTime now);

  // Eviction (a spot warning or a drain notice): detaches the task from its
  // target without a replacement. A running task checkpoints first
  // (kCheckpointing with no target; OnCheckpointDone parks it kPending);
  // waiting/launching tasks drop straight back to kPending. The next
  // scheduling round sees an unplaced task and re-places it.
  void Evict(TaskRec& task, SimTime now);

  // Delayed-event completions; stale versions are ignored by the caller
  // (the orchestrator guards before dispatching here). OnLaunchDone stamps
  // `running_since = now` — the fault accounting's lost-work baseline.
  void OnCheckpointDone(TaskRec& task, SimTime now);
  void OnLaunchDone(TaskRec& task, SimTime now);

  // Finishes a job: deactivates it, records JCT, detaches every task
  // (pruning presence/assignment so no stale colocation entry survives) and
  // terminates instances left empty.
  void CompleteJob(JobRec& job, SimTime now, SimulationMetrics& metrics);

  SimTime CheckpointDelay(const TaskRec& task) const {
    return WorkloadRegistry::Get(task.workload).checkpoint_delay_s *
           migration_delay_multiplier_;
  }
  SimTime LaunchDelay(const TaskRec& task) const {
    return WorkloadRegistry::Get(task.workload).launch_delay_s * migration_delay_multiplier_;
  }

 private:
  // Shared checkpoint-start sequence of Retarget (migration) and Evict:
  // version bump (cancelling in-flight events), kCheckpointing, neighbor
  // dirty-mark, delayed completion event.
  void StartCheckpoint(TaskRec& task, SimTime now);

  ClusterState* state_;
  ExecutionModel* exec_;
  EventQueue* queue_;
  double migration_delay_multiplier_;
};

}  // namespace eva

#endif  // SRC_SIM_TASK_LIFECYCLE_H_
