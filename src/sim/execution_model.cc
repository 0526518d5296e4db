#include "src/sim/execution_model.h"

#include <algorithm>

#include "src/common/rng.h"
#include "src/sched/observation.h"

namespace eva {

double ExecutionModel::TaskColocationFactor(const TaskRec& task) const {
  if (task.state != TaskState::kRunning) {
    return 0.0;
  }
  const InstRec* inst = state_->FindInstance(task.source);
  if (inst == nullptr) {
    return 0.0;
  }
  const InterferenceProfile mine = WorkloadRegistry::Get(task.workload).profile;
  double factor = 1.0;
  for (TaskId other_id : inst->present) {
    if (other_id == task.id) {
      continue;
    }
    // The pruning invariant guarantees present entries resolve; at() turns a
    // violation into a loud failure rather than phantom non-interference.
    const TaskRec& other = state_->tasks().at(other_id);
    if (other.state != TaskState::kRunning) {
      continue;  // A checkpointing neighbor no longer degrades us.
    }
    factor *= interference_->Pairwise(mine, WorkloadRegistry::Get(other.workload).profile);
  }
  return factor;
}

double ExecutionModel::TaskThroughput(const TaskRec& task) const {
  const double factor = TaskColocationFactor(task);
  if (factor <= 0.0) {
    return 0.0;
  }
  // Heterogeneous families (§4.2): the hosting family's relative speed
  // scales the task's progress; 1.0 in the homogeneous setting. The job
  // back-pointer spares a map lookup that would grow with the trace.
  const InstRec* inst = state_->FindInstance(task.source);
  double speedup = 1.0;
  if (inst != nullptr && task.job_ref != nullptr) {
    speedup = task.job_ref->spec.family_speedup[static_cast<std::size_t>(
        catalog_->Get(inst->type_index).family)];
  }
  return factor * speedup;
}

void ExecutionModel::MarkInstanceDirty(const InstRec& instance) {
  for (TaskId task_id : instance.present) {
    dirty_.push_back(state_->tasks().at(task_id).job);
  }
}

void ExecutionModel::IntegrateWork(SimTime dt) {
  for (const auto& [job_id, job_ptr] : progressing_) {
    JobRec& job = *job_ptr;
    job.remaining_work_s -= job.current_rate * dt;
    job.running_seconds += dt;
    if (job.remaining_work_s <= kWorkEpsilonS) {
      candidates_.insert(job_id);
    }
  }
}

SimTime ExecutionModel::RecomputeDirtyRates(SimTime now) {
  // Drain in ascending id order, skipping jobs that completed or were
  // dropped after being marked. (Rates are recomputed independently per
  // job, but a fixed order keeps the engine trivially audit-equal.)
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  for (JobId job_id : dirty_) {
    JobRec* job = state_->FindJob(job_id);
    if (job == nullptr || !job->active) {
      continue;
    }
    double rate = -1.0;
    bool all_running = true;
    for (TaskId task_id : job->tasks) {
      const TaskRec& task = state_->tasks().at(task_id);
      if (task.state != TaskState::kRunning) {
        all_running = false;
        break;
      }
      const double tput = TaskThroughput(task);
      rate = rate < 0.0 ? tput : std::min(rate, tput);
    }
    job->current_rate = all_running && rate > 0.0 ? rate : 0.0;
    if (job->current_rate > 0.0) {
      progressing_.emplace(job_id, job);
    } else {
      progressing_.erase(job_id);
    }
  }
  dirty_.clear();

  // Project the earliest completion over everything still progressing
  // (first wins among equal ETAs). The projection is refreshed every event
  // (remaining work drifts as it is integrated stepwise), matching a full
  // rescan's arming decisions.
  SimTime earliest = -1.0;
  for (const auto& [job_id, job] : progressing_) {
    (void)job_id;
    const SimTime eta = now + std::max(job->remaining_work_s, 0.0) / job->current_rate;
    if (earliest < 0.0 || eta < earliest) {
      earliest = eta;
    }
  }
  return earliest;
}

void ExecutionModel::OnJobDeactivated(JobId job) {
  progressing_.erase(job);
  candidates_.erase(job);
}

void ExecutionModel::OnJobAdded(const JobRec& job) {
  if (job.remaining_work_s <= kWorkEpsilonS) {
    candidates_.insert(job.spec.id);
  }
}

const std::vector<JobThroughputObservation>& ExecutionModel::CollectObservations(
    bool physical_mode, double noise_stddev, Rng* rng) const {
  ObservationBatch& batch = batch_;
  batch.Reset();
  batch.Reserve(progressing_.size());
  for (const auto& [job_id, job_ptr] : progressing_) {
    const JobRec& job = *job_ptr;
    // Report the co-location-only degradation (min over tasks), matching
    // what a per-iteration timer normalized by the family's standalone
    // speed would measure.
    double tput = 1.0;
    for (TaskId task_id : job.tasks) {
      tput = std::min(tput, TaskColocationFactor(state_->tasks().at(task_id)));
    }
    if (physical_mode) {
      tput = PerturbObservedThroughput(tput, *rng, noise_stddev);
    }
    batch.BeginJob(job_id, tput);
    for (TaskId task_id : job.tasks) {
      const TaskRec& task = state_->tasks().at(task_id);
      TaskPlacementObservation& placement = batch.AddTask(task.id, task.workload);
      if (const InstRec* inst = state_->FindInstance(task.source)) {
        for (TaskId other_id : inst->present) {
          if (other_id == task.id) {
            continue;
          }
          const TaskRec& other = state_->tasks().at(other_id);
          if (other.state == TaskState::kRunning) {
            placement.colocated.push_back(other.workload);
          }
        }
      }
    }
  }
  return batch.Finish();
}

}  // namespace eva
