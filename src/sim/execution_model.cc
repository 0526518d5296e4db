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
    dirty_.Insert(state_->tasks().at(task_id).job);
  }
}

void ExecutionModel::RefreshProgressingFlat() {
  if (!progressing_flat_stale_) {
    return;
  }
  progressing_flat_.assign(progressing_.begin(), progressing_.end());
  progressing_flat_stale_ = false;
}

void ExecutionModel::IntegrateWork(SimTime dt) {
  RefreshProgressingFlat();
  for (const auto& [job_id, job_ptr] : progressing_flat_) {
    JobRec& job = *job_ptr;
    job.remaining_work_s -= job.current_rate * dt;
    job.running_seconds += dt;
    if (job.remaining_work_s <= kWorkEpsilonS) {
      candidates_.insert(job_id);
    }
  }
}

SimTime ExecutionModel::RecomputeDirtyRates(SimTime now) {
  // Drain in ascending id order — the exact iteration order of the std::set
  // this flat buffer replaced. (Rates are recomputed independently per job,
  // but keeping the order identical keeps the engine trivially audit-equal.)
  std::vector<JobId>& dirty_ids = dirty_.mutable_items();
  std::sort(dirty_ids.begin(), dirty_ids.end());
  for (JobId job_id : dirty_ids) {
    if (!dirty_.Contains(job_id)) {
      continue;  // Erased (job deactivated) after being marked.
    }
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
      progressing_flat_stale_ |= progressing_.emplace(job_id, job).second;
    } else {
      progressing_flat_stale_ |= progressing_.erase(job_id) > 0;
    }
  }
  dirty_.Clear();

  // Project the earliest completion over everything still progressing. The
  // projection is refreshed every event (remaining work drifts as it is
  // integrated stepwise), matching a full rescan's arming decisions.
  //
  // Candidates are prefiltered by cross-multiplication to skip most per-job
  // divisions: remaining_j / rate_j exceeding the incumbent's quotient
  // implies (rounding is monotone) an ETA at or past the incumbent's, which
  // the first-wins min would discard anyway. The margin keeps the filter
  // conservative against multiply rounding; near-ties fall through to the
  // exact divide, so the returned value — and every arming decision
  // downstream — is bit-identical to the plain loop. With same-time
  // duplicate completion checks folded, the 10k-job trace runs this scan
  // ~73k times instead of ~10M; whether the prefilter still pays is
  // unmeasured.
  RefreshProgressingFlat();
  SimTime earliest = -1.0;
  double best_rem = 0.0;   // Incumbent's clamped remaining work.
  double best_rate = 0.0;  // Incumbent's rate (0 marks "no incumbent").
  for (const auto& [job_id, job_ptr] : progressing_flat_) {
    (void)job_id;
    const JobRec& job = *job_ptr;
    const double rem = std::max(job.remaining_work_s, 0.0);
    if (best_rate > 0.0 &&
        rem * best_rate > best_rem * job.current_rate * (1.0 + 1e-12)) {
      continue;  // Certainly no earlier than the incumbent.
    }
    const SimTime eta = now + rem / job.current_rate;
    if (earliest < 0.0 || eta < earliest) {
      earliest = eta;
      best_rem = rem;
      best_rate = job.current_rate;
    }
  }
  return earliest;
}

void ExecutionModel::OnJobDeactivated(JobId job) {
  progressing_flat_stale_ |= progressing_.erase(job) > 0;
  dirty_.EraseMembership(job);
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
