#include "src/sim/cluster_state.h"

#include <algorithm>
#include <cassert>

#include "src/common/stats.h"

namespace eva {
namespace {

void SortUnique(std::vector<std::int64_t>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

ClusterState::ClusterState(const InstanceCatalog& catalog) : catalog_(catalog) {}

JobRec* ClusterState::FindJob(JobId id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

const JobRec* ClusterState::FindJob(JobId id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

TaskRec* ClusterState::FindTask(TaskId id) { return tasks_.Find(id); }

InstRec* ClusterState::FindInstance(InstanceId id) {
  const auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : &it->second;
}

const InstRec* ClusterState::FindInstance(InstanceId id) const {
  const auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : &it->second;
}

JobRec& ClusterState::AddJob(const JobSpec& spec) {
  JobRec& job = jobs_[spec.id];
  job = JobRec{};  // Ids are unique in practice; replace like the old insert.
  job.spec = spec;
  job.active = true;
  job.remaining_work_s = spec.duration_s;
  for (int i = 0; i < spec.num_tasks; ++i) {
    const TaskId task_id = next_task_id_++;
    TaskRec& task = tasks_.Emplace(task_id);
    task.id = task_id;
    task.job = spec.id;
    task.workload = spec.workload;
    task.job_ref = &job;  // Map nodes are pointer-stable.
    job.tasks.push_back(task_id);
  }
  active_.insert(spec.id);
  active_task_count_ += spec.num_tasks;
  round_delta_.jobs_arrived.push_back(spec.id);
  return job;
}

void ClusterState::DeactivateJob(JobRec& job, SimTime now) {
  job.active = false;
  job.completion_time = now;
  job.current_rate = 0.0;
  active_.erase(job.spec.id);
  active_task_count_ -= job.spec.num_tasks;
  round_delta_.jobs_completed.push_back(job.spec.id);
}

void ClusterState::RetireJob(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.active) {
    return;
  }
  const JobRec& job = it->second;
  completed_.push_back({id, job.spec.arrival_time_s, job.completion_time,
                        job.running_seconds, job.spec.duration_s});
  for (TaskId task_id : job.tasks) {
    tasks_.Erase(task_id);
  }
  jobs_.erase(it);
}

InstRec& ClusterState::CreateInstance(int type_index, SimTime launch_time, SimTime ready_time) {
  InstRec instance;
  instance.id = next_instance_id_++;
  instance.type_index = type_index;
  instance.launch_time = launch_time;
  instance.ready_time = ready_time;
  ++instances_launched_;
  composition_dirty_ = true;  // Capacity changed; allocation did not (empty).
  round_delta_.instances_launched.push_back(instance.id);
  return instances_[instance.id] = std::move(instance);
}

void ClusterState::Condemn(InstanceId id) {
  if (InstRec* instance = FindInstance(id)) {
    instance->condemned = true;
  }
}

void ClusterState::AccrueTerminated(const InstRec& instance, SimTime now) {
  const SimTime uptime = std::max(now - instance.launch_time, 0.0);
  if (end_fn_) {
    total_cost_ +=
        end_fn_(instance.type_index, instance.launch_time, instance.launch_time + uptime);
  } else {
    total_cost_ += CostForUptime(catalog_.Get(instance.type_index).cost_per_hour, uptime);
  }
  uptime_hours_.push_back(SecondsToHours(uptime));
}

bool ClusterState::MaybeTerminate(InstanceId id, SimTime now) {
  const auto it = instances_.find(id);
  if (it == instances_.end()) {
    return false;
  }
  InstRec& instance = it->second;
  if (!instance.condemned || !instance.assigned.empty() || !instance.present.empty()) {
    return false;
  }
  AccrueTerminated(instance, now);
  composition_dirty_ = true;  // An empty instance: allocation unchanged.
  round_delta_.instances_terminated.push_back(id);
  instances_.erase(it);
  return true;
}

void ClusterState::TerminateAllLive(SimTime now) {
  for (auto& [id, instance] : instances_) {
    AccrueTerminated(instance, now);
    round_delta_.instances_terminated.push_back(id);
  }
  instances_.clear();
  composition_dirty_ = true;
  alloc_dirty_ = true;  // Aborted runs can terminate occupied instances.
}

void ClusterState::MarkAssignmentChanged(InstanceId instance_id) {
  if (InstRec* instance = FindInstance(instance_id)) {
    instance->demands_dirty = true;
  }
  composition_dirty_ = true;
  alloc_dirty_ = true;
}

void ClusterState::SetTarget(TaskRec& task, InstanceId dest) {
  if (task.target != kInvalidInstanceId) {
    if (InstRec* old_target = FindInstance(task.target)) {
      old_target->assigned.erase(task.id);
    }
    MarkAssignmentChanged(task.target);
  }
  task.target = dest;
  instances_.at(dest).assigned.insert(task.id);
  MarkAssignmentChanged(dest);
  round_delta_.tasks_retargeted.push_back(task.id);
}

void ClusterState::ClearTarget(TaskRec& task) {
  if (task.target == kInvalidInstanceId) {
    return;
  }
  if (InstRec* target = FindInstance(task.target)) {
    target->assigned.erase(task.id);
  }
  MarkAssignmentChanged(task.target);
  task.target = kInvalidInstanceId;
  round_delta_.tasks_retargeted.push_back(task.id);
}

void ClusterState::PlaceContainer(TaskRec& task) {
  task.source = task.target;
  instances_.at(task.source).present.insert(task.id);
}

InstanceId ClusterState::RemoveContainer(TaskRec& task) {
  const InstanceId source_id = task.source;
  if (source_id != kInvalidInstanceId) {
    if (InstRec* source = FindInstance(source_id)) {
      source->present.erase(task.id);
    }
    task.source = kInvalidInstanceId;
  }
  return source_id;
}

ClusterState::DetachResult ClusterState::MarkTaskDone(TaskRec& task) {
  ++task.version;
  if (task.source != kInvalidInstanceId) {
    if (InstRec* source = FindInstance(task.source)) {
      source->present.erase(task.id);
    }
  }
  if (task.target != kInvalidInstanceId) {
    if (InstRec* target = FindInstance(task.target)) {
      target->assigned.erase(task.id);
    }
    MarkAssignmentChanged(task.target);
  }
  const DetachResult detached{task.source, task.target};
  task.source = kInvalidInstanceId;
  task.target = kInvalidInstanceId;
  task.state = TaskState::kDone;
  return detached;
}

void ClusterState::RefreshCompositionSums() {
  // Capacities and assigned-task counts are integral, so their sums are
  // exact in any order. Allocation sums can be fractional, so that fold
  // must replicate the original global order (instances ascending by id,
  // members ascending by task id) to stay bit-identical — only the per-task
  // demand lookups are cached away, rebuilt just for instances whose
  // assignment changed.
  for (int r = 0; r < kNumResources; ++r) {
    cached_cap_[r] = 0.0;
    if (alloc_dirty_) {
      cached_alloc_[r] = 0.0;
    }
  }
  cached_assigned_tasks_ = 0.0;
  for (auto& [inst_id, instance] : instances_) {
    (void)inst_id;
    const InstanceType& type = catalog_.Get(instance.type_index);
    for (int r = 0; r < kNumResources; ++r) {
      cached_cap_[r] += type.capacity.Get(static_cast<Resource>(r));
    }
    cached_assigned_tasks_ += static_cast<double>(instance.assigned.size());
    if (!alloc_dirty_) {
      continue;
    }
    if (instance.demands_dirty) {
      instance.member_demands.clear();
      for (TaskId task_id : instance.assigned) {
        const TaskRec* task = tasks_.Find(task_id);
        if (task == nullptr || task->job_ref == nullptr) {
          continue;
        }
        instance.member_demands.push_back(task->job_ref->spec.DemandFor(type.family));
      }
      instance.demands_dirty = false;
    }
    for (const ResourceVector& demand : instance.member_demands) {
      for (int r = 0; r < kNumResources; ++r) {
        cached_alloc_[r] += demand.Get(static_cast<Resource>(r));
      }
    }
  }
  alloc_dirty_ = false;
  composition_dirty_ = false;
}

void ClusterState::IntegrateTo(SimTime dt) {
  if (composition_dirty_) {
    RefreshCompositionSums();
  }
  for (int r = 0; r < kNumResources; ++r) {
    cap_seconds_[r] += cached_cap_[r] * dt;
    alloc_seconds_[r] += cached_alloc_[r] * dt;
  }
  instance_seconds_ += static_cast<double>(instances_.size()) * dt;
  task_instance_seconds_ += cached_assigned_tasks_ * dt;
}

void ClusterState::FillContext(SimTime now, SchedulingContext& context) const {
  context.tasks.clear();
  context.delta.Clear();
  context.throughput = nullptr;
  context.now_s = now;
  context.catalog = &catalog_;
  context.tasks.reserve(static_cast<std::size_t>(active_task_count_));
  context.instances.reserve(instances_.size());
  for (JobId job_id : active_) {
    const JobRec& job = jobs_.at(job_id);
    for (TaskId task_id : job.tasks) {
      const TaskRec& task = tasks_.at(task_id);
      TaskInfo info;
      info.id = task.id;
      info.job = task.job;
      info.workload = task.workload;
      info.demand_p3 = job.spec.demand_p3;
      info.demand_cpu = job.spec.demand_cpu;
      info.family_speedup = job.spec.family_speedup;
      info.current_instance = task.target;
      info.remaining_work_s = job.remaining_work_s;
      context.tasks.push_back(std::move(info));
    }
  }
  // Instances are written into the existing slots (assign reuses each
  // slot's task-vector capacity) and trimmed at the end — clear() +
  // push_back would destroy and reallocate every per-instance task vector
  // each round.
  std::size_t used = 0;
  for (const auto& [inst_id, instance] : instances_) {
    (void)inst_id;
    if (instance.condemned) {
      continue;
    }
    if (used == context.instances.size()) {
      context.instances.emplace_back();
    }
    InstanceInfo& info = context.instances[used++];
    info.id = instance.id;
    info.type_index = instance.type_index;
    info.tasks.assign(instance.assigned.begin(), instance.assigned.end());
  }
  context.instances.resize(used);
  context.Finalize();
}

void ClusterState::DrainRoundDelta(RoundDelta& out) {
  const auto drain = [](std::vector<std::int64_t>& from, std::vector<std::int64_t>& to) {
    to.assign(from.begin(), from.end());
    from.clear();
    SortUnique(to);
  };
  drain(round_delta_.jobs_arrived, out.jobs_arrived);
  drain(round_delta_.jobs_completed, out.jobs_completed);
  drain(round_delta_.tasks_retargeted, out.tasks_retargeted);
  drain(round_delta_.instances_launched, out.instances_launched);
  drain(round_delta_.instances_terminated, out.instances_terminated);
  out.complete = true;
}

void ClusterState::FinalizeMetrics(SimulationMetrics& metrics) const {
  metrics.total_cost = total_cost_;
  metrics.instances_launched = instances_launched_;
  metrics.instance_uptime_hours = uptime_hours_;
  metrics.avg_tasks_per_instance =
      instance_seconds_ > 0.0 ? task_instance_seconds_ / instance_seconds_ : 0.0;
  metrics.avg_alloc_gpu = cap_seconds_[0] > 0.0 ? alloc_seconds_[0] / cap_seconds_[0] : 0.0;
  metrics.avg_alloc_cpu = cap_seconds_[1] > 0.0 ? alloc_seconds_[1] / cap_seconds_[1] : 0.0;
  metrics.avg_alloc_ram = cap_seconds_[2] > 0.0 ? alloc_seconds_[2] / cap_seconds_[2] : 0.0;

  // Merge the retired-job archive with any completed-but-unretired jobs
  // still in the map (callers driving ClusterState directly), then fold in
  // ascending id order — the exact iteration order (and therefore the exact
  // floating-point sums) of the old keep-every-job jobs_ scan.
  std::vector<CompletedJob> completed = completed_;
  for (const auto& [job_id, job] : jobs_) {
    if (job.active) {
      continue;  // Aborted runs can leave unfinished jobs; skip them.
    }
    completed.push_back({job_id, job.spec.arrival_time_s, job.completion_time,
                         job.running_seconds, job.spec.duration_s});
  }
  std::sort(completed.begin(), completed.end(),
            [](const CompletedJob& a, const CompletedJob& b) { return a.id < b.id; });
  RunningStats jct;
  RunningStats tput;
  RunningStats idle;
  for (const CompletedJob& job : completed) {
    jct.Add(SecondsToHours(job.completion_time - job.arrival_time_s));
    if (job.running_seconds > 0.0) {
      tput.Add(job.duration_s / job.running_seconds);
    }
    idle.Add(SecondsToHours((job.completion_time - job.arrival_time_s) -
                            job.running_seconds));
  }
  metrics.avg_jct_hours = jct.mean();
  metrics.avg_norm_job_throughput = tput.mean();
  metrics.avg_job_idle_hours = idle.mean();
}

double ClusterState::TotalRunningSeconds() const {
  // Both folds walk ascending-id containers, so the floating-point sum is
  // deterministic.
  double total = 0.0;
  for (const CompletedJob& job : completed_) {
    total += job.running_seconds;
  }
  for (const auto& [job_id, job] : jobs_) {
    (void)job_id;
    total += job.running_seconds;
  }
  return total;
}

}  // namespace eva
