#include "src/sched/types.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/arena.h"

namespace eva {

namespace {

// Ids past this bound (or negative) are indexed through the hash fallbacks;
// the flat arrays stay proportional to the real id universe.
constexpr std::int64_t kMaxFlatIndexId = std::int64_t{1} << 22;

bool FlatEligible(std::int64_t id) { return id >= 0 && id < kMaxFlatIndexId; }

}  // namespace

void SchedulingContext::Finalize() {
  // O(1) expiry of the previous round's entries (epoch bump; the column
  // handles the 2^32 wrap internally).
  task_flat_.Clear();
  instance_flat_.Clear();
  job_size_flat_.Clear();
  task_index_.clear();
  instance_index_.clear();
  job_size_.clear();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (FlatEligible(tasks[i].id)) {
      task_flat_.Set(static_cast<std::size_t>(tasks[i].id),
                     static_cast<std::uint32_t>(i));
    } else {
      task_index_[tasks[i].id] = i;
    }
    const JobId job = tasks[i].job;
    if (FlatEligible(job)) {
      if (std::uint32_t* count = job_size_flat_.Find(static_cast<std::size_t>(job))) {
        ++*count;
      } else {
        job_size_flat_.Set(static_cast<std::size_t>(job), 1);
      }
    } else {
      ++job_size_[job];
    }
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (FlatEligible(instances[i].id)) {
      instance_flat_.Set(static_cast<std::size_t>(instances[i].id),
                         static_cast<std::uint32_t>(i));
    } else {
      instance_index_[instances[i].id] = i;
    }
  }
}

const TaskInfo* SchedulingContext::FindTask(TaskId id) const {
  if (FlatEligible(id)) {
    const std::uint32_t* pos = task_flat_.Find(static_cast<std::size_t>(id));
    return pos != nullptr ? &tasks[*pos] : nullptr;
  }
  const auto it = task_index_.find(id);
  return it == task_index_.end() ? nullptr : &tasks[it->second];
}

const InstanceInfo* SchedulingContext::FindInstance(InstanceId id) const {
  if (FlatEligible(id)) {
    const std::uint32_t* pos = instance_flat_.Find(static_cast<std::size_t>(id));
    return pos != nullptr ? &instances[*pos] : nullptr;
  }
  const auto it = instance_index_.find(id);
  return it == instance_index_.end() ? nullptr : &instances[it->second];
}

int SchedulingContext::JobSize(JobId job) const {
  if (FlatEligible(job)) {
    const std::uint32_t* count = job_size_flat_.Find(static_cast<std::size_t>(job));
    return count != nullptr ? static_cast<int>(*count) : 0;
  }
  const auto it = job_size_.find(job);
  return it == job_size_.end() ? 0 : it->second;
}

Money ClusterConfig::HourlyCost(const InstanceCatalog& catalog) const {
  Money total = 0.0;
  for (const ConfigInstance& instance : instances) {
    total += catalog.Get(instance.type_index).cost_per_hour;
  }
  return total;
}

std::optional<std::string> ClusterConfig::Validate(const SchedulingContext& context) const {
  // Flat scratch instead of a node-per-insert set: Validate runs every
  // round, and the duplicate probe must not allocate on the happy path.
  // Ids are collected during the scan and duplicate-checked with one
  // sort + adjacent_find at the end — O(n log n) with no mid-vector
  // insertion, which matters at the 50k/100k-job sweep scale. Leased per
  // (thread, depth) via the sanctioned scratch mechanism (common/arena.h).
  ScratchLease<std::vector<TaskId>> lease;
  std::vector<TaskId>& seen = *lease;
  seen.clear();
  for (const ConfigInstance& instance : instances) {
    if (instance.type_index < 0 || instance.type_index >= context.catalog->NumTypes()) {
      return "invalid instance type index " + std::to_string(instance.type_index);
    }
    const InstanceType& type = context.catalog->Get(instance.type_index);
    ResourceVector used;
    for (TaskId task_id : instance.tasks) {
      seen.push_back(task_id);
      const TaskInfo* task = context.FindTask(task_id);
      if (task == nullptr) {
        return "unknown task " + std::to_string(task_id);
      }
      used += task->DemandFor(type.family);
    }
    if (!used.FitsWithin(type.capacity)) {
      return "capacity exceeded on " + type.name + ": " + used.ToString() + " > " +
             type.capacity.ToString();
    }
  }
  std::sort(seen.begin(), seen.end());
  const auto dup = std::adjacent_find(seen.begin(), seen.end());
  if (dup != seen.end()) {
    return "task " + std::to_string(*dup) + " assigned to multiple instances";
  }
  return std::nullopt;
}

}  // namespace eva
