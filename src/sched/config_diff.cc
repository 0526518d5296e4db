#include "src/sched/config_diff.h"

#include <algorithm>
#include <utility>

#include "src/cloud/delays.h"
#include "src/common/arena.h"
#include "src/common/soa_table.h"

namespace eva {
namespace {

// Greedy-matching candidate pair (pass 2).
struct Candidate {
  int overlap;
  std::size_t config_index;
  InstanceId existing_id;
};

// Per-call scratch, leased per (thread, depth) so the buckets/capacity
// survive across the thousands of per-round calls — the codebase's one
// sanctioned thread-local scratch mechanism (see common/arena.h).
// `bound_existing` is an epoch-stamped membership column (instance ids are
// dense and sequential): Clear() is O(1) and inserts allocate nothing at
// steady state, where the unordered_set it replaces allocated a node per
// bound instance per diff.
struct DiffScratch {
  EpochColumn<char> bound_existing;
  std::vector<Candidate> candidates;
  std::vector<TaskId> wanted_tasks;
};

}  // namespace

int ConfigDiff::NumLaunches() const {
  int count = 0;
  for (const Binding& binding : bindings) {
    if (binding.existing_id == kInvalidInstanceId) {
      ++count;
    }
  }
  return count;
}

int ConfigDiff::NumMigrations() const {
  int count = 0;
  for (const Move& move : moves) {
    if (move.from_instance != kInvalidInstanceId) {
      ++count;
    }
  }
  return count;
}

ConfigDiff DiffConfig(const SchedulingContext& context, const ClusterConfig& desired) {
  ConfigDiff diff;
  DiffConfigInto(context, desired, diff);
  return diff;
}

void DiffConfigInto(const SchedulingContext& context, const ClusterConfig& desired,
                    ConfigDiff& out) {
  ConfigDiff& diff = out;
  diff.bindings.resize(desired.instances.size());
  diff.terminate.clear();
  diff.moves.clear();

  ScratchLease<DiffScratch> scratch;
  EpochColumn<char>& bound_existing = scratch->bound_existing;
  bound_existing.Clear();

  // Pass 1: honor explicit reuse requests.
  for (std::size_t i = 0; i < desired.instances.size(); ++i) {
    const ConfigInstance& want = desired.instances[i];
    ConfigDiff::Binding& binding = diff.bindings[i];
    binding.config_index = static_cast<int>(i);
    binding.type_index = want.type_index;
    binding.existing_id = kInvalidInstanceId;  // Reused slots carry stale ids.
    binding.tasks = want.tasks;
    if (want.reuse_instance == kInvalidInstanceId) {
      continue;
    }
    const InstanceInfo* existing = context.FindInstance(want.reuse_instance);
    if (existing != nullptr && existing->type_index == want.type_index &&
        !bound_existing.Contains(static_cast<std::size_t>(existing->id))) {
      binding.existing_id = existing->id;
      bound_existing.Touch(static_cast<std::size_t>(existing->id)) = 1;
    }
  }

  // Pass 2: greedy same-type matching by descending task overlap. Candidate
  // pairs are enumerated once and sorted so the result is deterministic.
  std::vector<Candidate>& candidates = scratch->candidates;
  candidates.clear();
  candidates.reserve(desired.instances.size());
  std::vector<TaskId>& wanted_tasks = scratch->wanted_tasks;  // Sorted scratch.
  for (std::size_t i = 0; i < desired.instances.size(); ++i) {
    if (diff.bindings[i].existing_id != kInvalidInstanceId) {
      continue;
    }
    const ConfigInstance& want = desired.instances[i];
    wanted_tasks.assign(want.tasks.begin(), want.tasks.end());
    std::sort(wanted_tasks.begin(), wanted_tasks.end());
    for (const InstanceInfo& existing : context.instances) {
      if (existing.type_index != want.type_index || bound_existing.Contains(static_cast<std::size_t>(existing.id))) {
        continue;
      }
      int overlap = 0;
      for (TaskId task : existing.tasks) {
        if (std::binary_search(wanted_tasks.begin(), wanted_tasks.end(), task)) {
          ++overlap;
        }
      }
      candidates.push_back({overlap, i, existing.id});
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.overlap != b.overlap) {
      return a.overlap > b.overlap;
    }
    if (a.config_index != b.config_index) {
      return a.config_index < b.config_index;
    }
    return a.existing_id < b.existing_id;
  });
  for (const Candidate& candidate : candidates) {
    ConfigDiff::Binding& binding = diff.bindings[candidate.config_index];
    if (binding.existing_id != kInvalidInstanceId || bound_existing.Contains(static_cast<std::size_t>(candidate.existing_id))) {
      continue;
    }
    binding.existing_id = candidate.existing_id;
    bound_existing.Touch(static_cast<std::size_t>(candidate.existing_id)) = 1;
  }

  // Terminate every running instance that was not bound.
  for (const InstanceInfo& existing : context.instances) {
    if (!bound_existing.Contains(static_cast<std::size_t>(existing.id))) {
      diff.terminate.push_back(existing.id);
    }
  }

  // Task moves: any task whose bound destination differs from its current
  // instance.
  for (std::size_t i = 0; i < diff.bindings.size(); ++i) {
    const ConfigDiff::Binding& binding = diff.bindings[i];
    for (TaskId task_id : binding.tasks) {
      const TaskInfo* task = context.FindTask(task_id);
      if (task == nullptr) {
        continue;
      }
      const bool stays = binding.existing_id != kInvalidInstanceId &&
                         task->current_instance == binding.existing_id;
      if (!stays) {
        diff.moves.push_back({task_id, task->current_instance, static_cast<int>(i)});
      }
    }
  }
}

namespace {

// Canonical instance keys for ConfigEditDistance: (type, sorted task set),
// themselves sorted, so the symmetric difference is one merge walk.
void CanonicalInstanceKeys(const ClusterConfig& config,
                           std::vector<std::pair<int, std::vector<TaskId>>>& keys) {
  keys.clear();
  keys.reserve(config.instances.size());
  for (const ConfigInstance& instance : config.instances) {
    keys.emplace_back(instance.type_index, instance.tasks);
    std::sort(keys.back().second.begin(), keys.back().second.end());
  }
  std::sort(keys.begin(), keys.end());
}

}  // namespace

int ConfigEditDistance(const ClusterConfig& a, const ClusterConfig& b) {
  ScratchLease<std::vector<std::pair<int, std::vector<TaskId>>>> keys_a;
  ScratchLease<std::vector<std::pair<int, std::vector<TaskId>>>> keys_b;
  CanonicalInstanceKeys(a, *keys_a);
  CanonicalInstanceKeys(b, *keys_b);
  int distance = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < keys_a->size() && j < keys_b->size()) {
    const auto& ka = (*keys_a)[i];
    const auto& kb = (*keys_b)[j];
    if (ka == kb) {
      ++i;
      ++j;
    } else if (ka < kb) {
      ++distance;
      ++i;
    } else {
      ++distance;
      ++j;
    }
  }
  distance += static_cast<int>((keys_a->size() - i) + (keys_b->size() - j));
  return distance;
}

Money EstimateMigrationCost(const SchedulingContext& context, const ConfigDiff& diff,
                            double migration_delay_multiplier) {
  Money total = 0.0;
  const SimTime provisioning_s = ProvisioningDelay(nullptr);
  for (const ConfigDiff::Binding& binding : diff.bindings) {
    if (binding.existing_id == kInvalidInstanceId) {
      const Money rate = context.catalog->Get(binding.type_index).cost_per_hour;
      total += CostForUptime(rate, provisioning_s);
    }
  }
  for (const ConfigDiff::Move& move : diff.moves) {
    const TaskInfo* task = context.FindTask(move.task);
    if (task == nullptr) {
      continue;
    }
    const WorkloadSpec& workload = WorkloadRegistry::Get(task->workload);
    SimTime delay_s = workload.launch_delay_s;
    if (move.from_instance != kInvalidInstanceId) {
      delay_s += workload.checkpoint_delay_s;
    }
    delay_s *= migration_delay_multiplier;
    const ConfigDiff::Binding& binding =
        diff.bindings[static_cast<std::size_t>(move.to_binding)];
    const Money rate = context.catalog->Get(binding.type_index).cost_per_hour;
    total += CostForUptime(rate, delay_s);
  }
  return total;
}

}  // namespace eva
