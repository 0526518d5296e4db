#include "src/core/eva_scheduler.h"

#include <gtest/gtest.h>

#include <set>

namespace eva {
namespace {

class EvaSchedulerTest : public testing::Test {
 protected:
  EvaSchedulerTest() : catalog_(InstanceCatalog::AwsDefault()) {
    context_.catalog = &catalog_;
  }

  TaskId AddTask(WorkloadId workload, JobId job, InstanceId on = kInvalidInstanceId) {
    TaskInfo task;
    task.id = next_task_id_++;
    task.job = job;
    task.workload = workload;
    const WorkloadSpec& spec = WorkloadRegistry::Get(workload);
    task.demand_p3 = spec.demand_p3;
    task.demand_cpu = spec.demand_cpu;
    task.current_instance = on;
    context_.tasks.push_back(task);
    return task.id;
  }

  InstanceCatalog catalog_;
  SchedulingContext context_;
  TaskId next_task_id_ = 0;
};

TEST_F(EvaSchedulerTest, EmptyContextYieldsEmptyConfig) {
  context_.Finalize();
  EvaScheduler scheduler;
  EXPECT_TRUE(scheduler.Schedule(context_).instances.empty());
  EXPECT_EQ(scheduler.stats().rounds, 1);
}

TEST_F(EvaSchedulerTest, CoversAllTasks) {
  const WorkloadId vit = WorkloadRegistry::IdOf("ViT");
  AddTask(vit, 1);
  AddTask(vit, 2);
  AddTask(WorkloadRegistry::IdOf("GCN"), 3);
  context_.Finalize();
  EvaScheduler scheduler;
  const ClusterConfig config = scheduler.Schedule(context_);
  EXPECT_FALSE(config.Validate(context_).has_value());
  std::set<TaskId> seen;
  for (const ConfigInstance& instance : config.instances) {
    seen.insert(instance.tasks.begin(), instance.tasks.end());
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST_F(EvaSchedulerTest, PacksCompatibleGpuJobs) {
  const WorkloadId vit = WorkloadRegistry::IdOf("ViT");
  AddTask(vit, 1);
  AddTask(vit, 2);
  context_.Finalize();
  EvaScheduler scheduler;
  const ClusterConfig config = scheduler.Schedule(context_);
  ASSERT_EQ(config.instances.size(), 1u);
  EXPECT_EQ(catalog_.Get(config.instances[0].type_index).name, "p3.8xlarge");
}

TEST_F(EvaSchedulerTest, EventCountingTracksArrivalsAndCompletions) {
  EvaScheduler scheduler;
  context_.Finalize();
  context_.now_s = 0;
  scheduler.Schedule(context_);
  AddTask(WorkloadRegistry::IdOf("GCN"), 1);
  AddTask(WorkloadRegistry::IdOf("A3C"), 2);
  context_.Finalize();
  context_.now_s = 300;
  scheduler.Schedule(context_);
  EXPECT_EQ(scheduler.stats().events_seen, 2);  // Two arrivals.
  context_.tasks.clear();
  context_.Finalize();
  context_.now_s = 600;
  scheduler.Schedule(context_);
  EXPECT_EQ(scheduler.stats().events_seen, 4);  // Plus two completions.
}

TEST_F(EvaSchedulerTest, ObservationsFeedTheTable) {
  EvaScheduler scheduler;
  JobThroughputObservation observation;
  observation.job = 1;
  observation.normalized_throughput = 0.77;
  TaskPlacementObservation placement;
  placement.task = 0;
  placement.workload = 2;
  placement.colocated = {5};
  observation.tasks.push_back(placement);
  scheduler.ObserveThroughput({observation});
  const auto entry = scheduler.throughput_table().Lookup(2, {5});
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(*entry, 0.77);
}

TEST_F(EvaSchedulerTest, QuiescentClusterKeepsConfiguration) {
  // A packed, cost-efficient cluster with no events: Eva must not migrate.
  const WorkloadId vit = WorkloadRegistry::IdOf("ViT");
  const TaskId a = AddTask(vit, 1, 100);
  const TaskId b = AddTask(vit, 2, 100);
  InstanceInfo instance;
  instance.id = 100;
  instance.type_index = catalog_.IndexOf("p3.8xlarge");
  instance.tasks = {a, b};
  context_.instances.push_back(instance);
  context_.Finalize();
  EvaScheduler scheduler;
  const ClusterConfig config = scheduler.Schedule(context_);
  ASSERT_EQ(config.instances.size(), 1u);
  EXPECT_EQ(config.instances[0].reuse_instance, 100);
}

TEST_F(EvaSchedulerTest, FullOnlyPolicyAlwaysAdoptsFull) {
  EvaOptions options;
  options.policy = EvaOptions::Policy::kFullOnly;
  EvaScheduler scheduler(options);
  AddTask(WorkloadRegistry::IdOf("GCN"), 1);
  context_.Finalize();
  scheduler.Schedule(context_);
  EXPECT_EQ(scheduler.stats().full_adopted, 1);
}

TEST_F(EvaSchedulerTest, PartialOnlyPolicyNeverAdoptsFull) {
  EvaOptions options;
  options.policy = EvaOptions::Policy::kPartialOnly;
  EvaScheduler scheduler(options);
  AddTask(WorkloadRegistry::IdOf("GCN"), 1);
  context_.Finalize();
  scheduler.Schedule(context_);
  EXPECT_EQ(scheduler.stats().full_adopted, 0);
}

TEST_F(EvaSchedulerTest, NamesReflectConfiguration) {
  EXPECT_EQ(EvaScheduler().name(), "Eva");
  EvaOptions rp;
  rp.tnrp.interference_aware = false;
  EXPECT_EQ(EvaScheduler(rp).name(), "Eva-RP");
  EvaOptions single;
  single.tnrp.multi_task_aware = false;
  EXPECT_EQ(EvaScheduler(single).name(), "Eva-Single");
  EvaOptions full;
  full.policy = EvaOptions::Policy::kFullOnly;
  EXPECT_EQ(EvaScheduler(full).name(), "Eva (Full only)");
  EvaOptions partial;
  partial.policy = EvaOptions::Policy::kPartialOnly;
  EXPECT_EQ(EvaScheduler(partial).name(), "Eva (w/o Full)");
}

TEST_F(EvaSchedulerTest, UnchangedRoundsReplayTheMemoBitForBit) {
  const WorkloadId vit = WorkloadRegistry::IdOf("ViT");
  AddTask(vit, 1);
  AddTask(vit, 2);
  AddTask(WorkloadRegistry::IdOf("GCN"), 3);
  context_.Finalize();

  EvaOptions memo_on;
  EvaOptions memo_off;
  memo_off.reuse_unchanged_rounds = false;
  EvaScheduler with_memo(memo_on);
  EvaScheduler without_memo(memo_off);

  const auto same_config = [](const ClusterConfig& a, const ClusterConfig& b) {
    ASSERT_EQ(a.instances.size(), b.instances.size());
    for (std::size_t i = 0; i < a.instances.size(); ++i) {
      EXPECT_EQ(a.instances[i].type_index, b.instances[i].type_index);
      EXPECT_EQ(a.instances[i].reuse_instance, b.instances[i].reuse_instance);
      EXPECT_EQ(a.instances[i].tasks, b.instances[i].tasks);
    }
  };

  // Several rounds over the same context (only now_s and the runtime
  // estimates change, which the memo must ignore): both schedulers return
  // identical configurations, and the memoized one recomputes only once.
  for (int round = 0; round < 4; ++round) {
    context_.now_s = 300.0 * round;
    for (TaskInfo& task : context_.tasks) {
      task.remaining_work_s = 10'000.0 - 100.0 * round;
    }
    same_config(with_memo.Schedule(context_), without_memo.Schedule(context_));
  }
  EXPECT_EQ(with_memo.stats().rounds_reused, 3);
  EXPECT_EQ(without_memo.stats().rounds_reused, 0);

  // A context change (arrival) invalidates the memo.
  AddTask(vit, 4);
  context_.Finalize();
  context_.now_s = 1500.0;
  same_config(with_memo.Schedule(context_), without_memo.Schedule(context_));
  EXPECT_EQ(with_memo.stats().rounds_reused, 3);
  EXPECT_EQ(with_memo.stats().reuse_miss_context, 1);

  // A throughput observation that changes the table also invalidates it.
  JobThroughputObservation observation;
  observation.job = 1;
  observation.normalized_throughput = 0.8;
  TaskPlacementObservation placement;
  placement.task = 0;
  placement.workload = vit;
  placement.colocated = {vit};
  observation.tasks.push_back(placement);
  with_memo.ObserveThroughput({observation});
  without_memo.ObserveThroughput({observation});
  context_.now_s = 1800.0;
  same_config(with_memo.Schedule(context_), without_memo.Schedule(context_));
  EXPECT_EQ(with_memo.stats().reuse_miss_table, 1);
}

TEST_F(EvaSchedulerTest, IncrementalPackingCoversAllTasksAndValidates) {
  EvaOptions options;
  options.incremental_packing = EvaOptions::IncrementalPacking::kOn;
  EvaScheduler scheduler(options);

  const WorkloadId vit = WorkloadRegistry::IdOf("ViT");
  const WorkloadId gcn = WorkloadRegistry::IdOf("GCN");
  for (JobId job = 1; job <= 5; ++job) {
    AddTask(job % 2 == 0 ? gcn : vit, job);
  }
  context_.Finalize();
  context_.delta.complete = true;
  context_.delta.jobs_arrived = {1, 2, 3, 4, 5};
  ClusterConfig config = scheduler.Schedule(context_);
  EXPECT_FALSE(config.Validate(context_).has_value());

  // A small delta round: one arrival on top of an unchanged population
  // (below the full-repack threshold, so the previous configuration is the
  // starting incumbent and only the new task is packed).
  AddTask(gcn, 6);
  context_.Finalize();
  context_.delta.Clear();
  context_.delta.complete = true;
  context_.delta.jobs_arrived = {6};
  context_.now_s = 300.0;
  config = scheduler.Schedule(context_);
  EXPECT_FALSE(config.Validate(context_).has_value());
  std::set<TaskId> seen;
  for (const ConfigInstance& instance : config.instances) {
    seen.insert(instance.tasks.begin(), instance.tasks.end());
  }
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_GE(scheduler.stats().packs_incremental, 1);
}

TEST_F(EvaSchedulerTest, BindWorkloadScaleResolvesAutoMode) {
  // kAuto (the default) flips on exactly at the threshold...
  EvaScheduler below;  // Never bound: stays exact, like a hand-built harness.
  EXPECT_FALSE(below.incremental_active());
  below.BindWorkloadScale(EvaScheduler::kIncrementalAutoMinJobs - 1);
  EXPECT_FALSE(below.incremental_active());
  EvaScheduler at;
  at.BindWorkloadScale(EvaScheduler::kIncrementalAutoMinJobs);
  EXPECT_TRUE(at.incremental_active());

  // ...while kOff and kOn ignore the bound scale entirely.
  EvaOptions off;
  off.incremental_packing = EvaOptions::IncrementalPacking::kOff;
  EvaScheduler forced_off(off);
  forced_off.BindWorkloadScale(1000000);
  EXPECT_FALSE(forced_off.incremental_active());
  EvaOptions on;
  on.incremental_packing = EvaOptions::IncrementalPacking::kOn;
  EvaScheduler forced_on(on);
  EXPECT_TRUE(forced_on.incremental_active());
  forced_on.BindWorkloadScale(1);
  EXPECT_TRUE(forced_on.incremental_active());
}

TEST_F(EvaSchedulerTest, PeriodicReconciliationAdoptsExactAndCounts) {
  EvaOptions options;
  options.incremental_packing = EvaOptions::IncrementalPacking::kOn;
  // Full-only: Schedule returns the Full candidate itself, so the adopted-
  // exact-config assertion below is independent of the ensemble's estimator
  // trajectory.
  options.policy = EvaOptions::Policy::kFullOnly;
  EvaScheduler scheduler(options);

  const WorkloadId vit = WorkloadRegistry::IdOf("ViT");
  const WorkloadId gcn = WorkloadRegistry::IdOf("GCN");
  JobId job = 1;
  for (; job <= 5; ++job) {
    AddTask(job % 2 == 0 ? gcn : vit, job);
  }
  context_.Finalize();
  context_.delta.complete = true;
  context_.delta.jobs_arrived = {1, 2, 3, 4, 5};
  (void)scheduler.Schedule(context_);  // Pack 1: no previous -> exact.
  EXPECT_EQ(scheduler.stats().fallback_no_previous, 1);

  // One arrival per round keeps every delta below the full-repack fraction,
  // so each round is an incremental pack; the cadence's last one reconciles.
  ClusterConfig config;
  for (int pack = 1; pack <= EvaScheduler::kReconcileEveryNPacks; ++pack) {
    AddTask(job % 2 == 0 ? gcn : vit, job);
    context_.Finalize();
    context_.delta.Clear();
    context_.delta.complete = true;
    context_.delta.jobs_arrived = {job};
    context_.now_s = 300.0 * pack;
    ++job;
    config = scheduler.Schedule(context_);
    EXPECT_EQ(scheduler.stats().packs_incremental, pack);
    EXPECT_EQ(scheduler.stats().reconciliations,
              pack == EvaScheduler::kReconcileEveryNPacks ? 1 : 0);
  }
  EXPECT_EQ(scheduler.stats().packs_full, 1);
  EXPECT_EQ(scheduler.stats().max_kept_staleness, EvaScheduler::kReconcileEveryNPacks);
  EXPECT_FALSE(config.Validate(context_).has_value());

  // The adopted configuration is the exact repack of the full context: a
  // fresh exact-mode scheduler over the same context (same default
  // throughput table, memoryless Full Reconfiguration) must agree exactly.
  EvaOptions exact_options;
  exact_options.policy = EvaOptions::Policy::kFullOnly;
  EvaScheduler exact(exact_options);  // kAuto unbound: stays exact.
  const ClusterConfig reference = exact.Schedule(context_);
  EXPECT_EQ(ConfigEditDistance(config, reference), 0);
}

TEST_F(EvaSchedulerTest, EnsembleConsolidatesWhenSavingsAreLarge) {
  // Two ViTs running on separate p3.8xlarge instances (one task each is not
  // cost-efficient use: RP 12.24 = cost, so instances are *barely*
  // efficient); Full Reconfiguration packs them onto one and saves $12/hr,
  // which dwarfs the migration overhead.
  const WorkloadId vit = WorkloadRegistry::IdOf("ViT");
  const TaskId a = AddTask(vit, 1, 100);
  const TaskId b = AddTask(vit, 2, 101);
  for (InstanceId id : {100, 101}) {
    InstanceInfo instance;
    instance.id = id;
    instance.type_index = catalog_.IndexOf("p3.8xlarge");
    instance.tasks = {id == 100 ? a : b};
    context_.instances.push_back(instance);
  }
  context_.Finalize();
  EvaScheduler scheduler;
  const ClusterConfig config = scheduler.Schedule(context_);
  ASSERT_EQ(config.instances.size(), 1u);
  EXPECT_EQ(config.instances[0].tasks.size(), 2u);
  EXPECT_EQ(scheduler.stats().full_adopted, 1);
}

TEST_F(EvaSchedulerTest, CoalesceRequiresAPreviousRound) {
  EvaScheduler scheduler;
  // No memoized round yet: nothing can be certified a no-op.
  EXPECT_EQ(scheduler.CoalesceQuiescentRounds(5, 300.0), 0);
}

// Absorbing N quiescent rounds must leave the scheduler in exactly the
// state N memo-replayed Schedule calls (with identical, change-free
// observations) would have left it in: same estimator trajectory, same
// statistics, and an identical configuration on the next invoked round.
TEST_F(EvaSchedulerTest, CoalesceMatchesReplayedQuiescentRounds) {
  AddTask(WorkloadRegistry::IdOf("ViT"), 1);
  AddTask(WorkloadRegistry::IdOf("GCN"), 2);
  context_.Finalize();

  EvaScheduler replayed;
  EvaScheduler coalesced;
  const std::vector<JobThroughputObservation> no_observations;

  context_.now_s = 0.0;
  replayed.ObserveThroughput(no_observations);
  const ClusterConfig first_a = replayed.Schedule(context_);
  coalesced.ObserveThroughput(no_observations);
  const ClusterConfig first_b = coalesced.Schedule(context_);
  ASSERT_EQ(first_a.instances.size(), first_b.instances.size());

  constexpr int kQuiescentRounds = 7;
  for (int i = 1; i <= kQuiescentRounds; ++i) {
    context_.now_s = 300.0 * i;
    replayed.ObserveThroughput(no_observations);
    replayed.Schedule(context_);
  }
  EXPECT_EQ(coalesced.CoalesceQuiescentRounds(kQuiescentRounds, 300.0), kQuiescentRounds);

  EXPECT_EQ(coalesced.stats().rounds, replayed.stats().rounds);
  EXPECT_EQ(coalesced.stats().rounds_reused, replayed.stats().rounds_reused);
  EXPECT_EQ(coalesced.stats().full_adopted, replayed.stats().full_adopted);
  EXPECT_EQ(coalesced.stats().events_seen, replayed.stats().events_seen);
  EXPECT_EQ(coalesced.event_estimator().events_per_hour(),
            replayed.event_estimator().events_per_hour());
  EXPECT_EQ(coalesced.event_estimator().full_probability(),
            replayed.event_estimator().full_probability());
  EXPECT_EQ(coalesced.stats().rounds_coalesced, kQuiescentRounds);
  EXPECT_EQ(replayed.stats().rounds_coalesced, 0);

  // The next real round sees identical state: identical configurations.
  context_.now_s = 300.0 * (kQuiescentRounds + 1);
  replayed.ObserveThroughput(no_observations);
  coalesced.ObserveThroughput(no_observations);
  const ClusterConfig next_a = replayed.Schedule(context_);
  const ClusterConfig next_b = coalesced.Schedule(context_);
  ASSERT_EQ(next_a.instances.size(), next_b.instances.size());
  for (std::size_t i = 0; i < next_a.instances.size(); ++i) {
    EXPECT_EQ(next_a.instances[i].type_index, next_b.instances[i].type_index);
    EXPECT_EQ(next_a.instances[i].tasks, next_b.instances[i].tasks);
  }
}

TEST_F(EvaSchedulerTest, CoalesceRefusesAfterTableChange) {
  AddTask(WorkloadRegistry::IdOf("ViT"), 1);
  AddTask(WorkloadRegistry::IdOf("ViT"), 2);
  context_.Finalize();
  EvaScheduler scheduler;
  scheduler.ObserveThroughput({});
  scheduler.Schedule(context_);
  ASSERT_GT(scheduler.CoalesceQuiescentRounds(1, 300.0), 0);

  // A change-carrying observation invalidates the no-op certificate until
  // the next invoked round re-establishes it.
  JobThroughputObservation observation;
  observation.job = 1;
  observation.normalized_throughput = 0.7;
  TaskPlacementObservation placement;
  placement.task = 0;
  placement.workload = WorkloadRegistry::IdOf("ViT");
  placement.colocated = {WorkloadRegistry::IdOf("ViT")};
  observation.tasks.push_back(placement);
  scheduler.ObserveThroughput({observation});
  EXPECT_EQ(scheduler.CoalesceQuiescentRounds(1, 300.0), 0);
}

// Coalescing replays the round memo, so turning the memo off turns it off.
TEST_F(EvaSchedulerTest, CoalesceDisabledByOption) {
  AddTask(WorkloadRegistry::IdOf("ViT"), 1);
  context_.Finalize();
  EvaOptions options;
  options.reuse_unchanged_rounds = false;
  EvaScheduler scheduler(options);
  scheduler.ObserveThroughput({});
  scheduler.Schedule(context_);
  EXPECT_EQ(scheduler.CoalesceQuiescentRounds(3, 300.0), 0);
}

}  // namespace
}  // namespace eva
