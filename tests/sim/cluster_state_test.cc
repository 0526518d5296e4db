#include "src/sim/cluster_state.h"

#include <gtest/gtest.h>

namespace eva {
namespace {

InstanceCatalog TestCatalog() {
  return InstanceCatalog({
      {"box.small", InstanceFamily::kP3, {4, 8, 16}, 1.0},
      {"box.large", InstanceFamily::kP3, {8, 16, 32}, 2.0},
  });
}

JobSpec TestJob(JobId id, double gpus = 1.0, double cpus = 2.0, double ram = 4.0,
                int num_tasks = 1) {
  JobSpec spec;
  spec.id = id;
  spec.arrival_time_s = 0.0;
  spec.num_tasks = num_tasks;
  spec.workload = 0;
  spec.demand_p3 = {gpus, cpus, ram};
  spec.demand_cpu = {gpus, cpus, ram};
  spec.duration_s = 3600.0;
  return spec;
}

SimulationMetrics Finalized(const ClusterState& state) {
  SimulationMetrics metrics;
  state.FinalizeMetrics(metrics);
  return metrics;
}

TEST(ClusterStateTest, AddJobCreatesTasksAndActivates) {
  const InstanceCatalog catalog = TestCatalog();
  ClusterState state(catalog);
  const JobRec& job = state.AddJob(TestJob(5, 1, 2, 4, /*num_tasks=*/3));
  EXPECT_TRUE(job.active);
  EXPECT_EQ(job.tasks.size(), 3u);
  EXPECT_EQ(state.tasks().size(), 3u);
  EXPECT_EQ(state.num_active(), 1);
  EXPECT_EQ(state.active_jobs().count(5), 1u);
  for (TaskId task_id : job.tasks) {
    EXPECT_EQ(state.tasks().at(task_id).job, 5);
    EXPECT_EQ(state.tasks().at(task_id).state, TaskState::kPending);
  }
}

TEST(ClusterStateTest, CapacityAndAllocationIntegrals) {
  const InstanceCatalog catalog = TestCatalog();
  ClusterState state(catalog);
  JobRec& job = state.AddJob(TestJob(0, /*gpus=*/1, /*cpus=*/2, /*ram=*/4));
  InstRec& instance = state.CreateInstance(/*type_index=*/0, /*launch=*/0.0, /*ready=*/0.0);
  TaskRec& task = *state.FindTask(job.tasks[0]);
  state.SetTarget(task, instance.id);

  // 10s with one assigned task of demand {1,2,4} on capacity {4,8,16}.
  state.IntegrateTo(10.0);
  SimulationMetrics metrics = Finalized(state);
  EXPECT_DOUBLE_EQ(metrics.avg_alloc_gpu, 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(metrics.avg_alloc_cpu, 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(metrics.avg_alloc_ram, 4.0 / 16.0);
  EXPECT_DOUBLE_EQ(metrics.avg_tasks_per_instance, 1.0);

  // Another 10s after the task detaches: allocation halves, capacity stays.
  state.MarkTaskDone(task);
  state.IntegrateTo(10.0);
  metrics = Finalized(state);
  EXPECT_DOUBLE_EQ(metrics.avg_alloc_gpu, (1.0 * 10.0) / (4.0 * 20.0));
  EXPECT_DOUBLE_EQ(metrics.avg_tasks_per_instance, 0.5);
}

TEST(ClusterStateTest, RetargetMovesAllocationBetweenInstances) {
  const InstanceCatalog catalog = TestCatalog();
  ClusterState state(catalog);
  JobRec& job = state.AddJob(TestJob(0, /*gpus=*/2, /*cpus=*/4, /*ram=*/8));
  InstRec& small = state.CreateInstance(/*type_index=*/0, 0.0, 0.0);
  InstRec& large = state.CreateInstance(/*type_index=*/1, 0.0, 0.0);
  TaskRec& task = *state.FindTask(job.tasks[0]);

  state.SetTarget(task, small.id);
  EXPECT_EQ(small.assigned.count(task.id), 1u);
  state.IntegrateTo(10.0);

  state.SetTarget(task, large.id);
  EXPECT_EQ(small.assigned.count(task.id), 0u);
  EXPECT_EQ(large.assigned.count(task.id), 1u);
  state.IntegrateTo(10.0);

  // Capacity integral: (4+8) GPUs for 20s. Allocation: 2 GPUs for 20s.
  const SimulationMetrics metrics = Finalized(state);
  EXPECT_DOUBLE_EQ(metrics.avg_alloc_gpu, (2.0 * 20.0) / (12.0 * 20.0));
  // One assigned task over two instances throughout.
  EXPECT_DOUBLE_EQ(metrics.avg_tasks_per_instance, 0.5);
}

TEST(ClusterStateTest, MaybeTerminateRequiresCondemnedAndEmpty) {
  const InstanceCatalog catalog = TestCatalog();
  ClusterState state(catalog);
  JobRec& job = state.AddJob(TestJob(0));
  InstRec& instance = state.CreateInstance(/*type_index=*/1, /*launch=*/100.0, 100.0);
  TaskRec& task = *state.FindTask(job.tasks[0]);
  state.SetTarget(task, instance.id);
  const InstanceId id = instance.id;

  EXPECT_FALSE(state.MaybeTerminate(id, 1900.0));  // Not condemned.
  state.Condemn(id);
  EXPECT_FALSE(state.MaybeTerminate(id, 1900.0));  // Still assigned.
  state.MarkTaskDone(task);
  EXPECT_TRUE(state.MaybeTerminate(id, 1900.0));
  EXPECT_EQ(state.FindInstance(id), nullptr);

  // 1800s at $2/h.
  const SimulationMetrics metrics = Finalized(state);
  EXPECT_DOUBLE_EQ(metrics.total_cost, 2.0 * 1800.0 / 3600.0);
  ASSERT_EQ(metrics.instance_uptime_hours.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics.instance_uptime_hours[0], 0.5);
  EXPECT_EQ(metrics.instances_launched, 1);
}

TEST(ClusterStateTest, MarkTaskDonePrunesPresenceAndAssignment) {
  const InstanceCatalog catalog = TestCatalog();
  ClusterState state(catalog);
  JobRec& job = state.AddJob(TestJob(0));
  InstRec& instance = state.CreateInstance(/*type_index=*/0, 0.0, 0.0);
  TaskRec& task = *state.FindTask(job.tasks[0]);
  state.SetTarget(task, instance.id);
  state.PlaceContainer(task);
  task.state = TaskState::kRunning;
  ASSERT_EQ(instance.present.count(task.id), 1u);
  const int version_before = task.version;

  const ClusterState::DetachResult detached = state.MarkTaskDone(task);
  EXPECT_EQ(detached.source, instance.id);
  EXPECT_EQ(detached.target, instance.id);
  EXPECT_EQ(task.state, TaskState::kDone);
  EXPECT_GT(task.version, version_before);  // In-flight events are cancelled.
  EXPECT_EQ(task.source, kInvalidInstanceId);
  EXPECT_EQ(task.target, kInvalidInstanceId);
  EXPECT_TRUE(instance.present.empty());
  EXPECT_TRUE(instance.assigned.empty());
}

TEST(ClusterStateTest, TerminateAllLivePaysForEverything) {
  const InstanceCatalog catalog = TestCatalog();
  ClusterState state(catalog);
  state.CreateInstance(/*type_index=*/0, 0.0, 0.0);   // $1/h
  state.CreateInstance(/*type_index=*/1, 0.0, 0.0);   // $2/h
  state.TerminateAllLive(/*now=*/7200.0);
  EXPECT_FALSE(state.HasLiveInstances());
  const SimulationMetrics metrics = Finalized(state);
  EXPECT_DOUBLE_EQ(metrics.total_cost, (1.0 + 2.0) * 2.0);
  EXPECT_EQ(metrics.instance_uptime_hours.size(), 2u);
}

TEST(ClusterStateTest, DeactivateJobRecordsCompletion) {
  const InstanceCatalog catalog = TestCatalog();
  ClusterState state(catalog);
  JobRec& job = state.AddJob(TestJob(3));
  job.current_rate = 0.8;
  state.DeactivateJob(job, /*now=*/500.0);
  EXPECT_FALSE(job.active);
  EXPECT_EQ(job.completion_time, 500.0);
  EXPECT_EQ(job.current_rate, 0.0);
  EXPECT_EQ(state.num_active(), 0);
}

TEST(ClusterStateTest, FillContextListsActiveJobsAndLiveInstances) {
  const InstanceCatalog catalog = TestCatalog();
  ClusterState state(catalog);
  JobRec& active_job = state.AddJob(TestJob(0));
  JobRec& done_job = state.AddJob(TestJob(1));
  state.DeactivateJob(done_job, 100.0);
  InstRec& live = state.CreateInstance(0, 0.0, 0.0);
  InstRec& condemned = state.CreateInstance(1, 0.0, 0.0);
  state.Condemn(condemned.id);
  state.SetTarget(*state.FindTask(active_job.tasks[0]), live.id);

  SchedulingContext context;
  state.FillContext(/*now=*/250.0, context);
  EXPECT_EQ(context.now_s, 250.0);
  ASSERT_EQ(context.tasks.size(), 1u);  // Only the active job's task.
  EXPECT_EQ(context.tasks[0].job, 0);
  EXPECT_EQ(context.tasks[0].remaining_work_s, active_job.remaining_work_s);
  ASSERT_EQ(context.instances.size(), 1u);  // Condemned instances are hidden.
  EXPECT_EQ(context.instances[0].id, live.id);
  ASSERT_EQ(context.instances[0].tasks.size(), 1u);
}


// The cached composition sums follow launches on two catalog types, a
// retarget across them and a termination; the integrals FinalizeMetrics
// reports match hand-computed time-weighted values.
TEST(ClusterStateTest, CompositionIntegralsTrackLaunchRetargetTerminate) {
  const InstanceCatalog catalog = TestCatalog();
  ClusterState state(catalog);
  JobRec& job = state.AddJob(TestJob(0, /*gpus=*/1, /*cpus=*/3, /*ram=*/5, /*num_tasks=*/2));
  InstRec& small = state.CreateInstance(/*type_index=*/0, 0.0, 0.0);
  InstRec& large = state.CreateInstance(/*type_index=*/1, 0.0, 0.0);
  state.SetTarget(*state.FindTask(job.tasks[0]), small.id);
  state.SetTarget(*state.FindTask(job.tasks[1]), large.id);

  // 1 s: capacity {12, 24, 48}, allocation {2, 6, 10}, 2 instances, 2 tasks.
  state.IntegrateTo(1.0);
  // 2 s after the large-box task moves to the small box: same totals.
  state.SetTarget(*state.FindTask(job.tasks[1]), small.id);
  state.IntegrateTo(2.0);
  // 4 s after the emptied large box terminates: capacity {4, 8, 16},
  // allocation {2, 6, 10}, 1 instance, 2 tasks.
  state.Condemn(large.id);
  EXPECT_TRUE(state.MaybeTerminate(large.id, 3.0));
  state.IntegrateTo(4.0);

  const SimulationMetrics metrics = Finalized(state);
  // Task-instance seconds 2 + 4 + 8 over instance seconds 2 + 4 + 4.
  EXPECT_DOUBLE_EQ(metrics.avg_tasks_per_instance, 14.0 / 10.0);
  // Allocation seconds over capacity seconds, per resource.
  EXPECT_DOUBLE_EQ(metrics.avg_alloc_gpu, (2.0 + 4.0 + 8.0) / (12.0 + 24.0 + 16.0));
  EXPECT_DOUBLE_EQ(metrics.avg_alloc_cpu, (6.0 + 12.0 + 24.0) / (24.0 + 48.0 + 32.0));
  EXPECT_DOUBLE_EQ(metrics.avg_alloc_ram, (10.0 + 20.0 + 40.0) / (48.0 + 96.0 + 64.0));
}

TEST(ClusterStateDeltaTest, AccumulatesAndDrainsRoundDeltas) {
  const InstanceCatalog catalog = TestCatalog();
  ClusterState state(catalog);

  JobRec& job = state.AddJob(TestJob(7));
  const InstanceId inst_id = state.CreateInstance(0, 0.0, 0.0).id;
  TaskRec& task = *state.FindTask(job.tasks[0]);
  state.SetTarget(task, inst_id);

  RoundDelta delta;
  state.DrainRoundDelta(delta);
  EXPECT_TRUE(delta.complete);
  EXPECT_EQ(delta.jobs_arrived, std::vector<JobId>{7});
  EXPECT_EQ(delta.tasks_retargeted, std::vector<TaskId>{task.id});
  EXPECT_EQ(delta.instances_launched, std::vector<InstanceId>{inst_id});
  EXPECT_TRUE(delta.jobs_completed.empty());
  EXPECT_TRUE(delta.instances_terminated.empty());
  EXPECT_EQ(delta.TouchedCount(), 3u);

  // Draining resets the accumulator: a quiescent window yields an empty
  // (but complete) delta.
  state.DrainRoundDelta(delta);
  EXPECT_TRUE(delta.complete);
  EXPECT_TRUE(delta.Empty());

  // Completion + termination land in the next delta, deduplicated.
  state.MarkTaskDone(task);
  state.DeactivateJob(*state.FindJob(7), 100.0);
  state.Condemn(inst_id);
  EXPECT_TRUE(state.MaybeTerminate(inst_id, 100.0));
  state.DrainRoundDelta(delta);
  EXPECT_EQ(delta.jobs_completed, std::vector<JobId>{7});
  EXPECT_EQ(delta.instances_terminated, std::vector<InstanceId>{inst_id});
  EXPECT_TRUE(delta.jobs_arrived.empty());
}

}  // namespace
}  // namespace eva
