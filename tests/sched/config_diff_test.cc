#include "src/sched/config_diff.h"

#include <gtest/gtest.h>

namespace eva {
namespace {

class ConfigDiffTest : public testing::Test {
 protected:
  ConfigDiffTest() : catalog_(InstanceCatalog::AwsDefault()) {
    context_.catalog = &catalog_;
    p3_2x_ = catalog_.IndexOf("p3.2xlarge");
    p3_8x_ = catalog_.IndexOf("p3.8xlarge");
    c7i_xl_ = catalog_.IndexOf("c7i.xlarge");
  }

  void AddTask(TaskId id, InstanceId on = kInvalidInstanceId,
               WorkloadId workload = 3 /* CycleGAN */) {
    TaskInfo task;
    task.id = id;
    task.job = id;
    task.workload = workload;
    const WorkloadSpec& spec = WorkloadRegistry::Get(workload);
    task.demand_p3 = spec.demand_p3;
    task.demand_cpu = spec.demand_cpu;
    task.current_instance = on;
    context_.tasks.push_back(task);
  }

  void AddInstance(InstanceId id, int type_index, std::vector<TaskId> tasks) {
    InstanceInfo instance;
    instance.id = id;
    instance.type_index = type_index;
    instance.tasks = std::move(tasks);
    context_.instances.push_back(instance);
  }

  InstanceCatalog catalog_;
  SchedulingContext context_;
  int p3_2x_ = -1;
  int p3_8x_ = -1;
  int c7i_xl_ = -1;
};

TEST_F(ConfigDiffTest, EmptyToEmpty) {
  context_.Finalize();
  const ConfigDiff diff = DiffConfig(context_, {});
  EXPECT_TRUE(diff.bindings.empty());
  EXPECT_TRUE(diff.terminate.empty());
  EXPECT_TRUE(diff.moves.empty());
}

TEST_F(ConfigDiffTest, FreshLaunchAndFirstPlacement) {
  AddTask(1);
  context_.Finalize();
  ClusterConfig config;
  config.instances.push_back({p3_2x_, kInvalidInstanceId, {1}});
  const ConfigDiff diff = DiffConfig(context_, config);
  ASSERT_EQ(diff.bindings.size(), 1u);
  EXPECT_EQ(diff.bindings[0].existing_id, kInvalidInstanceId);
  EXPECT_EQ(diff.NumLaunches(), 1);
  ASSERT_EQ(diff.moves.size(), 1u);
  EXPECT_EQ(diff.moves[0].from_instance, kInvalidInstanceId);
  EXPECT_EQ(diff.NumMigrations(), 0);  // First placement is not a migration.
}

TEST_F(ConfigDiffTest, IdenticalConfigIsNoOp) {
  AddTask(1, 100);
  AddInstance(100, p3_2x_, {1});
  context_.Finalize();
  ClusterConfig config;
  config.instances.push_back({p3_2x_, 100, {1}});
  const ConfigDiff diff = DiffConfig(context_, config);
  EXPECT_EQ(diff.NumLaunches(), 0);
  EXPECT_TRUE(diff.terminate.empty());
  EXPECT_TRUE(diff.moves.empty());
}

TEST_F(ConfigDiffTest, ReuseRequestHonored) {
  AddTask(1, 100);
  AddInstance(100, p3_2x_, {1});
  context_.Finalize();
  ClusterConfig config;
  config.instances.push_back({p3_2x_, 100, {1}});
  const ConfigDiff diff = DiffConfig(context_, config);
  ASSERT_EQ(diff.bindings.size(), 1u);
  EXPECT_EQ(diff.bindings[0].existing_id, 100);
}

TEST_F(ConfigDiffTest, ReuseRequestIgnoredOnTypeMismatch) {
  AddTask(1, 100);
  AddInstance(100, p3_2x_, {1});
  context_.Finalize();
  ClusterConfig config;
  config.instances.push_back({p3_8x_, 100, {1}});  // Wrong type for 100.
  const ConfigDiff diff = DiffConfig(context_, config);
  EXPECT_EQ(diff.bindings[0].existing_id, kInvalidInstanceId);
  EXPECT_EQ(diff.NumLaunches(), 1);
  // The old instance terminates, the task migrates.
  ASSERT_EQ(diff.terminate.size(), 1u);
  EXPECT_EQ(diff.terminate[0], 100);
  EXPECT_EQ(diff.NumMigrations(), 1);
}

TEST_F(ConfigDiffTest, GreedyMatchingPrefersMaxOverlap) {
  AddTask(1, 100);
  AddTask(2, 100);
  AddTask(3, 101);
  AddInstance(100, p3_8x_, {1, 2});
  AddInstance(101, p3_8x_, {3});
  context_.Finalize();
  // Scheduler returns the same layout without reuse hints.
  ClusterConfig config;
  config.instances.push_back({p3_8x_, kInvalidInstanceId, {3}});
  config.instances.push_back({p3_8x_, kInvalidInstanceId, {1, 2}});
  const ConfigDiff diff = DiffConfig(context_, config);
  EXPECT_EQ(diff.bindings[0].existing_id, 101);
  EXPECT_EQ(diff.bindings[1].existing_id, 100);
  EXPECT_TRUE(diff.moves.empty());
  EXPECT_TRUE(diff.terminate.empty());
}

TEST_F(ConfigDiffTest, ZeroOverlapSameTypeReuseAvoidsLaunch) {
  AddTask(1, 100);
  AddTask(2);
  AddInstance(100, p3_2x_, {1});
  context_.Finalize();
  // Task 1 finishes... actually scheduler moves task 2 onto a p3.2xlarge and
  // drops task 1's entry: same type, no overlap -> reuse instead of launch.
  ClusterConfig config;
  config.instances.push_back({p3_2x_, kInvalidInstanceId, {2}});
  const ConfigDiff diff = DiffConfig(context_, config);
  EXPECT_EQ(diff.bindings[0].existing_id, 100);
  EXPECT_EQ(diff.NumLaunches(), 0);
  ASSERT_EQ(diff.moves.size(), 1u);
  EXPECT_EQ(diff.moves[0].task, 2);
}

TEST_F(ConfigDiffTest, UnboundInstancesTerminate) {
  AddInstance(100, p3_2x_, {});
  AddInstance(101, c7i_xl_, {});
  context_.Finalize();
  const ConfigDiff diff = DiffConfig(context_, {});
  EXPECT_EQ(diff.terminate.size(), 2u);
}

TEST_F(ConfigDiffTest, MigrationDetection) {
  AddTask(1, 100);
  AddTask(2, 101);
  AddInstance(100, p3_2x_, {1});
  AddInstance(101, p3_2x_, {2});
  context_.Finalize();
  // Consolidate both onto a new p3.8xlarge.
  ClusterConfig config;
  config.instances.push_back({p3_8x_, kInvalidInstanceId, {1, 2}});
  const ConfigDiff diff = DiffConfig(context_, config);
  EXPECT_EQ(diff.NumLaunches(), 1);
  EXPECT_EQ(diff.NumMigrations(), 2);
  EXPECT_EQ(diff.terminate.size(), 2u);
}

TEST_F(ConfigDiffTest, MigrationCostPricesDelaysAtDestinationRate) {
  AddTask(1, 100, WorkloadRegistry::IdOf("GPT2"));  // ckpt 30s + launch 15s.
  AddInstance(100, p3_8x_, {1});
  context_.Finalize();
  ClusterConfig config;
  config.instances.push_back({p3_8x_, kInvalidInstanceId, {1}});
  ClusterConfig moved = config;
  // Force a migration by binding to a fresh instance: give the existing one
  // a conflicting reuse target.
  moved.instances[0].reuse_instance = kInvalidInstanceId;
  const ConfigDiff diff = DiffConfig(context_, moved);
  // Same type + overlap => matched, no migration, no cost.
  EXPECT_DOUBLE_EQ(
      EstimateMigrationCost(context_, diff, 1.0), 0.0);

  // Now a genuinely different layout: move the task to a p3.2xlarge.
  ClusterConfig relocated;
  relocated.instances.push_back({p3_2x_, kInvalidInstanceId, {1}});
  const ConfigDiff diff2 = DiffConfig(context_, relocated);
  ASSERT_EQ(diff2.NumLaunches(), 1);
  ASSERT_EQ(diff2.NumMigrations(), 1);
  const Money expected = CostForUptime(3.06, 209.0) /* provisioning */ +
                         CostForUptime(3.06, 45.0) /* ckpt+launch */;
  EXPECT_NEAR(EstimateMigrationCost(context_, diff2, 1.0), expected, 1e-9);
}

TEST_F(ConfigDiffTest, MigrationCostScalesWithMultiplier) {
  AddTask(1);
  context_.Finalize();
  ClusterConfig config;
  config.instances.push_back({p3_2x_, kInvalidInstanceId, {1}});
  const ConfigDiff diff = DiffConfig(context_, config);
  const Money base = EstimateMigrationCost(context_, diff, 1.0);
  const Money doubled = EstimateMigrationCost(context_, diff, 2.0);
  // Only the job launch delay scales; provisioning stays fixed.
  const Money launch_part = CostForUptime(3.06, WorkloadRegistry::Get(3).launch_delay_s);
  EXPECT_NEAR(doubled - base, launch_part, 1e-9);
}

}  // namespace
}  // namespace eva
