#include "src/sched/types.h"

#include <gtest/gtest.h>

namespace eva {
namespace {

SchedulingContext MakeContext(const InstanceCatalog& catalog) {
  SchedulingContext context;
  context.catalog = &catalog;
  // Job 1 has two tasks (10, 11); job 2 has one (20).
  TaskInfo t10;
  t10.id = 10;
  t10.job = 1;
  t10.workload = 0;
  t10.demand_p3 = {1, 4, 24};
  t10.demand_cpu = {1, 4, 24};
  TaskInfo t11 = t10;
  t11.id = 11;
  TaskInfo t20;
  t20.id = 20;
  t20.job = 2;
  t20.workload = 7;
  t20.demand_p3 = {0, 10, 8};
  t20.demand_cpu = {0, 4, 8};
  context.tasks = {t10, t11, t20};
  InstanceInfo instance;
  instance.id = 5;
  instance.type_index = catalog.IndexOf("p3.2xlarge");
  instance.tasks = {10};
  context.instances = {instance};
  context.Finalize();
  return context;
}

TEST(SchedulingContextTest, FindTask) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = MakeContext(catalog);
  ASSERT_NE(context.FindTask(10), nullptr);
  EXPECT_EQ(context.FindTask(10)->job, 1);
  EXPECT_EQ(context.FindTask(999), nullptr);
}

TEST(SchedulingContextTest, FindInstance) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = MakeContext(catalog);
  ASSERT_NE(context.FindInstance(5), nullptr);
  EXPECT_EQ(context.FindInstance(5)->tasks.size(), 1u);
  EXPECT_EQ(context.FindInstance(99), nullptr);
}

TEST(SchedulingContextTest, JobSizeCountsTasksPerJob) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = MakeContext(catalog);
  EXPECT_EQ(context.JobSize(1), 2);
  EXPECT_EQ(context.JobSize(2), 1);
  EXPECT_EQ(context.JobSize(42), 0);
}

TEST(SchedulingContextTest, TaskDemandForFamily) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = MakeContext(catalog);
  const TaskInfo* a3c = context.FindTask(20);
  ASSERT_NE(a3c, nullptr);
  EXPECT_DOUBLE_EQ(a3c->DemandFor(InstanceFamily::kP3).cpus(), 10.0);
  EXPECT_DOUBLE_EQ(a3c->DemandFor(InstanceFamily::kC7i).cpus(), 4.0);
}

TEST(ClusterConfigTest, HourlyCost) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  ClusterConfig config;
  config.instances.push_back({catalog.IndexOf("p3.2xlarge"), kInvalidInstanceId, {}});
  config.instances.push_back({catalog.IndexOf("c7i.large"), kInvalidInstanceId, {}});
  EXPECT_NEAR(config.HourlyCost(catalog), 3.06 + 0.0893, 1e-9);
}

TEST(ClusterConfigTest, ValidateAcceptsGoodConfig) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = MakeContext(catalog);
  ClusterConfig config;
  config.instances.push_back({catalog.IndexOf("p3.8xlarge"), kInvalidInstanceId, {10, 11}});
  config.instances.push_back({catalog.IndexOf("c7i.2xlarge"), kInvalidInstanceId, {20}});
  EXPECT_FALSE(config.Validate(context).has_value());
}

TEST(ClusterConfigTest, ValidateRejectsDuplicateAssignment) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = MakeContext(catalog);
  ClusterConfig config;
  config.instances.push_back({catalog.IndexOf("p3.8xlarge"), kInvalidInstanceId, {10, 10}});
  EXPECT_TRUE(config.Validate(context).has_value());
}

TEST(ClusterConfigTest, ValidateRejectsCapacityOverflow) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = MakeContext(catalog);
  ClusterConfig config;
  // p3.2xlarge has 1 GPU but the two tasks need 2.
  config.instances.push_back({catalog.IndexOf("p3.2xlarge"), kInvalidInstanceId, {10, 11}});
  EXPECT_TRUE(config.Validate(context).has_value());
}

TEST(ClusterConfigTest, ValidateRejectsUnknownTask) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = MakeContext(catalog);
  ClusterConfig config;
  config.instances.push_back({catalog.IndexOf("p3.2xlarge"), kInvalidInstanceId, {777}});
  EXPECT_TRUE(config.Validate(context).has_value());
}

TEST(ClusterConfigTest, ValidateRejectsBadTypeIndex) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = MakeContext(catalog);
  ClusterConfig config;
  config.instances.push_back({999, kInvalidInstanceId, {}});
  EXPECT_TRUE(config.Validate(context).has_value());
}

TEST(ClusterConfigTest, ValidateUsesFamilySpecificDemand) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = MakeContext(catalog);
  ClusterConfig config;
  // A3C needs 10 CPUs on P3 but only 4 on C7i; c7i.2xlarge (4 cores) fits.
  config.instances.push_back({catalog.IndexOf("c7i.2xlarge"), kInvalidInstanceId, {20}});
  EXPECT_FALSE(config.Validate(context).has_value());
  // On a p3.2xlarge (4 cores) the P3 demand of 10 CPUs does not fit.
  ClusterConfig bad;
  bad.instances.push_back({catalog.IndexOf("p3.2xlarge"), kInvalidInstanceId, {20}});
  EXPECT_TRUE(bad.Validate(context).has_value());
}


TEST(RoundDeltaTest, EmptyTouchedCountAndClear) {
  RoundDelta delta;
  EXPECT_FALSE(delta.complete);
  EXPECT_TRUE(delta.Empty());
  EXPECT_EQ(delta.TouchedCount(), 0u);
  delta.complete = true;
  delta.jobs_arrived = {1, 2};
  delta.jobs_completed = {3};
  delta.tasks_retargeted = {4, 5, 6};
  delta.instances_launched = {7};
  delta.instances_terminated = {8};
  EXPECT_FALSE(delta.Empty());
  EXPECT_EQ(delta.TouchedCount(), 8u);
  delta.Clear();
  EXPECT_FALSE(delta.complete);
  EXPECT_TRUE(delta.Empty());
}

}  // namespace
}  // namespace eva
