#include "src/core/full_reconfig.h"

#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

// The §4.2 walk-through: Table 3 tasks over the Table 3 catalog.
class PaperExampleTest : public testing::Test {
 protected:
  PaperExampleTest() : catalog_(InstanceCatalog::PaperExample()) {
    context_.catalog = &catalog_;
    const ResourceVector demands[] = {{2, 8, 24}, {1, 4, 10}, {0, 6, 20}, {0, 4, 12}};
    for (int i = 0; i < 4; ++i) {
      TaskInfo task;
      task.id = i + 1;
      task.job = i + 1;
      task.workload = 0;
      task.demand_p3 = demands[i];
      task.demand_cpu = demands[i];
      context_.tasks.push_back(task);
    }
    context_.Finalize();
  }

  InstanceCatalog catalog_;
  SchedulingContext context_;
};

TEST_F(PaperExampleTest, ReproducesTheWalkThrough) {
  const TnrpCalculator calculator(context_, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context_, calculator);

  // Expected: it1 <- {tau1, tau2, tau4}, it3 <- {tau3}; $12.8/hr total.
  ASSERT_EQ(config.instances.size(), 2u);
  EXPECT_NEAR(config.HourlyCost(catalog_), 12.8, 1e-9);

  const ConfigInstance& big = config.instances[0];
  EXPECT_EQ(catalog_.Get(big.type_index).name, "it1");
  EXPECT_EQ(std::set<TaskId>(big.tasks.begin(), big.tasks.end()), std::set<TaskId>({1, 2, 4}));

  const ConfigInstance& small = config.instances[1];
  EXPECT_EQ(catalog_.Get(small.type_index).name, "it3");
  EXPECT_EQ(small.tasks, std::vector<TaskId>({3}));
}

TEST_F(PaperExampleTest, CheaperThanOneInstancePerTask) {
  const TnrpCalculator calculator(context_, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context_, calculator);
  EXPECT_LT(config.HourlyCost(catalog_), 16.2 - 1e-9);
}

TEST_F(PaperExampleTest, EveryInstanceIsCostEfficient) {
  const TnrpCalculator calculator(context_, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context_, calculator);
  for (const ConfigInstance& instance : config.instances) {
    std::vector<const TaskInfo*> members;
    for (TaskId id : instance.tasks) {
      members.push_back(context_.FindTask(id));
    }
    EXPECT_GE(calculator.SetRp(members) + 1e-9,
              catalog_.Get(instance.type_index).cost_per_hour);
  }
}

TEST_F(PaperExampleTest, InterferenceMakesPackingConservative) {
  // With a learned table saying tau1 collapses to 0.5 next to anything, the
  // big instance is no longer cost-efficient as a trio; tau1 is hosted
  // alone.
  ThroughputTable table(0.5);
  context_.throughput = &table;
  const TnrpCalculator calculator(context_, {});
  const ClusterConfig config = FullReconfiguration(context_, calculator);
  for (const ConfigInstance& instance : config.instances) {
    EXPECT_EQ(instance.tasks.size(), 1u);  // t=0.5 forbids all co-location.
  }
  EXPECT_NEAR(config.HourlyCost(catalog_), 16.2, 1e-9);
}

TEST_F(PaperExampleTest, ValidatesAgainstContext) {
  const TnrpCalculator calculator(context_, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context_, calculator);
  EXPECT_FALSE(config.Validate(context_).has_value());
}

// Randomized behavior over the real catalog.
class FullReconfigRandomTest : public testing::TestWithParam<int> {};

SchedulingContext RandomContext(int num_tasks, std::uint64_t seed,
                                const InstanceCatalog& catalog) {
  Rng rng(seed);
  SchedulingContext context;
  context.catalog = &catalog;
  for (int i = 0; i < num_tasks; ++i) {
    const WorkloadId workload =
        static_cast<WorkloadId>(rng.UniformInt(0, WorkloadRegistry::NumWorkloads() - 1));
    const WorkloadSpec& spec = WorkloadRegistry::Get(workload);
    TaskInfo task;
    task.id = i;
    task.job = i;
    task.workload = workload;
    task.demand_p3 = spec.demand_p3;
    task.demand_cpu = spec.demand_cpu;
    context.tasks.push_back(task);
  }
  context.Finalize();
  return context;
}

TEST_P(FullReconfigRandomTest, AssignsEveryTaskExactlyOnce) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(60, GetParam(), catalog);
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  std::set<TaskId> seen;
  for (const ConfigInstance& instance : config.instances) {
    for (TaskId id : instance.tasks) {
      EXPECT_TRUE(seen.insert(id).second) << "task assigned twice";
    }
  }
  EXPECT_EQ(seen.size(), context.tasks.size());
}

TEST_P(FullReconfigRandomTest, RespectsCapacities) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(60, GetParam(), catalog);
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  EXPECT_FALSE(config.Validate(context).has_value());
}

TEST_P(FullReconfigRandomTest, NeverCostsMoreThanNoPacking) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(60, GetParam(), catalog);
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  Money no_packing = 0.0;
  for (const TaskInfo& task : context.tasks) {
    no_packing += calculator.ReservationPrice(task);
  }
  EXPECT_LE(config.HourlyCost(catalog), no_packing + 1e-9);
}

TEST_P(FullReconfigRandomTest, CostEfficiencyInvariantHolds) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(60, GetParam(), catalog);
  ThroughputTable table(0.95);
  SchedulingContext with_table = context;
  with_table.throughput = &table;
  const TnrpCalculator calculator(with_table, {});
  const ClusterConfig config = FullReconfiguration(with_table, calculator);
  for (const ConfigInstance& instance : config.instances) {
    std::vector<const TaskInfo*> members;
    for (TaskId id : instance.tasks) {
      members.push_back(with_table.FindTask(id));
    }
    EXPECT_GE(calculator.SetTnrp(members) + 1e-6,
              catalog.Get(instance.type_index).cost_per_hour);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullReconfigRandomTest, testing::Range(1, 11));

TEST(FullReconfigEdgeTest, EmptyContextYieldsEmptyConfig) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  SchedulingContext context;
  context.catalog = &catalog;
  context.Finalize();
  const TnrpCalculator calculator(context, {});
  EXPECT_TRUE(FullReconfiguration(context, calculator).instances.empty());
}

TEST(FullReconfigEdgeTest, UnplaceableTaskReportedUnassigned) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  SchedulingContext context;
  context.catalog = &catalog;
  TaskInfo task;
  task.id = 1;
  task.job = 1;
  task.workload = 0;
  task.demand_p3 = {64, 1, 1};
  task.demand_cpu = {64, 1, 1};
  context.tasks.push_back(task);
  context.Finalize();
  const TnrpCalculator calculator(context, {});
  // A task that fits no instance type, not even alone, stays pending.
  EXPECT_TRUE(FullReconfiguration(context, calculator).instances.empty());
}

TEST(FullReconfigEdgeTest, IdenticalGpuTasksShareBigInstance) {
  // Two ViT tasks (2 GPUs each) should share one p3.8xlarge instead of two.
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  SchedulingContext context;
  context.catalog = &catalog;
  for (int i = 0; i < 2; ++i) {
    TaskInfo task;
    task.id = i;
    task.job = i;
    task.workload = WorkloadRegistry::IdOf("ViT");
    task.demand_p3 = {2, 8, 60};
    task.demand_cpu = {2, 8, 60};
    context.tasks.push_back(task);
  }
  context.Finalize();
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  ASSERT_EQ(config.instances.size(), 1u);
  EXPECT_EQ(catalog.Get(config.instances[0].type_index).name, "p3.8xlarge");
}

TEST(FullReconfigEdgeTest, TnrpDecreaseStopsPacking) {
  // A throughput table that makes a second co-resident collapse the set's
  // TNRP triggers the Line 9-11 early stop.
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  SchedulingContext context;
  context.catalog = &catalog;
  for (int i = 0; i < 2; ++i) {
    TaskInfo task;
    task.id = i;
    task.job = 100 + i;
    task.workload = WorkloadRegistry::IdOf("ViT");
    task.demand_p3 = {2, 8, 60};
    task.demand_cpu = {2, 8, 60};
    context.tasks.push_back(task);
  }
  context.Finalize();
  ThroughputTable table(0.3);  // Brutal default interference.
  context.throughput = &table;
  const TnrpCalculator calculator(context, {});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  // Packing both would give 2 * 0.3 * 12.24 = 7.3 < 12.24: each runs alone.
  ASSERT_EQ(config.instances.size(), 2u);
}

TEST(FullReconfigEdgeTest, UnfitSameClassCandidateDoesNotHideAFittingOne) {
  // Big (4 cores) and Small (3 cores) share workload and RP (both fit
  // c7i.2xlarge first), hence a pricing class; Big has the lower id, so it
  // is scanned first. Filling a c7i.4xlarge (8 cores) around X (5 cores),
  // Big no longer fits and Small does: Small must still be found, although
  // a same-class candidate came before it in the scan.
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  SchedulingContext context;
  context.catalog = &catalog;
  const double cores[] = {5, 4, 3};  // X, Big, Small.
  for (int i = 0; i < 3; ++i) {
    TaskInfo task;
    task.id = i;
    task.job = i;
    task.workload = i == 0 ? 1 : 2;
    task.demand_p3 = {0, cores[i], 8};
    task.demand_cpu = {0, cores[i], 8};
    context.tasks.push_back(task);
  }
  ThroughputTable table(0.95);
  context.throughput = &table;
  context.Finalize();
  const TnrpCalculator calculator(context, {});
  ASSERT_EQ(calculator.PricingClass(context.tasks[1]), calculator.PricingClass(context.tasks[2]));
  const ClusterConfig config = FullReconfiguration(context, calculator);
  // All three together cost more than they are worth on any type that
  // holds them (0.95^2 * $1.428 < $1.428 on c7i.8xlarge).
  ASSERT_EQ(config.instances.size(), 2u);
  EXPECT_EQ(catalog.Get(config.instances[0].type_index).name, "c7i.4xlarge");
  EXPECT_EQ(config.instances[0].tasks, std::vector<TaskId>({0, 2}));
  EXPECT_EQ(catalog.Get(config.instances[1].type_index).name, "c7i.2xlarge");
  EXPECT_EQ(config.instances[1].tasks, std::vector<TaskId>({1}));
}

}  // namespace
}  // namespace eva
