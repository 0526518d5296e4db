#include "src/sched/reservation_price.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/common/rng.h"

namespace eva {
namespace {

// Context with the Table 3 tasks over the Table 3 catalog, plus an optional
// throughput table.
class ReservationPriceTest : public testing::Test {
 protected:
  ReservationPriceTest() : catalog_(InstanceCatalog::PaperExample()) {
    context_.catalog = &catalog_;
    const ResourceVector demands[] = {{2, 8, 24}, {1, 4, 10}, {0, 6, 20}, {0, 4, 12}};
    for (int i = 0; i < 4; ++i) {
      TaskInfo task;
      task.id = i + 1;
      task.job = i + 1;  // Single-task jobs.
      task.workload = i % WorkloadRegistry::NumWorkloads();
      task.demand_p3 = demands[i];
      task.demand_cpu = demands[i];
      context_.tasks.push_back(task);
    }
    context_.Finalize();
  }

  const TaskInfo& Task(int id) { return *context_.FindTask(id); }

  InstanceCatalog catalog_;
  SchedulingContext context_;
  ThroughputTable table_{0.95};
};

TEST_F(ReservationPriceTest, Table3ReservationPrices) {
  const TnrpCalculator calculator(context_, {});
  EXPECT_DOUBLE_EQ(calculator.ReservationPrice(Task(1)), 12.0);
  EXPECT_DOUBLE_EQ(calculator.ReservationPrice(Task(2)), 3.0);
  EXPECT_DOUBLE_EQ(calculator.ReservationPrice(Task(3)), 0.8);
  EXPECT_DOUBLE_EQ(calculator.ReservationPrice(Task(4)), 0.4);
}

TEST_F(ReservationPriceTest, SetRpIsSumOfMembers) {
  const TnrpCalculator calculator(context_, {});
  EXPECT_DOUBLE_EQ(calculator.SetRp({&Task(1), &Task(2), &Task(4)}), 15.4);
}

TEST_F(ReservationPriceTest, TnrpWithoutPartnersEqualsRp) {
  context_.throughput = &table_;
  const TnrpCalculator calculator(context_, {});
  EXPECT_DOUBLE_EQ(calculator.TaskTnrp(Task(1), {}), 12.0);
}

TEST_F(ReservationPriceTest, TnrpScalesByEstimatedThroughput) {
  // §4.3's example: tau1 at 0.8 and tau2 at 0.9 gives 12*0.8 + 3*0.9 = 12.3.
  table_.Record(Task(1).workload, {Task(2).workload}, 0.8);
  table_.Record(Task(2).workload, {Task(1).workload}, 0.9);
  context_.throughput = &table_;
  const TnrpCalculator calculator(context_, {});
  EXPECT_NEAR(calculator.SetTnrp({&Task(1), &Task(2)}), 12.3, 1e-9);
}

TEST_F(ReservationPriceTest, SevereInterferenceBreaksCostEfficiency) {
  // §4.3: at 0.7/0.8 the pair is worth $10.8 < $12.
  table_.Record(Task(1).workload, {Task(2).workload}, 0.7);
  table_.Record(Task(2).workload, {Task(1).workload}, 0.8);
  context_.throughput = &table_;
  const TnrpCalculator calculator(context_, {});
  EXPECT_NEAR(calculator.SetTnrp({&Task(1), &Task(2)}), 10.8, 1e-9);
}

TEST_F(ReservationPriceTest, InterferenceObliviousIgnoresTable) {
  table_.Record(Task(1).workload, {Task(2).workload}, 0.5);
  context_.throughput = &table_;
  const TnrpCalculator calculator(context_, {.interference_aware = false});
  EXPECT_DOUBLE_EQ(calculator.SetTnrp({&Task(1), &Task(2)}), 15.0);
}

TEST_F(ReservationPriceTest, NullEstimatorActsLikeNoInterference) {
  context_.throughput = nullptr;
  const TnrpCalculator calculator(context_, {});
  EXPECT_DOUBLE_EQ(calculator.SetTnrp({&Task(1), &Task(2)}), 15.0);
}

TEST_F(ReservationPriceTest, DefaultEstimateAppliesToUnseenPairs) {
  context_.throughput = &table_;
  const TnrpCalculator calculator(context_, {});
  EXPECT_NEAR(calculator.SetTnrp({&Task(1), &Task(2)}), 0.95 * 12.0 + 0.95 * 3.0, 1e-9);
}

TEST_F(ReservationPriceTest, UnplaceableTaskHasZeroRp) {
  TaskInfo monster;
  monster.id = 99;
  monster.job = 99;
  monster.workload = 0;
  monster.demand_p3 = {64, 1, 1};
  monster.demand_cpu = {64, 1, 1};
  context_.tasks.push_back(monster);
  context_.Finalize();
  const TnrpCalculator calculator(context_, {});
  EXPECT_DOUBLE_EQ(calculator.ReservationPrice(*context_.FindTask(99)), 0.0);
}

// Multi-task TNRP (§4.4).
class MultiTaskTnrpTest : public testing::Test {
 protected:
  MultiTaskTnrpTest() : catalog_(InstanceCatalog::PaperExample()) {
    context_.catalog = &catalog_;
    // One data-parallel job with 4 identical tasks (demand of tau2).
    for (int i = 0; i < 4; ++i) {
      TaskInfo task;
      task.id = i;
      task.job = 7;
      task.workload = 0;
      task.demand_p3 = {1, 4, 10};
      task.demand_cpu = {1, 4, 10};
      context_.tasks.push_back(task);
    }
    // A single-task job it can co-locate with.
    TaskInfo other;
    other.id = 10;
    other.job = 8;
    other.workload = 3;
    other.demand_p3 = {0, 4, 12};
    other.demand_cpu = {0, 4, 12};
    context_.tasks.push_back(other);
    context_.Finalize();
    context_.throughput = &table_;
  }

  InstanceCatalog catalog_;
  SchedulingContext context_;
  ThroughputTable table_{0.95};
};

TEST_F(MultiTaskTnrpTest, StragglerPenaltyChargedToPlacement) {
  // RP of each job-7 task is $3 (it2). Co-locating one of them at tput 0.9
  // costs the *whole 4-task job* 0.1 of its value:
  // TNRP = 3 - 4 * (1 - 0.9) * 3 = 1.8.
  table_.Record(0, {3}, 0.9);
  const TnrpCalculator calculator(context_, {});
  const TaskInfo& task = *context_.FindTask(0);
  const TaskInfo& other = *context_.FindTask(10);
  EXPECT_NEAR(calculator.TaskTnrp(task, {&other}), 1.8, 1e-9);
}

TEST_F(MultiTaskTnrpTest, CanGoNegativeUnderSevereInterference) {
  table_.Record(0, {3}, 0.5);
  const TnrpCalculator calculator(context_, {});
  const TaskInfo& task = *context_.FindTask(0);
  const TaskInfo& other = *context_.FindTask(10);
  // 3 - 4 * 0.5 * 3 = -3.
  EXPECT_NEAR(calculator.TaskTnrp(task, {&other}), -3.0, 1e-9);
}

TEST_F(MultiTaskTnrpTest, SingleAwareModeTreatsTasksIndependently) {
  table_.Record(0, {3}, 0.9);
  const TnrpCalculator calculator(context_, {.multi_task_aware = false});
  const TaskInfo& task = *context_.FindTask(0);
  const TaskInfo& other = *context_.FindTask(10);
  EXPECT_NEAR(calculator.TaskTnrp(task, {&other}), 2.7, 1e-9);  // 0.9 * 3.
}

TEST_F(MultiTaskTnrpTest, SingleTaskJobUnaffectedByJobScaling) {
  table_.Record(3, {0}, 0.9);
  const TnrpCalculator calculator(context_, {});
  const TaskInfo& other = *context_.FindTask(10);
  const TaskInfo& task = *context_.FindTask(0);
  // Job 8 has one task: plain tput * RP. RP(other) = $0.4 (it4).
  EXPECT_NEAR(calculator.TaskTnrp(other, {&task}), 0.36, 1e-9);
}

TEST(ThroughputTableVersionTest, RecordBumpsOnlyOnValueChange) {
  ThroughputTable table(0.95);
  EXPECT_EQ(table.Version(), 0u);
  EXPECT_TRUE(table.Record(2, {5}, 0.8));
  const std::uint64_t v1 = table.Version();
  EXPECT_GT(v1, 0u);
  EXPECT_GT(table.RowVersion(2), 0u);
  EXPECT_EQ(table.RowVersion(5), 0u);  // Only workload 2's row changed.
  // Re-recording the identical value must not invalidate anything.
  EXPECT_FALSE(table.Record(2, {5}, 0.8));
  EXPECT_EQ(table.Version(), v1);
  // A different value must.
  EXPECT_TRUE(table.Record(2, {5}, 0.7));
  EXPECT_GT(table.Version(), v1);
}

// Memoized TNRP equals a freshly constructed calculator after arbitrary
// sequences of job arrival / completion / observation deltas. The
// persistent calculator Rebind()s across rounds and must invalidate exactly
// the entries the deltas touched. Half the arrivals shave their RAM demand,
// which keeps their RP, so the population holds same-class tasks of
// distinct ids and demands.
TEST(TnrpMemoizationPropertyTest, MatchesFreshCalculatorUnderDeltaSequences) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  Rng rng(1234);

  ThroughputTable table(0.95);
  std::vector<TaskInfo> live;  // Current task population.
  TaskId next_task_id = 0;
  JobId next_job_id = 0;

  // Context rebuilt each "round" from the live population, like the
  // simulator does. Storage outlives the round for the persistent binding.
  SchedulingContext context;
  const auto rebuild_context = [&] {
    context = SchedulingContext();
    context.catalog = &catalog;
    context.throughput = &table;
    context.tasks = live;
    context.Finalize();
  };
  rebuild_context();
  TnrpCalculator memoized(context, {});
  bool saw_same_class_distinct_demands = false;

  for (int round = 0; round < 60; ++round) {
    // Random delta: arrivals (possibly multi-task), completions, and new
    // throughput observations.
    const int arrivals = static_cast<int>(rng.UniformInt(0, 2));
    for (int a = 0; a < arrivals; ++a) {
      const WorkloadId workload =
          static_cast<WorkloadId>(rng.UniformInt(0, WorkloadRegistry::NumWorkloads() - 1));
      const WorkloadSpec& spec = WorkloadRegistry::Get(workload);
      const int num_tasks = rng.Bernoulli(0.3) ? 2 : 1;
      const double ram_scale = rng.Bernoulli(0.5) ? 0.9 : 1.0;
      const JobId job = next_job_id++;
      for (int t = 0; t < num_tasks; ++t) {
        TaskInfo task;
        task.id = next_task_id++;
        task.job = job;
        task.workload = workload;
        task.demand_p3 = spec.demand_p3;
        task.demand_cpu = spec.demand_cpu;
        task.demand_p3.Set(Resource::kRamGb, spec.demand_p3.ram_gb() * ram_scale);
        task.demand_cpu.Set(Resource::kRamGb, spec.demand_cpu.ram_gb() * ram_scale);
        live.push_back(task);
      }
    }
    while (!live.empty() && rng.Bernoulli(0.2)) {
      // Complete a random job (all of its tasks leave together).
      const JobId job = live[static_cast<std::size_t>(
                                 rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1))]
                            .job;
      live.erase(std::remove_if(live.begin(), live.end(),
                                [job](const TaskInfo& task) { return task.job == job; }),
                 live.end());
    }
    const int observations = static_cast<int>(rng.UniformInt(0, 3));
    for (int o = 0; o < observations; ++o) {
      const WorkloadId w =
          static_cast<WorkloadId>(rng.UniformInt(0, WorkloadRegistry::NumWorkloads() - 1));
      const WorkloadId p =
          static_cast<WorkloadId>(rng.UniformInt(0, WorkloadRegistry::NumWorkloads() - 1));
      table.Record(w, {p}, rng.Uniform(0.5, 1.0));
    }

    rebuild_context();
    memoized.Rebind(context);
    const TnrpCalculator fresh(context, {});

    if (context.tasks.empty()) {
      continue;
    }
    for (const TaskInfo& a : context.tasks) {
      for (const TaskInfo& b : context.tasks) {
        saw_same_class_distinct_demands =
            saw_same_class_distinct_demands ||
            (memoized.PricingClass(a) == memoized.PricingClass(b) &&
             !(a.demand_cpu == b.demand_cpu));
      }
    }
    // Compare on random sets and co-locations, with and without a family.
    for (int probe = 0; probe < 8; ++probe) {
      std::vector<const TaskInfo*> set;
      const int size = static_cast<int>(
          rng.UniformInt(1, std::min<std::int64_t>(4, static_cast<std::int64_t>(
                                                          context.tasks.size()))));
      for (int s = 0; s < size; ++s) {
        set.push_back(&context.tasks[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(context.tasks.size()) - 1))]);
      }
      const std::optional<InstanceFamily> family =
          rng.Bernoulli(0.5) ? std::optional<InstanceFamily>(InstanceFamily::kC7i)
                             : std::nullopt;
      ASSERT_EQ(memoized.ReservationPrice(*set.front()),
                fresh.ReservationPrice(*set.front()));
      ASSERT_EQ(memoized.SetTnrp(set, family), fresh.SetTnrp(set, family))
          << "round " << round << " probe " << probe;
      std::vector<const TaskInfo*> partners(set.begin() + 1, set.end());
      ASSERT_EQ(memoized.TaskTnrp(*set.front(), partners, family),
                fresh.TaskTnrp(*set.front(), partners, family));
      if (set.size() >= 2) {
        std::vector<const TaskInfo*> members(set.begin(), set.end() - 1);
        ASSERT_EQ(memoized.SetTnrpPlusOne(members, *set.back(), family),
                  fresh.SetTnrp(set, family));
      }
    }
  }
  // The memoized calculator must actually be memoizing.
  EXPECT_GT(memoized.cache_stats().set_hits, 0u);
  EXPECT_TRUE(saw_same_class_distinct_demands);
}

// Tasks of one workload whose RAM demands differ but whose RP is the same
// c7i.2xlarge price: one pricing class per workload.
struct SameClassTasks {
  SameClassTasks() {
    context.catalog = &catalog;
    context.throughput = &table;
    table.Record(1, {2}, 0.8);
    Add(1, 10.0);  // 0: A
    Add(1, 12.5);  // 1: A', same class as A.
    Add(2, 6.0);   // 2: B
    Add(2, 7.5);   // 3: B', same class as B.
    Add(3, 4.0);   // 4: C
    context.Finalize();
  }

  void Add(WorkloadId workload, double ram_gb) {
    TaskInfo task;
    task.id = static_cast<TaskId>(context.tasks.size());
    task.job = task.id;
    task.workload = workload;
    task.demand_p3 = {0, 3, ram_gb};
    task.demand_cpu = {0, 3, ram_gb};
    context.tasks.push_back(task);
  }

  const TaskInfo* operator[](std::size_t index) const { return &context.tasks[index]; }

  InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  ThroughputTable table{0.95};
  SchedulingContext context;
};

// A set that lists one task twice prices each copy against the other on
// every set size, as the two-member path does. {A, A', B} and {A, A, B}
// then share one set-memo entry, so pricing the first must leave the
// second's value what a fresh calculator computes.
TEST(TnrpMemoizationPropertyTest, RepeatedMemberPricesAgainstItsOtherCopy) {
  const SameClassTasks tasks;
  const TnrpCalculator memoized(tasks.context, {});
  ASSERT_EQ(memoized.PricingClass(*tasks[0]), memoized.PricingClass(*tasks[1]));
  memoized.SetTnrp({tasks[0], tasks[1], tasks[2]});
  const TnrpCalculator fresh(tasks.context, {});
  EXPECT_EQ(memoized.SetTnrp({tasks[0], tasks[0], tasks[2]}),
            fresh.SetTnrp({tasks[0], tasks[0], tasks[2]}));
}

// A member sequence of ids never priced before hits the set memo when its
// pricing-class sequence was, on both set entry points.
TEST(TnrpMemoizationPropertyTest, NewIdSequenceOfAPricedClassSequenceHitsTheSetMemo) {
  const SameClassTasks tasks;
  const TnrpCalculator memoized(tasks.context, {});
  ASSERT_EQ(memoized.PricingClass(*tasks[2]), memoized.PricingClass(*tasks[3]));
  ASSERT_NE(memoized.PricingClass(*tasks[0]), memoized.PricingClass(*tasks[2]));
  const TnrpCalculator fresh(tasks.context, {});
  for (const std::optional<InstanceFamily> family :
       {std::optional<InstanceFamily>(), std::optional<InstanceFamily>(InstanceFamily::kC7i)}) {
    memoized.SetTnrp({tasks[0], tasks[2], tasks[4]}, family);
    const std::uint64_t hits = memoized.cache_stats().set_hits;
    EXPECT_EQ(memoized.SetTnrp({tasks[1], tasks[3], tasks[4]}, family),
              fresh.SetTnrp({tasks[1], tasks[3], tasks[4]}, family));
    EXPECT_EQ(memoized.SetTnrpPlusOne({tasks[1], tasks[2]}, *tasks[4], family),
              fresh.SetTnrp({tasks[1], tasks[2], tasks[4]}, family));
    EXPECT_EQ(memoized.cache_stats().set_hits, hits + 2);
  }
}

}  // namespace
}  // namespace eva
