#include "src/core/incremental_reconfig.h"

#include <gtest/gtest.h>

#include <set>

#include "src/sim/experiment.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

// A small population over the AWS catalog with a complete delta attached.
class IncrementalReconfigTest : public testing::Test {
 protected:
  IncrementalReconfigTest() : catalog_(InstanceCatalog::AwsDefault()) {
    context_.catalog = &catalog_;
  }

  TaskId AddTask(const char* workload, JobId job, InstanceId on = kInvalidInstanceId) {
    const WorkloadId id = WorkloadRegistry::IdOf(workload);
    const WorkloadSpec& spec = WorkloadRegistry::Get(id);
    TaskInfo task;
    task.id = next_task_id_++;
    task.job = job;
    task.workload = id;
    task.demand_p3 = spec.demand_p3;
    task.demand_cpu = spec.demand_cpu;
    task.current_instance = on;
    context_.tasks.push_back(task);
    return task.id;
  }

  std::set<TaskId> AssignedTasks(const ClusterConfig& config) {
    std::set<TaskId> seen;
    for (const ConfigInstance& instance : config.instances) {
      seen.insert(instance.tasks.begin(), instance.tasks.end());
    }
    return seen;
  }

  InstanceCatalog catalog_;
  SchedulingContext context_;
  TaskId next_task_id_ = 0;
};

TEST_F(IncrementalReconfigTest, EmptyDeltaReproducesThePreviousConfig) {
  for (JobId job = 1; job <= 4; ++job) {
    AddTask(job % 2 == 0 ? "GCN" : "ViT", job);
  }
  context_.Finalize();
  const TnrpCalculator calculator(context_, {});
  const ClusterConfig previous = FullReconfiguration(context_, calculator);

  context_.delta.complete = true;  // Nothing changed.
  ClusterConfig config;
  EXPECT_EQ(IncrementalReconfigurationInto(context_, calculator, previous, config),
            IncrementalOutcome::kIncremental);
  ASSERT_EQ(config.instances.size(), previous.instances.size());
  for (std::size_t i = 0; i < previous.instances.size(); ++i) {
    EXPECT_EQ(config.instances[i].type_index, previous.instances[i].type_index);
    EXPECT_EQ(config.instances[i].tasks, previous.instances[i].tasks);
  }
}

TEST_F(IncrementalReconfigTest, IncompleteDeltaFallsBackToFullRepack) {
  AddTask("ViT", 1);
  context_.Finalize();
  const TnrpCalculator calculator(context_, {});
  const ClusterConfig previous = FullReconfiguration(context_, calculator);
  // delta.complete defaults to false.
  ClusterConfig config;
  EXPECT_EQ(IncrementalReconfigurationInto(context_, calculator, previous, config),
            IncrementalOutcome::kFullIncompleteDelta);
  EXPECT_EQ(AssignedTasks(config).size(), 1u);
}

TEST_F(IncrementalReconfigTest, EmptyPreviousFallsBackWithNoPreviousOutcome) {
  AddTask("ViT", 1);
  context_.Finalize();
  context_.delta.complete = true;
  context_.delta.jobs_arrived = {1};
  const TnrpCalculator calculator(context_, {});
  ClusterConfig config;
  EXPECT_EQ(IncrementalReconfigurationInto(context_, calculator, ClusterConfig{}, config),
            IncrementalOutcome::kFullNoPrevious);
}

TEST_F(IncrementalReconfigTest, OversizedDeltaFallsBackToFullRepack) {
  for (JobId job = 1; job <= 4; ++job) {
    AddTask("GCN", job);
  }
  context_.Finalize();
  const TnrpCalculator calculator(context_, {});
  const ClusterConfig previous = FullReconfiguration(context_, calculator);
  context_.delta.complete = true;
  context_.delta.jobs_arrived = {1, 2, 3};  // 3 of 4 tasks touched.
  ClusterConfig config;
  EXPECT_EQ(IncrementalReconfigurationInto(context_, calculator, previous, config),
            IncrementalOutcome::kFullOversizedDelta);
}

// The -Into variant's documented aliasing contract ("must not alias
// `previous`") is enforced with an always-on check: the kept-instance loop
// reads `previous` while the appender rewrites the output, so an aliased
// call would silently read half-overwritten state.
using IncrementalReconfigDeathTest = IncrementalReconfigTest;

TEST_F(IncrementalReconfigDeathTest, AliasedOutputAborts) {
  AddTask("ViT", 1);
  context_.Finalize();
  context_.delta.complete = true;
  const TnrpCalculator calculator(context_, {});
  ClusterConfig config = FullReconfiguration(context_, calculator);
  EXPECT_DEATH(
      IncrementalReconfigurationInto(context_, calculator, config, config),
      "must not alias previous");
}

TEST_F(IncrementalReconfigTest, SmallDeltaKeepsUntouchedInstancesAndPacksTheRest) {
  // Eight tasks previously packed; one job completes and one arrives.
  for (JobId job = 1; job <= 8; ++job) {
    AddTask(job % 2 == 0 ? "GCN" : "A3C", job);
  }
  context_.Finalize();
  const TnrpCalculator calculator(context_, {});
  const ClusterConfig previous = FullReconfiguration(context_, calculator);

  // Job 6's task completes (drop it from the context); job 9 arrives.
  const TaskId completed = 5;
  context_.tasks.erase(context_.tasks.begin() + completed);
  const TaskId arrived = AddTask("OpenFOAM", 9);
  context_.Finalize();
  context_.delta.complete = true;
  context_.delta.jobs_completed = {6};
  context_.delta.jobs_arrived = {9};
  // 2 of 8 touched stays within the full-repack fraction.
  ASSERT_LE(static_cast<double>(context_.delta.TouchedCount()),
            kFullRepackFraction * static_cast<double>(context_.tasks.size()));

  ClusterConfig config;
  EXPECT_EQ(IncrementalReconfigurationInto(context_, calculator, previous, config),
            IncrementalOutcome::kIncremental);
  EXPECT_FALSE(config.Validate(context_).has_value());
  const std::set<TaskId> seen = AssignedTasks(config);
  EXPECT_EQ(seen.size(), context_.tasks.size());
  EXPECT_EQ(seen.count(completed), 0u);
  EXPECT_EQ(seen.count(arrived), 1u);
}

// End-to-end coverage of EvaOptions::incremental_packing on the 2,000-job
// Alibaba-like trace: both the incremental path and the threshold fallback
// to a full repack must be exercised, every job must complete, and the
// end-to-end metrics must stay within the approximation bound documented in
// incremental_reconfig.h (cost within 10% of exact Eva, average JCT within
// 5%).
TEST(IncrementalPackingEndToEndTest, StaysWithinDocumentedBoundOnAlibaba2000) {
  AlibabaTraceOptions trace_options;
  trace_options.num_jobs = 2000;
  trace_options.seed = 17;
  trace_options.max_duration_hours = 48.0;
  const Trace trace = GenerateAlibabaTrace(trace_options);
  const InterferenceModel interference = InterferenceModel::Measured();
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();

  SimulationMetrics exact;
  {
    SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
    exact = RunSimulation(trace, bundle.scheduler.get(), catalog, interference,
                          SimulatorOptions{});
  }

  EvaOptions options;
  options.incremental_packing = EvaOptions::IncrementalPacking::kOn;
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference, options);
  const SimulationMetrics incremental = RunSimulation(
      trace, bundle.scheduler.get(), catalog, interference, SimulatorOptions{});
  const SchedulerCounters& counters = incremental.scheduler_counters;

  // Both the delta-touched repacking and the full-repack fallback ran.
  EXPECT_GT(counters.packs_incremental, 100);
  EXPECT_GT(counters.packs_full + counters.packs_escalated, 100);

  // The bounded-divergence control loop was live: reconciliations happened
  // at the default cadence, no configuration ran unreconciled past it, and
  // the counters exported through the simulator agree with the scheduler.
  EXPECT_GT(counters.reconciliations, 0);
  EXPECT_LE(counters.max_kept_staleness, EvaScheduler::kReconcileEveryNPacks);
  EXPECT_EQ(counters.packs_incremental, bundle.eva->stats().packs_incremental);
  EXPECT_EQ(counters.packs_full, bundle.eva->stats().packs_full);
  EXPECT_EQ(counters.fallback_incomplete_delta, 0);  // The engine tracks deltas.

  // Nothing was lost to the approximation...
  EXPECT_EQ(incremental.jobs_submitted, exact.jobs_submitted);
  EXPECT_EQ(incremental.jobs_completed, exact.jobs_completed);

  // ...and the economics stay inside the documented envelope.
  EXPECT_LT(incremental.total_cost, exact.total_cost * 1.10);
  EXPECT_NEAR(incremental.avg_jct_hours / exact.avg_jct_hours, 1.0, 0.05);
}

// The kAuto default resolves against the workload scale the simulator binds
// (EvaSchedulerTest.BindWorkloadScaleResolvesAutoMode pins the threshold):
// RunSimulation binds the trace's job count, and below
// kIncrementalAutoMinJobs the run is exact (zero incremental counters — the
// golden-pinned paths stay bit-identical).
TEST(IncrementalPackingAutoFlipTest, AutoModeFollowsBoundWorkloadScale) {
  AlibabaTraceOptions trace_options;
  trace_options.num_jobs = 300;
  trace_options.seed = 11;
  trace_options.max_duration_hours = 24.0;
  const Trace trace = GenerateAlibabaTrace(trace_options);
  const InterferenceModel interference = InterferenceModel::Measured();
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();

  class ScaleRecordingEva : public EvaScheduler {
   public:
    void BindWorkloadScale(std::size_t expected_jobs) override {
      bound = expected_jobs;
      EvaScheduler::BindWorkloadScale(expected_jobs);
    }
    std::size_t bound = 0;
  };
  ScaleRecordingEva scheduler;
  const SimulationMetrics metrics =
      RunSimulation(trace, &scheduler, catalog, interference, SimulatorOptions{});
  EXPECT_EQ(scheduler.bound, trace.jobs.size());
  EXPECT_FALSE(scheduler.incremental_active());
  EXPECT_EQ(metrics.scheduler_counters.packs_incremental, 0);
  EXPECT_EQ(metrics.scheduler_counters.reconciliations, 0);
  EXPECT_GT(metrics.scheduler_counters.packs_full, 0);
}

// Reconciliation cadence is counted in computed packs, not rounds, so the
// trajectory — configurations, metrics, and every counter — must be
// bit-identical across repeated runs, the same way the exact path is. The
// 2,000-job trace is long enough to reach the reconciliation cadence.
TEST(IncrementalPackingDeterminismTest, SameSeedSameMetricsAcrossRuns) {
  AlibabaTraceOptions trace_options;
  trace_options.num_jobs = 2000;
  trace_options.seed = 17;
  trace_options.max_duration_hours = 48.0;
  const Trace trace = GenerateAlibabaTrace(trace_options);
  const InterferenceModel interference = InterferenceModel::Measured();
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();

  auto run = [&] {
    EvaOptions options;
    options.incremental_packing = EvaOptions::IncrementalPacking::kOn;
    SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference, options);
    return RunSimulation(trace, bundle.scheduler.get(), catalog, interference,
                         SimulatorOptions{});
  };
  const SimulationMetrics first = run();
  const SimulationMetrics again = run();

  EXPECT_EQ(first.total_cost, again.total_cost);
  EXPECT_EQ(first.avg_jct_hours, again.avg_jct_hours);
  EXPECT_EQ(first.jobs_completed, again.jobs_completed);
  EXPECT_EQ(first.instances_launched, again.instances_launched);
  EXPECT_EQ(first.task_migrations, again.task_migrations);
  const SchedulerCounters& a = first.scheduler_counters;
  const SchedulerCounters& b = again.scheduler_counters;
  EXPECT_GT(a.reconciliations, 0);
  EXPECT_EQ(a.packs_incremental, b.packs_incremental);
  EXPECT_EQ(a.packs_full, b.packs_full);
  EXPECT_EQ(a.packs_escalated, b.packs_escalated);
  EXPECT_EQ(a.reconciliations, b.reconciliations);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.fallback_oversized_delta, b.fallback_oversized_delta);
  EXPECT_EQ(a.fallback_no_previous, b.fallback_no_previous);
  EXPECT_EQ(a.max_divergence_cost, b.max_divergence_cost);
  EXPECT_EQ(a.max_divergence_edits, b.max_divergence_edits);
  EXPECT_EQ(a.max_kept_staleness, b.max_kept_staleness);
}

}  // namespace
}  // namespace eva
