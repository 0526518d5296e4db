// Golden-equivalence tests for the incremental event-driven engine.
//
// The expected values below were recorded from the pre-refactor engine
// (commit 801f02c, the last full-rescan Simulator::Impl) on three fixed
// traces. The incremental engine must reproduce them bit-for-bit in
// simulated mode: every optimization — dirty-set rate recomputation, cached
// capacity/allocation sums, candidate-set completion checks — is designed to
// perform the exact same floating-point operations as a full rescan, only
// less often. Physical mode is additionally exercised with a (tight)
// tolerance, per the stochastic-delay contract.
//
// The 2,000-job Alibaba golden was recorded on commit b0051f9, before the
// engine folded same-time duplicate completion checks; the fold must leave
// every simulated value of that trace bit-identical. `events_processed` is
// pinned at the folded engine's counts, so a regrowth of duplicate checks
// fails here even though it moves no metric. The market-regime golden was
// recorded on commit 6366e35, before spot and fault handling moved into
// MarketEvents.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "src/sim/experiment.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

struct GoldenValues {
  double total_cost;
  int jobs_submitted;
  int jobs_completed;
  int tasks_total;
  int instances_launched;
  int task_migrations;
  double migrations_per_task;
  double avg_tasks_per_instance;
  double avg_alloc_gpu;
  double avg_alloc_cpu;
  double avg_alloc_ram;
  double avg_norm_job_throughput;
  double avg_jct_hours;
  double avg_job_idle_hours;
  double makespan_s;
  int scheduling_rounds;
  std::size_t jct_size;
  double jct_sum;
  std::size_t uptime_size;
  double uptime_sum;
  std::int64_t events_processed;
};

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum;
}

// Bit-exact comparison (simulated mode): EXPECT_EQ on doubles, not
// EXPECT_DOUBLE_EQ, which tolerates 4 ULPs.
void ExpectBitExact(const SimulationMetrics& m, const GoldenValues& g) {
  EXPECT_EQ(m.total_cost, g.total_cost);
  EXPECT_EQ(m.jobs_submitted, g.jobs_submitted);
  EXPECT_EQ(m.jobs_completed, g.jobs_completed);
  EXPECT_EQ(m.tasks_total, g.tasks_total);
  EXPECT_EQ(m.instances_launched, g.instances_launched);
  EXPECT_EQ(m.task_migrations, g.task_migrations);
  EXPECT_EQ(m.migrations_per_task, g.migrations_per_task);
  EXPECT_EQ(m.avg_tasks_per_instance, g.avg_tasks_per_instance);
  EXPECT_EQ(m.avg_alloc_gpu, g.avg_alloc_gpu);
  EXPECT_EQ(m.avg_alloc_cpu, g.avg_alloc_cpu);
  EXPECT_EQ(m.avg_alloc_ram, g.avg_alloc_ram);
  EXPECT_EQ(m.avg_norm_job_throughput, g.avg_norm_job_throughput);
  EXPECT_EQ(m.avg_jct_hours, g.avg_jct_hours);
  EXPECT_EQ(m.avg_job_idle_hours, g.avg_job_idle_hours);
  EXPECT_EQ(m.makespan_s, g.makespan_s);
  EXPECT_EQ(m.scheduling_rounds, g.scheduling_rounds);
  ASSERT_EQ(m.jct_hours.size(), g.jct_size);
  EXPECT_EQ(Sum(m.jct_hours), g.jct_sum);
  ASSERT_EQ(m.instance_uptime_hours.size(), g.uptime_size);
  EXPECT_EQ(Sum(m.instance_uptime_hours), g.uptime_sum);
  EXPECT_EQ(m.events_processed, g.events_processed);
}

// Physical mode: same recorded-run comparison, but allow a relative drift
// per the stochastic-delay contract (the engine happens to reproduce the
// seed's RNG draw order exactly, so this passes far inside the tolerance).
void ExpectWithinTolerance(const SimulationMetrics& m, const GoldenValues& g, double rel) {
  EXPECT_EQ(m.jobs_submitted, g.jobs_submitted);
  EXPECT_EQ(m.jobs_completed, g.jobs_completed);
  EXPECT_EQ(m.instances_launched, g.instances_launched);
  EXPECT_EQ(m.task_migrations, g.task_migrations);
  EXPECT_NEAR(m.total_cost, g.total_cost, rel * g.total_cost);
  EXPECT_NEAR(m.avg_tasks_per_instance, g.avg_tasks_per_instance,
              rel * g.avg_tasks_per_instance);
  EXPECT_NEAR(m.avg_alloc_gpu, g.avg_alloc_gpu, rel * g.avg_alloc_gpu);
  EXPECT_NEAR(m.avg_alloc_cpu, g.avg_alloc_cpu, rel * g.avg_alloc_cpu);
  EXPECT_NEAR(m.avg_alloc_ram, g.avg_alloc_ram, rel * g.avg_alloc_ram);
  EXPECT_NEAR(m.avg_norm_job_throughput, g.avg_norm_job_throughput,
              rel * g.avg_norm_job_throughput);
  EXPECT_NEAR(m.avg_jct_hours, g.avg_jct_hours, rel * g.avg_jct_hours);
  EXPECT_NEAR(m.avg_job_idle_hours, g.avg_job_idle_hours, rel * g.avg_job_idle_hours);
  EXPECT_NEAR(m.makespan_s, g.makespan_s, rel * g.makespan_s);
  ASSERT_EQ(m.jct_hours.size(), g.jct_size);
  EXPECT_NEAR(Sum(m.jct_hours), g.jct_sum, rel * g.jct_sum);
  ASSERT_EQ(m.instance_uptime_hours.size(), g.uptime_size);
  EXPECT_NEAR(Sum(m.instance_uptime_hours), g.uptime_sum, rel * g.uptime_sum);
  EXPECT_EQ(m.events_processed, g.events_processed);
}

TEST(SimulatorGoldenTest, SyntheticEvaSimulatedModeIsBitExact) {
  SyntheticTraceOptions trace_options;
  trace_options.num_jobs = 24;
  trace_options.seed = 7;
  const Trace trace = GenerateSyntheticTrace(trace_options);
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
  const SimulationMetrics metrics = RunSimulation(trace, bundle.scheduler.get(), catalog,
                                                  interference, SimulatorOptions{});
  const GoldenValues golden = {
      /*total_cost=*/339.0530999999998,
      /*jobs_submitted=*/24,
      /*jobs_completed=*/24,
      /*tasks_total=*/30,
      /*instances_launched=*/32,
      /*task_migrations=*/28,
      /*migrations_per_task=*/0.93333333333333335,
      /*avg_tasks_per_instance=*/1.2593967249384008,
      /*avg_alloc_gpu=*/0.85715382440712673,
      /*avg_alloc_cpu=*/0.7036256561355515,
      /*avg_alloc_ram=*/0.2465781251919138,
      /*avg_norm_job_throughput=*/0.96055535186915142,
      /*avg_jct_hours=*/2.2236969065579584,
      /*avg_job_idle_hours=*/0.14937785750626437,
      /*makespan_s=*/48900.0,
      /*scheduling_rounds=*/164,
      /*jct_size=*/24,
      /*jct_sum=*/53.368725757391005,
      /*uptime_size=*/32,
      /*uptime_sum=*/52.936666666666675,
      /*events_processed=*/339,
  };
  ExpectBitExact(metrics, golden);
}

TEST(SimulatorGoldenTest, MultiTaskSynergySimulatedModeIsBitExact) {
  MultiTaskMicroOptions trace_options;
  trace_options.num_jobs = 12;
  trace_options.seed = 13;
  const Trace trace = GenerateMultiTaskMicroTrace(trace_options);
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kSynergy, interference);
  const SimulationMetrics metrics = RunSimulation(trace, bundle.scheduler.get(), catalog,
                                                  interference, SimulatorOptions{});
  const GoldenValues golden = {
      /*total_cost=*/2266.8744000000006,
      /*jobs_submitted=*/12,
      /*jobs_completed=*/12,
      /*tasks_total=*/48,
      /*instances_launched=*/40,
      /*task_migrations=*/0,
      /*migrations_per_task=*/0.0,
      /*avg_tasks_per_instance=*/1.1817061467961234,
      /*avg_alloc_gpu=*/0.93716935640499255,
      /*avg_alloc_cpu=*/0.77062208050636638,
      /*avg_alloc_ram=*/0.3037750435009216,
      /*avg_norm_job_throughput=*/0.97333333333333327,
      /*avg_jct_hours=*/10.234524252981945,
      /*avg_job_idle_hours=*/0.13950835927458405,
      /*makespan_s=*/65100.0,
      /*scheduling_rounds=*/218,
      /*jct_size=*/12,
      /*jct_sum=*/122.81429103578331,
      /*uptime_size=*/40,
      /*uptime_sum=*/413.33333333333326,
      /*events_processed=*/331,
  };
  ExpectBitExact(metrics, golden);
}

TEST(SimulatorGoldenTest, SyntheticEvaPhysicalModeMatchesWithinTolerance) {
  SyntheticTraceOptions trace_options;
  trace_options.num_jobs = 16;
  trace_options.seed = 3;
  const Trace trace = GenerateSyntheticTrace(trace_options);
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
  SimulatorOptions options;
  options.physical_mode = true;
  options.seed = 5;
  const SimulationMetrics metrics =
      RunSimulation(trace, bundle.scheduler.get(), catalog, interference, options);
  const GoldenValues golden = {
      /*total_cost=*/126.93916133333335,
      /*jobs_submitted=*/16,
      /*jobs_completed=*/16,
      /*tasks_total=*/25,
      /*instances_launched=*/26,
      /*task_migrations=*/7,
      /*migrations_per_task=*/0.28000000000000003,
      /*avg_tasks_per_instance=*/1.0730911162156465,
      /*avg_alloc_gpu=*/0.90233295120708468,
      /*avg_alloc_cpu=*/0.92400581951788396,
      /*avg_alloc_ram=*/0.37603597690299895,
      /*avg_norm_job_throughput=*/0.9838849151083624,
      /*avg_jct_hours=*/1.8986940268620125,
      /*avg_job_idle_hours=*/0.12673786649565671,
      /*makespan_s=*/24000.0,
      /*scheduling_rounds=*/81,
      /*jct_size=*/16,
      /*jct_sum=*/30.379104429792203,
      /*uptime_size=*/26,
      /*uptime_sum=*/43.589166666666664,
      /*events_processed=*/180,
  };
  ExpectWithinTolerance(metrics, golden, 1e-9);
}

// The 2,000-job seed-17 Alibaba-like trace under Eva, coalescing off.
// Same-time duplicate completion checks were 95% of its events before they
// were folded (382,023 events, now 20,065), so a change to how checks are
// armed or folded shows here first.
const GoldenValues kAlibaba2000Golden = {
    /*total_cost=*/22793.460498500026,
    /*jobs_submitted=*/2000,
    /*jobs_completed=*/2000,
    /*tasks_total=*/2000,
    /*instances_launched=*/1449,
    /*task_migrations=*/1646,
    /*migrations_per_task=*/0.82299999999999995,
    /*avg_tasks_per_instance=*/2.3977199596847867,
    /*avg_alloc_gpu=*/0.64524980327867731,
    /*avg_alloc_cpu=*/0.71882309785528486,
    /*avg_alloc_ram=*/0.56065422075965343,
    /*avg_norm_job_throughput=*/0.89377389127586715,
    /*avg_jct_hours=*/2.5961442766899361,
    /*avg_job_idle_hours=*/0.13384856308626344,
    /*makespan_s=*/2460900.0,
    /*scheduling_rounds=*/8204,
    /*jct_size=*/2000,
    /*jct_sum=*/5192.288553379859,
    /*uptime_size=*/1449,
    /*uptime_sum=*/2131.3538888888984,
    /*events_processed=*/20065,
};

// Bit-exact equivalence of round batching: the same trace with the
// quiescence-aware round trigger on and off must produce identical
// SimulationMetrics (every scalar and both distributions) and an identical
// decision trajectory — the coalesced engine skips only work that is
// provably a no-op. Two inputs: the 2,000-job Alibaba-like trace, the perf
// benchmark's headline configuration, where thousands of rounds coalesce
// (its unbatched run is also checked against kAlibaba2000Golden); and a
// 400-job trace on capped provider pools (spot and faults off, so rounds
// still coalesce), where denied launches interleave with coalesced rounds.
TEST(SimulatorGoldenTest, RoundBatchingIsBitExactOnAlibaba2000) {
  struct Input {
    const char* name;
    int num_jobs;
    bool capped;
    std::int64_t min_coalesced;
    const GoldenValues* golden;
  };
  const Input inputs[] = {
      {"alibaba2000", 2000, false, 1000, &kAlibaba2000Golden},
      {"capped400", 400, true, 1000, nullptr},
  };
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    AlibabaTraceOptions trace_options;
    trace_options.num_jobs = input.num_jobs;
    trace_options.seed = 17;
    trace_options.max_duration_hours = 48.0;
    const Trace trace = GenerateAlibabaTrace(trace_options);

    const auto run = [&](bool coalesce) {
      SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
      SimulatorOptions options;
      options.coalesce_quiescent_rounds = coalesce;
      if (input.capped) {
        options.provider.enabled = true;
        options.provider.family_capacity = {4, 10, 6};
      }
      const SimulationMetrics metrics =
          RunSimulation(trace, bundle.scheduler.get(), catalog, interference, options);
      return std::make_pair(metrics, bundle.eva->stats());
    };
    const auto [batched, batched_stats] = run(true);
    const auto [plain, plain_stats] = run(false);
    if (input.golden != nullptr) {
      ExpectBitExact(plain, *input.golden);
    }

    // Batching actually engaged (and the accounting reflects it)...
    EXPECT_GT(batched.rounds_coalesced, input.min_coalesced);
    EXPECT_EQ(batched_stats.rounds_coalesced, batched.rounds_coalesced);
    EXPECT_EQ(plain.rounds_coalesced, 0);
    EXPECT_EQ(plain_stats.rounds_coalesced, 0);
    // ...alongside provider denials on the capped input...
    EXPECT_EQ(batched.acquisitions_denied > 0, input.capped);
    EXPECT_EQ(batched.acquisitions_denied, plain.acquisitions_denied);

    // ...while every simulated quantity is bit-identical.
    EXPECT_EQ(batched.total_cost, plain.total_cost);
    EXPECT_EQ(batched.jobs_submitted, plain.jobs_submitted);
    EXPECT_EQ(batched.jobs_completed, plain.jobs_completed);
    EXPECT_EQ(batched.tasks_total, plain.tasks_total);
    EXPECT_EQ(batched.instances_launched, plain.instances_launched);
    EXPECT_EQ(batched.task_migrations, plain.task_migrations);
    EXPECT_EQ(batched.migrations_per_task, plain.migrations_per_task);
    EXPECT_EQ(batched.avg_tasks_per_instance, plain.avg_tasks_per_instance);
    EXPECT_EQ(batched.avg_alloc_gpu, plain.avg_alloc_gpu);
    EXPECT_EQ(batched.avg_alloc_cpu, plain.avg_alloc_cpu);
    EXPECT_EQ(batched.avg_alloc_ram, plain.avg_alloc_ram);
    EXPECT_EQ(batched.avg_norm_job_throughput, plain.avg_norm_job_throughput);
    EXPECT_EQ(batched.avg_jct_hours, plain.avg_jct_hours);
    EXPECT_EQ(batched.avg_job_idle_hours, plain.avg_job_idle_hours);
    EXPECT_EQ(batched.makespan_s, plain.makespan_s);
    EXPECT_EQ(batched.scheduling_rounds, plain.scheduling_rounds);
    EXPECT_EQ(batched.events_processed, plain.events_processed);
    ASSERT_EQ(batched.jct_hours.size(), plain.jct_hours.size());
    for (std::size_t i = 0; i < plain.jct_hours.size(); ++i) {
      ASSERT_EQ(batched.jct_hours[i], plain.jct_hours[i]) << "jct " << i;
    }
    ASSERT_EQ(batched.instance_uptime_hours.size(), plain.instance_uptime_hours.size());
    for (std::size_t i = 0; i < plain.instance_uptime_hours.size(); ++i) {
      ASSERT_EQ(batched.instance_uptime_hours[i], plain.instance_uptime_hours[i])
          << "uptime " << i;
    }

    // The decision trajectory matches too: same round count, same Full
    // adoptions, same job events seen, same packs — a coalesced round
    // replays exactly the per-round state updates an invoked round would
    // have made.
    EXPECT_EQ(batched_stats.rounds, plain_stats.rounds);
    EXPECT_EQ(batched_stats.full_adopted, plain_stats.full_adopted);
    EXPECT_EQ(batched_stats.events_seen, plain_stats.events_seen);
    const SchedulerCounters& a = batched.scheduler_counters;
    const SchedulerCounters& b = plain.scheduler_counters;
    EXPECT_EQ(a.packs_full, b.packs_full);
    EXPECT_EQ(a.packs_incremental, b.packs_incremental);
    EXPECT_EQ(a.packs_escalated, b.packs_escalated);
  }
}

// Batching is engine-gated off in physical mode: noisy observations draw
// from the RNG every round, so no round is a provable no-op.
TEST(SimulatorGoldenTest, RoundBatchingDisabledInPhysicalMode) {
  SyntheticTraceOptions trace_options;
  trace_options.num_jobs = 16;
  trace_options.seed = 3;
  const Trace trace = GenerateSyntheticTrace(trace_options);
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
  SimulatorOptions options;
  options.physical_mode = true;
  options.seed = 5;
  const SimulationMetrics metrics =
      RunSimulation(trace, bundle.scheduler.get(), catalog, interference, options);
  EXPECT_EQ(metrics.rounds_coalesced, 0);
}

// The market regime: the seed-17 Alibaba-like trace at 400 jobs on capped
// pools, with the spot market and fault injection on (the settings of the
// benchmark's hostile federation, on one simulator). Spot warnings, expired
// notices, zone outages, drains and correlated bursts all fire, so this pins
// every capacity-loss path, and the order of their same-time events, exactly.
TEST(SimulatorGoldenTest, MarketRegimeIsBitExact) {
  AlibabaTraceOptions trace_options;
  trace_options.num_jobs = 400;
  trace_options.seed = 17;
  trace_options.max_duration_hours = 48.0;
  const Trace trace = GenerateAlibabaTrace(trace_options);
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
  SimulatorOptions options;
  options.provider.enabled = true;
  options.provider.family_capacity = {4, 10, 6};
  options.provider.spot.enabled = true;
  options.provider.spot.seed = 4242;
  options.provider.spot.spike_probability = 0.06;
  options.faults.enabled = true;
  options.faults.seed = 97;
  const SimulationMetrics m =
      RunSimulation(trace, bundle.scheduler.get(), catalog, interference, options);

  EXPECT_EQ(m.jobs_completed, 400);
  EXPECT_EQ(m.total_cost, 2011.3134495018487);
  EXPECT_EQ(m.spot_cost, 1958.5709495018484);
  EXPECT_EQ(m.avg_jct_hours, 2.766624120991537);
  EXPECT_EQ(m.events_processed, 8092);
  EXPECT_EQ(m.scheduling_rounds, 2253);
  EXPECT_EQ(m.acquisitions_denied, 493);
  EXPECT_EQ(m.spot_preemptions, 109);
  EXPECT_EQ(m.spot_instances_launched, 577);
  EXPECT_EQ(m.task_migrations, 696);

  const FaultStats& f = m.faults;
  EXPECT_EQ(f.zone_outages, 56);
  EXPECT_EQ(f.correlated_failures, 6);
  EXPECT_EQ(f.maintenance_drains, 28);
  EXPECT_EQ(f.instances_killed, 39);
  EXPECT_EQ(f.instances_drained, 15);
  EXPECT_EQ(f.tasks_evicted, 35);
  EXPECT_EQ(f.tasks_lost, 99);
  EXPECT_EQ(f.lost_work_seconds, 309556.0);
  EXPECT_EQ(f.replacements_completed, 136);
  EXPECT_EQ(f.replacement_latency_min_s, 143.0);
  EXPECT_EQ(f.replacement_latency_median_s, 511.0);
  EXPECT_EQ(f.replacement_latency_p95_s, 669.0);
  EXPECT_EQ(f.goodput_ratio, 0.91374373100419026);

  // Every capacity-loss path ran at least once.
  EXPECT_GT(m.spot_preemptions, 0);
  EXPECT_GT(f.zone_outages, 0);
  EXPECT_GT(f.maintenance_drains, 0);
  EXPECT_GT(f.correlated_failures, 0);
}

TEST(SimulatorGoldenTest, EngineCountsEvents) {
  SyntheticTraceOptions trace_options;
  trace_options.num_jobs = 8;
  trace_options.seed = 1;
  const Trace trace = GenerateSyntheticTrace(trace_options);
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
  const SimulationMetrics metrics = RunSimulation(trace, bundle.scheduler.get(), catalog,
                                                  interference, SimulatorOptions{});
  // At minimum one arrival per job plus one round per scheduling period.
  EXPECT_GE(metrics.events_processed,
            static_cast<std::int64_t>(metrics.jobs_submitted + metrics.scheduling_rounds));
}

}  // namespace
}  // namespace eva
