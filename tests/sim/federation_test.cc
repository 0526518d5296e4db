// Federation driver tests: deterministic multi-tenant co-simulation against
// one shared, capacity-constrained spot provider.
//
// The load-bearing property is bit-reproducibility: per-tenant metrics must
// be identical across repeated runs AND across thread-pool sizes. With a
// finite pool the barrier loop runs every grant in (virtual time, tenant
// index) order on one thread; with unlimited pools tenants run concurrently
// and independently, and each must match a standalone run of its trace. The
// scenario tests additionally pin the new market behaviors (denials under
// exhausted pools, spot preemptions) actually engaging.

#include "src/sim/federation.h"

#include <gtest/gtest.h>

#include "src/obs/flight_recorder.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

// Three ScaleTrace shards of the 2,000-job Alibaba-like trace — the shared
// MakeTenantShards recipe, so the tested scenario and bench_federation's
// can never diverge.
std::vector<FederationTenant> MakeTenants(int jobs_per_tenant) {
  AlibabaTraceOptions base_options;
  base_options.num_jobs = 2000;
  base_options.seed = 17;
  base_options.max_duration_hours = 48.0;
  return MakeTenantShards(GenerateAlibabaTrace(base_options), /*num_tenants=*/3,
                          jobs_per_tenant);
}

// Capacity-constrained spot scenario: small family pools shared by three
// tenants, frequent repricing with a noticeable spike rate.
FederationOptions ConstrainedSpotOptions() {
  FederationOptions options;
  options.provider.enabled = true;
  options.provider.family_capacity = {2, 4, 2};
  options.provider.spot.enabled = true;
  options.provider.spot.price_step_s = 900.0;
  options.provider.spot.spike_probability = 0.15;
  options.provider.spot.seed = 4242;
  options.simulator.seed = 5;
  return options;
}

void ExpectBitIdentical(const SimulationMetrics& a, const SimulationMetrics& b) {
  // Every simulated quantity; scheduler_wall_seconds is wall-clock
  // measurement and legitimately differs.
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.spot_cost, b.spot_cost);
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.tasks_total, b.tasks_total);
  EXPECT_EQ(a.instances_launched, b.instances_launched);
  EXPECT_EQ(a.spot_instances_launched, b.spot_instances_launched);
  EXPECT_EQ(a.spot_preemptions, b.spot_preemptions);
  EXPECT_EQ(a.acquisitions_denied, b.acquisitions_denied);
  EXPECT_EQ(a.task_migrations, b.task_migrations);
  EXPECT_EQ(a.migrations_per_task, b.migrations_per_task);
  EXPECT_EQ(a.avg_tasks_per_instance, b.avg_tasks_per_instance);
  EXPECT_EQ(a.avg_alloc_gpu, b.avg_alloc_gpu);
  EXPECT_EQ(a.avg_alloc_cpu, b.avg_alloc_cpu);
  EXPECT_EQ(a.avg_alloc_ram, b.avg_alloc_ram);
  EXPECT_EQ(a.avg_norm_job_throughput, b.avg_norm_job_throughput);
  EXPECT_EQ(a.avg_jct_hours, b.avg_jct_hours);
  EXPECT_EQ(a.avg_job_idle_hours, b.avg_job_idle_hours);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.scheduling_rounds, b.scheduling_rounds);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.jct_hours.size(), b.jct_hours.size());
  for (std::size_t i = 0; i < a.jct_hours.size(); ++i) {
    ASSERT_EQ(a.jct_hours[i], b.jct_hours[i]) << "jct " << i;
  }
  ASSERT_EQ(a.instance_uptime_hours.size(), b.instance_uptime_hours.size());
  for (std::size_t i = 0; i < a.instance_uptime_hours.size(); ++i) {
    ASSERT_EQ(a.instance_uptime_hours[i], b.instance_uptime_hours[i]) << "uptime " << i;
  }
  // Fault-injection ledger: recovery accounting must be as reproducible as
  // the base metrics (all zero / 1.0 when faults are off).
  EXPECT_EQ(a.faults.zone_outages, b.faults.zone_outages);
  EXPECT_EQ(a.faults.correlated_failures, b.faults.correlated_failures);
  EXPECT_EQ(a.faults.maintenance_drains, b.faults.maintenance_drains);
  EXPECT_EQ(a.faults.instances_killed, b.faults.instances_killed);
  EXPECT_EQ(a.faults.instances_drained, b.faults.instances_drained);
  EXPECT_EQ(a.faults.tasks_evicted, b.faults.tasks_evicted);
  EXPECT_EQ(a.faults.tasks_lost, b.faults.tasks_lost);
  EXPECT_EQ(a.faults.lost_work_seconds, b.faults.lost_work_seconds);
  EXPECT_EQ(a.faults.replacements_completed, b.faults.replacements_completed);
  EXPECT_EQ(a.faults.replacement_latency_min_s, b.faults.replacement_latency_min_s);
  EXPECT_EQ(a.faults.replacement_latency_median_s, b.faults.replacement_latency_median_s);
  EXPECT_EQ(a.faults.replacement_latency_p95_s, b.faults.replacement_latency_p95_s);
  EXPECT_EQ(a.faults.goodput_ratio, b.faults.goodput_ratio);
}

TEST(FederationTest, DeterministicAcrossRunsAndThreadPoolSizes) {
  const std::vector<FederationTenant> tenants = MakeTenants(25);
  FederationOptions options = ConstrainedSpotOptions();
  // Flight recorders ride along so a determinism regression reports the
  // first diverging round and field, not just mismatched final metrics.
  std::vector<FlightRecorder> flights_first, flights_second, flights_serial;

  options.num_threads = 4;
  options.flight_recorders = &flights_first;
  const FederationResult first = RunFederation(tenants, options);
  options.flight_recorders = &flights_second;
  const FederationResult second = RunFederation(tenants, options);
  options.num_threads = 1;
  options.flight_recorders = &flights_serial;
  const FederationResult serial = RunFederation(tenants, options);

  ASSERT_EQ(first.tenants.size(), 3u);
  for (std::size_t i = 0; i < first.tenants.size(); ++i) {
    ExpectBitIdentical(first.tenants[i].metrics, second.tenants[i].metrics);
    ExpectBitIdentical(first.tenants[i].metrics, serial.tenants[i].metrics);
    const auto rerun = DiffFirstDivergence(flights_first[i], flights_second[i]);
    EXPECT_FALSE(rerun.has_value())
        << "tenant " << i << " re-run divergence: " << rerun->ToString();
    const auto pools = DiffFirstDivergence(flights_first[i], flights_serial[i]);
    EXPECT_FALSE(pools.has_value())
        << "tenant " << i << " pool-size divergence: " << pools->ToString();
    EXPECT_GT(flights_first[i].rounds_recorded(), 0) << "tenant " << i;
  }
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    EXPECT_EQ(first.provider.families[f].granted, serial.provider.families[f].granted);
    EXPECT_EQ(first.provider.families[f].denied, serial.provider.families[f].denied);
    EXPECT_EQ(first.provider.families[f].preempted, serial.provider.families[f].preempted);
    EXPECT_EQ(first.provider.families[f].peak_in_use,
              serial.provider.families[f].peak_in_use);
    EXPECT_EQ(first.provider.families[f].instance_hours,
              serial.provider.families[f].instance_hours);
  }
}

TEST(FederationTest, ConstrainedSpotScenarioDeniesAndPreempts) {
  const std::vector<FederationTenant> tenants = MakeTenants(25);
  const FederationResult result = RunFederation(tenants, ConstrainedSpotOptions());

  int denied = 0;
  int preempted = 0;
  int spot_launched = 0;
  for (const FederationResult::Tenant& tenant : result.tenants) {
    // Every tenant drains despite contention: denials throttle, they do not
    // wedge.
    EXPECT_EQ(tenant.metrics.jobs_completed, tenant.metrics.jobs_submitted)
        << tenant.name;
    denied += tenant.metrics.acquisitions_denied;
    preempted += tenant.metrics.spot_preemptions;
    spot_launched += tenant.metrics.spot_instances_launched;
    EXPECT_GE(tenant.metrics.spot_cost, 0.0);
    EXPECT_LE(tenant.metrics.spot_cost, tenant.metrics.total_cost);
  }
  EXPECT_GT(denied, 0);
  EXPECT_GT(preempted, 0);
  EXPECT_GT(spot_launched, 0);

  // Provider-side accounting agrees with the tenants' own counters.
  EXPECT_EQ(result.provider.TotalDenied(), denied);
  EXPECT_EQ(result.provider.TotalPreempted(), preempted);
  std::int64_t granted = 0;
  for (const FederationResult::Tenant& tenant : result.tenants) {
    granted += tenant.metrics.instances_launched;
  }
  EXPECT_EQ(result.provider.TotalGranted(), granted);
  // Everything acquired was eventually released (all tenants drained).
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    EXPECT_EQ(result.provider.families[f].granted, result.provider.families[f].released);
    if (result.provider.families[f].capacity > 0) {
      EXPECT_LE(result.provider.families[f].peak_in_use,
                result.provider.families[f].capacity);
    }
  }
}

// With one tenant, unlimited pools and no spot tier, the federation
// protocol must reproduce a plain RunSimulation bit-for-bit: the provider
// is pass-through (admission always grants, the cost hook evaluates the
// exact same expression) and the stepping API processes the exact same
// event sequence.
TEST(FederationTest, SingleTenantPassThroughMatchesPlainRun) {
  AlibabaTraceOptions trace_options;
  trace_options.num_jobs = 60;
  trace_options.seed = 17;
  trace_options.max_duration_hours = 48.0;
  const Trace trace = GenerateAlibabaTrace(trace_options);

  FederationTenant tenant;
  tenant.name = "solo";
  tenant.trace = trace;
  tenant.kind = SchedulerKind::kEva;
  FederationOptions options;  // Provider defaults: unlimited, on-demand only.
  options.num_threads = 2;
  const FederationResult federated = RunFederation({tenant}, options);

  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
  const SimulationMetrics plain = RunSimulation(trace, bundle.scheduler.get(), catalog,
                                                interference, SimulatorOptions{});

  ASSERT_EQ(federated.tenants.size(), 1u);
  ExpectBitIdentical(federated.tenants[0].metrics, plain);
  EXPECT_EQ(federated.tenants[0].metrics.acquisitions_denied, 0);
  EXPECT_EQ(federated.tenants[0].metrics.spot_preemptions, 0);
  EXPECT_EQ(federated.tenants[0].metrics.spot_cost, 0.0);
}

// The finite-pool counterpart of the pass-through: one tenant on capped
// pools, with spot preemptions and fault kills on, runs the barrier loop,
// and must still equal a standalone run with the same provider and fault
// options on a private provider.
TEST(FederationTest, SingleTenantCappedFederationMatchesStandaloneRun) {
  const std::vector<FederationTenant> tenants = MakeTenants(/*jobs_per_tenant=*/200);
  ASSERT_FALSE(tenants.empty());
  const FederationTenant& tenant = tenants.front();

  FederationOptions options;
  options.provider.enabled = true;
  options.provider.family_capacity = {4, 10, 6};
  options.provider.spot.enabled = true;
  options.provider.spot.seed = 4242;
  options.provider.spot.spike_probability = 0.06;
  options.simulator.faults.enabled = true;
  options.simulator.faults.seed = 97;
  options.simulator.seed = 5;
  const FederationResult federated = RunFederation({tenant}, options);
  ASSERT_EQ(federated.tenants.size(), 1u);
  EXPECT_GT(federated.stats.barriers, 0);

  SimulatorOptions standalone = options.simulator;
  standalone.provider = options.provider;
  SchedulerBundle bundle = MakeScheduler(tenant.kind, options.interference, options.eva);
  const SimulationMetrics alone = RunSimulation(tenant.trace, bundle.scheduler.get(),
                                                options.catalog, options.interference,
                                                standalone);
  ExpectBitIdentical(federated.tenants[0].metrics, alone);
  // The regime engages all three capacity-loss and admission paths.
  EXPECT_GT(alone.acquisitions_denied, 0);
  EXPECT_GT(alone.spot_preemptions, 0);
  EXPECT_GT(alone.faults.instances_killed, 0);
}

// 100 ScaleTrace shards of the 2,000-job trace, 6 jobs each — the
// production-tenant-count scenario of the pool-size determinism tests.
std::vector<FederationTenant> MakeHundredTenants() {
  AlibabaTraceOptions base_options;
  base_options.num_jobs = 2000;
  base_options.seed = 17;
  base_options.max_duration_hours = 48.0;
  return MakeTenantShards(GenerateAlibabaTrace(base_options), /*num_tenants=*/100,
                          /*jobs_per_tenant=*/6);
}

// Runs `tenants` at pool sizes {1, 2, 8} and expects every tenant metric,
// every provider tally and the driver's dispatch counters to be
// bit-identical across them. Returns the 1-thread result.
FederationResult ExpectPoolSizeInvariant(const std::vector<FederationTenant>& tenants,
                                         FederationOptions options) {
  options.num_threads = 1;
  FederationResult one = RunFederation(tenants, options);
  options.num_threads = 2;
  const FederationResult two = RunFederation(tenants, options);
  options.num_threads = 8;
  const FederationResult eight = RunFederation(tenants, options);

  for (const FederationResult* other : {&two, &eight}) {
    EXPECT_EQ(one.tenants.size(), other->tenants.size());
    if (one.tenants.size() != other->tenants.size()) {
      return one;
    }
    for (std::size_t i = 0; i < one.tenants.size(); ++i) {
      ExpectBitIdentical(one.tenants[i].metrics, other->tenants[i].metrics);
    }
    for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
      EXPECT_EQ(one.provider.families[f].granted, other->provider.families[f].granted);
      EXPECT_EQ(one.provider.families[f].denied, other->provider.families[f].denied);
      EXPECT_EQ(one.provider.families[f].fault_denied,
                other->provider.families[f].fault_denied);
      EXPECT_EQ(one.provider.families[f].preempted,
                other->provider.families[f].preempted);
      EXPECT_EQ(one.provider.families[f].released, other->provider.families[f].released);
      EXPECT_EQ(one.provider.families[f].peak_in_use,
                other->provider.families[f].peak_in_use);
      EXPECT_EQ(one.provider.families[f].instance_hours,
                other->provider.families[f].instance_hours);
    }
    EXPECT_EQ(one.stats.barriers, other->stats.barriers);
    EXPECT_EQ(one.stats.advance_participants, other->stats.advance_participants);
    EXPECT_EQ(one.stats.round_participants, other->stats.round_participants);
    EXPECT_EQ(one.stats.round_groups, other->stats.round_groups);
    EXPECT_EQ(one.stats.largest_group_participants,
              other->stats.largest_group_participants);
  }
  return one;
}

// The barrier loop at production tenant counts: 100 tenants sharing finite
// P3/R7i pools and an unlimited C7i pool (the swept-peak accounting) must be
// bit-identical across pool sizes {1, 2, 8}. Any finite pool puts every
// barrier's participants into one tenant-ordered group.
TEST(FederationTest, PoolSizeDeterminismAtOneHundredTenants) {
  FederationOptions options;
  options.provider.enabled = true;
  // Finite P3/R7i shards (contended) + unlimited C7i (peak via the finalize
  // sweep).
  options.provider.family_capacity = {40, -1, 30};
  options.provider.spot.enabled = true;
  options.provider.spot.price_step_s = 900.0;
  options.provider.spot.spike_probability = 0.15;
  options.provider.spot.seed = 4242;
  options.simulator.seed = 5;

  const FederationResult one = ExpectPoolSizeInvariant(MakeHundredTenants(), options);
  ASSERT_EQ(one.tenants.size(), 100u);
  // Sanity: the scenario actually contends, and each barrier is one group.
  EXPECT_GT(one.provider.TotalDenied(), 0);
  EXPECT_GT(one.stats.barriers, 0);
  EXPECT_EQ(one.stats.round_groups, one.stats.barriers);
}

// Unlimited pools make tenants independent: no grant can be denied and
// every shared provider tally is commutative, so the driver runs each tenant
// to completion on its own. Each tenant's metrics must equal, bit for bit, a
// standalone run of its trace with the same per-tenant options against a
// private provider, at every pool size — with spot preemptions and fault
// kills releasing capacity concurrently.
TEST(FederationTest, UnlimitedPoolTenantsMatchStandaloneRuns) {
  FederationOptions options;
  options.provider.enabled = true;  // Unlimited pools.
  options.provider.spot.enabled = true;
  options.provider.spot.price_step_s = 900.0;
  options.provider.spot.spike_probability = 0.15;
  options.provider.spot.seed = 4242;
  options.simulator.seed = 5;
  options.simulator.faults.enabled = true;
  options.simulator.faults.seed = 97;

  const std::vector<FederationTenant> tenants = MakeHundredTenants();
  const FederationResult one = ExpectPoolSizeInvariant(tenants, options);
  ASSERT_EQ(one.tenants.size(), tenants.size());
  EXPECT_EQ(one.stats.barriers, 0);
  EXPECT_EQ(one.provider.TotalDenied(), 0);

  std::int64_t preemptions = 0;
  std::int64_t fault_kills = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    SCOPED_TRACE(tenants[i].name);
    // The options RunFederation gives tenant i, with a private provider in
    // place of the shared one.
    SimulatorOptions standalone = options.simulator;
    standalone.provider = options.provider;
    standalone.tenant_id = static_cast<int>(i);
    standalone.seed = options.simulator.seed + i;
    SchedulerBundle bundle =
        MakeScheduler(tenants[i].kind, options.interference, options.eva);
    const SimulationMetrics alone =
        RunSimulation(tenants[i].trace, bundle.scheduler.get(), options.catalog,
                      options.interference, standalone);
    ExpectBitIdentical(one.tenants[i].metrics, alone);
    EXPECT_EQ(alone.jobs_completed, alone.jobs_submitted);
    preemptions += alone.spot_preemptions;
    fault_kills += alone.faults.instances_killed;
  }
  EXPECT_GT(preemptions, 0);
  EXPECT_GT(fault_kills, 0);
}

// The fault-injection tentpole invariant: with the deterministic fault
// model on (zone outages, correlated bursts, maintenance drains all
// engaging against the shared provider), the 100-tenant federation must
// still be bit-identical across pool sizes {1, 2, 8} — fault kills only
// release capacity (commutative per shard), the outage capacity clamp is a
// pure function of time consulted at the serialized acquire, and every
// fault schedule is a pure hash of (seed, kind, step).
TEST(FederationTest, FaultInjectionDeterministicAtOneHundredTenants) {
  FederationOptions options;
  options.provider.enabled = true;
  options.provider.family_capacity = {40, -1, 30};
  options.provider.spot.enabled = true;
  options.provider.spot.price_step_s = 900.0;
  options.provider.spot.spike_probability = 0.15;
  options.provider.spot.seed = 4242;
  options.simulator.seed = 5;
  options.simulator.faults.enabled = true;
  options.simulator.faults.seed = 97;

  const FederationResult one = ExpectPoolSizeInvariant(MakeHundredTenants(), options);
  ASSERT_EQ(one.tenants.size(), 100u);
  std::int64_t fault_events = 0;
  std::int64_t replacements = 0;
  for (const FederationResult::Tenant& tenant : one.tenants) {
    const FaultStats& faults = tenant.metrics.faults;
    fault_events +=
        faults.zone_outages + faults.correlated_failures + faults.maintenance_drains;
    replacements += faults.replacements_completed;
    EXPECT_GE(faults.goodput_ratio, 0.0);
    EXPECT_LE(faults.goodput_ratio, 1.0);
  }
  // The scenario is not vacuous: faults fired, tasks were re-placed, the
  // outage clamp denied at least one acquire, and every tenant still
  // drained (faults delay jobs, they never lose them).
  EXPECT_GT(fault_events, 0);
  EXPECT_GT(replacements, 0);
  std::int64_t fault_denied = 0;
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    fault_denied += one.provider.families[f].fault_denied;
  }
  EXPECT_GT(fault_denied, 0);
  for (const FederationResult::Tenant& tenant : one.tenants) {
    EXPECT_EQ(tenant.metrics.jobs_completed, tenant.metrics.jobs_submitted)
        << tenant.name;
  }
  EXPECT_GT(one.stats.barriers, 0);
  EXPECT_EQ(one.stats.round_groups, one.stats.barriers);
}

// Two tenants racing the single slot of one family shard: the barrier loop
// must arbitrate the grant in tenant-index order, every time, at every pool
// size. Demands carry GPUs on both vectors, so only the P3 family fits and
// the two tenants provably share that shard.
TEST(FederationTest, ContendedShardGrantsArbitrateInTenantOrder) {
  const auto gpu_job = [] {
    JobSpec job = JobSpec::FromWorkload(/*id=*/0, /*arrival_time_s=*/0.0,
                                        static_cast<WorkloadId>(0),
                                        /*duration_s=*/1800.0, /*num_tasks=*/1);
    job.demand_p3 = ResourceVector(1.0, 4.0, 16.0);
    job.demand_cpu = job.demand_p3;
    return job;
  };
  std::vector<FederationTenant> tenants(2);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].name = "racer" + std::to_string(i);
    tenants[i].trace.name = tenants[i].name;
    tenants[i].trace.jobs = {gpu_job()};
  }

  FederationOptions options;
  options.provider.enabled = true;
  options.provider.family_capacity = {1, -1, -1};  // One P3 slot for two tenants.

  options.num_threads = 1;
  const FederationResult serial = RunFederation(tenants, options);
  options.num_threads = 8;
  const FederationResult parallel = RunFederation(tenants, options);

  for (const FederationResult* result : {&serial, &parallel}) {
    ASSERT_EQ(result->tenants.size(), 2u);
    const SimulationMetrics& winner = result->tenants[0].metrics;
    const SimulationMetrics& loser = result->tenants[1].metrics;
    // Tenant 0 wins the t=0 round's only slot; tenant 1 is denied and
    // retries until the release.
    EXPECT_EQ(winner.acquisitions_denied, 0);
    EXPECT_GT(loser.acquisitions_denied, 0);
    EXPECT_EQ(winner.jobs_completed, 1);
    EXPECT_EQ(loser.jobs_completed, 1);
    EXPECT_LT(winner.avg_jct_hours, loser.avg_jct_hours);
  }
  ExpectBitIdentical(serial.tenants[0].metrics, parallel.tenants[0].metrics);
  ExpectBitIdentical(serial.tenants[1].metrics, parallel.tenants[1].metrics);
}

// Staggered round offsets: a pure function of (stagger_seed, tenant index),
// so the same options reproduce bit-identically across runs and pool sizes
// — and the offsets must actually shift the trajectory vs. the unstaggered
// run.
TEST(FederationTest, StaggerOffsetsAreDeterministic) {
  const std::vector<FederationTenant> tenants = MakeTenants(25);
  FederationOptions options = ConstrainedSpotOptions();
  options.stagger_rounds = true;
  options.stagger_slots = 4;

  options.num_threads = 4;
  const FederationResult first = RunFederation(tenants, options);
  const FederationResult second = RunFederation(tenants, options);
  options.num_threads = 1;
  const FederationResult serial = RunFederation(tenants, options);

  ASSERT_EQ(first.tenants.size(), 3u);
  for (std::size_t i = 0; i < first.tenants.size(); ++i) {
    ExpectBitIdentical(first.tenants[i].metrics, second.tenants[i].metrics);
    ExpectBitIdentical(first.tenants[i].metrics, serial.tenants[i].metrics);
  }

  // The offsets engaged: some tenant's trajectory differs from the
  // unstaggered run (deterministically — both sides are pure functions of
  // their options).
  options.stagger_rounds = false;
  options.num_threads = 4;
  const FederationResult unstaggered = RunFederation(tenants, options);
  bool any_difference = false;
  for (std::size_t i = 0; i < first.tenants.size(); ++i) {
    any_difference = any_difference ||
                     first.tenants[i].metrics.makespan_s !=
                         unstaggered.tenants[i].metrics.makespan_s ||
                     first.tenants[i].metrics.scheduling_rounds !=
                         unstaggered.tenants[i].metrics.scheduling_rounds;
  }
  EXPECT_TRUE(any_difference);
}

// A tenant that trips max_sim_time_s aborts mid-run with its round event
// still notionally pending; the barrier loop (a finite pool) must see its
// barrier as +infinity and terminate instead of spinning on the stale round
// time forever.
TEST(FederationTest, AbortedTenantDoesNotWedgeTheFederation) {
  SyntheticTraceOptions trace_options;
  trace_options.num_jobs = 4;
  trace_options.seed = 2;
  FederationTenant tenant;
  tenant.name = "doomed";
  tenant.trace = GenerateSyntheticTrace(trace_options);
  tenant.kind = SchedulerKind::kEva;

  FederationOptions options;
  options.provider.enabled = true;
  options.provider.family_capacity = {2, 2, 2};
  // The second scheduling round (t=300s) already exceeds the limit.
  options.simulator.max_sim_time_s = 100.0;
  const FederationResult result = RunFederation({tenant}, options);
  ASSERT_EQ(result.tenants.size(), 1u);
  EXPECT_EQ(result.tenants[0].metrics.jobs_completed, 0);
  EXPECT_LE(result.tenants[0].metrics.makespan_s, 100.0);
  EXPECT_GT(result.stats.barriers, 0);
}

}  // namespace
}  // namespace eva
