// Observability determinism, end to end on the real engine:
//
//  * the recorded trace serialises to byte-identical JSON across repeated
//    runs (single simulator) AND across federation driver pool sizes
//    {1, 2, 8} (shared recorder, per-tenant tracks) — spans are stamped in
//    virtual time, so the trace inherits the engine's bit-determinism;
//  * turning the whole subsystem on does not perturb the simulation
//    (metrics bit-identical to an observability-off run);
//  * per-round flight digests agree across runs, and an injected
//    single-round perturbation is localised to exactly that round.
//
// (Suites are named Obs* so CI's sanitizer filter picks them up.)

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/sim/experiment.h"
#include "src/sim/federation.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

Trace MakeTrace(int num_jobs) {
  AlibabaTraceOptions options;
  options.num_jobs = num_jobs;
  options.seed = 17;
  options.max_duration_hours = 48.0;
  return GenerateAlibabaTrace(options);
}

struct ObservedRun {
  SimulationMetrics metrics;
  std::string trace_json;
  std::string telemetry_json;
};

// One fully-observed Eva run: trace + flight digests + registry.
ObservedRun RunObserved(const Trace& trace, FlightRecorder* flight) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);

  TraceRecorder recorder;
  TelemetryRegistry registry;
  SimulatorOptions options;
  options.observability.trace = &recorder;
  options.observability.flight_recorder = flight;
  options.observability.registry = &registry;

  ObservedRun run;
  run.metrics = RunSimulation(trace, bundle.scheduler.get(), catalog, interference,
                              options);
  run.trace_json = recorder.ToChromeJson();
  run.telemetry_json = registry.ToJson();
  return run;
}

TEST(ObsDeterminismTest, TraceBytesIdenticalAcrossRuns) {
  const Trace trace = MakeTrace(200);
  FlightRecorder flight, flight_again;
  const ObservedRun one = RunObserved(trace, &flight);
  const ObservedRun again = RunObserved(trace, &flight_again);

  ASSERT_FALSE(one.trace_json.empty());
  EXPECT_GT(one.trace_json.find("\"round\""), 0u);
  // Repeated run: bitwise identical artifacts, round for round.
  EXPECT_EQ(one.trace_json, again.trace_json);
  EXPECT_EQ(one.telemetry_json, again.telemetry_json);
  EXPECT_FALSE(DiffFirstDivergence(flight, flight_again).has_value());
  EXPECT_GT(flight.rounds_recorded(), 0);
}

TEST(ObsDeterminismTest, ObservabilityIsPassive) {
  const Trace trace = MakeTrace(200);
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();

  SchedulerBundle off_bundle = MakeScheduler(SchedulerKind::kEva, interference);
  const SimulationMetrics off = RunSimulation(trace, off_bundle.scheduler.get(),
                                              catalog, interference, SimulatorOptions{});
  FlightRecorder flight;
  const ObservedRun on = RunObserved(trace, &flight);

  // The observed run replays the exact same trajectory: recording is
  // read-only with respect to the simulation.
  EXPECT_EQ(off.total_cost, on.metrics.total_cost);
  EXPECT_EQ(off.jobs_completed, on.metrics.jobs_completed);
  EXPECT_EQ(off.avg_jct_hours, on.metrics.avg_jct_hours);
  EXPECT_EQ(off.makespan_s, on.metrics.makespan_s);
  EXPECT_EQ(off.scheduling_rounds, on.metrics.scheduling_rounds);
  EXPECT_EQ(off.rounds_coalesced, on.metrics.rounds_coalesced);
  EXPECT_EQ(off.events_processed, on.metrics.events_processed);
  EXPECT_EQ(off.instances_launched, on.metrics.instances_launched);
  EXPECT_EQ(off.task_migrations, on.metrics.task_migrations);
}

TEST(ObsDeterminismTest, InjectedPerturbationIsLocalisedToItsRound) {
  const Trace trace = MakeTrace(120);
  FlightRecorder a, b;
  RunObserved(trace, &a);
  RunObserved(trace, &b);
  ASSERT_FALSE(DiffFirstDivergence(a, b).has_value());
  ASSERT_GT(b.rounds_recorded(), 4);

  // Simulate a stray RNG draw on one mid-run round; the diff must name
  // exactly that round, not the end-of-run drift a metrics comparison sees.
  const std::int64_t victim = b.rounds_recorded() / 2;
  ASSERT_NE(b.MutableDigest(victim), nullptr);
  b.MutableDigest(victim)->rng_hash ^= 1u;
  const auto report = DiffFirstDivergence(a, b);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->round, victim);
  EXPECT_EQ(report->field, "rng_hash");
}

// Both federation regimes: capped pools run the barrier loop on one thread
// (and emit barrier spans); unlimited pools run the tenants concurrently,
// each writing its own track of the shared recorder.
TEST(ObsFederationDeterminismTest, TraceBytesIdenticalAcrossDriverPoolSizes) {
  AlibabaTraceOptions base_options;
  base_options.num_jobs = 2000;
  base_options.seed = 17;
  base_options.max_duration_hours = 48.0;
  const std::vector<FederationTenant> tenants =
      MakeTenantShards(GenerateAlibabaTrace(base_options), /*num_tenants=*/3,
                       /*jobs_per_tenant=*/25);

  for (const bool capped : {true, false}) {
    SCOPED_TRACE(capped ? "capped pools" : "unlimited pools");
    const auto run = [&tenants, capped](int num_threads, TraceRecorder& recorder,
                                        std::vector<FlightRecorder>& flights,
                                        TelemetryRegistry& registry) {
      FederationOptions options;
      options.provider.enabled = true;
      if (capped) {
        options.provider.family_capacity = {2, 4, 2};
      }
      options.provider.spot.enabled = true;
      options.provider.spot.price_step_s = 900.0;
      options.provider.spot.spike_probability = 0.15;
      options.provider.spot.seed = 4242;
      options.simulator.seed = 5;
      options.simulator.observability.trace = &recorder;
      options.simulator.observability.registry = &registry;
      options.flight_recorders = &flights;
      options.num_threads = num_threads;
      return RunFederation(tenants, options);
    };

    TraceRecorder rec1, rec2, rec8;
    std::vector<FlightRecorder> fl1, fl2, fl8;
    TelemetryRegistry reg1, reg2, reg8;
    run(1, rec1, fl1, reg1);
    run(2, rec2, fl2, reg2);
    run(8, rec8, fl8, reg8);

    // The export merge-sorts every track by virtual time, so the bytes
    // cannot depend on the order in which the driver ran the tenants.
    const std::string json1 = rec1.ToChromeJson();
    EXPECT_FALSE(json1.empty());
    EXPECT_NE(json1.find("\"federation\""), std::string::npos);
    EXPECT_EQ(json1.find("fed.barrier") != std::string::npos, capped);
    EXPECT_EQ(json1, rec2.ToChromeJson());
    EXPECT_EQ(json1, rec8.ToChromeJson());

    // The driver published its stats through the registry for every run;
    // only the capped regime runs barriers.
    EXPECT_EQ(reg1.CounterValue("federation.barriers") > 0, capped);
    EXPECT_EQ(reg1.ToJson(), reg2.ToJson());
    EXPECT_EQ(reg1.ToJson(), reg8.ToJson());

    // Per-tenant flight digests: no divergence anywhere in the window.
    ASSERT_EQ(fl1.size(), tenants.size());
    ASSERT_EQ(fl2.size(), tenants.size());
    ASSERT_EQ(fl8.size(), tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      EXPECT_GT(fl1[i].rounds_recorded(), 0) << "tenant " << i;
      const auto d2 = DiffFirstDivergence(fl1[i], fl2[i]);
      EXPECT_FALSE(d2.has_value())
          << "tenant " << i << ": " << d2->ToString();
      const auto d8 = DiffFirstDivergence(fl1[i], fl8[i]);
      EXPECT_FALSE(d8.has_value())
          << "tenant " << i << ": " << d8->ToString();
    }
  }
}

}  // namespace
}  // namespace eva
