// End-to-end fault-injection tests on the real simulator: each fault kind
// in isolation must (a) actually engage, (b) reproduce bit-identically
// under the same seed, and (c) delay jobs without losing them — a killed or
// drained task re-runs to completion. The fault-off run must stay
// bit-exact with a default-options run: the subsystem is default-off and a
// disabled model is never consulted.
//
// (The suite name deliberately matches the CI sanitizer filter
// `Federation|ThreadPool|Fault`: these handlers run concurrently inside an
// unlimited-pool federation's tenants, so they get TSan coverage too.)

#include <gtest/gtest.h>

#include <cstdint>

#include "src/obs/flight_recorder.h"
#include "src/sim/experiment.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

Trace MakeTrace() {
  AlibabaTraceOptions options;
  options.num_jobs = 200;
  options.seed = 17;
  options.max_duration_hours = 48.0;
  return GenerateAlibabaTrace(options);
}

SimulationMetrics RunCase(const Trace& trace, const SimulatorOptions& options) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
  return RunSimulation(trace, bundle.scheduler.get(), catalog, interference, options);
}

// Same, with the divergence flight recorder attached: `flight` collects a
// per-round digest so a determinism failure names its first bad round
// instead of just "the final metrics differ".
SimulationMetrics RunCaseRecorded(const Trace& trace, SimulatorOptions options,
                                  FlightRecorder* flight) {
  options.observability.flight_recorder = flight;
  return RunCase(trace, options);
}

// One fault kind in isolation: zero the other kinds' probabilities, then
// raise just `slot` so the kind engages reliably on a short trace.
SimulatorOptions OnlyKind(double FaultInjectorOptions::* slot, double probability) {
  FaultInjectorOptions faults;
  faults.enabled = true;
  faults.seed = 97;
  faults.zone_outage_probability = 0.0;
  faults.correlated_failure_probability = 0.0;
  faults.drain_probability = 0.0;
  faults.*slot = probability;
  SimulatorOptions options;
  options.faults = faults;
  return options;
}

void ExpectBitIdentical(const SimulationMetrics& a, const SimulationMetrics& b) {
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.instances_launched, b.instances_launched);
  EXPECT_EQ(a.task_migrations, b.task_migrations);
  EXPECT_EQ(a.avg_jct_hours, b.avg_jct_hours);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.scheduling_rounds, b.scheduling_rounds);
  EXPECT_EQ(a.events_processed, b.events_processed);
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

TEST(FaultInjectionTest, FaultOffRunIsBitExactWithDefaultRun) {
  const Trace trace = MakeTrace();
  const SimulationMetrics baseline = RunCase(trace, SimulatorOptions{});

  // Disabled model with aggressive probabilities: must never be consulted.
  SimulatorOptions armed_but_off;
  armed_but_off.faults.zone_outage_probability = 1.0;
  armed_but_off.faults.correlated_failure_probability = 1.0;
  armed_but_off.faults.drain_probability = 1.0;
  ASSERT_FALSE(armed_but_off.faults.enabled);
  const SimulationMetrics off = RunCase(trace, armed_but_off);

  ExpectBitIdentical(baseline, off);
  EXPECT_EQ(off.faults.zone_outages, 0);
  EXPECT_EQ(off.faults.instances_killed, 0);
  EXPECT_EQ(off.faults.tasks_lost, 0);
  EXPECT_EQ(off.faults.lost_work_seconds, 0.0);
  EXPECT_EQ(off.faults.goodput_ratio, 1.0);
}

TEST(FaultInjectionTest, ZoneOutagesAreDeterministicAndLoseNoJobs) {
  const Trace trace = MakeTrace();
  const SimulatorOptions options =
      OnlyKind(&FaultInjectorOptions::zone_outage_probability, 0.05);

  FlightRecorder flight_first(1 << 14);
  FlightRecorder flight_second(1 << 14);
  const SimulationMetrics first = RunCaseRecorded(trace, options, &flight_first);
  const SimulationMetrics second = RunCaseRecorded(trace, options, &flight_second);
  ExpectBitIdentical(first, second);
  // Round-by-round, not just at the end: the flight recorder sees every
  // digest field agree on every round.
  const auto divergence = DiffFirstDivergence(flight_first, flight_second);
  EXPECT_FALSE(divergence.has_value())
      << "first divergence: " << divergence->ToString();
  EXPECT_GT(flight_first.rounds_recorded(), 0);

  EXPECT_GT(first.faults.zone_outages, 0);
  EXPECT_EQ(first.faults.correlated_failures, 0);
  EXPECT_EQ(first.faults.maintenance_drains, 0);
  EXPECT_GT(first.faults.instances_killed, 0);
  EXPECT_GT(first.faults.tasks_lost, 0);
  EXPECT_GT(first.faults.lost_work_seconds, 0.0);
  // Abrupt kills destroy in-flight work but never a job.
  EXPECT_EQ(first.jobs_completed, first.jobs_submitted);
  EXPECT_GT(first.faults.goodput_ratio, 0.0);
  EXPECT_LT(first.faults.goodput_ratio, 1.0);
  // Re-placement latency quantiles are ordered and populated.
  EXPECT_GT(first.faults.replacements_completed, 0);
  EXPECT_GT(first.faults.replacement_latency_min_s, 0.0);
  EXPECT_LE(first.faults.replacement_latency_min_s,
            first.faults.replacement_latency_median_s);
  EXPECT_LE(first.faults.replacement_latency_median_s,
            first.faults.replacement_latency_p95_s);
}

TEST(FaultInjectionTest, CorrelatedFailuresAreDeterministicAndBounded) {
  const Trace trace = MakeTrace();
  const SimulatorOptions options =
      OnlyKind(&FaultInjectorOptions::correlated_failure_probability, 0.05);

  const SimulationMetrics first = RunCase(trace, options);
  const SimulationMetrics second = RunCase(trace, options);
  ExpectBitIdentical(first, second);

  EXPECT_GT(first.faults.correlated_failures, 0);
  EXPECT_EQ(first.faults.zone_outages, 0);
  EXPECT_EQ(first.faults.maintenance_drains, 0);
  EXPECT_GT(first.faults.instances_killed, 0);
  // Each burst kills at most correlated_failure_size instances.
  EXPECT_LE(first.faults.instances_killed,
            first.faults.correlated_failures *
                static_cast<std::int64_t>(options.faults.correlated_failure_size));
  EXPECT_EQ(first.jobs_completed, first.jobs_submitted);
}

TEST(FaultInjectionTest, MaintenanceDrainsEvictGracefully) {
  const Trace trace = MakeTrace();
  const SimulatorOptions options =
      OnlyKind(&FaultInjectorOptions::drain_probability, 0.05);

  const SimulationMetrics first = RunCase(trace, options);
  const SimulationMetrics second = RunCase(trace, options);
  ExpectBitIdentical(first, second);

  EXPECT_GT(first.faults.maintenance_drains, 0);
  EXPECT_EQ(first.faults.zone_outages, 0);
  EXPECT_EQ(first.faults.correlated_failures, 0);
  EXPECT_GT(first.faults.instances_drained, 0);
  EXPECT_GT(first.faults.tasks_evicted, 0);
  EXPECT_EQ(first.jobs_completed, first.jobs_submitted);
  // The 10-minute notice dwarfs checkpoint times: most (usually all)
  // drained work checkpoints out cleanly, so lost work stays far below the
  // abrupt-kill regimes. Bound it loosely: no more tasks lost at the
  // deadline than were evicted with notice.
  EXPECT_LE(first.faults.tasks_lost, first.faults.tasks_evicted);
}

TEST(FaultInjectionTest, DifferentSeedsDiverge) {
  const Trace trace = MakeTrace();
  SimulatorOptions a;
  a.faults.enabled = true;
  a.faults.seed = 97;
  SimulatorOptions b = a;
  b.faults.seed = 4242;

  FlightRecorder flight_a(1 << 14);
  FlightRecorder flight_b(1 << 14);
  const SimulationMetrics first = RunCaseRecorded(trace, a, &flight_a);
  const SimulationMetrics second = RunCaseRecorded(trace, b, &flight_b);
  // Both engage, but the schedules differ somewhere observable.
  const bool diverged =
      first.faults.zone_outages != second.faults.zone_outages ||
      first.faults.instances_killed != second.faults.instances_killed ||
      first.faults.lost_work_seconds != second.faults.lost_work_seconds ||
      first.makespan_s != second.makespan_s;
  EXPECT_TRUE(diverged);
  // And the flight recorder localises the fork to a specific round.
  EXPECT_TRUE(DiffFirstDivergence(flight_a, flight_b).has_value());
}

}  // namespace
}  // namespace eva
