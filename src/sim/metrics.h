// Simulation output metrics — everything the paper's tables report.

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/stat_schema.h"
#include "src/sched/types.h"

namespace eva {

// Fault-injection accounting (src/cloud/fault_injector.h), published as
// "faults.*". All zero when faults are disabled, the default — a fault-free
// run's metrics are bit-identical to a build without the subsystem. One
// field list (see obs/stat_schema.h).
#define EVA_FAULT_STAT_FIELDS(X)                                               \
  /* Faults injected, by kind: zone outages, correlated-failure bursts (not   \
     individual victims) and zone drains started. */                           \
  X(std::int64_t, zone_outages, 0, kCounter, kSum)                             \
  X(std::int64_t, correlated_failures, 0, kCounter, kSum)                      \
  X(std::int64_t, maintenance_drains, 0, kCounter, kSum)                       \
  /* Instances destroyed abruptly (outage / burst / expired drain notice)      \
     and instances put into a graceful drain. */                               \
  X(std::int64_t, instances_killed, 0, kCounter, kSum)                         \
  X(std::int64_t, instances_drained, 0, kCounter, kSum)                        \
  /* Tasks evicted gracefully (checkpoint-then-pend) and containers            \
     destroyed with work in flight (the abrupt paths). */                      \
  X(std::int64_t, tasks_evicted, 0, kCounter, kSum)                            \
  X(std::int64_t, tasks_lost, 0, kCounter, kSum)                               \
  /* Executing time destroyed with lost containers: progress since the         \
     container's launch that no checkpoint preserved. */                       \
  X(double, lost_work_seconds, 0.0, kGauge, kSum)                              \
  /* Re-placement latency: first fault disruption of a task to its next        \
     successful container launch. Tasks still unplaced at the end of the       \
     run are not sampled. */                                                   \
  X(std::int64_t, replacements_completed, 0, kCounter, kSum)                   \
  X(double, replacement_latency_min_s, 0.0, kGauge, kLast)                     \
  X(double, replacement_latency_median_s, 0.0, kGauge, kLast)                  \
  X(double, replacement_latency_p95_s, 0.0, kGauge, kMax)                      \
  /* Executed work / (executed + lost): 1.0 in a fault-free run, degrading     \
     as outages destroy in-flight progress. */                                 \
  X(double, goodput_ratio, 1.0, kGauge, kLast)

struct FaultStats {
  EVA_FAULT_STAT_FIELDS(EVA_STAT_MEMBER)
  EVA_STAT_SCHEMA(FaultStats, "faults", EVA_FAULT_STAT_FIELDS)
};

// The scalar run outcome, published as "sim.*". Tally widths: every count
// that scales with the trace (or with fault bursts) is 64-bit — the
// million-job tier and long federation horizons can plausibly overflow
// 32-bit counters. One field list (see obs/stat_schema.h).
#define EVA_SIMULATION_METRIC_FIELDS(X)                                        \
  /* Total provisioning cost: sum over instances of uptime x hourly price. */  \
  X(Money, total_cost, 0.0, kGauge, kSum)                                      \
  X(std::int64_t, jobs_submitted, 0, kCounter, kSum)                           \
  X(std::int64_t, jobs_completed, 0, kCounter, kSum)                           \
  X(std::int64_t, tasks_total, 0, kCounter, kSum)                              \
  X(std::int64_t, instances_launched, 0, kCounter, kSum)                       \
  /* Moves of already-placed tasks. */                                         \
  X(std::int64_t, task_migrations, 0, kCounter, kSum)                          \
  X(double, migrations_per_task, 0.0, kGauge, kLast)                           \
  /* Time-weighted average number of tasks per live instance. */               \
  X(double, avg_tasks_per_instance, 0.0, kGauge, kLast)                        \
  /* Time-weighted allocation fraction per resource (allocated /               \
     provisioned). */                                                          \
  X(double, avg_alloc_gpu, 0.0, kGauge, kLast)                                 \
  X(double, avg_alloc_cpu, 0.0, kGauge, kLast)                                 \
  X(double, avg_alloc_ram, 0.0, kGauge, kLast)                                 \
  /* Mean over completed jobs of standalone-work / time-spent-executing        \
     (1.0 = no interference ever). */                                          \
  X(double, avg_norm_job_throughput, 0.0, kGauge, kLast)                       \
  X(double, avg_jct_hours, 0.0, kGauge, kLast)                                 \
  X(double, avg_job_idle_hours, 0.0, kGauge, kLast) /* JCT minus executing. */ \
  X(SimTime, makespan_s, 0.0, kGauge, kMax)                                    \
  /* Scheduling decision points, *including* coalesced ones: the quiescence-   \
     aware round trigger counts a skipped round here too, so the cadence       \
     accounting (and the golden-pinned values) are independent of              \
     batching. */                                                              \
  X(std::int64_t, scheduling_rounds, 0, kCounter, kSum)                        \
  /* Rounds absorbed by Scheduler::CoalesceQuiescentRounds — decision points   \
     at which the scheduler was never invoked because the engine certified     \
     the round quiescent. scheduling_rounds - rounds_coalesced is the number   \
     of actual Schedule calls. */                                              \
  X(std::int64_t, rounds_coalesced, 0, kCounter, kSum)                         \
  /* Discrete events processed by the engine; with wall time this gives the    \
     events/sec figure the perf benchmarks track. */                           \
  X(std::int64_t, events_processed, 0, kCounter, kSum)                         \
  /* Cloud provider interactions (all 0 when the provider is disabled, the     \
     default: infinite capacity, on-demand only): launches refused by an       \
     exhausted pool, instances acquired on the spot tier, two-minute           \
     preemption warnings received, and the portion of total_cost paid at       \
     spot rates. */                                                            \
  X(std::int64_t, acquisitions_denied, 0, kCounter, kSum)                      \
  X(std::int64_t, spot_instances_launched, 0, kCounter, kSum)                  \
  X(std::int64_t, spot_preemptions, 0, kCounter, kSum)                         \
  X(Money, spot_cost, 0.0, kGauge, kSum)

struct SimulationMetrics {
  std::string scheduler_name;
  std::string trace_name;

  EVA_SIMULATION_METRIC_FIELDS(EVA_STAT_MEMBER)
  EVA_STAT_SCHEMA(SimulationMetrics, "sim", EVA_SIMULATION_METRIC_FIELDS)

  // Fault-injection accounting (all defaults when SimulatorOptions.faults
  // is off, the default).
  FaultStats faults;

  // Wall time spent inside the scheduler per run (ObserveThroughput +
  // Schedule, summed over rounds) — divided by scheduling_rounds this is
  // the per-round decision latency the perf benchmarks report. Measurement
  // only; never feeds back into the simulation. Host-measured, so it is not
  // in the field list and never reaches the registry.
  double scheduler_wall_seconds = 0.0;

  // Scheduler decision-path counters (Scheduler::ExportCounters), collected
  // at Finish. All zero for schedulers that don't export any.
  SchedulerCounters scheduler_counters;

  // Raw distributions for CDFs / percentile reporting (Figure 3).
  std::vector<double> instance_uptime_hours;
  std::vector<double> jct_hours;
};

}  // namespace eva

#endif  // SRC_SIM_METRICS_H_
