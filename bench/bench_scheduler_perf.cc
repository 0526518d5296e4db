// google-benchmark micro-benchmarks of the scheduler internals (reservation
// price computation, Algorithm 1 packing, the config differ, the throughput
// table, the B&B solver on small instances), plus an engine-throughput
// scale sweep: the 2,000-job Alibaba-like trace (No-Packing + Eva) and
// 10k/50k/100k-job superposition-scaled traces (Eva), reporting events/sec,
// rounds invoked vs. coalesced, per-round decision latency, peak RSS and
// allocation counts. With EVA_BENCH_JSON=<path> the sweep (best wall time
// of the deterministic repetitions per case) is written as machine-readable
// JSON (the committed BENCH_scheduler_perf.json tracks it across commits).
// EVA_BENCH_SCALE (a percentage) scales every case's job count;
// EVA_BENCH_SWEEP_MAX caps the sweep's largest point.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/format.h"
#include "src/core/full_reconfig.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/core/partial_reconfig.h"
#include "src/sched/config_diff.h"
#include "src/sched/throughput_estimator.h"
#include "src/sim/experiment.h"
#include "src/solver/bnb_solver.h"
#include "src/workload/trace_gen.h"

namespace {

using namespace eva;

const InstanceCatalog& Catalog() {
  static const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  return catalog;
}

void BM_ReservationPrice(benchmark::State& state) {
  const SchedulingContext context = MakeRandomTaskContext(64, 1, Catalog());
  for (auto _ : state) {
    const TnrpCalculator calculator(context, {});
    Money total = 0.0;
    for (const TaskInfo& task : context.tasks) {
      total += calculator.ReservationPrice(task);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ReservationPrice);

void BM_FullReconfiguration(benchmark::State& state) {
  const SchedulingContext context =
      MakeRandomTaskContext(static_cast<int>(state.range(0)), 1, Catalog());
  const TnrpCalculator calculator(context, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(FullReconfiguration(context, calculator));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullReconfiguration)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_PartialReconfigurationQuiescent(benchmark::State& state) {
  // A cluster already packed by Full Reconfiguration: Partial should be
  // near-free because every instance stays cost-efficient.
  SchedulingContext context = MakeRandomTaskContext(200, 1, Catalog());
  const TnrpCalculator calculator(context, {});
  const ClusterConfig packed = FullReconfiguration(context, calculator);
  InstanceId next_id = 0;
  for (const ConfigInstance& instance : packed.instances) {
    InstanceInfo info;
    info.id = next_id++;
    info.type_index = instance.type_index;
    info.tasks = instance.tasks;
    for (TaskId task : instance.tasks) {
      for (TaskInfo& task_info : context.tasks) {
        if (task_info.id == task) {
          task_info.current_instance = info.id;
        }
      }
    }
    context.instances.push_back(std::move(info));
  }
  context.Finalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartialReconfiguration(context, calculator));
  }
}
BENCHMARK(BM_PartialReconfigurationQuiescent);

void BM_ConfigDiff(benchmark::State& state) {
  const SchedulingContext context = MakeRandomTaskContext(200, 1, Catalog());
  const TnrpCalculator calculator(context, {});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiffConfig(context, config));
  }
}
BENCHMARK(BM_ConfigDiff);

void BM_ThroughputTableEstimate(benchmark::State& state) {
  ThroughputTable table(0.95);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const WorkloadId a = static_cast<WorkloadId>(rng.UniformInt(0, 9));
    const WorkloadId b = static_cast<WorkloadId>(rng.UniformInt(0, 9));
    table.Record(a, {b}, rng.Uniform(0.6, 1.0));
  }
  const std::vector<WorkloadId> partners = {0, 3, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Estimate(1, partners));
  }
}
BENCHMARK(BM_ThroughputTableEstimate);

void BM_SolverSmall(benchmark::State& state) {
  const SchedulingContext context =
      MakeRandomTaskContext(static_cast<int>(state.range(0)), 5, Catalog());
  for (auto _ : state) {
    SolverOptions options;
    options.time_limit_seconds = 2.0;
    benchmark::DoNotOptimize(SolveOptimalPacking(context, options));
  }
}
BENCHMARK(BM_SolverSmall)->Arg(8)->Arg(12);

void BM_EndToEndSmallTrace(benchmark::State& state) {
  SyntheticTraceOptions trace_options;
  trace_options.num_jobs = 16;
  trace_options.seed = 9;
  const Trace trace = GenerateSyntheticTrace(trace_options);
  for (auto _ : state) {
    ExperimentOptions options;
    benchmark::DoNotOptimize(RunComparison(trace, {SchedulerKind::kEva}, options));
  }
}
BENCHMARK(BM_EndToEndSmallTrace)->Unit(benchmark::kMillisecond);

// One engine-throughput case: `trace` through the full event-driven engine
// under `kind` (with `eva_options` for the Eva variants), best wall time of
// `runs` deterministic repetitions. Returns the best run's metrics so the
// quality report can compare modes without replaying the trace.
SimulationMetrics RunEngineCase(BenchJsonWriter& json, const std::string& name,
                                const Trace& trace, SchedulerKind kind,
                                const InterferenceModel& interference, int runs,
                                const EvaOptions& eva_options = {}) {
  const std::uint64_t allocs_before = AllocationCount();
  SimulationMetrics metrics;
  double wall = 0.0;
  for (int run = 0; run < runs; ++run) {
    SchedulerBundle bundle = MakeScheduler(kind, interference, eva_options);
    const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
    const auto start = std::chrono::steady_clock::now();
    const SimulationMetrics run_metrics = RunSimulation(
        trace, bundle.scheduler.get(), catalog, interference, SimulatorOptions{});
    const double run_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (run == 0 || run_wall < wall) {
      metrics = run_metrics;
      wall = run_wall;
    }
  }
  const double sched_wall = metrics.scheduler_wall_seconds;
  const double events_per_sec =
      wall > 0.0 ? static_cast<double>(metrics.events_processed) / wall : 0.0;
  const double sched_us_per_round =
      metrics.scheduling_rounds > 0 ? sched_wall * 1e6 / metrics.scheduling_rounds : 0.0;
  const double peak_rss_mb = PeakRssMb();
  const std::uint64_t allocs = (AllocationCount() - allocs_before) /
                               static_cast<std::uint64_t>(runs > 0 ? runs : 1);
  const SchedulerCounters& counters = metrics.scheduler_counters;
  std::printf("%-24s %9.3f %11" PRId64 " %13.0f %8" PRId64 " %9" PRId64
              " %9.3f %9.2f %9.1f\n",
              name.c_str(), wall, metrics.events_processed, events_per_sec,
              metrics.scheduling_rounds, metrics.rounds_coalesced, sched_wall,
              sched_us_per_round, peak_rss_mb);
  json.AddRow(name,
              BenchFields()
                  .Add("jobs", static_cast<double>(trace.jobs.size()))
                  .Add("wall_seconds", wall)
                  .Add("sched_wall_seconds", sched_wall)
                  .Add("peak_rss_mb", peak_rss_mb)
                  .Add("allocs", static_cast<double>(allocs)),
              Telemetry(metrics));
  if (kind == SchedulerKind::kEva) {
    std::printf("  (rounds reused: %d/" EVA_PRId64 ", coalesced: " EVA_PRId64
                ", table misses: %d, context misses: %d)\n",
                counters.rounds_reused, metrics.scheduling_rounds, metrics.rounds_coalesced,
                counters.reuse_miss_table, counters.reuse_miss_context);
    if (counters.packs_incremental > 0 || counters.packs_escalated > 0) {
      std::printf(
          "  (packs: %d incremental / %d full / %d escalated; reconciliations: %d, "
          "escalations: %d, max divergence: %.4f cost / %d edits, staleness <= %d; "
          "fallbacks: %d oversized, %d incomplete, %d no-previous)\n",
          counters.packs_incremental, counters.packs_full, counters.packs_escalated,
          counters.reconciliations, counters.escalations, counters.max_divergence_cost,
          counters.max_divergence_edits, counters.max_kept_staleness,
          counters.fallback_oversized_delta, counters.fallback_incomplete_delta,
          counters.fallback_no_previous);
    }
  }
  return metrics;
}

// Approximation-quality row: names the exact and incremental replays of
// one trace, whose telemetry the CI quality gate compares against the
// documented envelope (cost <= 10%, JCT <= 5%, no lost jobs).
void ReportQuality(BenchJsonWriter& json, const std::string& name,
                   const std::string& exact_row, const SimulationMetrics& exact,
                   const std::string& incremental_row,
                   const SimulationMetrics& incremental) {
  const double cost_delta =
      exact.total_cost > 0.0 ? (incremental.total_cost - exact.total_cost) / exact.total_cost
                             : 0.0;
  const double jct_delta =
      exact.avg_jct_hours > 0.0
          ? (incremental.avg_jct_hours - exact.avg_jct_hours) / exact.avg_jct_hours
          : 0.0;
  std::printf("%-24s cost %+.2f%% (%.2f -> %.2f), JCT %+.2f%% (%.4fh -> %.4fh), "
              "completed " EVA_PRId64 "/" EVA_PRId64 "\n",
              name.c_str(), cost_delta * 100.0, exact.total_cost, incremental.total_cost,
              jct_delta * 100.0, exact.avg_jct_hours, incremental.avg_jct_hours,
              incremental.jobs_completed, exact.jobs_completed);
  json.AddRow(name, BenchFields().Add("exact", exact_row).Add("incremental", incremental_row));
}

// Engine throughput scale sweep: the 2,000-job Alibaba-like trace (both
// No-Packing and Eva, the tracked headline numbers), plus 10k-, 50k- and
// 100k-job traces produced by the deterministic superposition scaler. At
// every scaled point the default Eva (the incremental fast path — kAuto
// turns it on at >= 10k jobs) and the exact-mode replay ("-exact") both
// run; quality_* rows record the cost/JCT deltas between the two modes
// (the CI quality gate checks the 2k and 10k rows against the documented
// envelope). Use EVA_BENCH_SWEEP_MAX to cap the largest point when the
// full sweep is too slow. All job counts scale with EVA_BENCH_SCALE so CI
// smoke stays fast; EVA_BENCH_SCALE >= 1000 additionally unlocks the raw
// 1,000,000-job point (combine with EVA_BENCH_SWEEP_MAX=1 to run it
// alone). Returns false if a requested JSON artifact could not be written.
bool RunEngineThroughputCases() {
  PrintBenchHeader("Simulation engine throughput, Alibaba trace scale sweep",
                   "engine perf tracking; not a paper table");
  AlibabaTraceOptions trace_options;
  trace_options.num_jobs = ScaledJobCount(2000);
  trace_options.seed = 17;
  trace_options.max_duration_hours = 48.0;
  const Trace base = GenerateAlibabaTrace(trace_options);
  const InterferenceModel interference = InterferenceModel::Measured();

  BenchJsonWriter json;
  std::printf("%-24s %9s %11s %13s %8s %9s %9s %9s %9s\n", "Case", "Wall(s)", "Events",
              "Events/sec", "Rounds", "Coal", "Sched(s)", "us/round", "RSS(MB)");
  RunEngineCase(json, std::string("alibaba2000_") + SchedulerKindName(SchedulerKind::kNoPacking),
                base, SchedulerKind::kNoPacking, interference, /*runs=*/3);
  const std::string eva_2k = std::string("alibaba2000_") + SchedulerKindName(SchedulerKind::kEva);
  const SimulationMetrics exact_2k =
      RunEngineCase(json, eva_2k, base, SchedulerKind::kEva, interference, /*runs=*/3);

  // The 2k trace sits below EvaScheduler::kIncrementalAutoMinJobs (it is the
  // golden-pinned evaluation trace, kept bit-identical), so the 2k quality
  // comparison forces the fast path on explicitly.
  EvaOptions force_incremental;
  force_incremental.incremental_packing = EvaOptions::IncrementalPacking::kOn;
  EvaOptions force_exact;
  force_exact.incremental_packing = EvaOptions::IncrementalPacking::kOff;
  const SimulationMetrics inc_2k = RunEngineCase(json, eva_2k + "-inc", base, SchedulerKind::kEva,
                                                 interference, /*runs=*/3, force_incremental);
  ReportQuality(json, "quality_alibaba2000", eva_2k, exact_2k, eva_2k + "-inc", inc_2k);

  // Fault-injection row: the same 2k trace with the deterministic fault
  // model on (zone outages, correlated bursts, maintenance drains). Faults
  // destroy in-flight work and churn placements but must never lose a job —
  // killed tasks re-run — so jobs_completed must match the fault-free
  // replay (the row names it as "fault_free"); goodput degrades boundedly.
  // The CI gate (fault_* rows in check_bench_regression.py) checks both.
  {
    SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference, {});
    const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
    SimulatorOptions fault_options;
    fault_options.faults.enabled = true;
    fault_options.faults.seed = 97;
    const auto start = std::chrono::steady_clock::now();
    const SimulationMetrics faulted = RunSimulation(base, bundle.scheduler.get(), catalog,
                                                    interference, fault_options);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const FaultStats& f = faulted.faults;
    std::printf(
        "fault_alibaba2000_Eva    completed " EVA_PRId64 "/" EVA_PRId64
        ", goodput %.4f, lost work %.2fh "
        "(" EVA_PRId64 " tasks), killed " EVA_PRId64 ", drained " EVA_PRId64
        ", outages " EVA_PRId64 ", replace p95 %.0fs\n",
        faulted.jobs_completed, exact_2k.jobs_completed, f.goodput_ratio,
        SecondsToHours(f.lost_work_seconds), f.tasks_lost, f.instances_killed,
        f.instances_drained, f.zone_outages, f.replacement_latency_p95_s);
    json.AddRow("fault_alibaba2000_Eva",
                BenchFields()
                    .Add("jobs", static_cast<double>(base.jobs.size()))
                    .Add("wall_seconds", wall)
                    .Add("fault_free", eva_2k),
                Telemetry(faulted));
  }

  // Traced replay, opted into with EVA_TRACE_JSON=<path>: the 2k Eva case
  // again with the full observability stack on (span recorder, per-round
  // flight digests, telemetry registry), measuring the tracing overhead
  // against a fresh untraced run and writing the Chrome trace_event
  // artifact. The trace is stamped purely in virtual time, so the written
  // bytes are a deterministic function of the trace+seed (the obs test
  // suite holds that invariant across pool sizes; here we record the
  // artifact and the walls behind the overhead the CI trend tracks).
  bool trace_artifact_ok = true;
  if (const char* trace_path = std::getenv("EVA_TRACE_JSON")) {
    const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
    const auto run_once = [&](SimulatorOptions sim_options,
                              SimulationMetrics& out_metrics) {
      SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference, {});
      const auto start = std::chrono::steady_clock::now();
      out_metrics = RunSimulation(base, bundle.scheduler.get(), catalog, interference,
                                  sim_options);
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
    };
    SimulationMetrics off_metrics;
    const double wall_off = run_once(SimulatorOptions{}, off_metrics);

    TraceRecorder recorder;
    FlightRecorder flight;
    TelemetryRegistry registry;
    SimulatorOptions traced_options;
    traced_options.observability.trace = &recorder;
    traced_options.observability.flight_recorder = &flight;
    traced_options.observability.registry = &registry;
    traced_options.observability.track_name = "alibaba2000_Eva";
    SimulationMetrics on_metrics;
    const double wall_on = run_once(traced_options, on_metrics);

    const double eps_off =
        wall_off > 0.0 ? static_cast<double>(off_metrics.events_processed) / wall_off : 0.0;
    const double eps_on =
        wall_on > 0.0 ? static_cast<double>(on_metrics.events_processed) / wall_on : 0.0;
    const double overhead = eps_off > 0.0 ? 1.0 - eps_on / eps_off : 0.0;
    trace_artifact_ok = recorder.WriteChromeJson(trace_path);
    std::printf("trace_alibaba2000_Eva    overhead %+.2f%% (%.0f -> %.0f events/sec), "
                "spans " EVA_PRIu64 " emitted / " EVA_PRIu64 " retained, "
                "rounds digested " EVA_PRId64 "%s -> %s\n",
                overhead * 100.0, eps_off, eps_on, recorder.TotalEmitted(),
                recorder.TotalRetained(), flight.rounds_recorded(),
                trace_artifact_ok ? "" : " [trace write FAILED]", trace_path);
    // The traced run's own registry (its per-round series included) plus the
    // recorders' span and digest counts, deterministic like the rest.
    registry.SetCounter("trace.spans_emitted",
                        static_cast<std::int64_t>(recorder.TotalEmitted()));
    registry.SetCounter("trace.spans_retained",
                        static_cast<std::int64_t>(recorder.TotalRetained()));
    registry.SetCounter("trace.rounds_digested", flight.rounds_recorded());
    json.AddRow("trace_alibaba2000_Eva",
                BenchFields()
                    .Add("jobs", static_cast<double>(base.jobs.size()))
                    .Add("wall_seconds_off", wall_off)
                    .Add("wall_seconds_on", wall_on),
                registry);
  }

  // Scaled points: proportional-rate superposition of the 2,000-job mix —
  // heavier traffic over the same simulated span, so the active-job
  // population (and the decision problem) grows with the job count.
  struct ScalePoint {
    int jobs;
    int runs;
  };
  std::vector<ScalePoint> points = {{10000, 2}, {50000, 1}, {100000, 1}};
  // EVA_BENCH_SWEEP_MAX caps the sweep's largest point (CI's regression
  // gate runs the 10k point at full scale without paying for 50k).
  const char* max_env = std::getenv("EVA_BENCH_SWEEP_MAX");
  const int max_jobs = max_env != nullptr ? std::atoi(max_env) : 0;
  for (const ScalePoint& point : points) {
    if (max_jobs > 0 && point.jobs > max_jobs) {
      continue;
    }
    TraceScaleOptions scale;
    scale.target_jobs = ScaledJobCount(point.jobs);
    scale.seed = 23;
    const Trace scaled = ScaleTrace(base, scale);
    const std::string name = "alibaba" + std::to_string(scale.target_jobs) + "_" +
                             SchedulerKindName(SchedulerKind::kEva);
    // Default options: IncrementalPacking::kAuto — the production fast path
    // at these scales (at full scale; CI smoke's scaled-down populations
    // fall below the auto threshold and stay exact, which is fine for a
    // smoke signal).
    const SimulationMetrics fast =
        RunEngineCase(json, name, scaled, SchedulerKind::kEva, interference, point.runs);
    const SimulationMetrics exact = RunEngineCase(json, name + "-exact", scaled,
                                                  SchedulerKind::kEva, interference,
                                                  point.runs, force_exact);
    ReportQuality(json, "quality_alibaba" + std::to_string(scale.target_jobs), name + "-exact",
                  exact, name, fast);
  }

  // The million-job tier, opt-in via EVA_BENCH_SCALE >= 1000: a raw
  // 1,000,000-job point (not additionally scaled) under the production
  // default. One run, fast path only — the exact replay at this scale is
  // the very thing the fast path exists to avoid.
  const char* scale_env = std::getenv("EVA_BENCH_SCALE");
  if (scale_env != nullptr && std::atoi(scale_env) >= 1000) {
    TraceScaleOptions scale;
    scale.target_jobs = 1000000;
    scale.seed = 23;
    const Trace million = ScaleTrace(base, scale);
    RunEngineCase(json, "alibaba1000000_Eva", million, SchedulerKind::kEva, interference,
                  /*runs=*/1);
  }

  if (const char* path = BenchJsonWriter::OutputPath()) {
    return json.WriteTo(path, "scheduler_perf") && trace_artifact_ok;
  }
  return trace_artifact_ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return RunEngineThroughputCases() ? 0 : 1;
}
