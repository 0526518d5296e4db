#include "src/sim/experiment.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "src/baselines/no_packing.h"
#include "src/baselines/owl.h"
#include "src/baselines/stratus.h"
#include "src/baselines/synergy.h"
#include "src/common/thread_pool.h"

namespace eva {

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNoPacking:
      return "No-Packing";
    case SchedulerKind::kStratus:
      return "Stratus";
    case SchedulerKind::kSynergy:
      return "Synergy";
    case SchedulerKind::kOwl:
      return "Owl";
    case SchedulerKind::kEva:
      return "Eva";
    case SchedulerKind::kEvaRp:
      return "Eva-RP";
    case SchedulerKind::kEvaSingle:
      return "Eva-Single";
    case SchedulerKind::kEvaFullOnly:
      return "Eva (Full only)";
    case SchedulerKind::kEvaPartialOnly:
      return "Eva (w/o Full)";
  }
  return "?";
}

SchedulerBundle MakeScheduler(SchedulerKind kind, const InterferenceModel& interference,
                              const EvaOptions& eva_options) {
  SchedulerBundle bundle;
  switch (kind) {
    case SchedulerKind::kNoPacking:
      bundle.scheduler = std::make_unique<NoPackingScheduler>();
      return bundle;
    case SchedulerKind::kStratus:
      bundle.scheduler = std::make_unique<StratusScheduler>();
      return bundle;
    case SchedulerKind::kSynergy:
      bundle.scheduler =
          std::make_unique<SynergyScheduler>(eva_options.default_pairwise_throughput);
      return bundle;
    case SchedulerKind::kOwl: {
      bundle.oracle = std::make_unique<OracleThroughput>(&interference);
      bundle.scheduler = std::make_unique<OwlScheduler>(bundle.oracle.get());
      return bundle;
    }
    case SchedulerKind::kEva:
    case SchedulerKind::kEvaRp:
    case SchedulerKind::kEvaSingle:
    case SchedulerKind::kEvaFullOnly:
    case SchedulerKind::kEvaPartialOnly: {
      EvaOptions options = eva_options;
      if (kind == SchedulerKind::kEvaRp) {
        options.tnrp.interference_aware = false;
      }
      if (kind == SchedulerKind::kEvaSingle) {
        options.tnrp.multi_task_aware = false;
      }
      if (kind == SchedulerKind::kEvaFullOnly) {
        options.policy = EvaOptions::Policy::kFullOnly;
      }
      if (kind == SchedulerKind::kEvaPartialOnly) {
        options.policy = EvaOptions::Policy::kPartialOnly;
      }
      auto eva = std::make_unique<EvaScheduler>(options);
      bundle.eva = eva.get();
      bundle.scheduler = std::move(eva);
      return bundle;
    }
  }
  return bundle;
}

namespace {

// One scheduler's end-to-end run: fresh bundle, fresh simulator.
ExperimentResult RunOne(const Trace& trace, SchedulerKind kind,
                        const ExperimentOptions& options) {
  SchedulerBundle bundle = MakeScheduler(kind, options.interference, options.eva);
  ExperimentResult result;
  result.kind = kind;
  result.metrics = RunSimulation(trace, bundle.scheduler.get(), options.catalog,
                                 options.interference, options.simulator);
  if (bundle.eva != nullptr && bundle.eva->stats().rounds > 0) {
    result.full_adoption_fraction =
        static_cast<double>(bundle.eva->stats().full_adopted) / bundle.eva->stats().rounds;
  }
  return result;
}

// Normalizes costs against No-Packing when present, else the first entry.
void NormalizeCosts(std::vector<ExperimentResult>& results) {
  Money baseline = 0.0;
  for (const ExperimentResult& result : results) {
    if (result.kind == SchedulerKind::kNoPacking) {
      baseline = result.metrics.total_cost;
      break;
    }
  }
  if (baseline <= 0.0 && !results.empty()) {
    baseline = results.front().metrics.total_cost;
  }
  for (ExperimentResult& result : results) {
    result.normalized_cost =
        baseline > 0.0 ? result.metrics.total_cost / baseline : 1.0;
  }
}

}  // namespace

std::vector<ExperimentResult> RunComparison(const Trace& trace,
                                            const std::vector<SchedulerKind>& kinds,
                                            const ExperimentOptions& options) {
  std::vector<ExperimentResult> results;
  results.reserve(kinds.size());
  for (SchedulerKind kind : kinds) {
    results.push_back(RunOne(trace, kind, options));
  }
  NormalizeCosts(results);
  return results;
}

std::vector<ExperimentResult> ParallelRunComparison(const Trace& trace,
                                                    const std::vector<SchedulerKind>& kinds,
                                                    const ExperimentOptions& options,
                                                    int num_threads) {
  // Each run writes its own pre-sized slot; trace/options are shared
  // read-only. Per-run RNGs are seeded inside RunSimulation from
  // options.simulator.seed, so ordering cannot leak between runs.
  std::vector<ExperimentResult> results(kinds.size());
  const int resolved = num_threads > 0 ? num_threads : ThreadPool::DefaultThreads();
  ThreadPool pool(std::min<int>(resolved, static_cast<int>(kinds.size())));
  pool.ParallelFor(kinds.size(), [&trace, &options, &results, &kinds](std::size_t i) {
    results[i] = RunOne(trace, kinds[i], options);
  });
  NormalizeCosts(results);
  return results;
}

void PrintComparisonTable(const std::vector<ExperimentResult>& results) {
  std::printf("%-18s %12s %8s %10s %8s %8s %8s %8s %8s %9s %9s\n", "Scheduler", "Cost($)",
              "Norm", "Tasks/Inst", "GPU%", "CPU%", "RAM%", "Tput", "JCT(h)", "Idle(h)",
              "Mig/Task");
  for (const ExperimentResult& result : results) {
    const SimulationMetrics& m = result.metrics;
    std::printf("%-18s %12.2f %7.1f%% %10.2f %7.0f%% %7.0f%% %7.0f%% %8.2f %8.2f %9.2f %9.2f\n",
                SchedulerKindName(result.kind), m.total_cost, result.normalized_cost * 100.0,
                m.avg_tasks_per_instance, m.avg_alloc_gpu * 100.0, m.avg_alloc_cpu * 100.0,
                m.avg_alloc_ram * 100.0, m.avg_norm_job_throughput, m.avg_jct_hours,
                m.avg_job_idle_hours, m.migrations_per_task);
  }
}

int ScaledJobCount(int paper_jobs, int default_percent) {
  int percent = default_percent;
  if (const char* env = std::getenv("EVA_BENCH_SCALE")) {
    percent = std::atoi(env);
    if (percent <= 0) {
      percent = default_percent;
    }
  }
  return std::max(1, paper_jobs * percent / 100);
}

}  // namespace eva
