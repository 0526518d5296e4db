// Table 4: provisioning-cost micro-benchmark.
//
// 30 independent trials of 200 tasks sampled from the Table 7 workloads.
// Compares No-Packing (one RP instance per task), Full Reconfiguration, and
// the exact branch-and-bound solver (standing in for the Gurobi ILP, which
// the paper also runs with a time limit). Costs are normalized to the
// solver's best solution per trial, as in the paper. That best solution is
// the Full Reconfiguration seed whenever the time-limited search does not
// improve on it, so the driver also reports every cost over the volume
// lower bound (PackingLowerBound) and the number of trials the search beat
// its seed.
//
// Scale with EVA_BENCH_SCALE (percent of the 30 trials; default 20%) and
// EVA_ILP_SECONDS (per-trial solver budget in seconds, a positive number;
// default 3).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/core/full_reconfig.h"
#include "src/sim/experiment.h"
#include "src/solver/bnb_solver.h"

int main() {
  using namespace eva;
  using Clock = std::chrono::steady_clock;

  PrintBenchHeader("Provisioning-cost micro-benchmark", "Table 4");

  const int trials = ScaledJobCount(30, 20);
  double ilp_seconds = 3.0;
  if (const char* env = std::getenv("EVA_ILP_SECONDS")) {
    char* end = nullptr;
    ilp_seconds = std::strtod(env, &end);
    if (end == env || *end != '\0' || !std::isfinite(ilp_seconds) || ilp_seconds <= 0.0) {
      std::fprintf(stderr, "EVA_ILP_SECONDS must be a positive number of seconds, got \"%s\"\n",
                   env);
      return 2;
    }
  }
  const int num_tasks = 200;
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();

  RunningStats no_packing_ratio;
  RunningStats full_ratio;
  RunningStats no_packing_over_bound;
  RunningStats full_over_bound;
  RunningStats ilp_over_bound;
  RunningStats no_packing_runtime_ms;
  RunningStats full_runtime_ms;
  RunningStats ilp_runtime_s;
  int ilp_proven = 0;
  int ilp_beat_seed = 0;

  for (int trial = 0; trial < trials; ++trial) {
    const SchedulingContext context =
        MakeRandomTaskContext(num_tasks, 1000 + static_cast<std::uint64_t>(trial), catalog);
    const TnrpCalculator calculator(context, {.interference_aware = false});
    std::vector<const TaskInfo*> tasks;
    for (const TaskInfo& task : context.tasks) {
      tasks.push_back(&task);
    }
    const Money lower_bound = PackingLowerBound(context, tasks);

    const auto t0 = Clock::now();
    Money no_packing_cost = 0.0;
    for (const TaskInfo& task : context.tasks) {
      no_packing_cost += calculator.ReservationPrice(task);
    }
    const auto t1 = Clock::now();
    no_packing_runtime_ms.Add(std::chrono::duration<double, std::milli>(t1 - t0).count());

    const auto t2 = Clock::now();
    const ClusterConfig full = FullReconfiguration(context, calculator);
    const auto t3 = Clock::now();
    const Money full_cost = full.HourlyCost(catalog);
    full_runtime_ms.Add(std::chrono::duration<double, std::milli>(t3 - t2).count());

    // The solver seeds its incumbent with this same Full Reconfiguration
    // packing and replaces it only on strict improvement.
    SolverOptions solver_options;
    solver_options.time_limit_seconds = ilp_seconds;
    const SolverResult solved = SolveOptimalPacking(context, solver_options);
    ilp_runtime_s.Add(solved.wall_seconds);
    if (solved.proven_optimal) {
      ++ilp_proven;
    }
    if (solved.hourly_cost < full_cost) {
      ++ilp_beat_seed;
    }

    no_packing_ratio.Add(no_packing_cost / solved.hourly_cost);
    full_ratio.Add(full_cost / solved.hourly_cost);
    no_packing_over_bound.Add(no_packing_cost / lower_bound);
    full_over_bound.Add(full_cost / lower_bound);
    ilp_over_bound.Add(solved.hourly_cost / lower_bound);
  }

  std::printf("%d trials x %d tasks, solver budget %.1fs/trial (%d/%d proven optimal, "
              "%d/%d beat the Full Reconfig. seed)\n\n",
              trials, num_tasks, ilp_seconds, ilp_proven, trials, ilp_beat_seed, trials);
  std::printf("%-16s %-22s %-22s %s\n", "Scheduler", "Provisioning Cost", "Cost / Lower Bound",
              "Runtime");
  std::printf("%-16s %-22s %-22s %.2fms\n", "No-Packing",
              (MeanPlusMinus(no_packing_ratio) + "x").c_str(),
              (MeanPlusMinus(no_packing_over_bound) + "x").c_str(), no_packing_runtime_ms.mean());
  std::printf("%-16s %-22s %-22s %.2fms\n", "Full Reconfig.",
              (MeanPlusMinus(full_ratio) + "x").c_str(),
              (MeanPlusMinus(full_over_bound) + "x").c_str(), full_runtime_ms.mean());
  std::printf("%-16s %-22s %-22s %.1fs (time-limited best)\n", "ILP (B&B)", "1.00x (reference)",
              (MeanPlusMinus(ilp_over_bound) + "x").c_str(), ilp_runtime_s.mean());
  std::printf("\nPaper: No-Packing 1.56x, Full Reconfig 1.01x (378ms), ILP 1x (>30min).\n");
  return 0;
}
