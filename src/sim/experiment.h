// Experiment harness: constructs the paper's five schedulers, runs a trace
// against each, and prints table rows normalized against No-Packing —
// exactly how §6 reports results.

#ifndef SRC_SIM_EXPERIMENT_H_
#define SRC_SIM_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/eva_scheduler.h"
#include "src/sim/simulator.h"

namespace eva {

enum class SchedulerKind {
  kNoPacking,
  kStratus,
  kSynergy,
  kOwl,
  kEva,
  kEvaRp,          // Eva with plain reservation price (Figure 4 ablation).
  kEvaSingle,      // Eva without multi-task awareness (Table 6 / Figure 7).
  kEvaFullOnly,    // Full Reconfiguration at every round (Figure 5b).
  kEvaPartialOnly, // Eva w/o Full Reconfig (Figure 6).
};

const char* SchedulerKindName(SchedulerKind kind);

// A scheduler plus whatever auxiliary state it needs alive (Owl's oracle).
struct SchedulerBundle {
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<ThroughputEstimator> oracle;  // Owl only.
  EvaScheduler* eva = nullptr;                  // Set for the Eva variants.
};

// `interference` must outlive the bundle (Owl's profile points into it).
SchedulerBundle MakeScheduler(SchedulerKind kind, const InterferenceModel& interference,
                              const EvaOptions& eva_options = {});

struct ExperimentResult {
  SchedulerKind kind;
  SimulationMetrics metrics;
  double normalized_cost = 1.0;       // Relative to No-Packing on this trace.
  double full_adoption_fraction = 0;  // Eva variants: full reconfigs / rounds.
};

struct ExperimentOptions {
  SimulatorOptions simulator;
  EvaOptions eva;
  InterferenceModel interference = InterferenceModel::Measured();
  InstanceCatalog catalog = InstanceCatalog::AwsDefault();
};

// Runs `trace` under every scheduler in `kinds` (each gets a fresh
// scheduler and simulator). Costs are normalized against the first
// kNoPacking entry if present, else against the first entry.
std::vector<ExperimentResult> RunComparison(const Trace& trace,
                                            const std::vector<SchedulerKind>& kinds,
                                            const ExperimentOptions& options);

// RunComparison with the runs spread over a thread pool, one
// simulator+scheduler bundle per run (the calling thread runs some too).
// Every run constructs its own Rng from options.simulator.seed (exactly as
// the serial path does), so results are deterministic and bit-identical to
// RunComparison regardless of thread count or completion order.
// num_threads <= 0 uses all hardware threads.
std::vector<ExperimentResult> ParallelRunComparison(const Trace& trace,
                                                    const std::vector<SchedulerKind>& kinds,
                                                    const ExperimentOptions& options,
                                                    int num_threads = 0);

// Renders rows in the style of Tables 10/11/13/14.
void PrintComparisonTable(const std::vector<ExperimentResult>& results);

// Scaling knob for the heavyweight benches: reads EVA_BENCH_SCALE (a
// percentage, default `default_percent`) and returns round(n * percent/100),
// at least 1. Lets `ctest`/CI exercise every bench quickly while full runs
// reproduce the paper's job counts.
int ScaledJobCount(int paper_jobs, int default_percent = 100);

}  // namespace eva

#endif  // SRC_SIM_EXPERIMENT_H_
