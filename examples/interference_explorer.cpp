// Example: watching Eva learn interference online.
//
// Runs a packing-heavy trace under Eva and then dumps the learned
// co-location throughput table next to the hidden ground truth (Figure 1),
// showing how the ThroughputMonitor's lower-bound entries converge from the
// optimistic default t = 0.95 toward the measured pairwise values.

#include <cstdio>

#include "src/common/format.h"
#include "src/core/eva_scheduler.h"
#include "src/sim/simulator.h"
#include "src/workload/trace_gen.h"

int main() {
  using namespace eva;

  SyntheticTraceOptions trace_options;
  trace_options.num_jobs = 80;
  trace_options.mean_interarrival_s = 5 * kSecondsPerMinute;  // Dense: lots of co-location.
  trace_options.seed = 5;
  const Trace trace = GenerateSyntheticTrace(trace_options);

  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();

  EvaScheduler scheduler;
  SimulatorOptions sim_options;
  const SimulationMetrics metrics =
      RunSimulation(trace, &scheduler, catalog, interference, sim_options);

  std::printf("Ran " EVA_PRId64 " jobs; Eva adopted Full Reconfiguration in %d of %d"
              " rounds.\n\n",
              metrics.jobs_completed, scheduler.stats().full_adopted,
              scheduler.stats().rounds);

  const ThroughputTable& table = scheduler.throughput_table();
  std::printf("Learned pairwise co-location throughput (learned / ground truth):\n");
  std::printf("%-16s", "");
  for (int b = 0; b < WorkloadRegistry::NumWorkloads(); ++b) {
    std::printf(" %10.10s", WorkloadRegistry::Get(b).name.c_str());
  }
  std::printf("\n");
  int learned = 0;
  for (int a = 0; a < WorkloadRegistry::NumWorkloads(); ++a) {
    std::printf("%-16s", WorkloadRegistry::Get(a).name.c_str());
    for (int b = 0; b < WorkloadRegistry::NumWorkloads(); ++b) {
      const auto entry = table.Lookup(a, {b});
      if (entry.has_value()) {
        ++learned;
        std::printf(" %4.2f/%4.2f", *entry, interference.Pairwise(a, b));
      } else {
        std::printf("    - /%4.2f", interference.Pairwise(a, b));
      }
    }
    std::printf("\n");
  }
  std::printf("\n%d pairwise entries learned; %zu table entries total.\n", learned,
              table.NumEntries());
  return 0;
}
