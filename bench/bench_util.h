// Shared helpers for the table/figure reproduction harnesses.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/common/rng.h"
#include "src/obs/json_util.h"
#include "src/obs/publish.h"
#include "src/obs/registry.h"
#include "src/sched/types.h"
#include "src/sim/metrics.h"
#include "src/workload/workload.h"

namespace eva {

// --- Process resource accounting for the perf harnesses -----------------

// Peak resident set size of this process so far, in MiB (0 when the
// platform offers no getrusage).
inline double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // Bytes.
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB.
#endif
#else
  return 0.0;
#endif
}

// Number of operator-new allocations since process start. Defined in
// bench_alloc_hooks.cc — the counting replacement operator new/delete —
// which bench/CMakeLists.txt links into every bench binary (and nothing
// else links, so library/test builds stay on the stock allocator).
std::uint64_t AllocationCount();

// A static packing problem: `num_tasks` single-task jobs sampled uniformly
// from the Table 7 workloads (the Table 4/5 micro-benchmark setup).
// `catalog` must outlive the returned context.
inline SchedulingContext MakeRandomTaskContext(int num_tasks, std::uint64_t seed,
                                               const InstanceCatalog& catalog) {
  Rng rng(seed);
  SchedulingContext context;
  context.catalog = &catalog;
  for (int i = 0; i < num_tasks; ++i) {
    const WorkloadId workload =
        static_cast<WorkloadId>(rng.UniformInt(0, WorkloadRegistry::NumWorkloads() - 1));
    const WorkloadSpec& spec = WorkloadRegistry::Get(workload);
    TaskInfo task;
    task.id = i;
    task.job = i;
    task.workload = workload;
    task.demand_p3 = spec.demand_p3;
    task.demand_cpu = spec.demand_cpu;
    context.tasks.push_back(task);
  }
  context.Finalize();
  return context;
}

inline void PrintBenchHeader(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproduces %s)\n", title, paper_ref);
  std::printf("================================================================\n");
}

// A run's registry export (sim.*, scheduler.*, faults.*): what a bench row
// embeds under "telemetry".
inline TelemetryRegistry Telemetry(const SimulationMetrics& metrics) {
  TelemetryRegistry registry;
  PublishSimulationMetrics(metrics, &registry);
  return registry;
}

// A bench row's fields besides its name and telemetry, in insertion order:
// the run's shape (`jobs`, or `tenants` and `jobs_per_tenant`), host
// measurements (walls, allocs, RSS, thread count) and the names of rows it
// is judged against. Simulated values never go here.
class BenchFields {
 public:
  BenchFields& Add(const char* key, double value) {
    AppendKey(key);
    obs_internal::AppendJsonNumber(&json_, value);
    return *this;
  }
  BenchFields& Add(const char* key, const std::string& value) {
    AppendKey(key);
    obs_internal::AppendJsonString(&json_, value);
    return *this;
  }
  const std::string& json() const { return json_; }

 private:
  void AppendKey(const char* key) {
    json_ += ", ";
    obs_internal::AppendJsonString(&json_, key);
    json_ += ": ";
  }
  std::string json_;
};

// Machine-readable results, opted into with EVA_BENCH_JSON=<path>: each
// harness that supports it writes {"bench": ..., "cases": [...]}, one row
// per case, so the repo's perf trajectory can be recorded across commits
// (see BENCH_scheduler_perf.json). A row is its name, its BenchFields and
// the run's registry export under "telemetry". Every row carries
// "schema_version" (kSchemaVersion); bump it when the row layout changes
// incompatibly — check_bench_regression.py validates it.
class BenchJsonWriter {
 public:
  static constexpr int kSchemaVersion = 3;

  // The EVA_BENCH_JSON destination, or nullptr when JSON output is off.
  static const char* OutputPath() { return std::getenv("EVA_BENCH_JSON"); }

  // An empty `telemetry` adds no "telemetry" key.
  void AddRow(const std::string& name, const BenchFields& fields,
              const TelemetryRegistry& telemetry = TelemetryRegistry()) {
    std::string line = "    {\"name\": ";
    obs_internal::AppendJsonString(&line, name);
    line += ", \"schema_version\": " + std::to_string(kSchemaVersion) + fields.json();
    if (!telemetry.empty()) {
      line += ", \"telemetry\": " + telemetry.ToJson();
    }
    line += "}";
    cases_.push_back(std::move(line));
  }

  // Writes the collected cases; returns false (with a message) on I/O error.
  bool WriteTo(const char* path, const char* bench_name) const {
    FILE* file = std::fopen(path, "w");
    if (file == nullptr) {
      std::fprintf(stderr, "EVA_BENCH_JSON: cannot write %s\n", path);
      return false;
    }
    std::fprintf(file, "{\n  \"bench\": \"%s\",\n  \"cases\": [\n", bench_name);
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      std::fprintf(file, "%s%s\n", cases_[i].c_str(), i + 1 < cases_.size() ? "," : "");
    }
    std::fprintf(file, "  ]\n}\n");
    std::fclose(file);
    std::printf("wrote %s\n", path);
    return true;
  }

 private:
  std::vector<std::string> cases_;
};

}  // namespace eva

#endif  // BENCH_BENCH_UTIL_H_
