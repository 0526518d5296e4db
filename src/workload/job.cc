#include "src/workload/job.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "src/common/csv.h"

namespace eva {
namespace {

// Demands the packing can rely on: every component finite and non-negative
// (a NaN component would pass every capacity check).
bool IsValidDemand(const ResourceVector& demand) {
  for (int r = 0; r < kNumResources; ++r) {
    const double value = demand.Get(static_cast<Resource>(r));
    if (!std::isfinite(value) || value < 0.0) {
      return false;
    }
  }
  return true;
}

}  // namespace

JobSpec JobSpec::FromWorkload(JobId id, SimTime arrival_time_s, WorkloadId workload,
                              SimTime duration_s, int num_tasks) {
  const WorkloadSpec& spec = WorkloadRegistry::Get(workload);
  JobSpec job;
  job.id = id;
  job.arrival_time_s = arrival_time_s;
  job.num_tasks = num_tasks > 0 ? num_tasks : spec.default_num_tasks;
  job.workload = workload;
  job.demand_p3 = spec.demand_p3;
  job.demand_cpu = spec.demand_cpu;
  job.duration_s = duration_s;
  return job;
}

void Trace::Normalize() {
  std::stable_sort(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
    return a.arrival_time_s < b.arrival_time_s;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
}

std::string Trace::ToCsv() const {
  CsvTable table({"id", "arrival_s", "num_tasks", "workload", "gpu", "cpu", "ram", "gpu_alt",
                  "cpu_alt", "ram_alt", "duration_s"});
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  for (const JobSpec& job : jobs) {
    table.AddRow({std::to_string(job.id), fmt(job.arrival_time_s), std::to_string(job.num_tasks),
                  WorkloadRegistry::Get(job.workload).name, fmt(job.demand_p3.gpus()),
                  fmt(job.demand_p3.cpus()), fmt(job.demand_p3.ram_gb()),
                  fmt(job.demand_cpu.gpus()), fmt(job.demand_cpu.cpus()),
                  fmt(job.demand_cpu.ram_gb()), fmt(job.duration_s)});
  }
  return table.ToString();
}

std::optional<Trace> Trace::FromCsv(const std::string& csv, const std::string& name) {
  std::optional<CsvTable> table = CsvTable::Parse(csv);
  if (!table.has_value()) {
    return std::nullopt;
  }
  Trace trace;
  trace.name = name;
  std::unordered_set<JobId> ids;
  for (std::size_t i = 0; i < table->NumRows(); ++i) {
    JobSpec job;
    try {
      job.id = std::stoll(table->Field(i, "id"));
      job.arrival_time_s = std::stod(table->Field(i, "arrival_s"));
      job.num_tasks = std::stoi(table->Field(i, "num_tasks"));
      job.workload = WorkloadRegistry::IdOf(table->Field(i, "workload"));
      job.demand_p3 = ResourceVector(std::stod(table->Field(i, "gpu")),
                                     std::stod(table->Field(i, "cpu")),
                                     std::stod(table->Field(i, "ram")));
      job.demand_cpu = ResourceVector(std::stod(table->Field(i, "gpu_alt")),
                                      std::stod(table->Field(i, "cpu_alt")),
                                      std::stod(table->Field(i, "ram_alt")));
      job.duration_s = std::stod(table->Field(i, "duration_s"));
    } catch (const std::exception&) {
      return std::nullopt;
    }
    if (job.workload == kInvalidWorkloadId || job.num_tasks < 1 ||
        !std::isfinite(job.arrival_time_s) || !std::isfinite(job.duration_s) ||
        job.duration_s <= 0.0 || !IsValidDemand(job.demand_p3) ||
        !IsValidDemand(job.demand_cpu) || job.arrival_time_s < 0.0 ||
        (!trace.jobs.empty() && job.arrival_time_s < trace.jobs.back().arrival_time_s) ||
        !ids.insert(job.id).second) {
      return std::nullopt;
    }
    trace.jobs.push_back(job);
  }
  return trace;
}

}  // namespace eva
