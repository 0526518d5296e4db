// Job and trace types.
//
// A job (§2.3) consists of one or more tasks with identical per-task
// demands. Multi-task jobs follow the data-parallel performance dependency
// of §4.4: the job progresses at the speed of its slowest task.

#ifndef SRC_WORKLOAD_JOB_H_
#define SRC_WORKLOAD_JOB_H_

#include <array>
#include <string>
#include <vector>

#include "src/cloud/instance_type.h"
#include "src/common/resources.h"
#include "src/common/units.h"
#include "src/workload/workload.h"

namespace eva {

struct JobSpec {
  JobId id = kInvalidJobId;
  SimTime arrival_time_s = 0.0;
  int num_tasks = 1;

  // Table 7 workload this job is modeled after; defines interference
  // behavior and checkpoint/launch migration delays.
  WorkloadId workload = kInvalidWorkloadId;

  // Per-task resource demand. For synthetic traces these equal the workload
  // spec's demands; for Alibaba-like traces they come from the trace and the
  // workload only supplies interference/migration behavior.
  ResourceVector demand_p3;
  ResourceVector demand_cpu;

  // Standalone running time: how long one (or all, in lockstep) task(s)
  // take at normalized throughput 1.0 with no co-location on a speedup-1.0
  // family. The simulator treats this as the job's total work.
  SimTime duration_s = 0.0;

  // Relative per-iteration speed on each instance family (§4.2's
  // heterogeneous-resources extension); 1.0 everywhere reproduces the
  // paper's homogeneous setting.
  std::array<double, kNumInstanceFamilies> family_speedup = {1.0, 1.0, 1.0};

  const ResourceVector& DemandFor(InstanceFamily family) const {
    return family == InstanceFamily::kP3 ? demand_p3 : demand_cpu;
  }

  // Fills demands from the workload registry.
  static JobSpec FromWorkload(JobId id, SimTime arrival_time_s, WorkloadId workload,
                              SimTime duration_s, int num_tasks = 0 /* 0 = workload default */);
};

// An ordered-by-arrival list of jobs.
struct Trace {
  std::string name;
  std::vector<JobSpec> jobs;

  // Sorts by arrival time (stable), reassigning ids 0..n-1 in order.
  void Normalize();

  // CSV round-trip (columns: id, arrival_s, num_tasks, workload, gpu, cpu,
  // ram, gpu_alt, cpu_alt, ram_alt, duration_s). FromCsv rejects the whole
  // trace on a malformed row: an unknown workload, num_tasks < 1, a
  // non-finite number, a negative demand component or duration_s <= 0. It
  // also rejects a trace the simulator cannot replay: a job id that repeats
  // (the cluster state keys jobs by id) or an arrival time that is negative
  // or earlier than the row before (arrivals are injected in row order, and
  // a late-injected job would still count its JCT from its CSV arrival).
  std::string ToCsv() const;
  static std::optional<Trace> FromCsv(const std::string& csv, const std::string& name);
};

}  // namespace eva

#endif  // SRC_WORKLOAD_JOB_H_
