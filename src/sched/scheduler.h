// The scheduler interface all five schedulers implement: the four baselines
// (No-Packing, Stratus, Synergy, Owl) and Eva, whose four ablations
// (SchedulerKind) are EvaScheduler configurations.

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/sched/types.h"
#include "src/workload/workload.h"

namespace eva {

// Placement observation for one task of a job during the last scheduling
// window: the workloads it shared an instance with.
struct TaskPlacementObservation {
  TaskId task = kInvalidTaskId;
  WorkloadId workload = kInvalidWorkloadId;
  std::vector<WorkloadId> colocated;
};

// Throughput observation for one job over the last scheduling window,
// reported by the workers' EvaIterator in the real system and by the
// execution model in simulation.
struct JobThroughputObservation {
  JobId job = kInvalidJobId;
  double normalized_throughput = 1.0;  // min over the job's tasks
  std::vector<TaskPlacementObservation> tasks;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  // Computes the desired cluster configuration for the current state. Called
  // once per scheduling period.
  virtual ClusterConfig Schedule(const SchedulingContext& context) = 0;

  // Writes the desired configuration into caller-owned storage, reusing its
  // buffers (the per-round fast path: one round-scoped ClusterConfig lives
  // for the whole run and is rewritten in place). The default forwards to
  // Schedule(); schedulers whose Schedule would copy a cached configuration
  // (Eva's round memo) override this to copy into `out` directly.
  virtual void ScheduleInto(const SchedulingContext& context, ClusterConfig& out) {
    out = Schedule(context);
  }

  // Delivers the throughput observations collected since the previous
  // scheduling round. Default: ignore (throughput-oblivious schedulers).
  virtual void ObserveThroughput(const std::vector<JobThroughputObservation>& observations) {
    (void)observations;
  }

  // Round batching. The caller (the simulator's quiescence-aware round
  // trigger, or a real master's round loop) guarantees that each of the next
  // `max_rounds` scheduling rounds, spaced `period_s` apart, is *quiescent*:
  // the context it would present is identical to the previous Schedule
  // call's on every field except the clock and remaining-runtime estimates,
  // and the throughput observations it would deliver are identical to the
  // previous round's. The scheduler returns how many of those rounds
  // (possibly 0) it commits to being no-ops — rounds for which Schedule
  // would return exactly the configuration it returned last time — and must
  // advance any per-round internal state (rate estimators, statistics) for
  // the rounds it absorbs, as if Schedule had been called. Returning fewer
  // than `max_rounds` means the later rounds must be invoked normally (e.g.
  // an internal estimator is about to flip the decision). The default — no
  // batching — is correct for every scheduler; only schedulers that can
  // prove the no-op property (Eva's round memo) opt in.
  virtual int CoalesceQuiescentRounds(int max_rounds, SimTime period_s) {
    (void)max_rounds;
    (void)period_s;
    return 0;
  }

  // Tells the scheduler how large the workload it is about to serve is
  // (total jobs in the trace / expected over the deployment's horizon).
  // Called once, before the first Schedule call. Schedulers with
  // scale-dependent defaults (Eva's auto incremental-packing mode) resolve
  // them here; the default ignores the hint.
  virtual void BindWorkloadScale(std::size_t expected_jobs) { (void)expected_jobs; }

  // Hands the scheduler a span sink on its owner's trace track (the
  // simulator calls this at construction when tracing is enabled; never
  // called when it is off). Spans must be stamped with the context's
  // virtual time and emitted from the thread running the round, so the
  // track's span order stays deterministic. Default: ignore (untraced
  // schedulers).
  virtual void BindTrace(const TraceBinding& binding) { (void)binding; }

  // Writes this run's decision-path counters into `out` (a fresh struct;
  // MergeStats aggregates across tenants). Called after the last round, and
  // per round when the registry samples divergence. Default: export
  // nothing.
  virtual void ExportCounters(SchedulerCounters& out) const { (void)out; }
};

}  // namespace eva

#endif  // SRC_SCHED_SCHEDULER_H_
