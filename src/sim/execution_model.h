// Ground-truth execution model: co-location interference, task/job
// throughput, and incremental job-progress integration.
//
// The model keeps three small job-id sets so that per-event work scales with
// the number of jobs actually affected instead of the cluster size:
//   * progressing — active jobs with a positive rate; work integration and
//     ETA projection loop over these only;
//   * dirty — jobs whose colocation inputs changed since the last
//     recomputation (a task changed state, or a neighbor on one of its
//     source instances did); only these get their rate recomputed;
//   * completion candidates — jobs whose remaining work has crossed the
//     completion epsilon; a completion check scans these, not every job.
// A job left out of `dirty` keeps its previous rate, which recomputation
// would reproduce bit-for-bit (its inputs are unchanged), so the incremental
// engine's trajectory is bit-identical to a full per-event recomputation.

#ifndef SRC_SIM_EXECUTION_MODEL_H_
#define SRC_SIM_EXECUTION_MODEL_H_

#include <map>
#include <vector>

#include "src/common/soa_table.h"
#include "src/sched/observation.h"
#include "src/sched/scheduler.h"
#include "src/sim/cluster_state.h"
#include "src/workload/interference.h"

namespace eva {

class Rng;

// A job whose remaining work is below this is complete.
inline constexpr double kWorkEpsilonS = 1e-6;

class ExecutionModel {
 public:
  ExecutionModel(ClusterState* state, const InstanceCatalog* catalog,
                 const InterferenceModel* interference)
      : state_(state), catalog_(catalog), interference_(interference) {}

  // Co-location interference factor only (what the EvaIterator channel
  // reports); 0 when the task is not running. Running neighbors degrade the
  // task; checkpointing neighbors do not. Neighbor task ids in `present` are
  // resolved with at(): the ClusterState pruning invariant makes a stale
  // entry a hard error instead of a silent no-interference result.
  double TaskColocationFactor(const TaskRec& task) const;

  // Full progress rate: co-location factor x hosting family's speedup.
  double TaskThroughput(const TaskRec& task) const;

  // --- Dirty tracking ----------------------------------------------------
  void MarkJobDirty(JobId job) { dirty_.push_back(job); }

  // Marks every job with a container on `instance` dirty (its tasks'
  // colocation sets changed).
  void MarkInstanceDirty(const InstRec& instance);

  // --- Progress integration ----------------------------------------------
  // Advances every progressing job by dt seconds of wall time; jobs whose
  // remaining work crosses the epsilon become completion candidates.
  void IntegrateWork(SimTime dt);

  // Recomputes the rate of every dirty job and returns the earliest
  // projected completion time over all progressing jobs (-1 if none).
  SimTime RecomputeDirtyRates(SimTime now);

  // Jobs whose remaining work is exhausted, ascending by id.
  const IdSet<JobId>& completion_candidates() const { return candidates_; }

  // Must be called when a job completes or is dropped so the tracking sets
  // do not retain it.
  void OnJobDeactivated(JobId job);

  // Registers a just-added job (zero-duration jobs complete immediately).
  void OnJobAdded(const JobRec& job);

  // Progressing jobs with their (node-stable) records: the per-event
  // integration and projection loops read these without re-resolving ids
  // through the cluster state's job map.
  const std::map<JobId, JobRec*>& progressing() const { return progressing_; }

  // One round's throughput observations over the progressing jobs, in job-id
  // order. In physical mode the reported throughput is perturbed with
  // multiplicative Gaussian noise drawn from `rng`. The returned reference
  // points into a persistent batch reused (reset, not reallocated) across
  // rounds; it stays valid until the next CollectObservations call.
  const std::vector<JobThroughputObservation>& CollectObservations(bool physical_mode,
                                                                   double noise_stddev,
                                                                   Rng* rng) const;

 private:
  ClusterState* state_;
  const InstanceCatalog* catalog_;
  const InterferenceModel* interference_;

  std::map<JobId, JobRec*> progressing_;

  // `dirty_` collects ids as they are marked (duplicates included) and is
  // sorted and deduplicated when drained, so jobs are recomputed in
  // ascending id order; `candidates_` is kept sorted.
  std::vector<JobId> dirty_;
  IdSet<JobId> candidates_;

  // Round-scoped observation buffer, reset per round (CollectObservations
  // is logically const: the batch is storage, not model state).
  mutable ObservationBatch batch_;
};

}  // namespace eva

#endif  // SRC_SIM_EXECUTION_MODEL_H_
