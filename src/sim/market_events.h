// Capacity loss from the cloud market: spot preemptions and injected faults.
//
// The spot market (src/cloud/spot_market.h) and the fault model
// (src/cloud/fault_injector.h) only decide, as pure hashes of (seed, kind,
// entity, step) on one shared step clock. This unit acts on their decisions
// for one simulator, and both causes take capacity away the same three ways:
//
//   * a periodic check at the next step boundary, re-armed while instances
//     it could hit are live (one outstanding kSpotCheck and one outstanding
//     kFaultCheck at a time);
//   * notice-then-reclaim (a spot warning, a maintenance drain): evict the
//     instance's tasks through checkpoint-then-pend, condemn it, and at the
//     deadline reclaim whatever is still aboard;
//   * abrupt reclaim (an expired notice, a zone outage, a correlated burst):
//     the containers aboard are lost and their tasks drop back to pending.
//
// Fault losses also go into the fault ledger (SimulationMetrics::faults):
// lost work, disrupted tasks, and each disrupted task's latency until its
// next container launch. Spot losses are counted by the spot counters only.
// Sequence numbers break ties between same-time events, so the order of
// every queue push below is part of the simulated trajectory.

#ifndef SRC_SIM_MARKET_EVENTS_H_
#define SRC_SIM_MARKET_EVENTS_H_

#include <unordered_map>
#include <vector>

#include "src/cloud/fault_injector.h"
#include "src/cloud/instance_type.h"
#include "src/cloud/provider.h"
#include "src/obs/trace.h"
#include "src/sim/cluster_state.h"
#include "src/sim/event_queue.h"
#include "src/sim/execution_model.h"
#include "src/sim/metrics.h"
#include "src/sim/task_lifecycle.h"

namespace eva {

class MarketEvents {
 public:
  // `provider` is null when the provider is off (faults alone may be on).
  // `catalog` is the catalog the engine runs against.
  MarketEvents(ClusterState* state, ExecutionModel* exec, TaskLifecycle* lifecycle,
               EventQueue* queue, const InstanceCatalog& catalog, CloudProvider* provider,
               const FaultInjectorOptions& faults, int tenant_id, SimulationMetrics* metrics,
               TraceBinding trace);

  // A granted launch, in this order: zone placement and the fault check
  // (faults on), the instance's kInstanceReady, then the spot check (spot
  // types).
  void OnLaunch(InstRec& instance, SimTime now);

  // A task's container launch completed: closes its re-placement latency
  // sample if a fault disrupted it.
  void OnLaunchDone(TaskId task, SimTime now);

  // Handles kSpotCheck, kSpotPreempt, kFaultCheck, kZoneOutage, kDrainStart
  // and kDrainDeadline.
  void Handle(const SimEvent& event, SimTime now);

  // Folds the fault ledger into the metrics (faults on only).
  void Finish();

 private:
  enum class Cause { kSpot, kFault };

  // Arms the cause's next check unless one is outstanding.
  void ArmCheck(Cause cause, SimTime now);
  // Notice-then-reclaim for one instance: a spot warning or a drain.
  void Notice(InstanceId id, Cause cause, SimTime now);
  // Destroys an instance right now: containers aboard are lost, assigned
  // tasks bounce back to pending, capacity is released. A notice's deadline
  // lands here too: whatever outlasted the notice (checkpoints slower than
  // the lead time) is lost, and an instance that drained cleanly is gone.
  void Reclaim(InstanceId id, Cause cause, SimTime now);

  void HandleSpotCheck(SimTime now);
  void HandleFaultCheck(SimTime now);
  void HandleZoneOutage(int zone, SimTime now);
  void HandleDrainStart(int zone, SimTime now);

  // Records the first fault disruption of a task (idempotent); the next
  // successful container launch closes the re-placement latency sample.
  void MarkFaultDisrupted(TaskId task, SimTime now) {
    fault_disrupted_at_.try_emplace(task, now);
  }

  ClusterState* state_;
  ExecutionModel* exec_;
  TaskLifecycle* lifecycle_;
  EventQueue* queue_;
  const InstanceCatalog& catalog_;
  CloudProvider* provider_;
  // Pure in the fault options, so it agrees bit-for-bit with the provider's
  // capacity clamp built from the same options.
  FaultModel fault_model_;
  int tenant_id_;
  SimulationMetrics* metrics_;
  TraceBinding trace_;

  bool spot_check_armed_ = false;
  bool fault_check_armed_ = false;

  // The fault ledger: first fault disruption per not-yet-replaced task, and
  // the closed re-placement latency samples.
  std::unordered_map<TaskId, SimTime> fault_disrupted_at_;
  std::vector<double> replacement_latency_s_;

  // Iteration-robust snapshots, reused so handlers allocate nothing at
  // steady state. Reclaim snapshots two task sets in one call.
  std::vector<TaskId> scratch_task_ids_;
  std::vector<TaskId> scratch_evict_ids_;
  std::vector<InstanceId> scratch_instance_ids_;
};

}  // namespace eva

#endif  // SRC_SIM_MARKET_EVENTS_H_
