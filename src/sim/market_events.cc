#include "src/sim/market_events.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/common/format.h"
#include "src/common/logging.h"
#include "src/common/stats.h"

namespace eva {

MarketEvents::MarketEvents(ClusterState* state, ExecutionModel* exec,
                           TaskLifecycle* lifecycle, EventQueue* queue,
                           const InstanceCatalog& catalog, CloudProvider* provider,
                           const FaultInjectorOptions& faults, int tenant_id,
                           SimulationMetrics* metrics, TraceBinding trace)
    : state_(state),
      exec_(exec),
      lifecycle_(lifecycle),
      queue_(queue),
      catalog_(catalog),
      provider_(provider),
      fault_model_(faults),
      tenant_id_(tenant_id),
      metrics_(metrics),
      trace_(trace) {}

void MarketEvents::OnLaunch(InstRec& instance, SimTime now) {
  if (fault_model_.enabled()) {
    // Zone placement is a pure hash over the zones up right now, so an
    // instance never launches into an ongoing outage.
    instance.zone = fault_model_.ZoneAt(tenant_id_, instance.id, now);
    ArmCheck(Cause::kFault, now);
  }
  queue_->Push(instance.ready_time, SimEventType::kInstanceReady, instance.id);
  if (provider_ != nullptr && provider_->IsSpotType(instance.type_index)) {
    ++metrics_->spot_instances_launched;
    ArmCheck(Cause::kSpot, now);
  }
}

void MarketEvents::OnLaunchDone(TaskId task, SimTime now) {
  if (fault_disrupted_at_.empty()) {
    return;
  }
  const auto it = fault_disrupted_at_.find(task);
  if (it != fault_disrupted_at_.end()) {
    replacement_latency_s_.push_back(now - it->second);
    fault_disrupted_at_.erase(it);
  }
}

void MarketEvents::Handle(const SimEvent& event, SimTime now) {
  switch (event.type) {
    case SimEventType::kSpotCheck:
      HandleSpotCheck(now);
      break;
    case SimEventType::kFaultCheck:
      HandleFaultCheck(now);
      break;
    case SimEventType::kZoneOutage:
      HandleZoneOutage(static_cast<int>(event.a), now);
      break;
    case SimEventType::kDrainStart:
      HandleDrainStart(static_cast<int>(event.a), now);
      break;
    case SimEventType::kSpotPreempt:
    case SimEventType::kDrainDeadline:
      Reclaim(event.a, event.type == SimEventType::kSpotPreempt ? Cause::kSpot : Cause::kFault,
              now);
      break;
    default:
      break;  // Not a market event.
  }
}

void MarketEvents::Finish() {
  if (!fault_model_.enabled()) {
    return;
  }
  FaultStats& faults = metrics_->faults;
  faults.replacements_completed = static_cast<std::int64_t>(replacement_latency_s_.size());
  if (!replacement_latency_s_.empty()) {
    faults.replacement_latency_min_s =
        *std::min_element(replacement_latency_s_.begin(), replacement_latency_s_.end());
    faults.replacement_latency_median_s = Quantile(replacement_latency_s_, 0.5);
    faults.replacement_latency_p95_s = Quantile(replacement_latency_s_, 0.95);
  }
  // Goodput indicator: executed / (executed + lost), 1.0 in a fault-free
  // run. `lost_work_seconds` is the re-execution debt a real fleet would
  // pay for destroyed containers (progress since launch that no checkpoint
  // preserved) — a ledger quantity layered on top of the executed-time
  // integral, not a rewind of it.
  const double executed = state_->TotalRunningSeconds();
  const double attempted = executed + faults.lost_work_seconds;
  faults.goodput_ratio = attempted > 0.0 ? executed / attempted : 1.0;
}

void MarketEvents::ArmCheck(Cause cause, SimTime now) {
  bool& armed = cause == Cause::kSpot ? spot_check_armed_ : fault_check_armed_;
  if (armed) {
    return;
  }
  armed = true;
  if (cause == Cause::kSpot) {
    queue_->Push(provider_->market().NextStepBoundary(now), SimEventType::kSpotCheck);
  } else {
    queue_->Push(fault_model_.NextStepBoundary(now), SimEventType::kFaultCheck);
  }
}

void MarketEvents::Notice(InstanceId id, Cause cause, SimTime now) {
  InstRec* inst = state_->FindInstance(id);
  if (inst == nullptr) {
    return;
  }
  const bool fault = cause == Cause::kFault;
  if (fault) {
    ++metrics_->faults.instances_drained;
  } else {
    ++metrics_->spot_preemptions;
    provider_->RecordPreemption(inst->type_index);
    if (trace_) {
      trace_.recorder->Instant(trace_.track, "spot.warn", now, "instance",
                               static_cast<double>(id), "type",
                               static_cast<double>(inst->type_index));
    }
    EVA_LOG_DEBUG("tenant %d: spot instance " EVA_PRId64
                  " (type %d) preemption warning at t=%.0f",
                  tenant_id_, id, inst->type_index, now);
  }
  // Evict every task routed here: running tasks checkpoint (and park
  // kPending when the checkpoint lands), parked/launching tasks drop back
  // to the pending pool immediately.
  std::vector<TaskId>& assigned = scratch_task_ids_;
  assigned.assign(inst->assigned.begin(), inst->assigned.end());
  for (TaskId task_id : assigned) {
    if (TaskRec* task = state_->FindTask(task_id)) {
      if (fault) {
        ++metrics_->faults.tasks_evicted;
        MarkFaultDisrupted(task_id, now);
      }
      lifecycle_->Evict(*task, now);
    }
  }
  // Condemned: invisible to the scheduler from the next context on, and
  // terminated (capacity released) the moment the last container leaves —
  // possibly right now, if nothing was placed yet. The deadline reclaims
  // whatever outlasts the notice.
  state_->Condemn(id);
  if (fault) {
    queue_->Push(now + fault_model_.options().drain_notice_s, SimEventType::kDrainDeadline, id);
  } else {
    queue_->Push(now + provider_->market().options().warning_s, SimEventType::kSpotPreempt, id);
  }
  state_->MaybeTerminate(id, now);
}

void MarketEvents::Reclaim(InstanceId id, Cause cause, SimTime now) {
  const bool fault = cause == Cause::kFault;
  if (!fault && trace_) {
    trace_.recorder->Instant(trace_.track, "spot.preempt", now, "instance",
                             static_cast<double>(id));
  }
  InstRec* inst = state_->FindInstance(id);
  if (inst == nullptr) {
    return;  // Already gone: its notice drained it cleanly.
  }
  if (fault) {
    ++metrics_->faults.instances_killed;
  }
  // Mark neighbors dirty first — the instance record disappears below.
  exec_->MarkInstanceDirty(*inst);
  std::vector<TaskId>& present = scratch_task_ids_;
  present.assign(inst->present.begin(), inst->present.end());
  for (TaskId task_id : present) {
    TaskRec* task = state_->FindTask(task_id);
    if (task == nullptr) {
      continue;
    }
    if (fault) {
      // A container died with work in flight: everything since its launch
      // is gone (no checkpoint finished, or the event would have removed it
      // from the present set already).
      ++metrics_->faults.tasks_lost;
      if (task->running_since >= 0.0) {
        metrics_->faults.lost_work_seconds += std::max(now - task->running_since, 0.0);
      }
      MarkFaultDisrupted(task_id, now);
    }
    ++task->version;  // Cancels the in-flight checkpoint completion.
    state_->RemoveContainer(*task);
    if (task->target != kInvalidInstanceId && task->target != id) {
      // Outbound migration interrupted: the container is gone either way;
      // relaunch at the (still valid) destination.
      task->state = TaskState::kWaiting;
      lifecycle_->TryLaunch(*task, now);
    } else {
      state_->ClearTarget(*task);
      task->state = TaskState::kPending;
    }
  }
  // Anything still assigned (tasks parked, launching, or bound here without
  // a container yet) drops back to pending too.
  std::vector<TaskId>& assigned = scratch_evict_ids_;
  assigned.assign(inst->assigned.begin(), inst->assigned.end());
  for (TaskId task_id : assigned) {
    if (TaskRec* task = state_->FindTask(task_id)) {
      if (fault) {
        MarkFaultDisrupted(task_id, now);
      }
      lifecycle_->Evict(*task, now);
    }
  }
  state_->Condemn(id);
  state_->MaybeTerminate(id, now);
}

void MarketEvents::HandleSpotCheck(SimTime now) {
  spot_check_armed_ = false;
  // Scan live spot instances in id order (deterministic) for types whose
  // quote crossed the preemption threshold this step.
  std::vector<InstanceId>& to_warn = scratch_instance_ids_;
  to_warn.clear();
  bool any_spot_live = false;
  for (const auto& [id, instance] : state_->instances()) {
    if (!provider_->IsSpotType(instance.type_index)) {
      continue;
    }
    any_spot_live = true;
    if (instance.condemned) {
      continue;  // Already warned (or draining); reclaim is scheduled.
    }
    if (provider_->market().IsPreempting(provider_->BaseType(instance.type_index), now)) {
      to_warn.push_back(id);
    }
  }
  for (InstanceId id : to_warn) {
    Notice(id, Cause::kSpot, now);
  }
  if (any_spot_live) {
    ArmCheck(Cause::kSpot, now);  // Keep repricing while spot capacity is held.
  }
}

void MarketEvents::HandleFaultCheck(SimTime now) {
  fault_check_armed_ = false;
  const std::int64_t step = fault_model_.StepOf(now);
  const FaultInjectorOptions& fopts = fault_model_.options();
  // Zone events are queued at `now`, behind this check, rather than run
  // inline: their place in the queue orders them against every other event
  // at this time, and the pinned fault trajectories depend on it.
  // Correlated bursts act inline — their victim set is computed from the
  // live set right here.
  for (int zone = 0; zone < fopts.num_zones; ++zone) {
    if (fault_model_.ZoneOutageStartsAt(zone, step)) {
      queue_->Push(now, SimEventType::kZoneOutage, zone);
    }
    if (fault_model_.DrainStartsAt(zone, step)) {
      queue_->Push(now, SimEventType::kDrainStart, zone);
    }
  }
  for (int family = 0; family < kNumInstanceFamilies; ++family) {
    if (!fault_model_.CorrelatedFailureAt(family, step)) {
      continue;
    }
    // Rank the family's live instances by a pure hash and kill the lowest
    // K: the victim set is a function of (schedule, live set) only, never
    // of map iteration or event interleaving.
    std::vector<std::pair<std::uint64_t, InstanceId>> ranked;
    for (const auto& [id, instance] : state_->instances()) {
      if (instance.condemned ||
          static_cast<int>(catalog_.Get(instance.type_index).family) != family) {
        continue;
      }
      ranked.emplace_back(fault_model_.VictimRank(tenant_id_, id, step), id);
    }
    if (ranked.empty()) {
      continue;  // Scheduled burst found nothing to kill; not counted.
    }
    ++metrics_->faults.correlated_failures;
    std::sort(ranked.begin(), ranked.end());
    const std::size_t burst =
        std::min(ranked.size(), static_cast<std::size_t>(
                                    std::max(fopts.correlated_failure_size, 0)));
    if (trace_) {
      trace_.recorder->Instant(trace_.track, "fault.correlated", now, "family",
                               static_cast<double>(family), "victims",
                               static_cast<double>(burst));
    }
    for (std::size_t i = 0; i < burst; ++i) {
      Reclaim(ranked[i].second, Cause::kFault, now);
    }
  }
  if (state_->HasLiveInstances()) {
    ArmCheck(Cause::kFault, now);  // Keep checking while anything can still fail.
  }
}

void MarketEvents::HandleZoneOutage(int zone, SimTime now) {
  ++metrics_->faults.zone_outages;
  EVA_LOG_DEBUG("tenant %d: zone %d outage at t=%.0f", tenant_id_, zone, now);
  // The zone drops wholesale: every instance in it — ready, provisioning,
  // even already-condemned — dies abruptly, in id order.
  std::vector<InstanceId>& victims = scratch_instance_ids_;
  victims.clear();
  for (const auto& [id, instance] : state_->instances()) {
    if (instance.zone == zone) {
      victims.push_back(id);
    }
  }
  if (trace_) {
    trace_.recorder->Instant(trace_.track, "fault.zone_outage", now, "zone",
                             static_cast<double>(zone), "victims",
                             static_cast<double>(victims.size()));
  }
  for (InstanceId id : victims) {
    Reclaim(id, Cause::kFault, now);
  }
}

void MarketEvents::HandleDrainStart(int zone, SimTime now) {
  ++metrics_->faults.maintenance_drains;
  EVA_LOG_DEBUG("tenant %d: zone %d maintenance drain at t=%.0f", tenant_id_, zone, now);
  std::vector<InstanceId>& draining = scratch_instance_ids_;
  draining.clear();
  for (const auto& [id, instance] : state_->instances()) {
    if (!instance.condemned && instance.zone == zone) {
      draining.push_back(id);
    }
  }
  if (trace_) {
    trace_.recorder->Instant(trace_.track, "fault.drain_start", now, "zone",
                             static_cast<double>(zone), "instances",
                             static_cast<double>(draining.size()));
  }
  for (InstanceId id : draining) {
    Notice(id, Cause::kFault, now);
  }
}

}  // namespace eva
