#include "src/sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "src/cloud/delays.h"
#include "src/common/format.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/soa_table.h"
#include "src/obs/publish.h"
#include "src/sched/config_diff.h"
#include "src/sim/cluster_state.h"
#include "src/sim/event_queue.h"
#include "src/sim/execution_model.h"
#include "src/sim/market_events.h"
#include "src/sim/task_lifecycle.h"

namespace eva {

namespace {

// Physical mode's observation noise: the standard deviation of the
// perturbation applied to every reported task throughput.
constexpr double kObservationNoiseStddev = 0.03;

// Decision-time markup on spot quotes (the preemption-risk premium): the
// scheduler prices a spot instance at quote x (1 + premium), so a spot type
// must undercut on-demand by the premium before Eva mixes it in. Actual
// costs charge the raw quote trace.
constexpr double kSpotRiskPremium = 0.10;

// Virtual-time bucket width of the registry time series.
constexpr double kTimeseriesBucketSeconds = 3600.0;

// This simulator's track on the configured trace recorder, if any.
TraceBinding RegisterTrack(const SimulatorOptions& options) {
  const ObservabilityOptions& obs = options.observability;
  if (obs.trace == nullptr) {
    return {};
  }
  const std::string name =
      obs.track_name.empty() ? "tenant" + std::to_string(options.tenant_id) : obs.track_name;
  return {obs.trace, obs.trace->RegisterTrack(name)};
}

}  // namespace

// Orchestrator: wires the event queue, cluster state, execution model, task
// lifecycle and market events to the Scheduler interface. All domain logic
// lives in those modules; the handlers below only sequence events into
// state transitions.
class Simulator::Impl {
 public:
  Impl(const Trace& trace, Scheduler* scheduler, const InstanceCatalog& catalog,
       const InterferenceModel& interference, SimulatorOptions options)
      : trace_(trace),
        scheduler_(scheduler),
        options_(options),
        provider_owned_(options_.shared_provider == nullptr && options_.provider.enabled
                            ? std::make_unique<CloudProvider>(
                                  catalog,
                                  MergedProviderOptions(options_.provider, options_.faults))
                            : nullptr),
        provider_(options_.shared_provider != nullptr ? options_.shared_provider
                                                      : provider_owned_.get()),
        catalog_(provider_ != nullptr ? provider_->tiered_catalog() : catalog),
        rng_(options.seed),
        state_(catalog_),
        exec_(&state_, &catalog_, &interference),
        lifecycle_(&state_, &exec_, &queue_, options.migration_delay_multiplier),
        obs_trace_(RegisterTrack(options_)),
        market_(&state_, &exec_, &lifecycle_, &queue_, catalog_, provider_, options_.faults,
                options_.tenant_id, &metrics_, obs_trace_) {
    // Let scale-dependent scheduler defaults (Eva's auto incremental-
    // packing mode) resolve against the workload size before any round.
    scheduler_->BindWorkloadScale(trace_.jobs.size());
    flight_ = options_.observability.flight_recorder;
    registry_ = options_.observability.registry;
    if (obs_trace_) {
      scheduler_->BindTrace(obs_trace_);
    }
    if (provider_ != nullptr) {
      // A termination returns pool capacity. Spot instances are priced off
      // the market's trace integral (and the spot share is tracked); the
      // price is the default expression exactly for on-demand types.
      state_.set_instance_end_fn([this](int type_index, SimTime launch, SimTime end) {
        provider_->Release(type_index, launch, end);
        const Money cost = provider_->InstanceCost(type_index, launch, end);
        if (provider_->IsSpotType(type_index)) {
          metrics_.spot_cost += cost;
        }
        return cost;
      });
    }
  }

  // Lockstep stepping API (see simulator.h).
  void Start();
  SimTime NextRoundTime() const {
    // An aborted run (max_sim_time_s) reports no pending round even though
    // the round event that tripped the limit never ran — otherwise a
    // federation barrier would stay pinned at its stale time forever.
    return round_scheduled_ && !aborted_ ? next_round_time_
                                         : std::numeric_limits<SimTime>::infinity();
  }
  bool Drained() const { return aborted_ || queue_.Empty(); }
  SimTime NextEventTime() const {
    return (aborted_ || queue_.Empty()) ? std::numeric_limits<SimTime>::infinity()
                                        : queue_.Top().time;
  }
  void AdvanceUntil(SimTime limit);
  void ProcessEventsThrough(SimTime t);
  SimulationMetrics Finish();

 private:
  void Advance(SimTime to);
  // Recomputes dirty job rates and (re)arms the completion check; runs after
  // every event, standing in for the old full-cluster rescan.
  void RecomputeAndArm();

  // Pops and dispatches exactly one event, or aborts the run on an event
  // beyond max_sim_time_s. Requires !queue_.Empty().
  void ProcessOneEvent();

  void HandleArrival(std::int64_t job_index);
  void HandleRound();
  void HandleInstanceReady(InstanceId id);
  void HandleCompletionCheck(SimTime at);
  void ApplyConfig(const SchedulingContext& context, const ClusterConfig& config);

  void PushRound(SimTime at) {
    round_scheduled_ = true;
    next_round_time_ = at;
    queue_.Push(at, SimEventType::kRound);
  }

  bool SpotActive() const { return provider_ != nullptr && provider_->spot_enabled(); }

  bool HasActiveJobs() const { return state_.num_active() > 0; }
  bool HasPendingArrivals() const { return next_arrival_ < trace_.jobs.size(); }

  // --- Observability (all no-ops when the sinks below are null) ----------

  // Sum of live instances' hourly prices — the cost-rate sample for the
  // round digest and the registry time series.
  double LiveHourlyCost() const {
    double total = 0.0;
    for (const auto& [id, instance] : state_.instances()) {
      total += catalog_.Get(instance.type_index).cost_per_hour;
    }
    return total;
  }

  // Order- and content-sensitive hash of the desired configuration; the
  // sharpest per-round fingerprint the flight recorder snapshots.
  std::uint64_t HashConfig(const ClusterConfig& config) const {
    std::uint64_t hash = 0x9e3779b97f4a7c15ULL;
    auto mix = [&hash](std::uint64_t value) { hash = HashCombine(hash, value); };
    mix(static_cast<std::uint64_t>(config.instances.size()));
    for (const ConfigInstance& instance : config.instances) {
      mix(static_cast<std::uint64_t>(instance.type_index));
      mix(static_cast<std::uint64_t>(instance.reuse_instance));
      mix(static_cast<std::uint64_t>(instance.tasks.size()));
      for (TaskId task : instance.tasks) {
        mix(static_cast<std::uint64_t>(task));
      }
    }
    return hash;
  }

  // Appends this round's digest and samples the registry time series.
  // Called once per scheduling round, coalesced rounds included, so digest
  // round indices line up with metrics_.scheduling_rounds across runs.
  void RecordRoundObservability() {
    const double hourly_cost = LiveHourlyCost();
    if (flight_ != nullptr) {
      RoundDigest digest;
      digest.t_s = now_;
      digest.config_hash = last_config_hash_;
      digest.rng_hash = rng_.StateHash();
      digest.hourly_cost = hourly_cost;
      digest.events_processed = metrics_.events_processed;
      digest.jobs_completed = metrics_.jobs_completed;
      digest.active_jobs = state_.num_active();
      digest.live_instances = static_cast<std::int64_t>(state_.instances().size());
      flight_->Record(digest);
    }
    if (registry_ != nullptr) {
      const double width = kTimeseriesBucketSeconds;
      registry_->Series("ts.hourly_cost", width).Sample(now_, hourly_cost);
      registry_->Series("ts.active_jobs", width).Sample(now_, state_.num_active());
      registry_->Series("ts.live_instances", width)
          .Sample(now_, static_cast<double>(state_.instances().size()));
      registry_->Series("ts.queue_depth", width)
          .Sample(now_, static_cast<double>(queue_.Size()));
      registry_->Series("ts.denials", width)
          .Sample(now_, static_cast<double>(metrics_.acquisitions_denied));
      // Packing divergence as the scheduler last measured it (zero until
      // the first reconciliation; zero throughout for exact-only runs).
      SchedulerCounters counters;
      scheduler_->ExportCounters(counters);
      registry_->Series("ts.divergence_cost", width)
          .Sample(now_, counters.last_divergence_cost);
      registry_->Hist("round.events_delta")
          .Record(metrics_.events_processed - last_round_events_);
      last_round_events_ = metrics_.events_processed;
    }
  }

  // True when this round is certifiably quiescent: the context the scheduler
  // would see and the observations it would receive are identical (up to the
  // clock and remaining-runtime estimates) to the previous round's, and the
  // previous configuration was applied without touching the cluster. Such a
  // round may be offered to Scheduler::CoalesceQuiescentRounds. Spot quotes
  // drift between rounds, so no round is quiescent while the market is on;
  // fault injection is likewise disqualifying (a fault can rip capacity out
  // between two otherwise-identical rounds). Market events therefore never
  // need to mark the rates dirty.
  bool RoundIsQuiescent() const {
    return options_.coalesce_quiescent_rounds && !options_.physical_mode &&
           !SpotActive() && !options_.faults.enabled && last_apply_noop_ &&
           !rates_dirty_since_round_ && !state_.HasPendingDelta();
  }

  const Trace& trace_;
  Scheduler* scheduler_;
  SimulatorOptions options_;

  // Cloud provider market: owned for single-tenant runs, borrowed from the
  // federation otherwise; null when disabled. `catalog_` is the catalog the
  // engine actually runs against — the provider's tiered catalog (stable
  // object) when a provider exists, the caller's otherwise.
  std::unique_ptr<CloudProvider> provider_owned_;
  CloudProvider* provider_;
  const InstanceCatalog& catalog_;

  Rng rng_;

  ClusterState state_;
  ExecutionModel exec_;
  EventQueue queue_;
  TaskLifecycle lifecycle_;
  // Observability trace binding (null recorder when off); declared here
  // because market_ records into it.
  TraceBinding obs_trace_;
  MarketEvents market_;

  std::size_t next_arrival_ = 0;
  SimTime pending_completion_check_ = std::numeric_limits<SimTime>::infinity();
  SimTime now_ = 0.0;
  bool round_scheduled_ = false;
  SimTime next_round_time_ = 0.0;
  bool aborted_ = false;

  // Per-round decision-price snapshot: the tiered catalog with spot entries
  // at the current quote x (1 + risk premium). Borrowed from the provider's
  // step-keyed cache, so catalog identity changes exactly when a price step
  // boundary is crossed — pricing caches keyed on identity invalidate on
  // every real price change and only then, and all tenants rounding in one
  // step share one snapshot instead of building their own.
  std::shared_ptr<const InstanceCatalog> quote_catalog_;

  // Quiescence tracking for the batched round trigger. `last_apply_noop_`:
  // the previous round's configuration changed nothing (no launches,
  // terminations or moves — condemnations imply a non-empty terminate list,
  // so they clear it too). `rates_dirty_since_round_`: a task-rate-affecting
  // transition (instance ready, checkpoint/launch completion, an actual job
  // completion) fired since the previous round's observation snapshot;
  // cluster-shape changes are covered by the pending RoundDelta instead.
  bool last_apply_noop_ = false;
  bool rates_dirty_since_round_ = false;

  // Per-round context, refilled in place (FillContext) so its containers'
  // storage is reused round over round. Only alive during HandleRound; the
  // scheduler contract already forbids retaining the reference.
  SchedulingContext round_context_;

  // Round-scoped output buffers, rewritten in place every round: the
  // scheduler's desired configuration, its diff against the context, and
  // ApplyConfig's scratch. Members give each simulator its own storage,
  // which isolates federation tenants and parallel comparison runs.
  ClusterConfig round_config_;
  ConfigDiff round_diff_;
  std::vector<InstanceId> apply_binding_instance_;
  std::vector<char> apply_execute_;
  EpochColumn<ResourceVector> apply_projected_;  // Denial fixpoint's projection.
  std::vector<InstanceId> apply_keep_visible_;

  // Per-event copy buffers (iteration-robust snapshots of instance task
  // sets and completion candidates), reused so handlers allocate nothing
  // at steady state.
  std::vector<TaskId> scratch_task_ids_;
  std::vector<JobId> scratch_job_ids_;
  std::vector<InstanceId> scratch_instance_ids_;

  // The other observability sinks, unpacked from options_.observability at
  // construction; all null in the default (off) configuration, so every
  // hook below is one pointer test on the hot path.
  FlightRecorder* flight_ = nullptr;
  TelemetryRegistry* registry_ = nullptr;
  std::uint64_t last_config_hash_ = 0;
  std::int64_t last_round_events_ = 0;

  SimulationMetrics metrics_;
};

void Simulator::Impl::Advance(SimTime to) {
  const double dt = to - now_;
  if (dt <= 0.0) {
    now_ = std::max(now_, to);
    return;
  }
  exec_.IntegrateWork(dt);
  state_.IntegrateTo(dt);
  now_ = to;
}

void Simulator::Impl::RecomputeAndArm() {
  const SimTime earliest = exec_.RecomputeDirtyRates(now_);
  // Checks are idempotent (a check that fires early is a no-op and re-arms),
  // so we only push when the new projection is earlier than what is already
  // armed. That skips a push per event but does not bound the queue: a
  // superseded check stays queued, and when it fires it clears the armed
  // time and re-arms a second copy of the live check. HandleCompletionCheck
  // folds those same-time copies.
  if (earliest >= 0.0 && earliest < pending_completion_check_ - 1e-9) {
    pending_completion_check_ = earliest;
    queue_.Push(earliest, SimEventType::kCompletionCheck);
  }
}

void Simulator::Impl::HandleArrival(std::int64_t job_index) {
  const JobSpec& spec = trace_.jobs[static_cast<std::size_t>(job_index)];
  // Admission control: reject jobs no instance type can host (the paper
  // filters these from the trace).
  const std::optional<int> fits = catalog_.CheapestFitting(
      [&spec](InstanceFamily family) { return spec.DemandFor(family); });
  if (!fits.has_value()) {
    EVA_LOG_WARNING("job " EVA_PRId64 " demand %s fits no instance type; dropped",
                    spec.id, spec.demand_p3.ToString().c_str());
    return;
  }
  const JobRec& job = state_.AddJob(spec);
  exec_.OnJobAdded(job);
  metrics_.tasks_total += spec.num_tasks;
  ++metrics_.jobs_submitted;
}

void Simulator::Impl::HandleRound() {
  round_scheduled_ = false;
  ++metrics_.scheduling_rounds;

  // Quiescence-aware trigger: a certified no-op round is offered to the
  // scheduler for absorption instead of being dispatched. The event and
  // integration trajectory is untouched (this round event was popped and
  // advanced exactly as always; the next one is pushed exactly as always),
  // so every simulated quantity stays bit-identical — the only difference
  // is that the observation/context/schedule/validate/apply machinery,
  // provably a no-op this round, never runs. An absorbed round changes no
  // state, so the keep-scheduling condition equals the previous round's,
  // which was true (it pushed this event).
  if (RoundIsQuiescent() &&
      (HasActiveJobs() || HasPendingArrivals() || state_.HasLiveInstances()) &&
      scheduler_->CoalesceQuiescentRounds(1, options_.scheduling_period_s) > 0) {
    ++metrics_.rounds_coalesced;
    if (obs_trace_) {
      obs_trace_.recorder->Instant(obs_trace_.track, "round.coalesced", now_);
    }
    if (flight_ != nullptr || registry_ != nullptr) {
      RecordRoundObservability();
    }
    PushRound(now_ + options_.scheduling_period_s);
    return;
  }

  // Report the last window's throughput (the EvaIterator channel), then ask
  // for the desired configuration. The context carries the RoundDelta the
  // cluster state accumulated since the previous round, and the scheduler
  // calls are timed so the benches can report per-round decision latency.
  const std::vector<JobThroughputObservation>& observations = exec_.CollectObservations(
      options_.physical_mode, kObservationNoiseStddev, &rng_);
  SchedulingContext& context = round_context_;  // Reused storage across rounds.
  state_.FillContext(now_, context);
  if (SpotActive()) {
    // Reprice the spot tier for this round's decision. The snapshot comes
    // from the provider's step-keyed cache: rounds within one price step
    // see the same object (prices bit-identical by construction), and a
    // step crossing swaps in a new identity so every pricing cache sees
    // the change. Cached snapshots are never freed, so identities never
    // collide.
    quote_catalog_ = provider_->SharedQuoteCatalog(now_, kSpotRiskPremium);
    context.catalog = quote_catalog_.get();
  }
  state_.DrainRoundDelta(context.delta);
  rates_dirty_since_round_ = false;  // This round's snapshot is the new baseline.
  const auto sched_start = std::chrono::steady_clock::now();
  scheduler_->ObserveThroughput(observations);
  // Round-scoped storage: the config is written into the same buffers every
  // round (schedulers reuse element capacity instead of building a fresh
  // ClusterConfig), per the arena discipline of reset-not-reallocate.
  ClusterConfig& config = round_config_;
  scheduler_->ScheduleInto(context, config);
  metrics_.scheduler_wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sched_start).count();

  // Every returned configuration is checked against the capacity and
  // duplication invariants; an invalid one is rejected (logged, round
  // skipped).
  if (const auto error = config.Validate(context)) {
    EVA_LOG_ERROR("scheduler %s returned invalid config at t=%.0f: %s",
                  scheduler_->name().c_str(), now_, error->c_str());
    // Keep replaying the rejection (and its log line) every round rather
    // than certifying a round that never applied its configuration.
    last_apply_noop_ = false;
  } else {
    ApplyConfig(context, config);
  }

  // Keep the cadence while there is anything left to manage (evaluated after
  // the configuration took effect, so a final cleanup round ends the chain).
  if (HasActiveJobs() || HasPendingArrivals() || state_.HasLiveInstances()) {
    PushRound(now_ + options_.scheduling_period_s);
  }

  if (obs_trace_) {
    obs_trace_.recorder->Instant(obs_trace_.track, "round", now_, "active_jobs",
                                 static_cast<double>(state_.num_active()), "live_instances",
                                 static_cast<double>(state_.instances().size()));
  }
  if (flight_ != nullptr || registry_ != nullptr) {
    RecordRoundObservability();
  }
}

void Simulator::Impl::ApplyConfig(const SchedulingContext& context,
                                  const ClusterConfig& config) {
  ConfigDiff& diff = round_diff_;  // Reused storage across rounds.
  DiffConfigInto(context, config, diff);

  if (flight_ != nullptr) {
    last_config_hash_ = HashConfig(config);
  }
  if (obs_trace_) {
    obs_trace_.recorder->Instant(obs_trace_.track, "config.apply", now_, "launches",
                                 static_cast<double>(diff.NumLaunches()), "moves",
                                 static_cast<double>(diff.moves.size()));
  }

  // An application that launches, terminates (or condemns) or moves nothing
  // leaves the cluster exactly as the scheduler saw it — the precondition
  // for certifying the following rounds quiescent.
  last_apply_noop_ =
      diff.terminate.empty() && diff.moves.empty() && diff.NumLaunches() == 0;

  // Launch new instances, subject to provider admission: an exhausted
  // family pool denies the launch, the binding stays unbound, and every
  // task routed to it keeps its previous placement until a later round
  // succeeds (or the scheduler gives up).
  bool any_denied = false;
  std::vector<InstanceId>& binding_instance = apply_binding_instance_;
  binding_instance.assign(diff.bindings.size(), kInvalidInstanceId);
  for (std::size_t i = 0; i < diff.bindings.size(); ++i) {
    const ConfigDiff::Binding& binding = diff.bindings[i];
    if (binding.existing_id != kInvalidInstanceId) {
      binding_instance[i] = binding.existing_id;
      continue;
    }
    if (provider_ != nullptr && !provider_->TryAcquire(binding.type_index, now_)) {
      ++metrics_.acquisitions_denied;
      any_denied = true;
      EVA_LOG_DEBUG("tenant %d: launch of type %d denied at t=%.0f", options_.tenant_id,
                    binding.type_index, now_);
      continue;
    }
    const SimTime delay = ProvisioningDelay(options_.physical_mode ? &rng_ : nullptr);
    InstRec& instance = state_.CreateInstance(binding.type_index, now_, now_ + delay);
    binding_instance[i] = instance.id;
    market_.OnLaunch(instance, now_);  // Also pushes the kInstanceReady.
  }

  // Which moves execute. Without denials: every move (the config was
  // validated whole, and capacity is "eventual" — swaps may transiently
  // overlap). A denial, however, strands each dropped move's task on its
  // current instance, which the scheduler's plan assumed vacated — blindly
  // executing the arrivals into that instance would over-commit it, and the
  // oversubscribed assignment would then poison every later round (Partial
  // Reconfiguration keeps instances verbatim, so the invalid set never
  // heals). Re-verify arrivals against projected capacity instead, dropping
  // (in diff order, to a fixpoint — a dropped arrival bounces its task back
  // to an instance earlier arrivals were checked without) whatever no
  // longer fits.
  std::vector<char>& execute = apply_execute_;  // Reused round scratch.
  execute.assign(diff.moves.size(), 1);
  for (std::size_t i = 0; i < diff.moves.size(); ++i) {
    const TaskRec* task = state_.FindTask(diff.moves[i].task);
    if (task == nullptr || task->state == TaskState::kDone ||
        binding_instance[static_cast<std::size_t>(diff.moves[i].to_binding)] ==
            kInvalidInstanceId) {
      execute[i] = 0;
    }
  }
  if (any_denied) {
    // Move sources/destinations are live by the assigned-set invariant
    // (MaybeTerminate requires assigned empty), so the instance lookup is
    // dereferenced unchecked — pricing demand against a substitute family
    // would silently corrupt the capacity re-verify.
    const auto demand_on = [&](const TaskRec& task, InstanceId instance_id) {
      const InstanceFamily family =
          catalog_.Get(state_.FindInstance(instance_id)->type_index).family;
      return task.job_ref->spec.DemandFor(family);
    };
    // Projected per-instance demand if the currently executable moves all
    // run, keyed by (dense) instance id: each pass starts from the live
    // assignment, summed on first touch, applies departures, then re-adds
    // arrivals one by one with a fit check at the destination. A returned
    // reference is valid only until the next first touch (the column grows).
    EpochColumn<ResourceVector>& projected = apply_projected_;
    const auto projected_for = [&](InstanceId id) -> ResourceVector& {
      if (ResourceVector* load = projected.Find(static_cast<std::size_t>(id))) {
        return *load;
      }
      ResourceVector& load = projected.Touch(static_cast<std::size_t>(id));
      load = ResourceVector();
      if (const InstRec* instance = state_.FindInstance(id)) {
        for (TaskId task_id : instance->assigned) {
          if (const TaskRec* task = state_.FindTask(task_id)) {
            load += demand_on(*task, id);
          }
        }
      }
      return load;
    };
    for (bool changed = true; changed;) {
      changed = false;
      projected.Clear();
      for (std::size_t i = 0; i < diff.moves.size(); ++i) {
        if (!execute[i]) {
          continue;
        }
        const TaskRec& task = *state_.FindTask(diff.moves[i].task);
        if (task.target != kInvalidInstanceId) {
          projected_for(task.target) -= demand_on(task, task.target);
        }
      }
      for (std::size_t i = 0; i < diff.moves.size(); ++i) {
        if (!execute[i]) {
          continue;
        }
        const InstanceId dest =
            binding_instance[static_cast<std::size_t>(diff.moves[i].to_binding)];
        const TaskRec& task = *state_.FindTask(diff.moves[i].task);
        ResourceVector& load = projected_for(dest);
        const ResourceVector demand = demand_on(task, dest);
        ResourceVector with = load;
        with += demand;
        const InstRec& inst = *state_.FindInstance(dest);
        if (with.FitsWithin(catalog_.Get(inst.type_index).capacity)) {
          load = with;
          continue;
        }
        // Dropped: the task stays put; its departure must not have been
        // applied. Restore and re-verify from the top.
        execute[i] = 0;
        if (task.target != kInvalidInstanceId) {
          projected_for(task.target) += demand_on(task, task.target);
        }
        changed = true;
      }
    }
  }

  // Condemn instances leaving the configuration — except any that still
  // host a task whose move was dropped above. Condemned instances vanish
  // from the scheduler's context, so condemning one with a stranded task
  // would pin that task to an invisible instance no later round can
  // re-pool; keeping the instance visible keeps the "denials throttle,
  // the scheduler retries" loop real. Without denials every move executes
  // (dropped entries are dead/absent tasks only), so this is exactly the
  // old unconditional condemn.
  std::vector<InstanceId>& keep_visible = apply_keep_visible_;  // Reused round scratch.
  keep_visible.clear();
  for (std::size_t i = 0; i < diff.moves.size(); ++i) {
    if (execute[i]) {
      continue;
    }
    const TaskRec* task = state_.FindTask(diff.moves[i].task);
    if (task != nullptr && task->state != TaskState::kDone &&
        task->target != kInvalidInstanceId) {
      keep_visible.push_back(task->target);
    }
  }
  for (InstanceId id : diff.terminate) {
    if (std::find(keep_visible.begin(), keep_visible.end(), id) == keep_visible.end()) {
      state_.Condemn(id);
    }
  }

  // Execute the surviving moves.
  for (std::size_t i = 0; i < diff.moves.size(); ++i) {
    if (!execute[i]) {
      continue;
    }
    const ConfigDiff::Move& move = diff.moves[i];
    TaskRec* task = state_.FindTask(move.task);
    if (move.from_instance != kInvalidInstanceId) {
      ++metrics_.task_migrations;
    }
    lifecycle_.Retarget(*task, binding_instance[static_cast<std::size_t>(move.to_binding)],
                        now_);
  }

  // Condemned instances with nothing left terminate immediately.
  std::vector<InstanceId>& condemned = scratch_instance_ids_;
  condemned.clear();
  for (const auto& [id, instance] : state_.instances()) {
    if (instance.condemned) {
      condemned.push_back(id);
    }
  }
  for (InstanceId id : condemned) {
    state_.MaybeTerminate(id, now_);
  }
}

void Simulator::Impl::HandleInstanceReady(InstanceId id) {
  InstRec* inst = state_.FindInstance(id);
  if (inst == nullptr) {
    return;
  }
  inst->ready = true;
  // Launch everything parked on this instance. Copy the set: TryLaunch does
  // not mutate `assigned`, but keep the iteration robust anyway.
  std::vector<TaskId>& parked = scratch_task_ids_;
  parked.assign(inst->assigned.begin(), inst->assigned.end());
  for (TaskId task_id : parked) {
    if (TaskRec* task = state_.FindTask(task_id)) {
      lifecycle_.TryLaunch(*task, now_);
    }
  }
}

void Simulator::Impl::HandleCompletionCheck(SimTime at) {
  // Fold the run of checks queued directly behind this one at the same
  // timestamp. Each would pop with dt = 0 (no integration, so no new
  // candidates), find the candidate set already drained by this check and no
  // dirty jobs (RecomputeAndArm cleared them), and only re-push the same
  // projection with the next sequence number, so the copies stay adjacent
  // and pop as one run again. That is pure multiplicity: folding the run
  // changes events_processed and nothing else. Checks at distinct times are
  // not folded: a stale check with dt > 0 splits the stepwise work
  // integration, and dropping it would move the last bits of the integrals.
  while (!queue_.Empty() && queue_.Top().time == at &&
         queue_.Top().type == SimEventType::kCompletionCheck) {
    queue_.Pop();
  }
  pending_completion_check_ = std::numeric_limits<SimTime>::infinity();
  if (exec_.completion_candidates().empty()) {
    return;  // A check that fired early; RecomputeAndArm re-arms it.
  }
  rates_dirty_since_round_ = true;
  std::vector<JobId>& finished = scratch_job_ids_;
  finished.assign(exec_.completion_candidates().begin(),
                  exec_.completion_candidates().end());
  for (JobId job_id : finished) {
    lifecycle_.CompleteJob(*state_.FindJob(job_id), now_, metrics_);
  }
}

void Simulator::Impl::ProcessOneEvent() {
  const SimEvent event = queue_.Pop();
  if (event.time > options_.max_sim_time_s) {
    EVA_LOG_ERROR("simulation exceeded max time; aborting with %d active jobs",
                  state_.num_active());
    aborted_ = true;
    // Pay for and release everything immediately: in a federation, an
    // aborted tenant must not sit on shared pool capacity while the
    // surviving tenants finish (Finish()'s own TerminateAllLive is then a
    // no-op — same cost, same uptime samples, charged at the same now_).
    state_.TerminateAllLive(now_);
    return;
  }
  Advance(event.time);
  ++metrics_.events_processed;
  EVA_LOG_DEBUG("event t=%.3f type=%d a=" EVA_PRId64
                " v=%d active=%d live=%zu queue=%zu",
                event.time, static_cast<int>(event.type), event.a, event.version,
                state_.num_active(), state_.instances().size(), queue_.Size());
  switch (event.type) {
    case SimEventType::kArrival:
      HandleArrival(event.a);
      ++next_arrival_;
      if (HasPendingArrivals()) {
        queue_.Push(trace_.jobs[next_arrival_].arrival_time_s, SimEventType::kArrival,
                    static_cast<std::int64_t>(next_arrival_));
      }
      if (!round_scheduled_) {
        // The cluster drained; resume scheduling rounds.
        PushRound(now_);
      }
      break;
    case SimEventType::kRound:
      HandleRound();
      break;
    case SimEventType::kInstanceReady:
      // Task-rate transitions invalidate round quiescence: the next
      // round's observations can differ even when the RoundDelta is empty
      // (these transitions never touch the delta).
      rates_dirty_since_round_ = true;
      HandleInstanceReady(event.a);
      break;
    case SimEventType::kCheckpointDone:
      if (TaskRec* task = state_.FindTask(event.a)) {
        if (task->version == event.version && task->state == TaskState::kCheckpointing) {
          rates_dirty_since_round_ = true;
          lifecycle_.OnCheckpointDone(*task, now_);
        }
      }
      break;
    case SimEventType::kLaunchDone:
      if (TaskRec* task = state_.FindTask(event.a)) {
        if (task->version == event.version && task->state == TaskState::kLaunching) {
          rates_dirty_since_round_ = true;
          lifecycle_.OnLaunchDone(*task, now_);
          market_.OnLaunchDone(task->id, now_);
        }
      }
      break;
    case SimEventType::kCompletionCheck:
      HandleCompletionCheck(event.time);
      break;
    case SimEventType::kSpotCheck:
    case SimEventType::kSpotPreempt:
    case SimEventType::kFaultCheck:
    case SimEventType::kZoneOutage:
    case SimEventType::kDrainStart:
    case SimEventType::kDrainDeadline:
      market_.Handle(event, now_);
      break;
  }
  RecomputeAndArm();
}

void Simulator::Impl::Start() {
  metrics_ = SimulationMetrics{};
  metrics_.scheduler_name = scheduler_->name();
  metrics_.trace_name = trace_.name;

  // Arrivals are injected lazily — each arrival pushes its successor — so
  // the heap holds only live events instead of the whole future trace
  // (popping from a 2,000-deep heap dominated the event loop). The event
  // queue's arrival-first tie-break keeps the pop order identical to the
  // old eager push (see SimEvent::operator>).
  if (!trace_.jobs.empty()) {
    queue_.Push(trace_.jobs[0].arrival_time_s, SimEventType::kArrival, 0);
  }
  PushRound(std::max(options_.first_round_offset_s, 0.0));
}

void Simulator::Impl::AdvanceUntil(SimTime limit) {
  while (!aborted_ && !queue_.Empty() && queue_.Top().time < limit &&
         queue_.Top().type != SimEventType::kRound) {
    ProcessOneEvent();
  }
}

void Simulator::Impl::ProcessEventsThrough(SimTime t) {
  while (!aborted_ && !queue_.Empty() && queue_.Top().time <= t) {
    ProcessOneEvent();
  }
}

SimulationMetrics Simulator::Impl::Finish() {
  // Safety: pay for any instance still alive (a well-behaved run terminates
  // everything via the final cleanup round).
  state_.TerminateAllLive(now_);

  metrics_.makespan_s = now_;
  metrics_.migrations_per_task =
      metrics_.tasks_total > 0
          ? static_cast<double>(metrics_.task_migrations) / metrics_.tasks_total
          : 0.0;
  scheduler_->ExportCounters(metrics_.scheduler_counters);
  state_.FinalizeMetrics(metrics_);
  market_.Finish();
  // Project the finished run onto the uniform registry schema (sim.*,
  // scheduler.*, faults.*) next to whatever the per-round sampler recorded.
  PublishSimulationMetrics(metrics_, registry_);
  return metrics_;
}

Simulator::Simulator(const Trace& trace, Scheduler* scheduler, const InstanceCatalog& catalog,
                     const InterferenceModel& interference, SimulatorOptions options)
    : impl_(std::make_unique<Impl>(trace, scheduler, catalog, interference, options)) {}

Simulator::~Simulator() = default;

void Simulator::Start() { impl_->Start(); }
SimTime Simulator::NextRoundTime() const { return impl_->NextRoundTime(); }
SimTime Simulator::NextEventTime() const { return impl_->NextEventTime(); }
bool Simulator::Drained() const { return impl_->Drained(); }
void Simulator::AdvanceUntil(SimTime limit) { impl_->AdvanceUntil(limit); }
void Simulator::ProcessEventsThrough(SimTime t) { impl_->ProcessEventsThrough(t); }
SimulationMetrics Simulator::Finish() { return impl_->Finish(); }

SimulationMetrics RunSimulation(const Trace& trace, Scheduler* scheduler,
                                const InstanceCatalog& catalog,
                                const InterferenceModel& interference,
                                const SimulatorOptions& options) {
  Simulator simulator(trace, scheduler, catalog, interference, options);
  simulator.Start();
  simulator.ProcessEventsThrough(std::numeric_limits<SimTime>::infinity());
  return simulator.Finish();
}

}  // namespace eva
