#include "src/core/eva_scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/arena.h"
#include "src/common/logging.h"
#include "src/core/full_reconfig.h"
#include "src/core/incremental_reconfig.h"
#include "src/core/partial_reconfig.h"
#include "src/sched/config_diff.h"

namespace eva {
namespace {

// Instantaneous provisioning saving S of a configuration: the amount by
// which the tasks' willingness-to-pay exceeds what the configuration
// actually costs per hour (§4.5).
// Leased per-call scratch for the pricing passes (see common/arena.h).
struct PricingScratch {
  std::vector<const TaskInfo*> members;
};

Money ProvisioningSaving(const SchedulingContext& context, const TnrpCalculator& calculator,
                         const ClusterConfig& config) {
  Money saving = 0.0;
  ScratchLease<PricingScratch> scratch;
  std::vector<const TaskInfo*>& members = scratch->members;
  for (const ConfigInstance& instance : config.instances) {
    members.clear();
    for (TaskId task_id : instance.tasks) {
      if (const TaskInfo* task = context.FindTask(task_id)) {
        members.push_back(task);
      }
    }
    const InstanceType& type = context.catalog->Get(instance.type_index);
    saving += calculator.SetTnrp(members, type.family) - type.cost_per_hour;
  }
  return saving;
}

// Equality on the TaskInfo fields the candidate configurations read.
// remaining_work_s changes every round but never reaches the packing, so it
// must not defeat the round memo.
bool SamePackingTask(const TaskInfo& a, const TaskInfo& b) {
  return a.id == b.id && a.job == b.job && a.workload == b.workload &&
         a.current_instance == b.current_instance && a.demand_p3 == b.demand_p3 &&
         a.demand_cpu == b.demand_cpu && a.family_speedup == b.family_speedup;
}

bool SameInstance(const InstanceInfo& a, const InstanceInfo& b) {
  return a.id == b.id && a.type_index == b.type_index && a.tasks == b.tasks;
}

}  // namespace

EvaScheduler::EvaScheduler(EvaOptions options)
    : options_(std::move(options)),
      monitor_(options_.default_pairwise_throughput),
      incremental_active_(options_.incremental_packing ==
                          EvaOptions::IncrementalPacking::kOn) {}

void EvaScheduler::BindWorkloadScale(std::size_t expected_jobs) {
  if (options_.incremental_packing == EvaOptions::IncrementalPacking::kAuto) {
    incremental_active_ = expected_jobs >= kIncrementalAutoMinJobs;
  }
}

void EvaScheduler::ExportCounters(SchedulerCounters& out) const { out = stats_; }

std::string EvaScheduler::name() const {
  std::string base = "Eva";
  if (!options_.tnrp.interference_aware) {
    base += "-RP";
  }
  if (!options_.tnrp.multi_task_aware) {
    base += "-Single";
  }
  switch (options_.policy) {
    case EvaOptions::Policy::kEnsemble:
      break;
    case EvaOptions::Policy::kFullOnly:
      base += " (Full only)";
      break;
    case EvaOptions::Policy::kPartialOnly:
      base += " (w/o Full)";
      break;
  }
  return base;
}

int EvaScheduler::CountJobEvents(const SchedulingContext& context) {
  if (context.delta.complete) {
    // Same accounting as the set diff below, O(delta): a job that both
    // arrived and completed inside the window was never visible to a round
    // on either side, so it contributes no event. Both vectors arrive
    // sorted and job ids are never reused, making the symmetric difference
    // exact. last_jobs_ is maintained alongside so a later round without a
    // delta (a hand-built context) can still fall back to the set diff.
    int events = 0;
    const std::vector<JobId>& arrived = context.delta.jobs_arrived;
    const std::vector<JobId>& completed = context.delta.jobs_completed;
    std::size_t a = 0;
    std::size_t c = 0;
    while (a < arrived.size() || c < completed.size()) {
      if (c == completed.size() || (a < arrived.size() && arrived[a] < completed[c])) {
        ++events;  // Arrival still active at this round.
        last_jobs_.insert(arrived[a]);
        ++a;
      } else if (a == arrived.size() || completed[c] < arrived[a]) {
        ++events;  // Completion of a job a previous round saw.
        last_jobs_.erase(completed[c]);
        ++c;
      } else {
        ++a;  // Arrived and completed within the window: invisible.
        ++c;
      }
    }
    return events;
  }
  // Fallback (incomplete delta): symmetric difference of sorted job-id
  // sequences. The leased scratch + sort/unique reproduces std::set's
  // ascending iteration order without a node per job.
  ScratchLease<std::vector<JobId>> current_lease;
  std::vector<JobId>& current = *current_lease;
  current.clear();
  for (const TaskInfo& task : context.tasks) {
    current.push_back(task.job);
  }
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());
  int events = 0;
  for (JobId job : current) {
    if (!last_jobs_.contains(job)) {
      ++events;  // Arrival.
    }
  }
  for (JobId job : last_jobs_) {
    if (!std::binary_search(current.begin(), current.end(), job)) {
      ++events;  // Completion.
    }
  }
  last_jobs_.AssignSorted(current);
  return events;
}

bool EvaScheduler::SameDecisionInputs(const SchedulingContext& context) const {
  if (context.catalog != memo_.catalog) {
    return false;  // Repriced catalog (spot quotes): candidates are stale.
  }
  if (context.tasks.size() != memo_.tasks.size() ||
      context.instances.size() != memo_.instances.size()) {
    return false;
  }
  for (std::size_t i = 0; i < context.tasks.size(); ++i) {
    if (!SamePackingTask(context.tasks[i], memo_.tasks[i])) {
      return false;
    }
  }
  for (std::size_t i = 0; i < context.instances.size(); ++i) {
    if (!SameInstance(context.instances[i], memo_.instances[i])) {
      return false;
    }
  }
  return true;
}

void EvaScheduler::ComputeCandidates(const SchedulingContext& context) {
  const bool want_full = options_.policy != EvaOptions::Policy::kPartialOnly;
  const bool want_partial = options_.policy != EvaOptions::Policy::kFullOnly;

  // Candidates are packed into the persistent work buffers (their capacity —
  // and every instance slot's tasks capacity — carries across rounds), then
  // swapped into the memo below. The incremental path reads memo_.full as
  // the previous configuration while writing work_full_, which is why the
  // memo cannot be the pack destination directly. A candidate the policy
  // does not compute is emptied, matching the fresh-local semantics.
  if (want_full) {
    ComputeFullCandidate(context);
  } else {
    work_full_.instances.clear();
  }
  if (want_partial) {
    PartialReconfigurationInto(context, *calculator_, {}, work_partial_);
  } else {
    work_partial_.instances.clear();
  }

  memo_.valid = true;
  memo_.table_version = monitor_.table().Version();
  memo_.catalog = context.catalog;
  memo_.tasks = context.tasks;
  memo_.instances = context.instances;
  std::swap(memo_.full, work_full_);
  std::swap(memo_.partial, work_partial_);
  memo_.savings_valid = false;
}

void EvaScheduler::NoteExactIncumbent() {
  packs_since_reconcile_ = 0;
  // Truthful by construction — the incumbent IS the exact configuration.
  // This is also what lets an escalated policy clear its divergence latch:
  // while escalated no incremental config exists to diverge.
  escalation_.RecordDivergence(0.0);
}

void EvaScheduler::Reconcile(const SchedulingContext& context) {
  // The incremental candidate sits in work_full_; compute the exact repack
  // alongside and measure how far the fast path drifted.
  FullReconfigurationInto(context, *calculator_, {}, reconcile_exact_);
  const Money cost_incremental = work_full_.HourlyCost(*context.catalog);
  const Money cost_exact = reconcile_exact_.HourlyCost(*context.catalog);
  const double divergence = std::abs(cost_incremental - cost_exact) /
                            std::max(std::abs(cost_exact), 1e-9);
  const int edits = ConfigEditDistance(work_full_, reconcile_exact_);
  ++stats_.reconciliations;
  stats_.last_divergence_cost = divergence;
  stats_.max_divergence_cost = std::max(stats_.max_divergence_cost, divergence);
  stats_.last_divergence_edits = edits;
  stats_.max_divergence_edits = std::max(stats_.max_divergence_edits, edits);
  const int before = escalation_.escalations();
  escalation_.RecordDivergence(divergence);
  stats_.escalations += escalation_.escalations() - before;
  if (trace_) {
    trace_.recorder->Instant(trace_.track, "eva.reconcile", context.now_s,
                             "divergence", divergence, "edits",
                             static_cast<double>(edits));
    if (escalation_.escalations() > before) {
      trace_.recorder->Instant(trace_.track, "eva.escalate", context.now_s);
    }
  }
  EVA_LOG_DEBUG("reconcile t=%.0f: cost_inc=%.3f cost_exact=%.3f div=%.4f edits=%d%s",
                context.now_s, cost_incremental, cost_exact, divergence, edits,
                escalation_.escalated() ? " [escalated]" : "");
  // Adopt the exact result: divergence is re-zeroed and stays bounded by
  // whatever accumulates before the next reconciliation.
  std::swap(work_full_, reconcile_exact_);
  packs_since_reconcile_ = 0;
}

void EvaScheduler::ComputeFullCandidate(const SchedulingContext& context) {
  if (!incremental_active_) {
    FullReconfigurationInto(context, *calculator_, {}, work_full_);
    ++stats_.packs_full;
    if (trace_) {
      trace_.recorder->Instant(trace_.track, "eva.pack.full", context.now_s);
    }
    return;
  }
  if (escalation_.escalated()) {
    FullReconfigurationInto(context, *calculator_, {}, work_full_);
    ++stats_.packs_escalated;
    escalation_.RecordPack(/*fell_back=*/false);
    NoteExactIncumbent();
    if (trace_) {
      trace_.recorder->Instant(trace_.track, "eva.pack.escalated",
                               context.now_s);
    }
    return;
  }
  // The first pack has no previous configuration (memo_.full is empty), so
  // it falls back with kFullNoPrevious.
  const IncrementalOutcome outcome =
      IncrementalReconfigurationInto(context, *calculator_, memo_.full, work_full_);
  const bool fell_back = outcome != IncrementalOutcome::kIncremental;
  if (fell_back) {
    // work_full_ already holds the exact repack, so no reconciliation is
    // owed; account for the reason and let the fallback-rate EMA see it.
    ++stats_.packs_full;
    double fallback_reason = 0.0;
    switch (outcome) {
      case IncrementalOutcome::kFullIncompleteDelta:
        ++stats_.fallback_incomplete_delta;
        fallback_reason = 0.0;
        break;
      case IncrementalOutcome::kFullNoPrevious:
        ++stats_.fallback_no_previous;
        fallback_reason = 2.0;
        break;
      case IncrementalOutcome::kFullOversizedDelta:
        ++stats_.fallback_oversized_delta;
        fallback_reason = 1.0;
        break;
      case IncrementalOutcome::kIncremental:
        break;  // Unreachable.
    }
    if (trace_) {
      trace_.recorder->Instant(trace_.track, "eva.pack.fallback", context.now_s,
                               "reason", fallback_reason);
    }
  } else {
    ++stats_.packs_incremental;
    if (trace_) {
      trace_.recorder->Instant(trace_.track, "eva.pack.incremental",
                               context.now_s, "staleness",
                               static_cast<double>(packs_since_reconcile_ + 1));
    }
  }
  const int before = escalation_.escalations();
  escalation_.RecordPack(fell_back);
  stats_.escalations += escalation_.escalations() - before;
  if (fell_back) {
    NoteExactIncumbent();
    return;
  }
  ++packs_since_reconcile_;
  stats_.max_kept_staleness =
      std::max(stats_.max_kept_staleness, packs_since_reconcile_);
  if (packs_since_reconcile_ >= kReconcileEveryNPacks) {
    Reconcile(context);
  }
}

bool EvaScheduler::AdoptFull() const {
  switch (options_.policy) {
    case EvaOptions::Policy::kFullOnly:
      return true;
    case EvaOptions::Policy::kPartialOnly:
      return false;
    case EvaOptions::Policy::kEnsemble:
      break;
  }
  return ShouldAdoptFull(memo_.saving_full, memo_.saving_partial, memo_.migration_full,
                         memo_.migration_partial,
                         estimator_.ExpectedConfigurationDurationHours());
}

bool EvaScheduler::DecideRound(const SchedulingContext& context) {
  bool unchanged = false;
  if (options_.reuse_unchanged_rounds && memo_.valid) {
    if (memo_.table_version != monitor_.table().Version()) {
      ++stats_.reuse_miss_table;
    } else if (!SameDecisionInputs(context)) {
      ++stats_.reuse_miss_context;
    } else {
      unchanged = true;
    }
  }

  // Bind the persistent calculator to this round's context, with the
  // learned table as estimator — Eva never reads the context's ground
  // truth, and the context itself is never copied.
  if (calculator_ == nullptr) {
    calculator_ = std::make_unique<TnrpCalculator>(context, options_.tnrp, &monitor_.table());
  } else {
    calculator_->Rebind(context, &monitor_.table());
  }

  if (unchanged) {
    ++stats_.rounds_reused;
  } else {
    ComputeCandidates(context);
  }

  if (options_.policy == EvaOptions::Policy::kEnsemble && !memo_.savings_valid) {
    memo_.saving_full = ProvisioningSaving(context, *calculator_, memo_.full);
    memo_.saving_partial = ProvisioningSaving(context, *calculator_, memo_.partial);
    DiffConfigInto(context, memo_.full, pricing_diff_);
    memo_.migration_full =
        EstimateMigrationCost(context, pricing_diff_, options_.migration_delay_multiplier);
    DiffConfigInto(context, memo_.partial, pricing_diff_);
    memo_.migration_partial =
        EstimateMigrationCost(context, pricing_diff_, options_.migration_delay_multiplier);
    memo_.savings_valid = true;
  }
  const bool adopt_full = AdoptFull();
  EVA_LOG_DEBUG("round t=%.0f: S_F=%.3f S_P=%.3f M_F=%.3f M_P=%.3f D=%.2fh -> %s",
                context.now_s, memo_.saving_full, memo_.saving_partial,
                memo_.migration_full, memo_.migration_partial,
                estimator_.ExpectedConfigurationDurationHours(),
                adopt_full ? "full" : "partial");

  // An unchanged round has, by definition, the same active job set.
  const int events = unchanged ? 0 : CountJobEvents(context);
  const SimTime elapsed =
      last_round_time_ >= 0.0 ? context.now_s - last_round_time_ : 0.0;
  estimator_.RecordRound(events, elapsed, adopt_full);
  last_round_time_ = context.now_s;

  ++stats_.rounds;
  stats_.events_seen += events;
  if (adopt_full) {
    ++stats_.full_adopted;
  }
  last_adopt_full_ = adopt_full;
  return adopt_full;
}

ClusterConfig EvaScheduler::Schedule(const SchedulingContext& context) {
  return DecideRound(context) ? memo_.full : memo_.partial;
}

void EvaScheduler::ScheduleInto(const SchedulingContext& context, ClusterConfig& out) {
  // Copy-assign (not move) so the memo keeps the winning candidate for the
  // next round's reuse/coalescing paths, while `out` reuses whatever
  // instance-slot capacity it accumulated in earlier rounds.
  out = DecideRound(context) ? memo_.full : memo_.partial;
}

int EvaScheduler::CoalesceQuiescentRounds(int max_rounds, SimTime period_s) {
  if (!options_.reuse_unchanged_rounds || max_rounds <= 0 || period_s <= 0.0) {
    return 0;
  }
  // The memo must cover the currently applied configuration, the table must
  // not have moved since the memo was stamped, and re-delivering the (by
  // contract identical) observations must be a provable no-op.
  if (!memo_.valid || last_observe_changed_ ||
      memo_.table_version != monitor_.table().Version()) {
    return 0;
  }
  if (options_.policy == EvaOptions::Policy::kEnsemble && !memo_.savings_valid) {
    return 0;  // No priced candidates to replay (defensive; Schedule prices them).
  }
  int absorbed = 0;
  while (absorbed < max_rounds) {
    // Replay exactly what a memo-reusing Schedule call would decide. D_hat
    // drifts as the estimator records event-free rounds, so the ensemble
    // choice can flip mid-quiescence; that round must run live and actually
    // reconfigure the cluster.
    const bool adopt_full = AdoptFull();
    if (adopt_full != last_adopt_full_) {
      break;
    }
    // The per-round state updates of an unchanged round, verbatim: zero job
    // events over one period (RecordRound ignores the adoption flag when the
    // round carried no events, but pass it for fidelity), and the round time
    // advanced exactly as the engine's event clock would compute it.
    estimator_.RecordRound(0, period_s, adopt_full);
    if (last_round_time_ >= 0.0) {
      last_round_time_ += period_s;
    }
    ++stats_.rounds;
    ++stats_.rounds_reused;
    ++stats_.rounds_coalesced;
    if (adopt_full) {
      ++stats_.full_adopted;
    }
    ++absorbed;
  }
  return absorbed;
}

void EvaScheduler::ObserveThroughput(
    const std::vector<JobThroughputObservation>& observations) {
  last_observe_changed_ = monitor_.Observe(observations) != 0;
}

}  // namespace eva
