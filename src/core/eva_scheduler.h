// EvaScheduler — the paper's scheduler (§3-§4), tying together Algorithm 1,
// Partial Reconfiguration, the online throughput table, and the
// reconfiguration decision criterion.
//
// Each scheduling round the scheduler computes both candidate
// configurations, prices their savings and migration overhead, estimates
// the expected configuration lifetime D_hat, and adopts Full
// Reconfiguration only when Equation 1 favors it. Configurable ablations
// reproduce the paper's variants: Eva-RP (interference-oblivious),
// Eva-Single (multi-task-oblivious), Eva w/o Full Reconfig, and Full-only.
//
// The decision path is delta-incremental across rounds, bit-identically:
//   * one persistent TnrpCalculator caches RP per task and memoizes set
//     TNRPs across rounds, invalidated per workload row by new throughput
//     observations (a task's TNRP is computed per call);
//   * a round memo replays the previous round's candidate configurations
//     (and, in ensemble mode, their savings/migration prices) verbatim when
//     nothing decision-relevant changed — the common quiescent round.
// The decision path runs on the calling thread: round contexts are small
// (a median of 8 tasks on the 2,000-job trace, 41 on 10,000 jobs), too
// small for a Full∥Partial or packing fan-out to pay for its hand-offs.
// The incremental fast path (incremental_packing — on by default for
// workloads of >= kIncrementalAutoMinJobs jobs, see IncrementalPacking)
// replaces Full Reconfiguration with delta-touched repacking via
// IncrementalReconfigurationInto, bounded by a control loop: every
// kReconcileEveryNPacks packs the exact repack runs alongside the
// incumbent, divergence is measured (cost delta, config edit distance,
// staleness) and the exact result adopted; an EscalationPolicy with
// hysteresis forces exact packing when divergence or the fallback rate
// spikes. All counters are exported through Scheduler::ExportCounters.

#ifndef SRC_CORE_EVA_SCHEDULER_H_
#define SRC_CORE_EVA_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/soa_table.h"
#include "src/core/reconfig_decision.h"
#include "src/core/throughput_monitor.h"
#include "src/sched/config_diff.h"
#include "src/sched/reservation_price.h"
#include "src/sched/scheduler.h"

namespace eva {

struct EvaOptions {
  // Which reconfiguration algorithms may be adopted.
  enum class Policy {
    kEnsemble,     // Eva: choose per Equation 1.
    kFullOnly,     // Ablation of Figure 5b ("Eva w/ Full Reconfig only").
    kPartialOnly,  // Ablation of Figure 6 ("Eva w/o Full Reconfig").
  };

  Policy policy = Policy::kEnsemble;
  TnrpCalculator::Options tnrp;  // interference_aware -> TNRP vs RP,
                                 // multi_task_aware -> Eva vs Eva-Single.

  // Default pairwise throughput t for unobserved co-locations (§4.3).
  double default_pairwise_throughput = 0.95;

  // Scales the job checkpoint+launch delays priced into the migration cost
  // M (the Figure 5 sweep sets it alongside the simulator's own).
  double migration_delay_multiplier = 1.0;

  // --- Decision-path performance knob (bit-identical results) -----------
  // Replay the previous round's candidates when the decision inputs (task
  // set, placements, instances, throughput table) are unchanged. This memo
  // also backs CoalesceQuiescentRounds, which absorbs engine-certified
  // quiescent rounds without being invoked at all; the engine's
  // SimulatorOptions::coalesce_quiescent_rounds decides whether it offers
  // them.
  bool reuse_unchanged_rounds = true;

  // --- Approximate incremental packing (changes configurations) --------
  // Replace Full Reconfiguration with delta-touched repacking seeded from
  // the previous round's configuration (see incremental_reconfig.h),
  // bounded by periodic exact-repack reconciliation and the auto-escalation
  // policy (EscalationPolicy). kAuto — the default — turns the fast path on
  // only when the bound workload (Scheduler::BindWorkloadScale) reaches
  // EvaScheduler::kIncrementalAutoMinJobs: small traces (the golden-pinned
  // evaluation paths) keep the exact Algorithm 1 output every round
  // bit-identically, large traces get the production fast path.
  enum class IncrementalPacking {
    kAuto,  // On iff the bound workload has >= kIncrementalAutoMinJobs.
    kOff,   // Exact Algorithm 1 every round.
    kOn,    // Always on, regardless of workload scale.
  };
  IncrementalPacking incremental_packing = IncrementalPacking::kAuto;
};

class EvaScheduler : public Scheduler {
 public:
  // The round memo's accounting (rounds, full_adopted, events_seen,
  // rounds_reused and its misses, rounds_coalesced) and the incremental fast
  // path's pack/fallback/reconciliation counters: one SchedulerCounters.
  using Stats = SchedulerCounters;

  // kAuto turns the incremental fast path on for workloads of at least this
  // many jobs.
  static constexpr std::size_t kIncrementalAutoMinJobs = 10000;

  // Bounded-divergence reconciliation cadence: after this many consecutive
  // packs without a known-exact incumbent, run FullReconfiguration alongside
  // the incremental result, measure the divergence (cost delta, config edit
  // distance) and adopt the exact configuration. Counted in *packs* — actual
  // ComputeCandidates invocations — not rounds: memo-replayed and coalesced
  // rounds reproduce the incumbent verbatim, so divergence cannot change
  // there, and the cadence stays deterministic under batching.
  static constexpr int kReconcileEveryNPacks = 64;

  explicit EvaScheduler(EvaOptions options = {});

  std::string name() const override;
  ClusterConfig Schedule(const SchedulingContext& context) override;
  void ScheduleInto(const SchedulingContext& context, ClusterConfig& out) override;
  void ObserveThroughput(const std::vector<JobThroughputObservation>& observations) override;
  int CoalesceQuiescentRounds(int max_rounds, SimTime period_s) override;
  void BindWorkloadScale(std::size_t expected_jobs) override;
  void ExportCounters(SchedulerCounters& out) const override;
  // Span sink for the decision path (pack mode, reconciliations,
  // escalations), stamped at context.now_s.
  void BindTrace(const TraceBinding& binding) override { trace_ = binding; }

  // Whether the incremental fast path is live for this run (kOn, or kAuto
  // resolved against the bound workload scale).
  bool incremental_active() const { return incremental_active_; }

  const Stats& stats() const { return stats_; }
  const ThroughputTable& throughput_table() const { return monitor_.table(); }
  const EventRateEstimator& event_estimator() const { return estimator_; }

 private:
  // Arrivals + completions since the previous round: straight off the
  // RoundDelta when the producer tracks one, otherwise by diffing the
  // active-job set against the previous round's.
  int CountJobEvents(const SchedulingContext& context);

  // True when `context` matches the memoized round on every field the
  // candidate configurations depend on (now_s and remaining-runtime
  // estimates deliberately excluded — the packing never reads them).
  bool SameDecisionInputs(const SchedulingContext& context) const;

  // Computes the candidate configurations for `context` into memo_.
  void ComputeCandidates(const SchedulingContext& context);

  // Computes the round's Full candidate into work_full_ — exact, or via the
  // incremental fast path with fallback/escalation/reconciliation
  // accounting.
  void ComputeFullCandidate(const SchedulingContext& context);

  // Bounded-divergence reconciliation: runs FullReconfiguration alongside
  // the incremental candidate already in work_full_, measures divergence,
  // feeds the escalation policy, and swaps the exact result into work_full_.
  void Reconcile(const SchedulingContext& context);

  // The incumbent candidate in work_full_ is known exact: staleness resets
  // and the policy truthfully observes zero divergence.
  void NoteExactIncumbent();

  // Equation 1 under the configured policy, over the memoized candidates'
  // prices (priced whenever the policy is the ensemble).
  bool AdoptFull() const;

  // The whole per-round decision (memo reuse, candidate computation,
  // Equation 1, estimator bookkeeping); returns whether Full was adopted.
  // Schedule/ScheduleInto only differ in how they hand out the winner.
  bool DecideRound(const SchedulingContext& context);

  EvaOptions options_;
  ThroughputMonitor monitor_;
  EventRateEstimator estimator_;
  Stats stats_;  // Exported as is by ExportCounters.

  // --- Incremental fast-path control loop ------------------------------
  // kOn resolves at construction; kAuto at BindWorkloadScale. All state
  // below advances only inside ComputeFullCandidate — exactly once per
  // computed pack, never on memo-replayed or coalesced rounds — so the
  // reconciliation cadence and escalation trajectory are deterministic
  // under batching.
  bool incremental_active_ = false;
  EscalationPolicy escalation_;
  int packs_since_reconcile_ = 0;  // Packs with a possibly-inexact incumbent.
  ClusterConfig reconcile_exact_;  // Exact-repack buffer (capacity reused).

  // Span sink on the owning simulator's track; unbound (null recorder)
  // unless the run enabled tracing.
  TraceBinding trace_;

  // Active-job id set carried between rounds: flat sorted storage with
  // std::set iteration order, mutated O(delta) per round without per-node
  // allocation.
  IdSet<JobId> last_jobs_;
  SimTime last_round_time_ = -1.0;

  // Whether the last ObserveThroughput call changed any table entry. When it
  // did not, re-delivering the identical observations is provably a no-op
  // (Observe is a deterministic function of table state and observations),
  // which is what licenses absorbing quiescent rounds without running it.
  bool last_observe_changed_ = true;

  // The Full-vs-Partial choice of the last invoked round — the candidate
  // whose configuration is currently applied. A quiescent round whose
  // replayed decision differs must run live (it would reconfigure).
  bool last_adopt_full_ = false;

  // Persistent calculator; bound to the caller's context for the duration
  // of each Schedule call (rebound at entry, never dereferenced between
  // calls) and permanently to the monitor's table as estimator — which is
  // why Schedule does not copy the context.
  std::unique_ptr<TnrpCalculator> calculator_;

  // Previous round's decision-relevant inputs and outputs.
  struct RoundMemo {
    bool valid = false;
    std::uint64_t table_version = 0;
    // Catalog the candidates were priced against (identity only, never
    // dereferenced). The spot tier delivers a fresh quote catalog every
    // round, which must defeat the memo; stable-catalog runs always match.
    const InstanceCatalog* catalog = nullptr;
    std::vector<TaskInfo> tasks;
    std::vector<InstanceInfo> instances;
    ClusterConfig full;
    ClusterConfig partial;
    bool savings_valid = false;
    Money saving_full = 0.0;
    Money saving_partial = 0.0;
    Money migration_full = 0.0;
    Money migration_partial = 0.0;
  };
  RoundMemo memo_;

  // Double-buffered candidate storage: ComputeCandidates packs into these
  // via the -Into packers, then swaps them with the memo's configs, so both
  // buffers' capacity is reused round over round (the incremental path reads
  // memo_.full while the new Full candidate is being written).
  ClusterConfig work_full_;
  ClusterConfig work_partial_;

  // Scratch for the ensemble's migration pricing (DiffConfigInto).
  ConfigDiff pricing_diff_;
};

}  // namespace eva

#endif  // SRC_CORE_EVA_SCHEDULER_H_
