// Delta-aware reconfiguration — the incremental counterpart of Algorithm 1.
//
// Reuses the previous round's configuration as the starting incumbent:
// instances none of whose members were touched by the RoundDelta keep their
// task sets (subject to a cost-efficiency recheck against the *current*
// TNRP estimates), while tasks of touched instances plus newly arrived
// tasks are repacked with Algorithm 1's TNRP-greedy. When the delta is
// unknown (complete == false), there is no previous configuration, or the
// delta touches more than kFullRepackFraction of the task pool, a plain
// FullReconfiguration runs instead — past that point the greedy's global
// cascade makes instance-local reuse a poor approximation.
//
// The output is an approximation of FullReconfiguration: identical when the
// delta is empty, inside the greedy's quality envelope otherwise (kept
// instances are re-verified cost-efficient; repacked tasks go through the
// same greedy). Documented approximation bound, pinned by the end-to-end
// integration test on the 2,000-job Alibaba trace: total provisioning cost
// within 10% of exact Eva's (measured ~5%) and average JCT within 5%
// (measured <1%), with every job still completing. EvaScheduler runs it by
// default for workloads of at least EvaScheduler::kIncrementalAutoMinJobs
// jobs (EvaOptions::IncrementalPacking::kAuto) under a bounded-divergence
// control loop — an exact-repack reconciliation every
// EvaScheduler::kReconcileEveryNPacks incremental packs plus an
// auto-escalation policy; small traces (the golden-pinned evaluation paths,
// which require bit-identical configurations) stay on exact Algorithm 1,
// where the exact fast path is the unchanged-round memo plus the memoized
// set-TNRP cache.

#ifndef SRC_CORE_INCREMENTAL_RECONFIG_H_
#define SRC_CORE_INCREMENTAL_RECONFIG_H_

#include "src/core/full_reconfig.h"
#include "src/sched/reservation_price.h"
#include "src/sched/types.h"

namespace eva {

// Fraction of the task pool the delta may touch before the incremental
// path falls back to a full repack.
inline constexpr double kFullRepackFraction = 0.25;

// How an incremental pack was produced. Every value except kIncremental is
// a fallback to FullReconfiguration; the scheduler counts them per reason
// (SchedulerCounters) and feeds the fallback rate to its EscalationPolicy.
enum class IncrementalOutcome {
  kIncremental,          // Delta-touched repack seeded from `previous`.
  kFullIncompleteDelta,  // delta.complete == false: changes unknown.
  kFullNoPrevious,       // No previous configuration to start from.
  kFullOversizedDelta,   // Delta touched > kFullRepackFraction of the pool.
};

// Packs into `out` (storage reused) and returns how the pack was produced.
// `previous` is the configuration the same scheduler produced last round
// (its task ids may reference completed tasks; those are dropped). `out`
// must not alias `previous` — the kept-instance loop reads `previous` while
// the appender rewrites `out`, so aliasing would read half-overwritten
// state; enforced with an always-on check.
IncrementalOutcome IncrementalReconfigurationInto(const SchedulingContext& context,
                                                  const TnrpCalculator& calculator,
                                                  const ClusterConfig& previous,
                                                  ClusterConfig& out);

}  // namespace eva

#endif  // SRC_CORE_INCREMENTAL_RECONFIG_H_
