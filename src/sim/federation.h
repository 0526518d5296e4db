// Multi-tenant federation driver: N tenant simulators provisioning from one
// shared CloudProvider.
//
// Each tenant is a full Simulator (own trace, own scheduler, own metrics)
// constructed against the shared provider's catalog. The provider's
// finite-pool mask picks one of two regimes, both deterministic by
// construction — bit-identical results across runs AND across thread-pool
// sizes:
//
//   * No finite pool. TryAcquire grants unconditionally, and every shared
//     provider mutation — grant and release tallies, preemption records,
//     quote snapshots — is commutative, so no tenant's trajectory depends
//     on another's. The tenants fan out over `num_threads` and each runs to
//     completion on its own, with no barriers: every tenant's metrics equal
//     those of a standalone run of its trace against a private provider.
//
//   * Any finite pool. A contended grant depends on who asked first, so
//     the driver runs a barrier loop on the calling thread. Each barrier T
//     is the earliest pending scheduling round across all tenants. Every
//     tenant with an event before T first processes its non-round events
//     up to (strictly before) T; tenants with nothing below T are skipped.
//     Then the tenants with events exactly at T run them one at a time in
//     tenant-index order. Scheduling rounds are the only events that
//     acquire capacity, so every grant arbitrates in (virtual time, tenant
//     index) order, and no thread pool is constructed.
//
// With staggered round offsets enabled, tenants' round phases are spread
// deterministically across the scheduling period, so each barrier of a
// finite-pool federation carries a fraction of the tenants instead of all
// of them — the same trick real clusters use to flatten controller load
// spikes.
//
// A tenant that drains its round chain and later re-triggers it (an arrival
// after an idle stretch) can create a round earlier than T while advancing;
// the driver detects this and re-computes the barrier before any round
// runs.

#ifndef SRC_SIM_FEDERATION_H_
#define SRC_SIM_FEDERATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cloud/provider.h"
#include "src/obs/stat_schema.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/workload/trace_gen.h"

namespace eva {

struct FederationTenant {
  std::string name;
  Trace trace;
  SchedulerKind kind = SchedulerKind::kEva;
};

struct FederationOptions {
  // Per-tenant simulator options. shared_provider/tenant_id are overwritten
  // per tenant; seed is offset by the tenant index so each tenant owns an
  // independent stream.
  SimulatorOptions simulator;
  EvaOptions eva;
  InterferenceModel interference = InterferenceModel::Measured();
  InstanceCatalog catalog = InstanceCatalog::AwsDefault();

  // The shared provider every tenant provisions from.
  CloudProviderOptions provider;

  // Threads the tenants fan out over when no pool is finite, the calling
  // thread included; <= 0 uses all hardware threads. Federations with a
  // finite pool run on the calling thread alone.
  int num_threads = 0;

  // Deterministic round stagger (opt-in). Tenant i's first scheduling round
  // fires at slot(i) x (period / stagger_slots) with slot(i) =
  // hash(stagger_seed, i) % stagger_slots, instead of every tenant rounding
  // at t=0, 300, 600, ... in phase. Spreads barrier pressure: each barrier
  // then carries ~1/stagger_slots of the tenants. Offsets are a pure
  // function of (stagger_seed, i) — same seed, same trajectory.
  bool stagger_rounds = false;
  int stagger_slots = 8;
  std::uint64_t stagger_seed = 0x57A66E12u;

  // Per-tenant flight recorders (caller-owned; resized to the tenant count
  // by RunFederation). FlightRecorder is single-writer, so the shared
  // `simulator.observability.flight_recorder` pointer cannot serve N
  // concurrent tenants — supply a vector instead and tenant i records into
  // slot i. Same single-writer story for the registry: the driver nulls the
  // per-tenant registry pointer and publishes the fleet's export
  // (PublishFederationResult) into `simulator.observability.registry` itself
  // after the run. The TraceRecorder *is* shared (per-track rings), each
  // tenant on its own track plus a "federation" track for barrier spans.
  std::vector<FlightRecorder>* flight_recorders = nullptr;
};

// Where the federation's wall-clock time went, plus the barrier counters.
// The counts are one field list (see obs/stat_schema.h), published as
// "federation.*"; the walls are host-measured and stay out of the registry.
// A federation without a finite pool runs no barrier: its counts are zero
// and its whole fan-out counts as advance_wall_s.
#define EVA_FEDERATION_STAT_FIELDS(X)                                          \
  X(std::int64_t, barriers, 0, kCounter, kSum) /* Barrier iterations run. */   \
  /* Tenant-barrier pairs advanced below the barrier (tenants with an event    \
     before it; idle tenants are skipped). */                                  \
  X(std::int64_t, advance_participants, 0, kCounter, kSum)                     \
  /* Tenant-barrier pairs with barrier-time events. */                         \
  X(std::int64_t, round_participants, 0, kCounter, kSum)                       \
  /* Round groups run: one per barrier, whose participants run in              \
     tenant-index order. */                                                    \
  X(std::int64_t, round_groups, 0, kCounter, kSum)                             \
  /* Sum over barriers of the largest group's participant count; with one      \
     group per barrier, every participant. */                                  \
  X(std::int64_t, largest_group_participants, 0, kCounter, kSum)

struct FederationStats {
  EVA_FEDERATION_STAT_FIELDS(EVA_STAT_MEMBER)
  EVA_STAT_SCHEMA(FederationStats, "federation", EVA_FEDERATION_STAT_FIELDS)

  double setup_wall_s = 0.0;    // Scheduler + simulator construction, Start().
  double advance_wall_s = 0.0;  // Events below barriers, or the whole fan-out.
  double round_wall_s = 0.0;    // Barrier-time rounds.

  // Fraction of round-phase tenant work that sits on the serialized
  // critical path: 1.0 whenever a barrier ran (every participant shares
  // its barrier's one group), 0 when none did.
  double SerialShare() const {
    return round_participants > 0
               ? static_cast<double>(largest_group_participants) /
                     static_cast<double>(round_participants)
               : 0.0;
  }
};

struct FederationResult {
  struct Tenant {
    std::string name;
    SchedulerKind kind = SchedulerKind::kEva;
    SimulationMetrics metrics;
  };

  std::vector<Tenant> tenants;
  CloudProviderMetrics provider;
  FederationStats stats;

  // Latest tenant makespan — the federation's virtual horizon, which the
  // provider utilization is normalized against.
  SimTime horizon_s = 0.0;
};

// Runs every tenant to completion against one shared provider and returns
// per-tenant metrics plus the provider-level tallies. The federation's pool
// is the only one: each tenant's scheduler decides on the thread that runs
// the tenant.
FederationResult RunFederation(const std::vector<FederationTenant>& tenants,
                               const FederationOptions& options);

// The standard multi-tenant scenario recipe (bench_federation and the
// federation tests share it): N ScaleTrace shards of `base`, each thinned
// to `jobs_per_tenant` jobs with the arrival rate re-densified to the
// source's cadence — thinning alone would stretch the arrival process
// ~source/target x, and non-overlapping tenants never contend. Tenant i is
// named "tenant<i>" and seeded seed_base + i (distinct job mixes). The
// source's resample plan is computed once and the shards derived from it in
// parallel, so setup stays flat in the source size at high tenant counts.
std::vector<FederationTenant> MakeTenantShards(const Trace& base, int num_tenants,
                                               int jobs_per_tenant,
                                               std::uint64_t seed_base = 101,
                                               SchedulerKind kind = SchedulerKind::kEva);

// Renders a per-tenant table, cross-tenant aggregate rows when more than one
// tenant ran, the provider summary, and the driver's phase/wall statistics.
// The table shows the first 16 tenants: at 1000 tenants the full table is
// noise, and the min/median/p95/max rows carry the story.
void PrintFederationReport(const FederationResult& result);

}  // namespace eva

#endif  // SRC_SIM_FEDERATION_H_
