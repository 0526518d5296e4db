// Multi-tenant federation driver: N tenant simulators contending for one
// shared CloudProvider in lockstep virtual time.
//
// Each tenant is a full Simulator (own trace, own scheduler, own metrics)
// constructed against the shared provider's catalog. The driver interleaves
// them with a two-phase barrier protocol that is deterministic by
// construction — bit-identical results across runs AND across thread-pool
// sizes:
//
//   1. Parallel phase. Every tenant with an event before T, the earliest
//      pending scheduling round across all tenants, processes its pending
//      events up to (strictly before) T; the rest have nothing below T and
//      are not dispatched at all. No events in this window acquire provider
//      capacity (only scheduling rounds launch instances); the provider
//      mutations that can occur — capacity releases and preemption
//      tallies — are commutative per family shard, so the provider state at
//      the barrier does not depend on interleaving.
//
//   2. Conflict-grouped round phase. Tenants with events exactly at T are
//      partitioned by the provider family shards they can touch (the
//      Simulator::ProviderFamilyFootprint contract, intersected with the
//      provider's *finite* families — unlimited pools grant unconditionally
//      and tally commutatively, so they cannot make two tenants conflict).
//      Tenants sharing a finite shard land in one group; groups run
//      concurrently on the pool, and within a group tenants run one at a
//      time in tenant-index order. Every contended TryAcquire therefore
//      arbitrates in deterministic (virtual time, tenant index) order,
//      while non-contending tenants — the common case once capacity is
//      partitioned or demand is family-disjoint — round in parallel.
//
// Both phases dispatch through ThreadPool::ParallelFor: one batch per
// phase whose items the workers and the driver thread claim one at a time
// from a shared cursor, run inline on the driver when there is one item or
// one thread.
//
// With staggered round offsets enabled, tenants' round phases are spread
// deterministically across the scheduling period, so each barrier carries a
// fraction of the tenants instead of all of them — the same trick real
// clusters use to flatten controller load spikes.
//
// A tenant that drains its round chain and later re-triggers it (an arrival
// after an idle stretch) can create a round earlier than T mid-phase; the
// driver detects this and re-computes the barrier before any round runs.

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

  // Worker threads for the parallel and grouped phases; <= 0 uses all
  // hardware threads.
  int num_threads = 0;

  // Deterministic round stagger (opt-in). Tenant i's first scheduling round
  // fires at slot(i) x (period / stagger_slots) with slot(i) =
  // hash(stagger_seed, i) % stagger_slots, instead of every tenant rounding
  // at t=0, 300, 600, ... in phase. Spreads barrier pressure: each barrier
  // then carries ~1/stagger_slots of the tenants, shrinking both the
  // serialized residue and the idle tail of the parallel phase. Offsets are
  // a pure function of (stagger_seed, i) — same seed, same trajectory.
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

// Where the federation's wall-clock time went, plus the counters behind the
// serial-phase share the bench reports. The counts are one field list (see
// obs/stat_schema.h), published as "federation.*"; the walls are
// host-measured and stay out of the registry.
#define EVA_FEDERATION_STAT_FIELDS(X)                                          \
  X(std::int64_t, barriers, 0, kCounter, kSum) /* Two-phase iterations run. */ \
  /* Tenant-barrier pairs dispatched in the parallel phase (tenants with an    \
     event before the barrier; idle tenants are skipped). */                   \
  X(std::int64_t, advance_participants, 0, kCounter, kSum)                     \
  /* Tenant-barrier pairs with barrier-time events. */                         \
  X(std::int64_t, round_participants, 0, kCounter, kSum)                       \
  /* Conflict groups dispatched (singletons included). */                      \
  X(std::int64_t, round_groups, 0, kCounter, kSum)                             \
  /* Sum over barriers of the largest group's participant count — the          \
     critical path of the grouped phase (groups run concurrently; members of   \
     one group run serially). */                                               \
  X(std::int64_t, largest_group_participants, 0, kCounter, kSum)

struct FederationStats {
  EVA_FEDERATION_STAT_FIELDS(EVA_STAT_MEMBER)
  EVA_STAT_SCHEMA(FederationStats, "federation", EVA_FEDERATION_STAT_FIELDS)

  double setup_wall_s = 0.0;    // Scheduler + simulator construction, Start().
  double advance_wall_s = 0.0;  // Parallel AdvanceUntil phase.
  double round_wall_s = 0.0;    // Conflict-grouped round phase.

  // Fraction of round-phase tenant work that sits on the serialized
  // critical path: 1.0 = every participant shares one group (the old
  // fully-serial phase), 1/participants = perfect spread.
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
// its round.
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

struct FederationReportOptions {
  // Per-tenant rows printed before the rest are elided behind an aggregate
  // line (<= 0 prints every tenant). At 1000 tenants the full table is
  // noise; the min/median/p95/max rows carry the story.
  int max_tenant_rows = 16;
};

// Renders a per-tenant table (capped per `report`), cross-tenant aggregate
// rows when more than one tenant ran, the provider summary, and the
// driver's phase/wall statistics.
void PrintFederationReport(const FederationResult& result,
                           const FederationReportOptions& report = {});

}  // namespace eva

#endif  // SRC_SIM_FEDERATION_H_
