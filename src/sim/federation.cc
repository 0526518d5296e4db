#include "src/sim/federation.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>

#include "src/common/format.h"
#include "src/common/hash.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/obs/publish.h"
#include "src/workload/trace_gen.h"

namespace eva {

namespace {

// Per-tenant rows PrintFederationReport shows before eliding the rest.
constexpr std::size_t kMaxTenantRows = 16;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct TenantRun {
  SchedulerBundle bundle;
  std::unique_ptr<Simulator> simulator;
};

// The barrier loop for federations with a finite pool, on the calling
// thread. Each barrier is the earliest pending round anywhere: every tenant
// first processes its non-round events below it, then the tenants with
// events at the barrier run them in tenant-index order, so every grant
// arbitrates in (virtual time, tenant index) order.
void RunBarriers(std::vector<TenantRun>& runs, FederationStats& stats,
                 TraceRecorder* trace, std::uint32_t track) {
  const auto next_barrier = [&runs]() {
    SimTime barrier = std::numeric_limits<SimTime>::infinity();
    for (const TenantRun& run : runs) {
      barrier = std::min(barrier, run.simulator->NextRoundTime());
    }
    return barrier;
  };
  const auto all_drained = [&runs]() {
    for (const TenantRun& run : runs) {
      if (!run.simulator->Drained()) {
        return false;
      }
    }
    return true;
  };

  while (true) {
    SimTime barrier = next_barrier();

    // Non-round events below the barrier. A tenant whose next event is at
    // or after the barrier is skipped: AdvanceUntil would be a no-op.
    const auto advance_start = std::chrono::steady_clock::now();
    for (TenantRun& run : runs) {
      if (run.simulator->NextEventTime() < barrier) {
        ++stats.advance_participants;
        run.simulator->AdvanceUntil(barrier);
      }
    }
    stats.advance_wall_s += Seconds(std::chrono::steady_clock::now() - advance_start);

    // A tenant may have re-triggered its round chain below the barrier (an
    // arrival after a drained stretch). Rounds must only run at the
    // *global* minimum, so restart the loop with the earlier barrier before
    // touching any round.
    const SimTime recomputed = next_barrier();
    if (recomputed < barrier) {
      continue;
    }
    barrier = recomputed;
    if (barrier == std::numeric_limits<SimTime>::infinity()) {
      // No rounds pending anywhere and every queue below a round is
      // drained: the federation is finished.
      if (all_drained()) {
        break;
      }
      continue;
    }

    // Every remaining event at or before the barrier sits exactly on it
    // (non-round events below were consumed; rounds below would have
    // lowered `recomputed`). Its tenants run in index order, as one group.
    const auto round_start = std::chrono::steady_clock::now();
    std::int64_t participants = 0;
    for (TenantRun& run : runs) {
      if (run.simulator->NextEventTime() <= barrier) {
        ++participants;
        run.simulator->ProcessEventsThrough(barrier);
      }
    }
    ++stats.barriers;
    ++stats.round_groups;
    stats.round_participants += participants;
    stats.largest_group_participants += participants;
    if (trace != nullptr) {
      trace->Instant(track, "fed.barrier", barrier, "participants",
                     static_cast<double>(participants));
    }
    stats.round_wall_s += Seconds(std::chrono::steady_clock::now() - round_start);
  }
}

}  // namespace

std::vector<FederationTenant> MakeTenantShards(const Trace& base, int num_tenants,
                                               int jobs_per_tenant,
                                               std::uint64_t seed_base,
                                               SchedulerKind kind) {
  std::vector<FederationTenant> tenants(
      static_cast<std::size_t>(std::max(num_tenants, 0)));
  if (tenants.empty()) {
    return tenants;
  }
  // Hoist the source-derived resample quantities out of the per-tenant
  // loop (one plan, N derivations) and build the shards in parallel — each
  // shard is a pure function of (plan, options), so slot i's content is
  // independent of scheduling order.
  const TraceResamplePlan plan = MakeResamplePlan(base);
  const double rate_multiplier =
      static_cast<double>(base.jobs.size()) / std::max(jobs_per_tenant, 1);
  ThreadPool pool(std::min<int>(ThreadPool::DefaultThreads(), num_tenants));
  pool.ParallelFor(tenants.size(), [&](std::size_t i) {
    TraceScaleOptions scale;
    scale.target_jobs = jobs_per_tenant;
    scale.seed = seed_base + static_cast<std::uint64_t>(i);
    scale.rate_multiplier = rate_multiplier;
    FederationTenant& tenant = tenants[i];
    tenant.name = "tenant" + std::to_string(i);
    tenant.trace = ScaleTraceFromPlan(plan, scale);
    tenant.kind = kind;
  });
  return tenants;
}

FederationResult RunFederation(const std::vector<FederationTenant>& tenants,
                               const FederationOptions& options) {
  FederationResult result;
  if (tenants.empty()) {
    return result;
  }
  FederationStats& stats = result.stats;
  const auto setup_start = std::chrono::steady_clock::now();

  CloudProvider provider(options.catalog,
                         MergedProviderOptions(options.provider, options.simulator.faults));

  // Observability. One shared TraceRecorder serves every tenant (each
  // registers its own track at construction); the driver adds a
  // "federation" track for barrier spans, emitted only by the barrier loop
  // on the calling thread. FlightRecorder
  // and TelemetryRegistry are single-writer: tenants record into their own
  // slot of the caller's flight-recorder vector, and the shared registry
  // pointer is withheld from tenants — the driver publishes the fleet's
  // export into it after the run instead.
  const ObservabilityOptions& obs = options.simulator.observability;
  TraceRecorder* fed_trace = nullptr;
  std::uint32_t fed_track = 0;
  if (obs.trace != nullptr) {
    fed_trace = obs.trace;
    fed_track = fed_trace->RegisterTrack("federation");
  }
  if (options.flight_recorders != nullptr) {
    options.flight_recorders->resize(tenants.size());
  }

  // One bundle + simulator per tenant, all provisioned from `provider`.
  std::vector<TenantRun> runs;
  runs.reserve(tenants.size());
  const int stagger_slots = std::max(options.stagger_slots, 1);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    TenantRun run;
    run.bundle = MakeScheduler(tenants[i].kind, options.interference, options.eva);
    SimulatorOptions sim_options = options.simulator;
    // The shared provider's own options govern; SimulatorOptions::provider
    // is only consulted when a simulator constructs a private provider.
    sim_options.shared_provider = &provider;
    sim_options.tenant_id = static_cast<int>(i);
    sim_options.seed = options.simulator.seed + i;
    sim_options.observability.registry = nullptr;
    sim_options.observability.flight_recorder =
        options.flight_recorders != nullptr ? &(*options.flight_recorders)[i] : nullptr;
    if (options.stagger_rounds) {
      // A pure function of (seed, tenant index): the same options always
      // yield the same offsets.
      const auto slot = static_cast<int>(
          Mix64(options.stagger_seed ^ static_cast<std::uint64_t>(i)) %
          static_cast<std::uint64_t>(stagger_slots));
      sim_options.first_round_offset_s =
          static_cast<double>(slot) *
          (options.simulator.scheduling_period_s / static_cast<double>(stagger_slots));
    }
    run.simulator = std::make_unique<Simulator>(tenants[i].trace,
                                                run.bundle.scheduler.get(), options.catalog,
                                                options.interference, sim_options);
    run.simulator->Start();
    runs.push_back(std::move(run));
  }
  stats.setup_wall_s = Seconds(std::chrono::steady_clock::now() - setup_start);

  if (provider.finite_family_mask() == 0) {
    // Unlimited pools: TryAcquire grants unconditionally and every shared
    // tally is commutative, so no tenant's trajectory depends on another's.
    // Each tenant runs to completion on its own, in any order, on any
    // thread.
    const auto start = std::chrono::steady_clock::now();
    const int threads = options.num_threads > 0 ? options.num_threads
                                                : ThreadPool::DefaultThreads();
    ThreadPool pool(std::min<int>(threads, static_cast<int>(runs.size())));
    pool.ParallelFor(runs.size(), [&runs](std::size_t i) {
      runs[i].simulator->ProcessEventsThrough(std::numeric_limits<SimTime>::infinity());
    });
    stats.advance_wall_s = Seconds(std::chrono::steady_clock::now() - start);
  } else {
    RunBarriers(runs, stats, fed_trace, fed_track);
  }

  result.tenants.reserve(tenants.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    FederationResult::Tenant tenant;
    tenant.name = tenants[i].name;
    tenant.kind = tenants[i].kind;
    tenant.metrics = runs[i].simulator->Finish();
    result.horizon_s = std::max(result.horizon_s, tenant.metrics.makespan_s);
    result.tenants.push_back(std::move(tenant));
  }
  result.provider = provider.FinalizeMetrics(result.horizon_s);
  PublishFederationResult(result, obs.registry);
  return result;
}

void PrintFederationReport(const FederationResult& result) {
  const std::size_t total = result.tenants.size();
  const std::size_t shown = std::min(total, kMaxTenantRows);
  std::printf("%-12s %-12s %12s %10s %8s %8s %8s %8s %9s\n", "Tenant", "Scheduler",
              "Cost($)", "SpotCost", "JCT(h)", "Denied", "Preempt", "SpotInst", "Jobs");
  for (std::size_t i = 0; i < shown; ++i) {
    const FederationResult::Tenant& tenant = result.tenants[i];
    const SimulationMetrics& m = tenant.metrics;
    std::printf("%-12s %-12s %12.2f %10.2f %8.2f %8" PRId64 " %8" PRId64
                " %8" PRId64 " %4" PRId64 "/%-4" PRId64 "\n",
                tenant.name.c_str(), SchedulerKindName(tenant.kind), m.total_cost,
                m.spot_cost, m.avg_jct_hours, m.acquisitions_denied,
                m.spot_preemptions, m.spot_instances_launched, m.jobs_completed,
                m.jobs_submitted);
  }
  if (shown < total) {
    std::printf("  ... %zu more tenants elided\n", total - shown);
  }

  if (total > 1) {
    // Cross-tenant aggregates: the per-tenant table's story at any scale.
    const auto aggregate = [&](const char* label, const auto& get) {
      std::vector<double> values;
      values.reserve(total);
      for (const FederationResult::Tenant& tenant : result.tenants) {
        values.push_back(static_cast<double>(get(tenant.metrics)));
      }
      const double min = *std::min_element(values.begin(), values.end());
      const double max = *std::max_element(values.begin(), values.end());
      std::printf("  %-10s min=%-10.2f median=%-10.2f p95=%-10.2f max=%-10.2f\n", label,
                  min, Quantile(values, 0.5), Quantile(values, 0.95), max);
    };
    std::printf("aggregate across %zu tenants:\n", total);
    aggregate("cost($)", [](const SimulationMetrics& m) { return m.total_cost; });
    aggregate("jct(h)", [](const SimulationMetrics& m) { return m.avg_jct_hours; });
    aggregate("denied", [](const SimulationMetrics& m) { return m.acquisitions_denied; });
    aggregate("preempted", [](const SimulationMetrics& m) { return m.spot_preemptions; });
    aggregate("completed", [](const SimulationMetrics& m) { return m.jobs_completed; });
  }

  // Fault ledger, summed across tenants. Omitted entirely for fault-free
  // runs (every counter is zero there) so existing report consumers see an
  // unchanged layout.
  FaultStats fault_sum;
  std::vector<double> goodputs;
  std::vector<double> replace_p95s;
  for (const FederationResult::Tenant& tenant : result.tenants) {
    const FaultStats& f = tenant.metrics.faults;
    MergeStats(f, fault_sum);
    goodputs.push_back(f.goodput_ratio);
    if (f.replacements_completed > 0) {
      replace_p95s.push_back(f.replacement_latency_p95_s);
    }
  }
  if (fault_sum.zone_outages + fault_sum.correlated_failures +
          fault_sum.maintenance_drains >
      0) {
    std::printf(
        "faults: outages=" EVA_PRId64 " bursts=" EVA_PRId64 " drains=" EVA_PRId64
        " killed=" EVA_PRId64 " drained=" EVA_PRId64 " evicted=" EVA_PRId64
        " lost=" EVA_PRId64 " lost-work=%.2fh replaced=" EVA_PRId64 "\n",
        fault_sum.zone_outages, fault_sum.correlated_failures,
        fault_sum.maintenance_drains, fault_sum.instances_killed,
        fault_sum.instances_drained, fault_sum.tasks_evicted,
        fault_sum.tasks_lost, SecondsToHours(fault_sum.lost_work_seconds),
        fault_sum.replacements_completed);
    std::printf("  goodput    min=%.4f median=%.4f\n",
                *std::min_element(goodputs.begin(), goodputs.end()),
                Quantile(goodputs, 0.5));
    if (!replace_p95s.empty()) {
      std::printf("  replace-p95(s) median=%.1f max=%.1f\n", Quantile(replace_p95s, 0.5),
                  *std::max_element(replace_p95s.begin(), replace_p95s.end()));
    }
  }

  std::printf("provider (horizon %.1f h):\n", SecondsToHours(result.horizon_s));
  for (int f = 0; f < kNumInstanceFamilies; ++f) {
    const CloudProviderMetrics::Family& family =
        result.provider.families[static_cast<std::size_t>(f)];
    std::printf(
        "  %-4s cap=%-4d granted=%-6" PRId64 " denied=%-6" PRId64
        " fault-denied=%-5" PRId64 " preempted=%-5" PRId64
        " peak=%-4d util=%5.1f%% inst-h=%.1f\n",
        InstanceFamilyName(static_cast<InstanceFamily>(f)), family.capacity,
        family.granted, family.denied, family.fault_denied, family.preempted,
        family.peak_in_use, family.avg_utilization * 100.0,
        family.instance_hours);
  }
  const FederationStats& stats = result.stats;
  std::printf(
      "driver: barriers=" EVA_PRId64 " advanced=" EVA_PRId64 " participants=" EVA_PRId64
      " groups=" EVA_PRId64 " serial-share=%.3f "
      "setup=%.3fs advance=%.3fs rounds=%.3fs\n",
      stats.barriers, stats.advance_participants, stats.round_participants,
      stats.round_groups, stats.SerialShare(), stats.setup_wall_s, stats.advance_wall_s,
      stats.round_wall_s);
}

}  // namespace eva
