// Multi-tenant federation harness, two parts:
//
// 1. Market regimes — three Eva tenants (ScaleTrace shards of the 2,000-job
//    Alibaba-like trace) provisioning from one shared cloud provider:
//
//      * open        — unlimited capacity, on-demand only (the idealized
//                      cloud every earlier experiment assumed); the
//                      tenants run independently on the thread pool;
//      * capped      — finite per-family pools, on-demand only: acquisition
//                      denials throttle the tenants;
//      * capped-spot — finite pools plus the spot tier: tenants mix
//                      preemptible discounted capacity and eat two-minute
//                      preemptions.
//
//    The open regime runs again on one thread, because it is the one whose
//    tenants really run concurrently: every tenant's registry export must
//    match across both runs, or the run fails (non-zero exit).
//
// 2. Tenant-scaling sweep — 10/100/500 tenants (1000 at full
//    EVA_BENCH_SCALE) on capped pools, one run per point. A finite pool puts
//    the federation on its barrier loop, which runs on the calling thread
//    whatever num_threads says. Reports events/sec, the wall, the serial
//    share of the round phase (1.0 whenever a barrier ran) and the
//    shard-derivation setup wall.
//
// Reports per-tenant cost / spot share / JCT / denial / preemption counts
// (capped; large fleets aggregate to min/median/p95/max rows) and the
// provider-level utilization table. EVA_BENCH_JSON writes the first eight
// tenants' registry exports (`<scenario>_<tenant>`) and one fleet row per
// scenario (`_provider`) and sweep point (`_scale`): its shape and walls
// plus the fleet export (PublishFederationResult). EVA_BENCH_SCALE scales
// the per-tenant job counts.
// Not a paper table: this is the scenario platform the provider-market
// subsystem opens up.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/format.h"
#include "src/common/thread_pool.h"
#include "src/obs/registry.h"
#include "src/sim/federation.h"
#include "src/workload/trace_gen.h"

namespace {

using namespace eva;

// Tenant rows beyond this are left to the fleet row; a 500-tenant sweep
// point must not emit 500 rows of noise.
constexpr std::size_t kMaxTenantJsonRows = 8;

Trace MakeBaseTrace() {
  AlibabaTraceOptions base_options;
  base_options.num_jobs = 2000;
  base_options.seed = 17;
  base_options.max_duration_hours = 48.0;
  return GenerateAlibabaTrace(base_options);
}

double WallSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Runs the federation with its fleet export published into `fleet`;
// returns the wall time.
double TimedRun(const std::vector<FederationTenant>& tenants, FederationOptions options,
                TelemetryRegistry& fleet, FederationResult& result) {
  options.simulator.observability.registry = &fleet;
  const auto start = std::chrono::steady_clock::now();
  result = RunFederation(tenants, options);
  return WallSince(start);
}

// The determinism contract: num_threads must not leak into any simulated
// quantity. Reruns `options` on one thread and compares every tenant's
// registry export with `result`'s bit for bit.
bool MatchesOneThreadRun(const std::vector<FederationTenant>& tenants,
                         FederationOptions options, const FederationResult& result) {
  options.num_threads = 1;
  TelemetryRegistry fleet;
  FederationResult serial;
  const double wall = TimedRun(tenants, options, fleet, serial);
  bool identical = true;
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    if (Telemetry(result.tenants[i].metrics).ToJson() !=
        Telemetry(serial.tenants[i].metrics).ToJson()) {
      std::printf("ERROR: %s diverges between 1 and %d threads — determinism "
                  "contract broken\n",
                  result.tenants[i].name.c_str(), ThreadPool::DefaultThreads());
      identical = false;
    }
  }
  std::printf("1-thread rerun %.3fs: tenant exports %s\n", wall,
              identical ? "identical" : "DIFFER");
  return identical;
}

// Runs one regime, emits its rows and returns its result.
FederationResult RunScenario(BenchJsonWriter& json, const std::string& name,
                             const std::vector<FederationTenant>& tenants,
                             int jobs_per_tenant, const FederationOptions& options) {
  std::printf("\n--- scenario: %s ---\n", name.c_str());
  TelemetryRegistry fleet;
  FederationResult result;
  const double wall = TimedRun(tenants, options, fleet, result);
  PrintFederationReport(result);

  const std::int64_t events = fleet.CounterValue("sim.events_processed");
  std::printf("wall %.3fs, " EVA_PRId64 " events (%.0f events/sec, all tenants)\n",
              wall, events, wall > 0.0 ? static_cast<double>(events) / wall : 0.0);

  for (std::size_t i = 0;
       i < result.tenants.size() && i < kMaxTenantJsonRows; ++i) {
    const FederationResult::Tenant& tenant = result.tenants[i];
    json.AddRow(name + "_" + tenant.name, BenchFields(), Telemetry(tenant.metrics));
  }
  json.AddRow(name + "_provider",
              BenchFields()
                  .Add("tenants", static_cast<double>(tenants.size()))
                  .Add("jobs_per_tenant", jobs_per_tenant)
                  .Add("wall_seconds", wall)
                  .Add("setup_wall_s", result.stats.setup_wall_s)
                  .Add("advance_wall_s", result.stats.advance_wall_s)
                  .Add("round_wall_s", result.stats.round_wall_s),
              fleet);
  return result;
}

// One tenant-scaling point: derive the shards (timed), then run the
// federation once at the hardware thread count.
void RunSweepPoint(BenchJsonWriter& json, const Trace& base, int num_tenants,
                   int jobs_per_tenant) {
  const std::string name = "fed" + std::to_string(num_tenants);
  std::printf("\n--- sweep: %d tenants x %d jobs ---\n", num_tenants,
              jobs_per_tenant);

  const auto setup_start = std::chrono::steady_clock::now();
  const std::vector<FederationTenant> tenants =
      MakeTenantShards(base, num_tenants, jobs_per_tenant);
  const double shard_wall = WallSince(setup_start);

  FederationOptions options;
  options.provider.enabled = true;
  // Pools that stay scarce as the fleet grows: shard capacity tracks the
  // tenant count so denials and cross-tenant contention survive the sweep.
  options.provider.family_capacity = {std::max(4, num_tenants / 5),
                                      std::max(10, num_tenants / 2),
                                      std::max(6, num_tenants / 3)};
  options.provider.spot.enabled = true;
  options.provider.spot.seed = 4242;
  options.provider.spot.spike_probability = 0.06;
  options.simulator.seed = 5;
  options.stagger_rounds = true;  // Each barrier carries a slice of the tenants.
  const int hardware_threads = ThreadPool::DefaultThreads();
  options.num_threads = hardware_threads;

  TelemetryRegistry fleet;
  FederationResult result;
  const double wall = TimedRun(tenants, options, fleet, result);
  PrintFederationReport(result);

  const std::int64_t events = fleet.CounterValue("sim.events_processed");
  std::printf("shard setup %.3fs; %d threads: %.3fs (%.0f ev/s); serial share %.3f\n",
              shard_wall, hardware_threads, wall,
              wall > 0.0 ? static_cast<double>(events) / wall : 0.0,
              result.stats.SerialShare());

  json.AddRow(name + "_scale",
              BenchFields()
                  .Add("tenants", num_tenants)
                  .Add("jobs_per_tenant", jobs_per_tenant)
                  .Add("wall_seconds", wall)
                  .Add("num_threads", hardware_threads)
                  .Add("shard_setup_s", shard_wall),
              fleet);
}

}  // namespace

int main() {
  PrintBenchHeader("Multi-tenant federation: shared provider, finite capacity, spot",
                   "provider-market subsystem; not a paper table");

  const int jobs_per_tenant = ScaledJobCount(666);
  const std::vector<FederationTenant> tenants =
      MakeTenantShards(MakeBaseTrace(), /*num_tenants=*/3, jobs_per_tenant);
  std::printf("3 tenants x %d jobs (ScaleTrace shards of alibaba2000)\n", jobs_per_tenant);

  BenchJsonWriter json;

  FederationOptions open;
  open.provider.enabled = true;  // Pass-through: unlimited, on-demand only.
  open.simulator.seed = 5;
  const bool identical = MatchesOneThreadRun(
      tenants, open, RunScenario(json, "open", tenants, jobs_per_tenant, open));

  FederationOptions capped = open;
  // Pools sized to bind under three contending tenants: the shards together
  // sustain a few dozen concurrent CPU jobs and a handful of GPU jobs.
  capped.provider.family_capacity = {4, 10, 6};
  RunScenario(json, "capped", tenants, jobs_per_tenant, capped);

  FederationOptions capped_spot = capped;
  capped_spot.provider.spot.enabled = true;
  capped_spot.provider.spot.seed = 4242;
  capped_spot.provider.spot.spike_probability = 0.06;
  RunScenario(json, "capped-spot", tenants, jobs_per_tenant, capped_spot);

  // Everything at once: finite pools, the spot market, and the fault model
  // — zone outages clamp the shared pools, correlated bursts and drains
  // churn placements. The hostile regime the recovery accounting is for.
  FederationOptions faults = capped_spot;
  faults.simulator.faults.enabled = true;
  faults.simulator.faults.seed = 97;
  RunScenario(json, "faults", tenants, jobs_per_tenant, faults);

  // Tenant-scaling sweep on capped pools (the barrier loop). Job counts
  // shrink with the fleet so each point stays a comparable total volume;
  // the 1000-tenant point only runs at full EVA_BENCH_SCALE.
  const Trace base = MakeBaseTrace();
  RunSweepPoint(json, base, /*num_tenants=*/10, ScaledJobCount(100));
  RunSweepPoint(json, base, /*num_tenants=*/100, ScaledJobCount(40));
  RunSweepPoint(json, base, /*num_tenants=*/500, ScaledJobCount(12));
  if (ScaledJobCount(100) >= 100) {
    RunSweepPoint(json, base, /*num_tenants=*/1000, ScaledJobCount(8));
  }

  bool written = true;
  if (const char* path = BenchJsonWriter::OutputPath()) {
    written = json.WriteTo(path, "federation");
  }
  return identical && written ? 0 : 1;
}
