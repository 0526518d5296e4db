// eva_bench: one workload of the repository benchmark per process.
//
//   eva_bench --workload <alibaba2k|alibaba10k|fed3_hostile|fed500_open>
//             [--seed S] [--seconds T] [--traced] [--smoke]
//
// Every workload is closed-loop: a fixed trace replayed to completion as fast
// as the host allows, repeated until another rep would overrun T seconds of
// replay (default 0: one rep). The default pass reports the end-to-end
// metrics; --traced runs the per-layer pass instead. Both passes time calls
// into the program's public API from this file only: a Scheduler decorator,
// the Simulator stepping API and the statistics RunFederation already
// returns. --smoke shrinks every workload to a fraction of a second.
//
// Every workload derives from the golden-pinned 2,000-job Alibaba-like trace
// (seed 17, durations capped at 48 h) with the perf harnesses' ScaleTrace
// (23) and MakeTenantShards (101) seeds; market (4242), fault (97) and
// federation simulator (5) seeds belong to the workload definitions too.
// The default --seed 17 replays those traces unchanged. Any other seed moves
// the arrivals later within their scheduling cell (see JitterArrivals), so
// each seed is a different input on which the scheduler makes the same
// decisions. Drawing a fresh base trace per seed instead moved simulated
// cost by 10-20% between seeds, and even a one-minute arrival jitter that
// lets jobs change rounds swung fed3_hostile's wall time between 1.2 s and
// 3.1 s: wider than any usable regression bound.
//
// Prints one JSON object on stdout: per metric its unit, the median over reps
// with p25/p75/n, plus the correctness checks. Exits 1 when a check fails and
// 2 on a usage error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/core/full_reconfig.h"
#include "src/core/partial_reconfig.h"
#include "src/sched/config_diff.h"
#include "src/sim/experiment.h"
#include "src/sim/federation.h"
#include "src/sim/simulator.h"
#include "src/workload/trace_gen.h"

// --- Allocation counting ---------------------------------------------------
// Replacement global operator new/delete, like bench/bench_alloc_hooks.cc but
// counting only while g_count_allocations is set: the per-layer pass reports
// how many heap allocations one replay makes, and every other run must not
// pay for a counter whose cache line bounces between the pool's threads.
// Relaxed: a statistic, not a fence.

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocations{0};

inline void CountAllocation() {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

#if defined(__GNUC__)
#define EVA_BENCH_NOINLINE __attribute__((noinline))
#else
#define EVA_BENCH_NOINLINE
#endif

EVA_BENCH_NOINLINE void* operator new(std::size_t size) {
  CountAllocation();
  if (void* ptr = std::malloc(size ? size : 1)) {
    return ptr;
  }
  throw std::bad_alloc();
}
EVA_BENCH_NOINLINE void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's buffer uses them): every form
// that pairs with the free()-based deletes below must come from malloc.
EVA_BENCH_NOINLINE void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountAllocation();
  return std::malloc(size ? size : 1);
}
EVA_BENCH_NOINLINE void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
EVA_BENCH_NOINLINE void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
EVA_BENCH_NOINLINE void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
EVA_BENCH_NOINLINE void operator delete(void* ptr) noexcept { std::free(ptr); }
EVA_BENCH_NOINLINE void operator delete[](void* ptr) noexcept { std::free(ptr); }
EVA_BENCH_NOINLINE void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
EVA_BENCH_NOINLINE void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace {

using namespace eva;
using Clock = std::chrono::steady_clock;

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

// Contexts kept per traced single-simulator run for the replay probe.
constexpr std::size_t kProbeContexts = 256;

// The seed that replays the golden-pinned traces unchanged.
constexpr std::uint64_t kDefaultSeed = 17;

// Setup samples per end-to-end run. Setup takes milliseconds and is timed on
// its own, back to back after the reps: interleaved with replays its time
// swung with whatever the previous replay left in the caches and allocator.
constexpr int kSetupSamples = 50;

volatile std::size_t g_sink = 0;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Micros(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

void CountAllocations(bool on) { g_count_allocations.store(on, std::memory_order_relaxed); }
double Allocations() { return static_cast<double>(g_allocations.load(std::memory_order_relaxed)); }

// Moves the calling thread to the next CPU it may use, round-robin, and lets
// it float again from there. On a shared host a virtual machine's CPUs run
// unevenly fast (neighbours load them unevenly, and the imbalance shifts over
// minutes), and a thread tends to stay on the CPU it started on: one process
// timed its setup at 0.21 ms throughout, the next at 0.33 ms. Starting each
// sample on the next CPU spreads a run's samples over all of them, so the
// run's median does not hinge on where the process happened to land. With
// `same_cpu` it starts on the CPU of the previous call instead, so that two
// replays compared with each other start alike.
void StartOnNextCpu(bool same_cpu = false) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  static int cpu = -1;
  if (CPU_COUNT(&allowed) < 2) {
    return;
  }
  while (!same_cpu || cpu < 0) {
    cpu = (cpu + 1) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &allowed)) {
      break;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  bool federated;
  int jobs;         // Trace size, or jobs per tenant when federated.
  int tenants;
  bool hostile;     // Capped pools, spot market and fault injection.
  int warmup_reps;  // Untimed reps before measuring.
  bool golden;      // At the default seed, replays the golden-pinned trace.
  int smoke_jobs;
  int smoke_tenants;
};

// Why each workload exists (which layer it stresses and which it bypasses)
// is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"alibaba2k", false, 2000, 1, false, 1, true, 200, 1},
    {"alibaba10k", false, 10000, 1, false, 0, false, 1000, 1},
    {"fed3_hostile", true, 333, 3, true, 0, false, 60, 3},
    {"fed500_open", true, 40, 500, false, 0, false, 10, 20},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  bool traced = false;
  bool smoke = false;

  int jobs() const { return smoke ? workload->smoke_jobs : workload->jobs; }
  int tenants() const { return smoke ? workload->smoke_tenants : workload->tenants; }
  bool golden() const { return workload->golden && !smoke && seed == kDefaultSeed; }
};

Trace MakeBaseTrace(const Args& args) {
  AlibabaTraceOptions options;
  options.num_jobs = args.smoke ? 200 : 2000;
  options.seed = 17;
  options.max_duration_hours = 48.0;
  return GenerateAlibabaTrace(options);
}

// The seed's share of the input. Scheduling rounds fire only on multiples of
// the stagger cell (period / stagger slots = 37.5 s), so squeezing each
// cell's arrivals toward the cell's end by a seed-drawn factor keeps every
// job in its round and every job in its order (job ids stay put): arrival
// times, JCTs and event timing change, the scheduler's decisions do not.
// The default seed leaves the traces as they are.
void JitterArrivals(std::uint64_t seed, const std::vector<Trace*>& traces) {
  if (seed == kDefaultSeed) {
    return;
  }
  Rng rng(seed);
  const FederationOptions defaults;
  const double cell = defaults.simulator.scheduling_period_s / defaults.stagger_slots;
  for (Trace* trace : traces) {
    double cell_end = -1.0;
    double squeeze = 1.0;
    for (JobSpec& job : trace->jobs) {
      const double end = std::ceil(job.arrival_time_s / cell) * cell;
      if (end != cell_end) {
        cell_end = end;
        squeeze = rng.Uniform(0.05, 1.0);
      }
      job.arrival_time_s = end - (end - job.arrival_time_s) * squeeze;
    }
  }
}

FederationOptions MakeFederationOptions(const Workload& workload, int threads) {
  FederationOptions options;
  options.provider.enabled = true;  // Unlimited on-demand unless capped below.
  options.simulator.seed = 5;
  options.num_threads = threads;
  if (workload.hostile) {
    options.provider.family_capacity = {4, 10, 6};
    options.provider.spot.enabled = true;
    options.provider.spot.seed = 4242;
    options.provider.spot.spike_probability = 0.06;
    options.simulator.faults.enabled = true;
    options.simulator.faults.seed = 97;
  } else {
    options.stagger_rounds = true;
  }
  return options;
}

// --- Scheduler decorator -----------------------------------------------------

// Forwards every Scheduler virtual to the wrapped scheduler, so the run is
// bit-identical to an undecorated one. Untraced, it only reads the clock
// around ScheduleInto into a pre-reserved vector; traced, it also times
// ObserveThroughput and records context sizes and coalesce offers. With
// `probe` it also keeps copies of up to kProbeContexts evenly spaced
// contexts for the replay probe.
class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(Scheduler* inner, bool traced, bool probe)
      : inner_(inner), traced_(traced), keep_stride_(probe ? 1 : 0) {
    latency_us_.reserve(1 << 16);
  }

  std::string name() const override { return inner_->name(); }
  ClusterConfig Schedule(const SchedulingContext& context) override {
    return inner_->Schedule(context);
  }

  void ScheduleInto(const SchedulingContext& context, ClusterConfig& out) override {
    const auto start = Clock::now();
    inner_->ScheduleInto(context, out);
    latency_us_.push_back(Micros(Clock::now() - start));
    if (traced_) {
      context_tasks_.push_back(static_cast<double>(context.tasks.size()));
      if (keep_stride_ > 0 && (latency_us_.size() - 1) % keep_stride_ == 0) {
        Keep(context);
      }
    }
  }

  void ObserveThroughput(const std::vector<JobThroughputObservation>& observations) override {
    if (!traced_) {
      inner_->ObserveThroughput(observations);
      return;
    }
    const auto start = Clock::now();
    inner_->ObserveThroughput(observations);
    observe_s_ += Seconds(Clock::now() - start);
  }

  int CoalesceQuiescentRounds(int max_rounds, SimTime period_s) override {
    const int absorbed = inner_->CoalesceQuiescentRounds(max_rounds, period_s);
    if (traced_) {
      ++coalesce_offers_;
      coalesce_absorbed_ += absorbed;
    }
    return absorbed;
  }

  void BindWorkloadScale(std::size_t expected_jobs) override {
    inner_->BindWorkloadScale(expected_jobs);
  }
  void BindTrace(const TraceBinding& binding) override { inner_->BindTrace(binding); }
  void ExportCounters(SchedulerCounters& out) const override { inner_->ExportCounters(out); }

  const std::vector<double>& latency_us() const { return latency_us_; }
  const std::vector<double>& context_tasks() const { return context_tasks_; }
  const std::vector<SchedulingContext>& kept() const { return kept_; }
  double observe_s() const { return observe_s_; }
  std::int64_t coalesce_offers() const { return coalesce_offers_; }
  std::int64_t coalesce_absorbed() const { return coalesce_absorbed_; }

 private:
  // Once kProbeContexts are kept, drops every other one and keeps half as
  // often from then on, so the kept contexts stay evenly spaced over a run
  // of any length. The call that fills up is a multiple of the doubled
  // stride, because kProbeContexts is even.
  void Keep(const SchedulingContext& context) {
    if (kept_.size() == kProbeContexts) {
      for (std::size_t i = 1; i < kProbeContexts / 2; ++i) {
        kept_[i] = std::move(kept_[2 * i]);
      }
      kept_.resize(kProbeContexts / 2);
      keep_stride_ *= 2;
    }
    SchedulingContext copy;
    copy.now_s = context.now_s;
    copy.catalog = context.catalog;
    copy.delta = context.delta;
    copy.throughput = context.throughput;
    copy.tasks = context.tasks;
    copy.instances = context.instances;
    copy.Finalize();
    kept_.push_back(std::move(copy));
  }

  Scheduler* inner_;
  bool traced_;
  std::size_t keep_stride_;
  std::vector<double> latency_us_;
  std::vector<double> context_tasks_;
  std::vector<SchedulingContext> kept_;
  double observe_s_ = 0.0;
  std::int64_t coalesce_offers_ = 0;
  std::int64_t coalesce_absorbed_ = 0;
};

// --- Results -----------------------------------------------------------------

// Samples per metric name; each end-to-end value is one sample per rep.
class MetricSet {
 public:
  void Add(const std::string& name, const char* unit, double value) {
    Metric& metric = metrics_[name];
    metric.unit = unit;
    metric.values.push_back(value);
  }

  std::string ToJson() const {
    std::string out = "{";
    for (const auto& [name, metric] : metrics_) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer),
                    "%s\"%s\": {\"unit\": \"%s\", \"value\": %.17g, \"p25\": %.17g, "
                    "\"p75\": %.17g, \"n\": %zu}",
                    out.size() > 1 ? ", " : "", name.c_str(), metric.unit,
                    Quantile(metric.values, 0.5), Quantile(metric.values, 0.25),
                    Quantile(metric.values, 0.75), metric.values.size());
      out += buffer;
    }
    return out + "}";
  }

 private:
  struct Metric {
    const char* unit = "";
    std::vector<double> values;
  };
  std::map<std::string, Metric> metrics_;
};

// Named pass/fail checks; repeated checks of one name fold into one entry
// that keeps the first failure's detail.
class Checks {
 public:
  void Expect(bool ok, const std::string& name, const std::string& detail = "") {
    for (Result& r : results_) {
      if (r.name == name) {
        if (r.ok && !ok) {
          r = {ok, name, detail};
        }
        return;
      }
    }
    results_.push_back({ok, name, detail});
  }
  bool AllPassed() const {
    return std::all_of(results_.begin(), results_.end(),
                       [](const Result& r) { return r.ok; });
  }
  std::string ToJson() const {
    std::string out = "[";
    for (const Result& r : results_) {
      if (out.size() > 1) {
        out += ", ";
      }
      out += "{\"name\": \"" + r.name + "\", \"ok\": " + (r.ok ? "true" : "false") +
             ", \"detail\": \"" + r.detail + "\"}";
    }
    return out + "]";
  }

 private:
  struct Result {
    bool ok;
    std::string name;
    std::string detail;
  };
  std::vector<Result> results_;
};

std::string Format(const char* format, double a, double b) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

// Jobs submitted and not completed, summed over measured reps: the
// benchmark's operations attempted and failed.
struct JobTally {
  std::int64_t submitted = 0;
  std::int64_t failed = 0;

  void Add(const SimulationMetrics& m, std::size_t trace_jobs, Checks& checks) {
    submitted += static_cast<std::int64_t>(trace_jobs);
    failed += static_cast<std::int64_t>(trace_jobs) - m.jobs_completed;
    checks.Expect(m.jobs_submitted == static_cast<std::int64_t>(trace_jobs) &&
                      m.jobs_completed == m.jobs_submitted,
                  "every_job_completes",
                  Format("%.0f of %.0f", static_cast<double>(m.jobs_completed),
                         static_cast<double>(trace_jobs)));
  }
};

// Simulated outcomes must match bit for bit between two replays of one trace.
bool SameOutcome(const SimulationMetrics& a, const SimulationMetrics& b) {
  return a.total_cost == b.total_cost && a.avg_jct_hours == b.avg_jct_hours &&
         a.events_processed == b.events_processed &&
         a.scheduling_rounds == b.scheduling_rounds &&
         a.rounds_coalesced == b.rounds_coalesced && a.jobs_completed == b.jobs_completed &&
         a.acquisitions_denied == b.acquisitions_denied;
}

// Runs `rep` once, then again until another one would overrun `seconds`.
// `rep` returns the seconds it counts against the budget.
template <typename Rep>
void RepeatWithinBudget(double seconds, Rep rep) {
  double used = 0.0;
  for (;;) {
    const double last = rep();
    used += last;
    if (used + last > seconds) {
      break;
    }
  }
}

// Decision-layer replay timings on real round contexts (see ReplayProbe);
// all zero on federations.
struct ReplayTimes {
  double contexts = 0, tnrp_us_p50 = 0, diff_us_p50 = 0, full_us_p50 = 0, full_us_p99 = 0,
         partial_us_p50 = 0;

  void AddTo(MetricSet& m) const {
    m.Add("sched.replay.contexts", "count", contexts);
    m.Add("sched.replay.tnrp_us_p50", "us", tnrp_us_p50);
    m.Add("sched.replay.diff_us_p50", "us", diff_us_p50);
    m.Add("core.replay.full_us_p50", "us", full_us_p50);
    m.Add("core.replay.full_us_p99", "us", full_us_p99);
    m.Add("core.replay.partial_us_p50", "us", partial_us_p50);
  }
};

// The per-layer metric list: one field per metric, all zero where the layer
// is not reachable on a workload (e.g. cloud.* with the provider off).
struct LayerSample {
  double trace_gen_s = 0, derive_s = 0;
  double events = 0, wall_s = 0, advance_s = 0, round_s = 0, rounds = 0, rounds_coalesced = 0;
  double sched_calls = 0, decide_s = 0, observe_s = 0, coalesce_offers = 0,
         coalesce_absorbed = 0, context_tasks_p50 = 0, context_tasks_max = 0;
  double memo_hit_ratio = 0, memo_miss_table = 0, memo_miss_context = 0,
         full_adopted_ratio = 0;
  double packs_full = 0, packs_incremental = 0, packs_escalated = 0, reconciliations = 0,
         escalations = 0, fallbacks = 0;
  double granted = 0, denied = 0, preempted = 0, spot_cost_share = 0, fault_denied = 0,
         instances_killed = 0, tasks_lost = 0, goodput = 0, replace_p95_s = 0;
  double barriers = 0, round_groups = 0, serial_share = 0, fed_setup_s = 0, fed_advance_s = 0,
         fed_round_s = 0, fed_sched_s = 0, wall_1thread_s = 0;
  double allocs = 0;
  // The tracing overhead compares two spans from Simulator construction
  // through Finish: the untraced RunSimulation and the traced stepping run.
  double untraced_wall_s = 0, traced_total_s = 0;

  void AddTo(MetricSet& m) const {
    m.Add("workload.trace_gen_s", "s", trace_gen_s);
    m.Add("workload.derive_s", "s", derive_s);
    m.Add("sim.events", "count", events);
    m.Add("sim.events_per_s", "1/s", Ratio(events, untraced_wall_s));
    m.Add("sim.host_ns_per_event", "ns", 1e9 * Ratio(untraced_wall_s, events));
    m.Add("sim.advance_s", "s", advance_s);
    m.Add("sim.round_s", "s", round_s);
    m.Add("sim.round_overhead_s", "s", round_s - decide_s - observe_s);
    m.Add("sim.rounds", "count", rounds);
    m.Add("sim.rounds_coalesced", "count", rounds_coalesced);
    m.Add("sim.coalesce_ratio", "ratio", Ratio(rounds_coalesced, rounds));
    m.Add("sched.calls", "count", sched_calls);
    m.Add("sched.decide_s", "s", decide_s);
    m.Add("sched.decide_share", "ratio", Ratio(decide_s, wall_s));
    m.Add("sched.observe_s", "s", observe_s);
    m.Add("sched.coalesce_offers", "count", coalesce_offers);
    m.Add("sched.coalesce_absorbed", "count", coalesce_absorbed);
    m.Add("sched.context_tasks_p50", "count", context_tasks_p50);
    m.Add("sched.context_tasks_max", "count", context_tasks_max);
    m.Add("core.memo_hit_ratio", "ratio", memo_hit_ratio);
    m.Add("core.memo_miss_table", "count", memo_miss_table);
    m.Add("core.memo_miss_context", "count", memo_miss_context);
    m.Add("core.full_adopted_ratio", "ratio", full_adopted_ratio);
    m.Add("core.packs_full", "count", packs_full);
    m.Add("core.packs_incremental", "count", packs_incremental);
    m.Add("core.packs_escalated", "count", packs_escalated);
    m.Add("core.incremental_ratio", "ratio",
          Ratio(packs_incremental, packs_full + packs_incremental + packs_escalated));
    m.Add("core.reconciliations", "count", reconciliations);
    m.Add("core.escalations", "count", escalations);
    m.Add("core.fallbacks", "count", fallbacks);
    m.Add("cloud.acquire_attempts", "count", granted + denied);
    m.Add("cloud.granted", "count", granted);
    m.Add("cloud.denied", "count", denied);
    m.Add("cloud.grant_ratio", "ratio", Ratio(granted, granted + denied));
    m.Add("cloud.denials_per_grant", "ratio", Ratio(denied, granted));
    m.Add("cloud.preempted", "count", preempted);
    m.Add("cloud.spot_cost_share", "ratio", spot_cost_share);
    m.Add("cloud.fault_denied", "count", fault_denied);
    m.Add("cloud.faults.instances_killed", "count", instances_killed);
    m.Add("cloud.faults.tasks_lost", "count", tasks_lost);
    m.Add("cloud.faults.goodput", "ratio", goodput);
    m.Add("cloud.faults.replace_p95_s", "s", replace_p95_s);
    m.Add("fed.barriers", "count", barriers);
    m.Add("fed.round_groups", "count", round_groups);
    m.Add("fed.groups_per_barrier", "ratio", Ratio(round_groups, barriers));
    m.Add("fed.serial_share", "ratio", serial_share);
    m.Add("fed.setup_s", "s", fed_setup_s);
    m.Add("fed.advance_s", "s", fed_advance_s);
    m.Add("fed.round_s", "s", fed_round_s);
    m.Add("fed.sched_s", "s", fed_sched_s);
    m.Add("fed.wall_1thread_s", "s", wall_1thread_s);
    m.Add("fed.thread_scaling_x", "x", Ratio(wall_1thread_s, wall_s));
    m.Add("mem.allocs", "count", allocs);
    m.Add("mem.allocs_per_event", "ratio", Ratio(allocs, events));
    m.Add("trace.overhead_ratio", "ratio",
          traced_total_s > 0 ? Ratio(traced_total_s, untraced_wall_s) - 1.0 : 0.0);
  }
};

void AddCounters(LayerSample& s, const SchedulerCounters& c) {
  s.packs_full += c.packs_full;
  s.packs_incremental += c.packs_incremental;
  s.packs_escalated += c.packs_escalated;
  s.reconciliations += c.reconciliations;
  s.escalations += c.escalations;
  s.fallbacks += c.fallback_incomplete_delta + c.fallback_oversized_delta +
                 c.fallback_no_previous;
}

// --- Single-simulator workloads ---------------------------------------------

class SingleSimWorkload {
 public:
  explicit SingleSimWorkload(const Args& args)
      : args_(args),
        interference_(InterferenceModel::Measured()),
        catalog_(InstanceCatalog::AwsDefault()) {}

  void Run(MetricSet& metrics, Checks& checks, JobTally& tally) {
    for (int i = 0; i < args_.workload->warmup_reps; ++i) {
      RunEndToEnd(nullptr);
    }
    if (!args_.traced) {
      RepeatWithinBudget(args_.seconds, [&] {
        CheckOutcome(RunEndToEnd(&metrics), checks, tally);
        return last_wall_s_;
      });
      for (int i = 0; i < kSetupSamples; ++i) {
        RunEndToEnd(&metrics, /*replay=*/false);
      }
      metrics.Add("peak_rss_mb", "MB", PeakRssMb());
      return;
    }
    // Traced pass. A first traced run keeps contexts for the replay probe;
    // it is not one of the pairs below, so copying them does not count as
    // tracing overhead, but its time counts against the budget.
    LayerSample probe;
    StartOnNextCpu();
    RunTraced(probe, /*probe=*/true);
    replay_.AddTo(metrics);
    // Then pairs of one untraced RunSimulation and one traced stepping run,
    // alternating which goes first. Both runs count allocations, so the
    // counter's cost cancels out of the overhead.
    CountAllocations(true);
    int pair = 0;
    RepeatWithinBudget(args_.seconds - probe.traced_total_s, [&] {
      LayerSample sample;
      SimulationMetrics reference;
      const bool untraced_first = pair++ % 2 == 0;
      StartOnNextCpu();
      if (untraced_first) {
        reference = RunUntraced(sample);
        StartOnNextCpu(/*same_cpu=*/true);
      }
      const SimulationMetrics traced = RunTraced(sample, /*probe=*/false);
      if (!untraced_first) {
        StartOnNextCpu(/*same_cpu=*/true);
        reference = RunUntraced(sample);
      }
      checks.Expect(SameOutcome(traced, reference), "stepping_matches_run_simulation");
      checks.Expect(sample.advance_s + sample.round_s <= sample.wall_s &&
                        sample.advance_s + sample.round_s >= 0.95 * sample.wall_s,
                    "layer_walls_close",
                    Format("advance+round %.6f s of %.6f s", sample.advance_s + sample.round_s,
                           sample.wall_s));
      checks.Expect(sample.decide_s + sample.observe_s <= sample.round_s, "decide_within_round");
      CheckOutcome(reference, checks, tally);
      sample.AddTo(metrics);
      return sample.traced_total_s + sample.untraced_wall_s;
    });
    CountAllocations(false);
  }

 private:
  Trace MakeTrace(double* trace_gen_s, double* derive_s) {
    const auto start = Clock::now();
    Trace trace = MakeBaseTrace(args_);
    const auto generated = Clock::now();
    if (args_.jobs() != static_cast<int>(trace.jobs.size())) {
      TraceScaleOptions scale;
      scale.target_jobs = args_.jobs();
      scale.seed = 23;
      trace = ScaleTrace(trace, scale);
    }
    JitterArrivals(args_.seed, {&trace});
    *trace_gen_s = Seconds(generated - start);
    *derive_s = Seconds(Clock::now() - generated);
    trace_jobs_ = trace.jobs.size();
    return trace;
  }

  // One end-to-end rep; `metrics` null for warm-up. With `replay` false it
  // times the setup alone: trace generation and derivation, scheduler and
  // Simulator construction, Start.
  SimulationMetrics RunEndToEnd(MetricSet* metrics, bool replay = true) {
    StartOnNextCpu();
    const auto start = Clock::now();
    double trace_gen_s = 0.0;
    double derive_s = 0.0;
    const Trace trace = MakeTrace(&trace_gen_s, &derive_s);
    SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference_);
    TimedScheduler timed(bundle.scheduler.get(), /*traced=*/false, /*probe=*/false);
    Simulator simulator(trace, &timed, catalog_, interference_, SimulatorOptions{});
    simulator.Start();
    const auto started = Clock::now();
    if (!replay) {
      metrics->Add("setup_s", "s", Seconds(started - start));
      return {};
    }
    simulator.ProcessEventsThrough(kInf);
    const SimulationMetrics m = simulator.Finish();
    last_wall_s_ = Seconds(Clock::now() - started);
    if (metrics == nullptr) {
      return m;
    }
    metrics->Add("wall_s", "s", last_wall_s_);
    metrics->Add("round_p50_us", "us", Quantile(timed.latency_us(), 0.5));
    metrics->Add("round_p99_us", "us", Quantile(timed.latency_us(), 0.99));
    metrics->Add("cost_usd", "USD", m.total_cost);
    metrics->Add("jct_mean_h", "h", m.avg_jct_hours);
    metrics->Add("jct_p99_h", "h", Quantile(m.jct_hours, 0.99));
    return m;
  }

  // Every job completes, and at the default seed alibaba2k reproduces Eva's
  // golden exact-packing cost and JCT (BENCH_scheduler_perf.json,
  // quality_alibaba2000).
  void CheckOutcome(const SimulationMetrics& m, Checks& checks, JobTally& tally) const {
    tally.Add(m, trace_jobs_, checks);
    if (args_.golden()) {
      checks.Expect(std::llround(m.total_cost * 1e4) == 227934605 &&
                        std::llround(m.avg_jct_hours * 1e6) == 2596144,
                    "golden_cost_and_jct",
                    Format("cost %.4f, jct %.6f h", m.total_cost, m.avg_jct_hours));
    }
  }

  // Untraced reference for the traced pass: plain RunSimulation, timed the
  // same way as the traced run (construction through Finish).
  SimulationMetrics RunUntraced(LayerSample& sample) {
    const Trace trace = MakeTrace(&sample.trace_gen_s, &sample.derive_s);
    SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference_);
    const double allocs_before = Allocations();
    const auto start = Clock::now();
    const SimulationMetrics m = RunSimulation(trace, bundle.scheduler.get(), catalog_,
                                              interference_, SimulatorOptions{});
    sample.untraced_wall_s = Seconds(Clock::now() - start);
    sample.allocs = Allocations() - allocs_before;
    return m;
  }

  // The traced run: RunFederation's stepping loop on one simulator,
  // splitting wall time between AdvanceUntil and ProcessEventsThrough. With
  // `probe` it also keeps contexts and runs the replay probe on them.
  SimulationMetrics RunTraced(LayerSample& sample, bool probe) {
    const Trace trace = MakeTrace(&sample.trace_gen_s, &sample.derive_s);
    SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference_);
    TimedScheduler timed(bundle.scheduler.get(), /*traced=*/true, probe);
    const auto start = Clock::now();
    Simulator simulator(trace, &timed, catalog_, interference_, SimulatorOptions{});
    simulator.Start();
    const auto started = Clock::now();
    while (!simulator.Drained()) {
      const SimTime round = simulator.NextRoundTime();
      const auto advance_start = Clock::now();
      simulator.AdvanceUntil(round);
      const auto advanced = Clock::now();
      sample.advance_s += Seconds(advanced - advance_start);
      if (round != kInf) {
        simulator.ProcessEventsThrough(round);
        sample.round_s += Seconds(Clock::now() - advanced);
      }
    }
    const SimulationMetrics m = simulator.Finish();
    const auto finished = Clock::now();
    sample.wall_s = Seconds(finished - started);
    sample.traced_total_s = Seconds(finished - start);

    sample.events = static_cast<double>(m.events_processed);
    sample.rounds = static_cast<double>(m.scheduling_rounds);
    sample.rounds_coalesced = static_cast<double>(m.rounds_coalesced);
    sample.sched_calls = static_cast<double>(timed.latency_us().size());
    for (const double us : timed.latency_us()) {
      sample.decide_s += us * 1e-6;
    }
    sample.observe_s = timed.observe_s();
    sample.coalesce_offers = static_cast<double>(timed.coalesce_offers());
    sample.coalesce_absorbed = static_cast<double>(timed.coalesce_absorbed());
    sample.context_tasks_p50 = Quantile(timed.context_tasks(), 0.5);
    sample.context_tasks_max = Quantile(timed.context_tasks(), 1.0);
    const EvaScheduler::Stats& stats = bundle.eva->stats();
    sample.memo_hit_ratio = Ratio(stats.rounds_reused, stats.rounds);
    sample.memo_miss_table = stats.reuse_miss_table;
    sample.memo_miss_context = stats.reuse_miss_context;
    sample.full_adopted_ratio = Ratio(stats.full_adopted, stats.rounds);
    AddCounters(sample, m.scheduler_counters);
    if (probe) {
      replay_ = ReplayProbe(timed.kept(), *bundle.eva);
    }
    return m;
  }

  // Decision-layer replay: times the packing building blocks on real round
  // contexts while the scheduler (and its learned throughput table) is
  // still alive.
  static ReplayTimes ReplayProbe(const std::vector<SchedulingContext>& contexts,
                                 const EvaScheduler& eva) {
    std::vector<double> tnrp_us, full_us, partial_us, diff_us;
    std::size_t sink = 0;
    for (const SchedulingContext& context : contexts) {
      const auto start = Clock::now();
      const TnrpCalculator calculator(context, EvaOptions{}.tnrp, &eva.throughput_table());
      const auto built = Clock::now();
      const ClusterConfig full = FullReconfiguration(context, calculator);
      const auto packed = Clock::now();
      const ClusterConfig partial = PartialReconfiguration(context, calculator);
      const auto repacked = Clock::now();
      const ConfigDiff diff = DiffConfig(context, full);
      const auto diffed = Clock::now();
      sink += full.instances.size() + partial.instances.size() + diff.moves.size();
      tnrp_us.push_back(Micros(built - start));
      full_us.push_back(Micros(packed - built));
      partial_us.push_back(Micros(repacked - packed));
      diff_us.push_back(Micros(diffed - repacked));
    }
    g_sink = g_sink + sink;  // Keeps the packing results observable.
    ReplayTimes times;
    times.contexts = static_cast<double>(contexts.size());
    times.tnrp_us_p50 = Quantile(tnrp_us, 0.5);
    times.diff_us_p50 = Quantile(diff_us, 0.5);
    times.full_us_p50 = Quantile(full_us, 0.5);
    times.full_us_p99 = Quantile(full_us, 0.99);
    times.partial_us_p50 = Quantile(partial_us, 0.5);
    return times;
  }

  const Args& args_;
  const InterferenceModel interference_;
  const InstanceCatalog catalog_;
  std::size_t trace_jobs_ = 0;
  double last_wall_s_ = 0.0;
  ReplayTimes replay_;
};

// --- Federated workloads -----------------------------------------------------

class FederatedWorkload {
 public:
  explicit FederatedWorkload(const Args& args) : args_(args) {}

  void Run(MetricSet& metrics, Checks& checks, JobTally& tally) {
    const int threads = ThreadPool::DefaultThreads();
    if (!args_.traced) {
      RepeatWithinBudget(args_.seconds, [&] {
        const Rep rep = RunOnce(threads);
        metrics.Add("wall_s", "s", rep.wall_s);
        // RunFederation builds its tenants' schedulers itself, so decision
        // latency comes from each tenant's own scheduler clock: the mean
        // host time per invoked round, distributed across tenants.
        std::vector<double> tenant_round_us;
        std::vector<double> jct_hours;
        double cost = 0.0;
        for (const FederationResult::Tenant& tenant : rep.result.tenants) {
          const SimulationMetrics& m = tenant.metrics;
          tenant_round_us.push_back(
              1e6 * Ratio(m.scheduler_wall_seconds,
                          static_cast<double>(m.scheduling_rounds - m.rounds_coalesced)));
          cost += m.total_cost;
          jct_hours.insert(jct_hours.end(), m.jct_hours.begin(), m.jct_hours.end());
          tally.Add(m, static_cast<std::size_t>(args_.jobs()), checks);
        }
        metrics.Add("round_p50_us", "us", Quantile(tenant_round_us, 0.5));
        metrics.Add("round_p99_us", "us", Quantile(tenant_round_us, 0.99));
        metrics.Add("cost_usd", "USD", cost);
        metrics.Add("jct_mean_h", "h", Mean(jct_hours));
        metrics.Add("jct_p99_h", "h", Quantile(jct_hours, 0.99));
        return rep.wall_s;
      });
      // Setup is what runs before RunFederation: trace generation, sharding
      // and jitter. RunFederation's own setup (tenant schedulers and
      // simulators, Start) cannot run alone, so it counts in wall_s and
      // shows as fed.setup_s in the traced pass.
      for (int i = 0; i < kSetupSamples; ++i) {
        const Tenants tenants = MakeTenants();
        metrics.Add("setup_s", "s", tenants.trace_gen_s + tenants.derive_s);
      }
      metrics.Add("peak_rss_mb", "MB", PeakRssMb());
      return;
    }
    // Traced pass: the pooled run's own statistics, plus a serial rerun for
    // thread scaling and the pool-size invariance check. Only the serial
    // run counts allocations: in the pooled run the shared counter would
    // slow the wall that fed.thread_scaling_x divides by.
    RepeatWithinBudget(args_.seconds, [&] {
      const Rep pooled = RunOnce(threads);
      CountAllocations(true);
      const Rep serial = RunOnce(1);
      CountAllocations(false);
      CheckPoolSizeInvariance(pooled.result, serial.result, checks);
      LayerSample sample;
      sample.trace_gen_s = pooled.tenants.trace_gen_s;
      sample.derive_s = pooled.tenants.derive_s;
      sample.wall_s = pooled.wall_s;
      sample.untraced_wall_s = pooled.wall_s;
      sample.wall_1thread_s = serial.wall_s;
      sample.allocs = serial.allocs;
      const FederationStats& stats = pooled.result.stats;
      sample.advance_s = sample.fed_advance_s = stats.advance_wall_s;
      sample.round_s = sample.fed_round_s = stats.round_wall_s;
      sample.fed_setup_s = stats.setup_wall_s;
      sample.barriers = static_cast<double>(stats.barriers);
      sample.round_groups = static_cast<double>(stats.round_groups);
      sample.serial_share = stats.SerialShare();
      double cost = 0.0;
      double spot_cost = 0.0;
      std::vector<double> goodput;
      std::vector<double> replace_p95;
      for (const FederationResult::Tenant& tenant : pooled.result.tenants) {
        const SimulationMetrics& m = tenant.metrics;
        tally.Add(m, static_cast<std::size_t>(args_.jobs()), checks);
        sample.events += static_cast<double>(m.events_processed);
        sample.rounds += static_cast<double>(m.scheduling_rounds);
        sample.rounds_coalesced += static_cast<double>(m.rounds_coalesced);
        sample.sched_calls += static_cast<double>(m.scheduling_rounds - m.rounds_coalesced);
        // The tenant's scheduler clock covers ObserveThroughput too.
        sample.decide_s += m.scheduler_wall_seconds;
        sample.coalesce_absorbed += static_cast<double>(m.rounds_coalesced);
        AddCounters(sample, m.scheduler_counters);
        cost += m.total_cost;
        spot_cost += m.spot_cost;
        sample.instances_killed += static_cast<double>(m.faults.instances_killed);
        sample.tasks_lost += static_cast<double>(m.faults.tasks_lost);
        goodput.push_back(m.faults.goodput_ratio);
        if (m.faults.replacements_completed > 0) {
          replace_p95.push_back(m.faults.replacement_latency_p95_s);
        }
      }
      sample.fed_sched_s = sample.decide_s;
      const CloudProviderMetrics& provider = pooled.result.provider;
      sample.granted = static_cast<double>(provider.TotalGranted());
      sample.denied = static_cast<double>(provider.TotalDenied());
      sample.preempted = static_cast<double>(provider.TotalPreempted());
      for (const CloudProviderMetrics::Family& family : provider.families) {
        sample.fault_denied += static_cast<double>(family.fault_denied);
      }
      sample.spot_cost_share = Ratio(spot_cost, cost);
      sample.goodput = Quantile(goodput, 0.5);
      sample.replace_p95_s = Quantile(replace_p95, 0.5);
      sample.AddTo(metrics);
      return pooled.wall_s + serial.wall_s;
    });
    ReplayTimes{}.AddTo(metrics);  // RunFederation's schedulers are out of reach.
  }

 private:
  struct Tenants {
    std::vector<FederationTenant> tenants;
    double trace_gen_s = 0.0;
    double derive_s = 0.0;  // Sharding and jitter.
  };

  struct Rep {
    Tenants tenants;
    double wall_s = 0.0;  // RunFederation, its own setup included.
    double allocs = 0.0;
    FederationResult result;
  };

  // Starts a setup sample or a rep (see StartOnNextCpu).
  Tenants MakeTenants() const {
    StartOnNextCpu();
    Tenants out;
    const auto start = Clock::now();
    const Trace base = MakeBaseTrace(args_);
    const auto generated = Clock::now();
    out.tenants = MakeTenantShards(base, args_.tenants(), args_.jobs());
    std::vector<Trace*> traces;
    for (FederationTenant& tenant : out.tenants) {
      traces.push_back(&tenant.trace);
    }
    JitterArrivals(args_.seed, traces);
    const auto sharded = Clock::now();
    out.trace_gen_s = Seconds(generated - start);
    out.derive_s = Seconds(sharded - generated);
    return out;
  }

  Rep RunOnce(int threads) {
    Rep rep;
    rep.tenants = MakeTenants();
    const FederationOptions options = MakeFederationOptions(*args_.workload, threads);
    const double allocs_before = Allocations();
    const auto start = Clock::now();
    rep.result = RunFederation(rep.tenants.tenants, options);
    const auto finished = Clock::now();
    rep.allocs = Allocations() - allocs_before;
    rep.wall_s = Seconds(finished - start);
    return rep;
  }

  static void CheckPoolSizeInvariance(const FederationResult& pooled,
                                      const FederationResult& serial, Checks& checks) {
    bool same = pooled.tenants.size() == serial.tenants.size() &&
                pooled.provider.TotalGranted() == serial.provider.TotalGranted() &&
                pooled.provider.TotalDenied() == serial.provider.TotalDenied();
    for (std::size_t i = 0; same && i < pooled.tenants.size(); ++i) {
      same = SameOutcome(pooled.tenants[i].metrics, serial.tenants[i].metrics);
    }
    checks.Expect(same, "bit_identical_at_1_thread");
  }

  const Args& args_;
};

// --- Command line ------------------------------------------------------------

int Usage(const char* message) {
  std::fprintf(stderr,
               "eva_bench: %s\nusage: eva_bench --workload <name> [--seed S] "
               "[--seconds T] [--traced] [--smoke]\nworkloads:",
               message);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--traced") {
      args.traced = true;
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) {
          args.workload = &w;
        }
      }
      if (args.workload == nullptr) {
        return Usage(("unknown workload " + name).c_str());
      }
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else {
      return Usage(("bad argument " + flag).c_str());
    }
  }
  if (args.workload == nullptr) {
    return Usage("--workload is required");
  }
  if (args.seconds < 0.0) {
    return Usage("--seconds must be >= 0");
  }

  MetricSet metrics;
  Checks checks;
  JobTally tally;
  if (args.workload->federated) {
    FederatedWorkload(args).Run(metrics, checks, tally);
  } else {
    SingleSimWorkload(args).Run(metrics, checks, tally);
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"traced\": %s, \"smoke\": %s, \"threads\": %d, \"correct\": %s, "
              "\"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"checks\": %s, \"metrics\": %s}\n",
              args.workload->name, args.seed, args.traced ? "true" : "false",
              args.smoke ? "true" : "false", ThreadPool::DefaultThreads(),
              checks.AllPassed() ? "true" : "false", tally.submitted, tally.failed,
              checks.ToJson().c_str(), metrics.ToJson().c_str());
  return checks.AllPassed() ? 0 : 1;
}
