// The stat structs' field lists (obs/stat_schema.h) drive registry
// publication and cross-tenant merges. These tests set every field to a
// distinct value and check both, plus every registry name the per-field
// publishers exported before the lists replaced them.

#include "src/obs/stat_schema.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/obs/publish.h"
#include "src/obs/registry.h"
#include "src/sim/federation.h"
#include "src/sim/metrics.h"

namespace eva {
namespace {

// Field i gets seed + i, plus 0.5 for gauges: distinct across the struct
// and from every default.
template <typename Stats>
Stats Distinct(double seed) {
  Stats stats;
  int index = 0;
  Stats::ForEachStat([&](const char*, StatKind kind, StatMerge, auto member) {
    using Field = std::decay_t<decltype(stats.*member)>;
    stats.*member =
        static_cast<Field>(seed + index++ + (kind == StatKind::kGauge ? 0.5 : 0.0));
  });
  return stats;
}

template <typename Stats>
std::string Key(const char* name) {
  return std::string(Stats::kStatPrefix) + "." + name;
}

// Every field is in `registry` under its own kind and only there.
template <typename Stats>
void ExpectPublishedUnderKind(const Stats& stats, const TelemetryRegistry& registry) {
  Stats::ForEachStat([&](const char* name, StatKind kind, StatMerge, auto member) {
    const std::string key = Key<Stats>(name);
    const double value = static_cast<double>(stats.*member);
    if (kind == StatKind::kCounter) {
      EXPECT_EQ(registry.CounterValue(key), static_cast<std::int64_t>(value)) << key;
      EXPECT_EQ(registry.GaugeValue(key), 0.0) << key << " is also a gauge";
    } else {
      EXPECT_EQ(registry.GaugeValue(key), value) << key;
      EXPECT_EQ(registry.CounterValue(key), 0) << key << " is also a counter";
    }
  });
}

TEST(ObsStatSchemaTest, EveryFieldPublishesUnderItsKind) {
  SimulationMetrics metrics = Distinct<SimulationMetrics>(1);
  metrics.scheduler_counters = Distinct<SchedulerCounters>(101);
  metrics.faults = Distinct<FaultStats>(201);
  TelemetryRegistry registry;
  PublishSimulationMetrics(metrics, &registry);
  ExpectPublishedUnderKind(metrics, registry);
  ExpectPublishedUnderKind(metrics.scheduler_counters, registry);
  ExpectPublishedUnderKind(metrics.faults, registry);

  FederationResult result;
  result.stats = Distinct<FederationStats>(301);
  TelemetryRegistry federation;
  PublishFederationResult(result, &federation);
  ExpectPublishedUnderKind(result.stats, federation);
}

// `merged` folded `first` then `second` (both distinct) into a default
// struct: each field must follow its own rule. `second` is smaller field
// for field, so the three rules give three different values.
template <typename Stats>
void ExpectMergeRules(const Stats& first, const Stats& second, const Stats& merged) {
  const Stats fresh;
  Stats::ForEachStat([&](const char* name, StatKind, StatMerge merge, auto member) {
    const double initial = static_cast<double>(fresh.*member);
    const double a = static_cast<double>(first.*member);
    const double b = static_cast<double>(second.*member);
    ASSERT_GT(a, b) << name;
    double expected = b;  // kLast.
    if (merge == StatMerge::kSum) expected = initial + a + b;
    if (merge == StatMerge::kMax) expected = std::max({initial, a, b});
    EXPECT_EQ(static_cast<double>(merged.*member), expected) << Key<Stats>(name);
  });
}

template <typename Stats>
void ExpectMergeFollowsRules() {
  const Stats first = Distinct<Stats>(1000);
  const Stats second = Distinct<Stats>(1);
  Stats merged;
  MergeStats(first, merged);
  MergeStats(second, merged);
  ExpectMergeRules(first, second, merged);
}

TEST(ObsStatSchemaTest, TenantMergesFollowEachFieldsRule) {
  ExpectMergeFollowsRules<SchedulerCounters>();
  ExpectMergeFollowsRules<FaultStats>();
  ExpectMergeFollowsRules<SimulationMetrics>();
  ExpectMergeFollowsRules<FederationStats>();
}

// The fleet export merges the tenants' nested groups too, and leaves out
// every kLast field: its merged value would only be the last tenant's.
TEST(ObsStatSchemaTest, FleetExportMergesTenantsAndSkipsLastValueFields) {
  FederationResult result;
  for (const double seed : {1000.0, 1.0}) {
    FederationResult::Tenant tenant;
    tenant.metrics = Distinct<SimulationMetrics>(seed);
    tenant.metrics.scheduler_counters = Distinct<SchedulerCounters>(seed + 100);
    tenant.metrics.faults = Distinct<FaultStats>(seed + 200);
    result.tenants.push_back(tenant);
  }
  result.stats = Distinct<FederationStats>(7);

  SimulationMetrics fleet;
  for (const FederationResult::Tenant& tenant : result.tenants) {
    MergeSimulationMetrics(tenant.metrics, fleet);
  }
  const SimulationMetrics& first = result.tenants[0].metrics;
  const SimulationMetrics& second = result.tenants[1].metrics;
  ExpectMergeRules(first, second, fleet);
  ExpectMergeRules(first.scheduler_counters, second.scheduler_counters,
                   fleet.scheduler_counters);
  ExpectMergeRules(first.faults, second.faults, fleet.faults);

  TelemetryRegistry registry;
  PublishFederationResult(result, &registry);
  ExpectPublishedUnderKind(result.stats, registry);
  EXPECT_EQ(registry.GaugeValue("federation.serial_share"), result.stats.SerialShare());
  const auto expect_fleet = [&registry](const auto& merged) {
    using Stats = std::decay_t<decltype(merged)>;
    Stats::ForEachStat([&](const char* name, StatKind kind, StatMerge merge, auto member) {
      const std::string key = Key<Stats>(name);
      const double published = kind == StatKind::kCounter
                                   ? static_cast<double>(registry.CounterValue(key))
                                   : registry.GaugeValue(key);
      const double expected =
          merge == StatMerge::kLast ? 0.0 : static_cast<double>(merged.*member);
      EXPECT_EQ(published, expected) << key;
    });
  };
  expect_fleet(fleet);
  expect_fleet(fleet.scheduler_counters);
  expect_fleet(fleet.faults);
}

// Every name the hand-written publishers exported, with its kind. Fields
// may be added; none of these may disappear or change kind.
TEST(ObsStatSchemaTest, EveryRegistryNameExportedBeforeTheFieldListsStillIs) {
  const std::vector<std::string> counters = {
      "scheduler.packs_full",
      "scheduler.packs_incremental",
      "scheduler.packs_escalated",
      "scheduler.reconciliations",
      "scheduler.escalations",
      "scheduler.fallback_incomplete_delta",
      "scheduler.fallback_oversized_delta",
      "scheduler.fallback_no_previous",
      "scheduler.last_divergence_edits",
      "scheduler.max_divergence_edits",
      "scheduler.max_kept_staleness",
      "faults.zone_outages",
      "faults.correlated_failures",
      "faults.maintenance_drains",
      "faults.instances_killed",
      "faults.instances_drained",
      "faults.tasks_evicted",
      "faults.tasks_lost",
      "faults.replacements_completed",
      "sim.jobs_submitted",
      "sim.jobs_completed",
      "sim.tasks_total",
      "sim.instances_launched",
      "sim.task_migrations",
      "sim.scheduling_rounds",
      "sim.rounds_coalesced",
      "sim.events_processed",
      "sim.acquisitions_denied",
      "sim.spot_instances_launched",
      "sim.spot_preemptions",
      "federation.barriers",
      "federation.advance_participants",
      "federation.round_participants",
      "federation.round_groups",
      "federation.largest_group_participants",
  };
  const std::vector<std::string> gauges = {
      "scheduler.last_divergence_cost",
      "scheduler.max_divergence_cost",
      "faults.lost_work_seconds",
      "faults.replacement_latency_min_s",
      "faults.replacement_latency_median_s",
      "faults.replacement_latency_p95_s",
      "faults.goodput_ratio",
      "sim.total_cost",
      "sim.spot_cost",
      "sim.avg_jct_hours",
      "sim.avg_job_idle_hours",
      "sim.avg_tasks_per_instance",
      "sim.avg_norm_job_throughput",
      "sim.makespan_s",
      "federation.serial_share",
  };

  // Every published value is nonzero, so a zero read means "absent".
  SimulationMetrics metrics = Distinct<SimulationMetrics>(1);
  metrics.scheduler_counters = Distinct<SchedulerCounters>(101);
  metrics.faults = Distinct<FaultStats>(201);
  TelemetryRegistry run;
  PublishSimulationMetrics(metrics, &run);
  FederationResult result;
  result.stats = Distinct<FederationStats>(301);
  TelemetryRegistry fleet;
  PublishFederationResult(result, &fleet);

  const auto registry_for = [&](const std::string& name) -> const TelemetryRegistry& {
    return name.rfind("federation.", 0) == 0 ? fleet : run;
  };
  for (const std::string& name : counters) {
    EXPECT_NE(registry_for(name).CounterValue(name), 0) << name;
  }
  for (const std::string& name : gauges) {
    EXPECT_NE(registry_for(name).GaugeValue(name), 0.0) << name;
  }
}

}  // namespace
}  // namespace eva
