#include "src/obs/publish.h"

#include <cstdint>
#include <string>

#include "src/obs/stat_schema.h"
#include "src/sim/federation.h"
#include "src/sim/metrics.h"

namespace eva {
namespace {

// One field, under "<prefix>.<name>" and its kind. Kept out of line so the
// per-field calls a field list expands to stay small. Counters pass through
// the double exactly: every tally is far below 2^53.
void PublishField(TelemetryRegistry* registry, const char* prefix, const char* name,
                  StatKind kind, double value) {
  const std::string key = std::string(prefix) + "." + name;
  if (kind == StatKind::kCounter) {
    registry->SetCounter(key, static_cast<std::int64_t>(value));
  } else {
    registry->SetGauge(key, value);
  }
}

// Every field of `stats` under its kind. A tenant-merged struct (`merged`)
// skips its kLast fields, whose merged value is only the last tenant's.
template <typename Stats>
void PublishStats(const Stats& stats, TelemetryRegistry* registry, bool merged) {
  Stats::ForEachStat([&](const char* name, StatKind kind, StatMerge merge, auto member) {
    if (merged && merge == StatMerge::kLast) return;
    PublishField(registry, Stats::kStatPrefix, name, kind, static_cast<double>(stats.*member));
  });
}

void PublishRun(const SimulationMetrics& metrics, TelemetryRegistry* registry,
                bool merged) {
  PublishStats(metrics, registry, merged);
  PublishStats(metrics.scheduler_counters, registry, merged);
  PublishStats(metrics.faults, registry, merged);
}

}  // namespace

void PublishSimulationMetrics(const SimulationMetrics& metrics,
                              TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  PublishRun(metrics, registry, /*merged=*/false);
}

void MergeSimulationMetrics(const SimulationMetrics& from, SimulationMetrics& into) {
  MergeStats(from, into);
  MergeStats(from.scheduler_counters, into.scheduler_counters);
  MergeStats(from.faults, into.faults);
}

void PublishFederationResult(const FederationResult& result,
                             TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  PublishStats(result.stats, registry, /*merged=*/false);
  // Derived, not a field: a pure ratio of two counts.
  registry->SetGauge("federation.serial_share", result.stats.SerialShare());
  SimulationMetrics fleet;
  for (const FederationResult::Tenant& tenant : result.tenants) {
    MergeSimulationMetrics(tenant.metrics, fleet);
  }
  PublishRun(fleet, registry, /*merged=*/true);
}

}  // namespace eva
