// A run's registry export, assembled from the stat structs' field lists
// (obs/stat_schema.h).
//
// SimulationMetrics nests SchedulerCounters and FaultStats, and a
// federation adds FederationStats; these helpers publish and merge the
// nesting, so every bench driver emits one uniform, sorted schema.
// Publishing is idempotent (SetCounter/SetGauge, not Inc).

#ifndef SRC_OBS_PUBLISH_H_
#define SRC_OBS_PUBLISH_H_

#include "src/obs/registry.h"

namespace eva {

struct SimulationMetrics;
struct FederationResult;

// "sim.*" plus the nested "scheduler.*" and "faults.*" groups — the full
// per-run projection the simulator publishes at Finish.
void PublishSimulationMetrics(const SimulationMetrics& metrics,
                              TelemetryRegistry* registry);

// Folds one tenant's metrics, nested groups included, into `into` by each
// field's merge rule.
void MergeSimulationMetrics(const SimulationMetrics& from, SimulationMetrics& into);

// The fleet's export: "federation.*" (the driver counts and the serial
// share) plus the tenants' merged metrics, less the kLast fields, whose
// merged value is only the last tenant's.
void PublishFederationResult(const FederationResult& result,
                             TelemetryRegistry* registry);

}  // namespace eva

#endif  // SRC_OBS_PUBLISH_H_
