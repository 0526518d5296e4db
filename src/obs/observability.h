// Per-simulator observability switchboard.
//
// SimulatorOptions carries one of these. A sink is on if and only if its
// pointer is set, and every one defaults to null: the simulator's hot paths
// guard each sink with a single pointer test, so a run with the default
// options does zero observability work — goldens stay bit-exact and the
// allocs/job gate is unaffected.
//
// All sinks are caller-owned, outliving the simulator: the same
// TraceRecorder is typically shared by every tenant of a federation (each
// on its own track), while FlightRecorder and TelemetryRegistry are
// single-writer and therefore per-simulator.

#ifndef SRC_OBS_OBSERVABILITY_H_
#define SRC_OBS_OBSERVABILITY_H_

#include <string>

#include "src/obs/flight_recorder.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace eva {

struct ObservabilityOptions {
  // Span sink. The simulator registers its own track at construction
  // (named `track_name`, or "tenant<id>" when empty) and hands a binding
  // to its scheduler and solver.
  TraceRecorder* trace = nullptr;

  // Per-round digest sink for DiffFirstDivergence.
  FlightRecorder* flight_recorder = nullptr;

  // Counter/gauge/series sink; published at Finish and sampled per round.
  TelemetryRegistry* registry = nullptr;

  std::string track_name;
};

}  // namespace eva

#endif  // SRC_OBS_OBSERVABILITY_H_
