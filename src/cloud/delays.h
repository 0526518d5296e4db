// Reconfiguration-delay model (Table 1 of the paper).
//
// Instance acquisition and setup delays are properties of the cloud; job
// checkpoint and launch delays are properties of the workload (Table 7) and
// live in WorkloadSpec. The simulator runs in one of two modes:
//   * simulated  — deterministic mean delays (what the paper's simulator
//                  uses for trace-driven experiments), and
//   * physical   — delays drawn uniformly from the measured ranges, standing
//                  in for the paper's AWS runs (Tables 10-12).

#ifndef SRC_CLOUD_DELAYS_H_
#define SRC_CLOUD_DELAYS_H_

#include "src/common/rng.h"
#include "src/common/units.h"

namespace eva {

// A delay measured as a [min, max] range with an observed average.
//
// Determinism contract: every stochastic draw in this module flows through
// the caller-provided Rng — the seeded generator the simulator owns — and
// nothing here touches a global or thread-local random source. Same seed ⇒
// same delay sequence ⇒ same physical-mode metrics, bit for bit (pinned by
// PhysicalModeSameSeedReproducesMetrics in tests/sim/simulator_test.cc).
struct DelayRange {
  SimTime min_s = 0.0;
  SimTime max_s = 0.0;
  SimTime average_s = 0.0;

  // Mean value (simulated mode).
  SimTime Mean() const { return average_s; }

  // One stochastic draw (physical mode). Uses a triangular-ish draw: uniform
  // within [min, max] mixed toward the average so the sample mean tracks the
  // measured average rather than the range midpoint. Consumes draws only
  // from `rng`; a degenerate range (max <= min) consumes none.
  SimTime Sample(Rng& rng) const;
};

// Cloud-side delays from Table 1.
inline constexpr DelayRange kAcquisitionDelay{6.0, 83.0, 19.0};
inline constexpr DelayRange kSetupDelay{140.0, 251.0, 190.0};

// Total provisioning latency (acquisition + setup) for one instance: the
// Table 1 averages when `rng` is null (simulated mode), one draw from each
// range otherwise (physical mode).
SimTime ProvisioningDelay(Rng* rng);

}  // namespace eva

#endif  // SRC_CLOUD_DELAYS_H_
