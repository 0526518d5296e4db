#include "src/cloud/fault_injector.h"

#include <algorithm>

#include "src/common/hash.h"

namespace eva {
namespace {

// Kind salts: distinct streams per fault kind so enabling one kind never
// shifts another's schedule.
constexpr std::uint64_t kZoneOutageSalt = 0x0a17a6e5ULL;
constexpr std::uint64_t kCorrelatedSalt = 0xc0fe14e1ULL;
constexpr std::uint64_t kDrainSalt = 0xd7a1a915ULL;
constexpr std::uint64_t kZonePickSalt = 0x5a17c3e5ULL;
constexpr std::uint64_t kVictimSalt = 0x71c71c71ULL;

}  // namespace

bool FaultModel::ZoneOutageStartsAt(int zone, std::int64_t step) const {
  return options_.enabled &&
         StepUniform(options_.seed, kZoneOutageSalt, zone, step) < options_.zone_outage_probability;
}

bool FaultModel::CorrelatedFailureAt(int family, std::int64_t step) const {
  return options_.enabled && StepUniform(options_.seed, kCorrelatedSalt, family, step) <
                                 options_.correlated_failure_probability;
}

bool FaultModel::DrainStartsAt(int zone, std::int64_t step) const {
  return options_.enabled &&
         StepUniform(options_.seed, kDrainSalt, zone, step) < options_.drain_probability;
}

bool FaultModel::ZoneDownAt(int zone, SimTime t) const {
  if (!options_.enabled || options_.zone_outage_probability <= 0.0 || t < 0.0) {
    return false;
  }
  const double step_s = options_.check_period_s;
  const SimTime window_start = std::max(t - options_.zone_outage_duration_s, 0.0);
  const std::int64_t hi = StepOf(t);
  for (std::int64_t s = StepOf(window_start); s <= hi; ++s) {
    const SimTime start = static_cast<double>(s) * step_s;
    if (start > t) {
      break;
    }
    if (t < start + options_.zone_outage_duration_s && ZoneOutageStartsAt(zone, s)) {
      return true;
    }
  }
  return false;
}

int FaultModel::UpZoneCount(SimTime t) const {
  const int zones = std::max(options_.num_zones, 1);
  int up = 0;
  for (int zone = 0; zone < zones; ++zone) {
    if (!ZoneDownAt(zone, t)) {
      ++up;
    }
  }
  return up;
}

int FaultModel::ClampedCapacity(int capacity, SimTime t) const {
  if (capacity < 0 || !options_.enabled || options_.zone_outage_probability <= 0.0) {
    return capacity;
  }
  const int zones = std::max(options_.num_zones, 1);
  const int up = UpZoneCount(t);
  if (up >= zones) {
    return capacity;
  }
  return static_cast<int>(static_cast<std::int64_t>(capacity) * up / zones);
}

int FaultModel::ZoneAt(int tenant_id, std::int64_t instance_id,
                       SimTime launch_time) const {
  const int zones = std::max(options_.num_zones, 1);
  const std::uint64_t h = StepHash(options_.seed, kZonePickSalt, tenant_id, instance_id);
  // Launch into a zone that is up right now; during a full blackout (every
  // zone down) fall back to the plain spread — the launch itself was
  // already admitted through the capacity clamp.
  const int up = UpZoneCount(launch_time);
  if (up == 0 || up == zones) {
    return static_cast<int>(h % static_cast<std::uint64_t>(zones));
  }
  int pick = static_cast<int>(h % static_cast<std::uint64_t>(up));
  for (int zone = 0; zone < zones; ++zone) {
    if (ZoneDownAt(zone, launch_time)) {
      continue;
    }
    if (pick-- == 0) {
      return zone;
    }
  }
  return 0;  // Unreachable: `pick` < number of up zones.
}

std::uint64_t FaultModel::VictimRank(int tenant_id, std::int64_t instance_id,
                                     std::int64_t step) const {
  return Mix64(StepHash(options_.seed, kVictimSalt, tenant_id, instance_id) ^
               static_cast<std::uint64_t>(step));
}

}  // namespace eva
