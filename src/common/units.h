// Time and money conventions shared across the codebase.
//
// Simulation time is seconds since experiment start, stored as double; money
// is US dollars stored as double. Both choices mirror the quantities the
// paper reports (hourly instance prices, delays measured in seconds).

#ifndef SRC_COMMON_UNITS_H_
#define SRC_COMMON_UNITS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace eva {

// Simulation timestamps and durations, in seconds.
using SimTime = double;

// US dollars.
using Money = double;

inline constexpr double kSecondsPerMinute = 60.0;
inline constexpr double kSecondsPerHour = 3600.0;
inline constexpr double kSecondsPerDay = 86400.0;

// Converts an hourly price and an uptime in seconds into a dollar amount.
inline Money CostForUptime(Money cost_per_hour, SimTime uptime_seconds) {
  return cost_per_hour * (uptime_seconds / kSecondsPerHour);
}

inline SimTime HoursToSeconds(double hours) { return hours * kSecondsPerHour; }
inline double SecondsToHours(SimTime seconds) { return seconds / kSecondsPerHour; }
inline SimTime MinutesToSeconds(double minutes) { return minutes * kSecondsPerMinute; }

// Fixed-length steps [k * step_s, (k + 1) * step_s): the spot market's
// repricing steps and the fault model's check steps.
struct StepClock {
  SimTime step_s;

  // The step containing t (step 0 for t < 0), with a float round-trip
  // guard: a timestamp produced as (k+1) * step_s (NextStepBoundary, the
  // check events' times) can divide back to just under k+1 when the step is
  // not exactly representable. A boundary must belong to the step it
  // opens, or the check armed for a new step re-reads the old one.
  std::int64_t StepOf(SimTime t) const {
    std::int64_t step = static_cast<std::int64_t>(std::floor(std::max(t, 0.0) / step_s));
    if (static_cast<double>(step + 1) * step_s <= t) {
      ++step;
    }
    return step;
  }

  // The earliest step boundary strictly after t.
  SimTime NextStepBoundary(SimTime t) const { return static_cast<double>(StepOf(t) + 1) * step_s; }
};

// Strongly-typed identifiers. Plain integers are easy to mix up across the
// scheduler/simulator boundary; distinct aliases at least document intent.
using JobId = std::int64_t;
using TaskId = std::int64_t;
using InstanceId = std::int64_t;

inline constexpr JobId kInvalidJobId = -1;
inline constexpr TaskId kInvalidTaskId = -1;
inline constexpr InstanceId kInvalidInstanceId = -1;

}  // namespace eva

#endif  // SRC_COMMON_UNITS_H_
