#include "src/cloud/spot_market.h"

#include <algorithm>

#include "src/common/hash.h"

namespace eva {

SpotMarket::SpotMarket(const InstanceCatalog& base, SpotMarketOptions options)
    : base_(base), options_(options), clock_{options.price_step_s} {}

double SpotMarket::FractionForStep(int base_type, std::int64_t step) const {
  if (StepUniform(options_.seed, /*salt=*/0x51c3u, base_type, step) <
      options_.spike_probability) {
    return options_.spike_price_fraction;
  }
  const double u = StepUniform(options_.seed, /*salt=*/0xf4acu, base_type, step);
  return options_.min_price_fraction +
         (options_.max_price_fraction - options_.min_price_fraction) * u;
}

Money SpotMarket::CostForInterval(int base_type, SimTime t0, SimTime t1) const {
  if (t1 <= t0) {
    return 0.0;
  }
  const double step_s = options_.price_step_s;
  const std::int64_t first = StepOf(std::max(t0, 0.0));
  const std::int64_t last = StepOf(std::max(t1, 0.0));
  Money total = 0.0;
  for (std::int64_t step = first; step <= last; ++step) {
    const SimTime lo = std::max(t0, static_cast<double>(step) * step_s);
    const SimTime hi = std::min(t1, static_cast<double>(step + 1) * step_s);
    if (hi <= lo) {
      continue;
    }
    total += CostForUptime(
        base_.Get(base_type).cost_per_hour * FractionForStep(base_type, step), hi - lo);
  }
  return total;
}

}  // namespace eva
