#include "src/cloud/delays.h"

#include <algorithm>

namespace eva {

SimTime DelayRange::Sample(Rng& rng) const {
  if (max_s <= min_s) {
    return average_s;
  }
  // Mix a uniform draw over the range with the measured average: with
  // probability 0.5 draw uniformly in [min, avg], else in [avg, max]. The
  // expected value is (min + 2*avg + max) / 4, which is close to the
  // measured average for the skewed ranges in Table 1 while still exercising
  // the tails.
  if (rng.Bernoulli(0.5)) {
    return rng.Uniform(min_s, std::max(min_s, average_s));
  }
  return rng.Uniform(std::min(average_s, max_s), max_s);
}

SimTime ProvisioningDelay(Rng* rng) {
  if (rng == nullptr) {
    return kAcquisitionDelay.Mean() + kSetupDelay.Mean();
  }
  return kAcquisitionDelay.Sample(*rng) + kSetupDelay.Sample(*rng);
}

}  // namespace eva
