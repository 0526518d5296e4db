#include "src/common/rng.h"

#include <cassert>
#include <cmath>

#include "src/common/hash.h"

namespace eva {
namespace {

std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Successive SplitMix64 outputs from `seed`.
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = Mix64(s);
    s += 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 uniform bits into [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Modulo bias is < 2^-40 for the span sizes used here; acceptable.
  return lo + static_cast<std::int64_t>(NextU64() % span);
}

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  double u = NextDouble();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -std::log(1.0 - u) / rate;
}

double Rng::Normal(double mean, double stddev) {
  // C++17 has no std::numbers::pi; keep the constant local.
  constexpr double kPi = 3.14159265358979323846;
  double u1 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * radius * std::cos(2.0 * kPi * u2);
}

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

double Rng::Pareto(double x_m, double alpha) {
  assert(x_m > 0.0 && alpha > 0.0);
  double u = NextDouble();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return x_m / std::pow(1.0 - u, 1.0 / alpha);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    total += (w > 0.0 ? w : 0.0);
  }
  assert(total > 0.0);
  double point = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (point < w) {
      return i;
    }
    point -= w;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace eva
