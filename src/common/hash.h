// Shared hashing helpers: the hash-map key mix and the pure SplitMix64
// hashes every deterministic schedule draws from.

#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace eva {

// Boost-style mix; good enough for the small key spaces of the scheduler's
// memoization caches and throughput-table keys.
inline std::size_t HashCombine(std::size_t seed, std::size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

// SplitMix64 (public domain, Steele et al.): one step of the generator
// seeded at x. Stateless, so it doubles as a hash of x.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Pure hash of (seed, salt, entity, step): the spot price trace and every
// fault schedule. No sequential state, so any query is independent of every
// other and agrees bit-for-bit in any order, on any thread, in any tenant.
inline std::uint64_t StepHash(std::uint64_t seed, std::uint64_t salt, std::int64_t entity,
                              std::int64_t step) {
  std::uint64_t h = Mix64(seed ^ salt);
  h = Mix64(h ^ (static_cast<std::uint64_t>(entity) * 0x100000001b3ULL));
  return Mix64(h ^ static_cast<std::uint64_t>(step));
}

// StepHash as a uniform double in [0, 1): its top 53 bits, exactly like
// Rng::NextDouble.
inline double StepUniform(std::uint64_t seed, std::uint64_t salt, std::int64_t entity,
                          std::int64_t step) {
  return static_cast<double>(StepHash(seed, salt, entity, step) >> 11) * 0x1.0p-53;
}

}  // namespace eva

#endif  // SRC_COMMON_HASH_H_
