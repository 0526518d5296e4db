// Multi-dimensional resource vectors used throughout Eva.
//
// The paper's scheduling problem is defined over three resource types
// (GPU, CPU, RAM); see Table 2. Demands and capacities are modeled as a
// fixed-size vector of doubles so that fractional demands (as found in the
// Alibaba trace) are representable.

#ifndef SRC_COMMON_RESOURCES_H_
#define SRC_COMMON_RESOURCES_H_

#include <array>
#include <cstddef>
#include <string>

namespace eva {

// The resource dimensions of the scheduling problem (set R in the paper).
enum class Resource : int {
  kGpu = 0,
  kCpu = 1,
  kRamGb = 2,
};

inline constexpr int kNumResources = 3;

// Tolerance for capacity checks. Demands in the traces carry at most two
// decimal places, so 1e-9 is far below any meaningful quantum.
inline constexpr double kResourceEpsilon = 1e-9;

// Returns a short human-readable name ("GPU", "CPU", "RAM").
const char* ResourceName(Resource r);

// A point in resource space: either a task demand D_tau or an instance
// capacity Q_k. Components are non-negative by convention; arithmetic that
// would produce negative components is permitted (used for "remaining
// capacity" bookkeeping) and checked via IsNonNegative().
class ResourceVector {
 public:
  constexpr ResourceVector() : values_{0.0, 0.0, 0.0} {}
  constexpr ResourceVector(double gpus, double cpus, double ram_gb)
      : values_{gpus, cpus, ram_gb} {}

  constexpr double gpus() const { return values_[0]; }
  constexpr double cpus() const { return values_[1]; }
  constexpr double ram_gb() const { return values_[2]; }

  constexpr double Get(Resource r) const { return values_[static_cast<int>(r)]; }
  void Set(Resource r, double value) { values_[static_cast<int>(r)] = value; }

  // Component-wise comparison with a small epsilon so that repeated
  // add/subtract cycles do not spuriously reject an exact fit. Inline: the
  // packing argmax calls it once per visited candidate.
  bool FitsWithin(const ResourceVector& capacity) const {
    for (int i = 0; i < kNumResources; ++i) {
      if (values_[i] > capacity.values_[i] + kResourceEpsilon) {
        return false;
      }
    }
    return true;
  }

  bool IsZero() const;
  bool IsNonNegative() const;

  ResourceVector& operator+=(const ResourceVector& other) {
    for (int i = 0; i < kNumResources; ++i) {
      values_[i] += other.values_[i];
    }
    return *this;
  }
  ResourceVector& operator-=(const ResourceVector& other) {
    for (int i = 0; i < kNumResources; ++i) {
      values_[i] -= other.values_[i];
    }
    return *this;
  }
  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) { return a += b; }
  friend ResourceVector operator-(ResourceVector a, const ResourceVector& b) { return a -= b; }
  friend bool operator==(const ResourceVector& a, const ResourceVector& b) {
    return a.values_ == b.values_;
  }

  // Scales every component, e.g. for computing average utilization.
  ResourceVector Scaled(double factor) const;

  // "[g=1, c=4, m=24]" — matches the paper's demand-vector notation.
  std::string ToString() const;

 private:
  std::array<double, kNumResources> values_;
};

}  // namespace eva

#endif  // SRC_COMMON_RESOURCES_H_
