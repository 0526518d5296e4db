#include "src/common/resources.h"

#include <cmath>
#include <cstdio>

namespace eva {

const char* ResourceName(Resource r) {
  switch (r) {
    case Resource::kGpu:
      return "GPU";
    case Resource::kCpu:
      return "CPU";
    case Resource::kRamGb:
      return "RAM";
  }
  return "?";
}

bool ResourceVector::IsZero() const {
  for (double v : values_) {
    if (std::fabs(v) > kResourceEpsilon) {
      return false;
    }
  }
  return true;
}

bool ResourceVector::IsNonNegative() const {
  for (double v : values_) {
    if (v < -kResourceEpsilon) {
      return false;
    }
  }
  return true;
}

ResourceVector ResourceVector::Scaled(double factor) const {
  ResourceVector out = *this;
  for (int i = 0; i < kNumResources; ++i) {
    out.values_[i] *= factor;
  }
  return out;
}

std::string ResourceVector::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[g=%.2f, c=%.2f, m=%.2f]", values_[0], values_[1], values_[2]);
  return buf;
}

}  // namespace eva
