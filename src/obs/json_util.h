// Deterministic JSON fragment helpers shared by the obs serialisers.
//
// Trace and registry exports are diffed byte-for-byte by the determinism
// tests, so every number must format identically across runs, platforms and
// pool sizes: integers (the overwhelmingly common case — counters, ids,
// event counts) print as integers, everything else through one fixed %.17g,
// which round-trips every double, so a bench pin that compares printed
// values compares them exactly.

#ifndef SRC_OBS_JSON_UTIL_H_
#define SRC_OBS_JSON_UTIL_H_

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace eva {
namespace obs_internal {

inline void AppendJsonNumber(std::string* out, double value) {
  char buf[64];
  if (!std::isfinite(value)) {
    // JSON has no inf/nan; 0 keeps the document parseable and the bytes
    // deterministic (finite values are the contract, this is a backstop).
    out->append("0");
    return;
  }
  if (value == std::floor(value) && std::fabs(value) <= 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  out->append(buf);
}

inline void AppendJsonString(std::string* out, const std::string& value) {
  out->push_back('"');
  for (char c : value) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace obs_internal
}  // namespace eva

#endif  // SRC_OBS_JSON_UTIL_H_
