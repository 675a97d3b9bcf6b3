// Shared helpers for the baseline fuzzers. Internal to src/baselines.
#ifndef SRC_BASELINES_BASELINE_UTIL_H_
#define SRC_BASELINES_BASELINE_UTIL_H_

#include <string>

#include "src/util/rng.h"

namespace soft {

// Benign literal generators shared by the baselines: small integers, short
// alphabetic strings, exponent-tagged doubles (so the parser types them as
// DOUBLE, not exact DECIMAL — matching how the real tools bind parameters).
inline std::string BenignInt(Rng& rng) { return std::to_string(rng.NextBelow(10)); }

inline std::string BenignDouble(Rng& rng) {
  return std::to_string(rng.NextBelow(10)) + "." + std::to_string(rng.NextBelow(10)) +
         "e0";
}

inline std::string BenignString(Rng& rng) {
  std::string out = "'";
  out += rng.NextIdentifier(1 + rng.NextBelow(8));
  out.push_back('\'');
  return out;
}

}  // namespace soft

#endif  // SRC_BASELINES_BASELINE_UTIL_H_
