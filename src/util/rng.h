// Deterministic PRNG used by all fuzzers (SOFT and the baselines).
//
// Campaign reproducibility matters: every comparative experiment in the paper
// is rerun here with fixed seeds, so the generators must be deterministic and
// not depend on libstdc++'s unspecified distributions. We use xoshiro256**
// plus explicit bounded-draw helpers.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>
#include <string>
#include <vector>

namespace soft {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Raw 64-bit draw.
  uint64_t Next();

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli draw with probability p.
  bool NextBool(double p = 0.5);

  // Random identifier-looking token (letters + digits, starts with a letter).
  std::string NextIdentifier(size_t length);

 private:
  uint64_t state_[4];
};

}  // namespace soft

#endif  // SRC_UTIL_RNG_H_
