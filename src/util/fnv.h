// 64-bit FNV-1a: the one hash primitive behind the structural digests (case
// pool, campaign outcome, span identity). Callers own their framing — field
// separators, and how an integer becomes bytes — so each digest's values
// are defined by its caller, not here.
#ifndef SRC_UTIL_FNV_H_
#define SRC_UTIL_FNV_H_

#include <cstdint>
#include <string_view>

namespace soft {

inline constexpr uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001B3ull;

inline uint64_t FnvMixByte(uint64_t h, unsigned char byte) {
  return (h ^ byte) * kFnvPrime;
}

inline uint64_t FnvMix(uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h = FnvMixByte(h, static_cast<unsigned char>(c));
  }
  return h;
}

}  // namespace soft

#endif  // SRC_UTIL_FNV_H_
