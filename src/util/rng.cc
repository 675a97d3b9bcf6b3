#include "src/util/rng.h"

#include <cassert>

namespace soft {
namespace {

// splitmix64 for seeding.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

constexpr char kLetters[] = "abcdefghijklmnopqrstuvwxyz";
constexpr char kAlnum[] = "abcdefghijklmnopqrstuvwxyz0123456789";

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& st : state_) {
    st = SplitMix64(s);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  assert(bound > 0);
  // Debiased modulo via rejection sampling.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

std::string Rng::NextIdentifier(size_t length) {
  std::string out;
  if (length == 0) {
    return out;
  }
  out.reserve(length);
  out.push_back(kLetters[NextBelow(sizeof(kLetters) - 1)]);
  for (size_t i = 1; i < length; ++i) {
    out.push_back(kAlnum[NextBelow(sizeof(kAlnum) - 1)]);
  }
  return out;
}

}  // namespace soft
