// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven: the checksum of
// every fleet wire frame (src/soft/wire.h) and the value of the SQL CRC32
// function, so the two cannot drift apart.
#ifndef SRC_UTIL_CRC32_H_
#define SRC_UTIL_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace soft {

inline constexpr std::array<uint32_t, 256> kCrc32Table = [] {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}();

// `seed` chains multi-buffer computations:
// Crc32(Crc32(0, a), b) == Crc32(0, a+b).
inline uint32_t Crc32(uint32_t seed, const void* data, size_t n) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    c = kCrc32Table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace soft

#endif  // SRC_UTIL_CRC32_H_
