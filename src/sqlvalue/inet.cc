#include "src/sqlvalue/inet.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>

namespace soft {
namespace {

Result<InetAddr> ParseV4(std::string_view text) {
  if (std::count(text.begin(), text.end(), '.') != 3) {
    return InvalidArgument("malformed IPv4 address");
  }
  InetAddr out;
  out.is_v4 = true;
  out.bytes[10] = 0xFF;
  out.bytes[11] = 0xFF;
  size_t start = 0;
  for (size_t i = 0; i < 4; ++i) {
    const size_t dot = i < 3 ? text.find('.', start) : text.size();
    const std::string_view p = text.substr(start, dot - start);
    start = dot + 1;
    if (p.empty() || p.size() > 3) {
      return InvalidArgument("malformed IPv4 octet");
    }
    unsigned v = 0;
    auto [ptr, ec] = std::from_chars(p.data(), p.data() + p.size(), v);
    if (ec != std::errc() || ptr != p.data() + p.size() || v > 255) {
      return InvalidArgument("malformed IPv4 octet");
    }
    out.bytes[12 + i] = static_cast<uint8_t>(v);
  }
  return out;
}

// Up to 8 16-bit groups and how many were seen: an address with more is
// refused by its count, so only the first 8 are kept.
struct Groups {
  std::array<uint16_t, 8> values{};
  size_t count = 0;
};

// Reads the ':'-separated groups of `chunk` (none when it is empty) in place.
Status ParseGroups(std::string_view chunk, Groups& out) {
  if (chunk.empty()) {
    return OkStatus();
  }
  size_t start = 0;
  for (;;) {
    const size_t colon = chunk.find(':', start);
    const std::string_view g = chunk.substr(start, colon - start);
    if (g.empty() || g.size() > 4) {
      return InvalidArgument("malformed IPv6 group");
    }
    unsigned v = 0;
    auto [p, ec] = std::from_chars(g.data(), g.data() + g.size(), v, 16);
    if (ec != std::errc() || p != g.data() + g.size()) {
      return InvalidArgument("malformed IPv6 group");
    }
    if (out.count < out.values.size()) {
      out.values[out.count] = static_cast<uint16_t>(v);
    }
    ++out.count;
    if (colon == std::string_view::npos) {
      return OkStatus();
    }
    start = colon + 1;
  }
}

Result<InetAddr> ParseV6(std::string_view text) {
  // Split on "::" once; each side is a list of 16-bit groups.
  Groups head;
  Groups tail;
  const size_t gap = text.find("::");
  const bool has_gap = gap != std::string_view::npos;
  if (has_gap) {
    SOFT_RETURN_IF_ERROR(ParseGroups(text.substr(0, gap), head));
    SOFT_RETURN_IF_ERROR(ParseGroups(text.substr(gap + 2), tail));
  } else {
    SOFT_RETURN_IF_ERROR(ParseGroups(text, head));
  }

  const size_t total = head.count + tail.count;
  if ((has_gap && total >= 8) || (!has_gap && total != 8)) {
    return InvalidArgument("wrong number of IPv6 groups");
  }

  InetAddr out;
  size_t idx = 0;
  for (size_t i = 0; i < head.count; ++i) {
    out.bytes[idx++] = static_cast<uint8_t>(head.values[i] >> 8);
    out.bytes[idx++] = static_cast<uint8_t>(head.values[i] & 0xFF);
  }
  idx = 16 - tail.count * 2;
  for (size_t i = 0; i < tail.count; ++i) {
    out.bytes[idx++] = static_cast<uint8_t>(tail.values[i] >> 8);
    out.bytes[idx++] = static_cast<uint8_t>(tail.values[i] & 0xFF);
  }
  return out;
}

}  // namespace

Result<InetAddr> ParseInet(std::string_view text) {
  if (text.find(':') != std::string_view::npos) {
    return ParseV6(text);
  }
  return ParseV4(text);
}

std::string FormatInet(const InetAddr& addr) {
  char buf[64];
  if (addr.is_v4) {
    std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", addr.bytes[12], addr.bytes[13],
                  addr.bytes[14], addr.bytes[15]);
    return buf;
  }
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const unsigned g = (static_cast<unsigned>(addr.bytes[i * 2]) << 8) | addr.bytes[i * 2 + 1];
    std::snprintf(buf, sizeof(buf), "%x", g);
    if (i > 0) {
      out.push_back(':');
    }
    out += buf;
  }
  return out;
}

std::string InetToBinary(const InetAddr& addr) {
  if (addr.is_v4) {
    return std::string(reinterpret_cast<const char*>(addr.bytes.data()) + 12, 4);
  }
  return std::string(reinterpret_cast<const char*>(addr.bytes.data()), 16);
}

Result<InetAddr> InetFromBinary(std::string_view bytes) {
  InetAddr out;
  if (bytes.size() == 4) {
    out.is_v4 = true;
    out.bytes[10] = 0xFF;
    out.bytes[11] = 0xFF;
    for (size_t i = 0; i < 4; ++i) {
      out.bytes[12 + i] = static_cast<uint8_t>(bytes[i]);
    }
    return out;
  }
  if (bytes.size() == 16) {
    for (size_t i = 0; i < 16; ++i) {
      out.bytes[i] = static_cast<uint8_t>(bytes[i]);
    }
    return out;
  }
  return InvalidArgument("inet binary form must be 4 or 16 bytes");
}

}  // namespace soft
