#include "src/util/str_util.h"

#include <algorithm>

namespace soft {

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = ToAsciiLower(c);
  }
  return out;
}

std::string AsciiUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = ToAsciiUpper(c);
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToAsciiLower(a[i]) != ToAsciiLower(b[i])) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && IsAsciiSpace(s[begin])) {
    ++begin;
  }
  while (end > begin && IsAsciiSpace(s[end - 1])) {
    --end;
  }
  return s.substr(begin, end - begin);
}

size_t CountOccurrences(std::string_view s, std::string_view from) {
  if (from.size() == 1) {
    return static_cast<size_t>(std::count(s.begin(), s.end(), from[0]));
  }
  size_t n = 0;
  for (size_t hit = s.find(from); hit != std::string_view::npos;
       hit = s.find(from, hit + from.size())) {
    ++n;
  }
  return n;
}

std::string ReplaceAll(std::string_view s, std::string_view from, std::string_view to) {
  if (from.empty()) {
    return std::string(s);
  }
  // Count first, so the output is built in one pass into its final size.
  const size_t n = CountOccurrences(s, from);
  std::string out(s.size() - n * from.size() + n * to.size(), '\0');
  char* p = out.data();
  if (from.size() == 1 && to.size() == 1) {
    // One byte for another: a select per byte, which the compiler vectorizes
    // (the bytes are locals, so the stores through `p` cannot change them).
    const char match = from[0];
    const char replacement = to[0];
    for (size_t i = 0; i < s.size(); ++i) {
      p[i] = s[i] == match ? replacement : s[i];
    }
    return out;
  }
  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t hit = s.find(from, pos);
    p = std::copy(s.begin() + pos, s.begin() + hit, p);
    p = std::copy(to.begin(), to.end(), p);
    pos = hit + from.size();
  }
  std::copy(s.begin() + pos, s.end(), p);
  return out;
}

std::string SqlQuote(std::string_view s) {
  std::string out(s.size() + CountOccurrences(s, "'") + 2, '\'');
  char* p = out.data() + 1;
  for (char c : s) {
    *p++ = c;
    p += c == '\'';  // the buffer is filled with quotes: skipping one doubles c
  }
  return out;
}

}  // namespace soft
