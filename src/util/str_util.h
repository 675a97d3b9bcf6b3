// Small string helpers shared across the library.
#ifndef SRC_UTIL_STR_UTIL_H_
#define SRC_UTIL_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace soft {

// ASCII character classes and case maps. The program never leaves the "C"
// locale, where <cctype> gives the same answer for every byte value; these
// are inline, so a per-byte loop makes no library call.
constexpr bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsAsciiUpper(char c) { return c >= 'A' && c <= 'Z'; }
constexpr bool IsAsciiLower(char c) { return c >= 'a' && c <= 'z'; }
constexpr bool IsAsciiAlpha(char c) { return IsAsciiUpper(c) || IsAsciiLower(c); }
constexpr bool IsAsciiAlnum(char c) { return IsAsciiAlpha(c) || IsAsciiDigit(c); }
constexpr bool IsAsciiXDigit(char c) {
  return IsAsciiDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}
// ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr char ToAsciiLower(char c) { return IsAsciiUpper(c) ? static_cast<char>(c + 32) : c; }
constexpr char ToAsciiUpper(char c) { return IsAsciiLower(c) ? static_cast<char>(c - 32) : c; }

// ASCII-only case transforms (SQL identifiers / keywords are ASCII).
std::string AsciiLower(std::string_view s);
std::string AsciiUpper(std::string_view s);

bool EqualsIgnoreCase(std::string_view a, std::string_view b);
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Looks up `name` upper-cased in a map keyed by upper-case names. Names the
// parser stores are upper-case already, so only one with a lower-case letter
// pays for a copy; the map must accept a string_view key (a transparent
// comparator or hash).
template <typename Map>
auto FindUpperCase(const Map& map, std::string_view name) {
  for (char c : name) {
    if (IsAsciiLower(c)) {
      return map.find(AsciiUpper(name));
    }
  }
  return map.find(name);
}

// Split on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

// Join with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Trim ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

// Non-overlapping occurrences of `from` (non-empty), counted left to right.
size_t CountOccurrences(std::string_view s, std::string_view from);

// Replace all occurrences of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from, std::string_view to);

// Escape a string for embedding in a single-quoted SQL literal ('' doubling).
std::string SqlQuote(std::string_view s);

// Number of decimal digits in the textual representation of a non-negative
// integer (0 has one digit).
int DecimalDigitCount(uint64_t v);

}  // namespace soft

#endif  // SRC_UTIL_STR_UTIL_H_
