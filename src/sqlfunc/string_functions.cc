// Built-in string functions.
//
// String functions are the paper's largest bug category (57 distinct buggy
// functions, 23.0% of occurrences — Finding 2). Implementations are written
// with explicit boundary branches (negative positions, zero lengths,
// past-the-end indexes, oversized repeats) and report them through
// FunctionContext::Cover so the coverage experiments measure real behaviour.
#include <algorithm>
#include <array>
#include <cstdio>

#include "src/sqlfunc/function.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

Result<Value> FnLength(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  if (s.empty()) {
    ctx.Cover(1);
  }
  return Value::Int(static_cast<int64_t>(s.size()));
}

Result<Value> FnUpper(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  return Value::Str(AsciiUpper(s));
}

Result<Value> FnLower(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  return Value::Str(AsciiLower(s));
}

Result<Value> FnConcat(FunctionContext& ctx, const ValueList& args) {
  std::string out;
  for (const Value& v : args) {
    SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(v));
    if (out.size() + s.size() > ctx.limits().max_string_len) {
      ctx.Cover(1);
      return ResourceExhausted("CONCAT result exceeds engine string limit");
    }
    out += s;
  }
  return Value::Str(std::move(out));
}

Result<Value> FnConcatWs(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view sep, ctx.ArgString(args[0]));
  std::string out;
  bool first = true;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i].is_null()) {
      ctx.Cover(1);  // CONCAT_WS skips NULLs rather than propagating
      continue;
    }
    SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[i]));
    if (!first) {
      out += sep;
    }
    first = false;
    out += s;
    if (out.size() > ctx.limits().max_string_len) {
      ctx.Cover(2);
      return ResourceExhausted("CONCAT_WS result exceeds engine string limit");
    }
  }
  return Value::Str(std::move(out));
}

// SUBSTR(s, pos[, len]) with 1-based positions; negative pos counts from the
// end (MySQL semantics).
Result<Value> FnSubstr(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t pos, ctx.ArgInt(args[1]));
  int64_t len = static_cast<int64_t>(s.size());
  if (args.size() >= 3) {
    SOFT_ASSIGN_OR_RETURN(len, ctx.ArgInt(args[2]));
  }
  if (pos == 0) {
    ctx.Cover(1);
    return Value::Str("");
  }
  if (pos < 0) {
    ctx.Cover(2);
    pos = static_cast<int64_t>(s.size()) + pos + 1;
    if (pos <= 0) {
      ctx.Cover(3);
      return Value::Str("");
    }
  }
  if (pos > static_cast<int64_t>(s.size())) {
    ctx.Cover(4);
    return Value::Str("");
  }
  if (len <= 0) {
    ctx.Cover(5);
    return Value::Str("");
  }
  const size_t start = static_cast<size_t>(pos - 1);
  const size_t count = std::min<size_t>(static_cast<size_t>(len), s.size() - start);
  return Value::Str(std::string(s.substr(start, count)));
}

Result<Value> FnLeft(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t n, ctx.ArgInt(args[1]));
  if (n <= 0) {
    ctx.Cover(1);
    return Value::Str("");
  }
  if (n >= static_cast<int64_t>(s.size())) {
    ctx.Cover(2);
    return Value::Str(std::string(s));
  }
  return Value::Str(std::string(s.substr(0, static_cast<size_t>(n))));
}

Result<Value> FnRight(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t n, ctx.ArgInt(args[1]));
  if (n <= 0) {
    ctx.Cover(1);
    return Value::Str("");
  }
  if (n >= static_cast<int64_t>(s.size())) {
    ctx.Cover(2);
    return Value::Str(std::string(s));
  }
  return Value::Str(std::string(s.substr(s.size() - static_cast<size_t>(n))));
}

Result<Value> PadImpl(FunctionContext& ctx, const ValueList& args, bool left) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t len, ctx.ArgInt(args[1]));
  std::string_view pad = " ";
  if (args.size() >= 3) {
    SOFT_ASSIGN_OR_RETURN(pad, ctx.ArgString(args[2]));
  }
  if (len < 0) {
    ctx.Cover(1);
    return Value::Null();  // MySQL: negative target length → NULL
  }
  if (static_cast<size_t>(len) > ctx.limits().max_string_len) {
    ctx.Cover(2);
    return ResourceExhausted("pad target exceeds engine string limit");
  }
  if (static_cast<size_t>(len) <= s.size()) {
    ctx.Cover(3);
    return Value::Str(std::string(s.substr(0, static_cast<size_t>(len))));
  }
  if (pad.empty()) {
    ctx.Cover(4);
    return Value::Str("");  // MySQL: empty pad cannot reach target → ''
  }
  // Fill by doubling, as REPEAT does: one copy of the pad, then the fill
  // built so far appended to itself, the last chunk partial. The result is
  // built in one buffer reserved to the target, so the self-append never
  // reallocates.
  std::string out;
  out.reserve(static_cast<size_t>(len));
  if (!left) {
    out += s;
  }
  const size_t begin = out.size();
  const size_t end = begin + (static_cast<size_t>(len) - s.size());
  out.append(pad, 0, end - begin);
  while (out.size() < end) {
    out.append(out, begin, std::min(out.size() - begin, end - out.size()));
  }
  if (left) {
    out += s;
  }
  return Value::Str(std::move(out));
}

Result<Value> FnLpad(FunctionContext& ctx, const ValueList& args) {
  return PadImpl(ctx, args, /*left=*/true);
}
Result<Value> FnRpad(FunctionContext& ctx, const ValueList& args) {
  return PadImpl(ctx, args, /*left=*/false);
}

Result<Value> TrimImpl(FunctionContext& ctx, const ValueList& args, bool left, bool right) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  size_t begin = 0;
  size_t end = s.size();
  if (left) {
    while (begin < end && s[begin] == ' ') {
      ++begin;
    }
  }
  if (right) {
    while (end > begin && s[end - 1] == ' ') {
      --end;
    }
  }
  if (begin == end) {
    ctx.Cover(1);
  }
  return Value::Str(std::string(s.substr(begin, end - begin)));
}

Result<Value> FnTrim(FunctionContext& ctx, const ValueList& args) {
  return TrimImpl(ctx, args, true, true);
}
Result<Value> FnLtrim(FunctionContext& ctx, const ValueList& args) {
  return TrimImpl(ctx, args, true, false);
}
Result<Value> FnRtrim(FunctionContext& ctx, const ValueList& args) {
  return TrimImpl(ctx, args, false, true);
}

Result<Value> FnReplace(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view from, ctx.ArgString(args[1]));
  SOFT_ASSIGN_OR_RETURN(std::string_view to, ctx.ArgString(args[2]));
  if (from.empty()) {
    ctx.Cover(1);
    return Value::Str(std::string(s));
  }
  if (to.size() > from.size() && !s.empty()) {
    // Growth path: check the worst-case output size before substituting.
    const size_t occurrences = CountOccurrences(s, from);
    if (s.size() + occurrences * (to.size() - from.size()) > ctx.limits().max_string_len) {
      ctx.Cover(2);
      return ResourceExhausted("REPLACE result exceeds engine string limit");
    }
  }
  return Value::Str(ReplaceAll(s, from, to));
}

Result<Value> FnRepeat(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t n, ctx.ArgInt(args[1]));
  if (n <= 0) {
    ctx.Cover(1);
    return Value::Str("");
  }
  if (n > ctx.limits().max_repeat_count ||
      s.size() * static_cast<uint64_t>(n) > ctx.limits().max_string_len) {
    ctx.Cover(2);
    return ResourceExhausted("REPEAT result exceeds engine string limit");
  }
  // Fill by doubling: append the part built so far to itself, the last chunk
  // partial. The reserve keeps the self-append from reallocating.
  const size_t total = s.size() * static_cast<size_t>(n);
  std::string out;
  out.reserve(total);
  out.append(s);
  while (out.size() < total) {
    out.append(out, 0, std::min(out.size(), total - out.size()));
  }
  return Value::Str(std::move(out));
}

Result<Value> FnReverse(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  return Value::Str(std::string(s.rbegin(), s.rend()));
}

Result<Value> FnInstr(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view sub, ctx.ArgString(args[1]));
  if (sub.empty()) {
    ctx.Cover(1);
    return Value::Int(1);
  }
  const size_t pos = s.find(sub);
  if (pos == std::string_view::npos) {
    ctx.Cover(2);
    return Value::Int(0);
  }
  return Value::Int(static_cast<int64_t>(pos) + 1);
}

Result<Value> FnLocate(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view sub, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[1]));
  int64_t start = 1;
  if (args.size() >= 3) {
    SOFT_ASSIGN_OR_RETURN(start, ctx.ArgInt(args[2]));
  }
  if (start < 1 || start > static_cast<int64_t>(s.size()) + 1) {
    ctx.Cover(1);
    return Value::Int(0);
  }
  const size_t pos = s.find(sub, static_cast<size_t>(start - 1));
  return Value::Int(pos == std::string_view::npos ? 0 : static_cast<int64_t>(pos) + 1);
}

Result<Value> FnAscii(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  if (s.empty()) {
    ctx.Cover(1);
    return Value::Int(0);
  }
  return Value::Int(static_cast<unsigned char>(s[0]));
}

Result<Value> FnChr(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t code, ctx.ArgInt(args[0]));
  if (code < 0 || code > 0x10FFFF) {
    ctx.Cover(1);
    return InvalidArgument("character code out of range");
  }
  if (code > 255) {
    ctx.Cover(2);
    // Encode as UTF-8.
    std::string out;
    if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return Value::Str(std::move(out));
  }
  return Value::Str(std::string(1, static_cast<char>(code)));
}

Result<Value> FnSpace(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t n, ctx.ArgInt(args[0]));
  if (n <= 0) {
    ctx.Cover(1);
    return Value::Str("");
  }
  if (static_cast<uint64_t>(n) > ctx.limits().max_string_len) {
    ctx.Cover(2);
    return ResourceExhausted("SPACE result exceeds engine string limit");
  }
  return Value::Str(std::string(static_cast<size_t>(n), ' '));
}

// FORMAT(number, decimal_places[, locale]) — formats with thousands
// separators. The reference implementation clamps decimal places at 38 and
// never switches to scientific notation, closing the MDEV-23415 hole; the
// buggy MariaDB dialect path is injected at the fault layer.
Result<Value> FnFormat(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Decimal num, ctx.ArgDecimal(args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t places, ctx.ArgInt(args[1]));
  if (args.size() >= 3) {
    SOFT_ASSIGN_OR_RETURN(std::string_view locale, ctx.ArgString(args[2]));
    if (locale.size() != 5 || locale[2] != '_') {
      ctx.Cover(1);
      return InvalidArgument("unknown locale '" + std::string(locale) + "'");
    }
  }
  if (places < 0) {
    ctx.Cover(2);
    places = 0;
  }
  if (places > 38) {
    ctx.Cover(3);
    places = 38;  // clamp (the fixed behaviour)
  }
  const Decimal rounded = num.Rounded(static_cast<int>(places));
  std::string text = rounded.ToString();
  // Insert thousands separators into the integer part.
  const size_t dot = text.find('.');
  size_t int_end = dot == std::string::npos ? text.size() : dot;
  size_t int_begin = text[0] == '-' ? 1 : 0;
  std::string grouped = text.substr(0, int_begin);
  const std::string int_part = text.substr(int_begin, int_end - int_begin);
  for (size_t i = 0; i < int_part.size(); ++i) {
    if (i > 0 && (int_part.size() - i) % 3 == 0) {
      grouped.push_back(',');
    }
    grouped.push_back(int_part[i]);
  }
  grouped += text.substr(int_end);
  return Value::Str(std::move(grouped));
}

Result<Value> FnHex(FunctionContext& ctx, const ValueList& args) {
  std::string_view bytes;
  if (args[0].kind() == TypeKind::kBlob) {
    ctx.Cover(1);
    bytes = args[0].blob_value();
  } else if (args[0].kind() == TypeKind::kInt) {
    ctx.Cover(2);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llX",
                  static_cast<unsigned long long>(args[0].int_value()));
    return Value::Str(buf);
  } else {
    SOFT_ASSIGN_OR_RETURN(bytes, ctx.ArgString(args[0]));
  }
  static const char* kHex = "0123456789ABCDEF";
  std::string out(bytes.size() * 2, '\0');
  char* p = out.data();
  for (unsigned char c : bytes) {
    *p++ = kHex[c >> 4];
    *p++ = kHex[c & 0xF];
  }
  return Value::Str(std::move(out));
}

Result<Value> FnUnhex(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  if (s.size() % 2 != 0) {
    ctx.Cover(1);
    return Value::Null();  // MySQL returns NULL for odd-length input
  }
  std::string out(s.size() / 2, '\0');
  for (size_t i = 0; i < s.size(); i += 2) {
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') {
        return c - '0';
      }
      if (c >= 'a' && c <= 'f') {
        return c - 'a' + 10;
      }
      if (c >= 'A' && c <= 'F') {
        return c - 'A' + 10;
      }
      return -1;
    };
    const int hi = nibble(s[i]);
    const int lo = nibble(s[i + 1]);
    if (hi < 0 || lo < 0) {
      ctx.Cover(2);
      return Value::Null();
    }
    out[i / 2] = static_cast<char>((hi << 4) | lo);
  }
  return Value::BlobVal(std::move(out));
}

// Deterministic 64-bit FNV-1a rendered as hex. Stands in for MD5/SHA1: the
// bug study only needs hash *functions* (fixed-width digest of a string),
// not cryptographic strength.
std::string FnvDigest(std::string_view s, int width) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  std::string out;
  static const char* kHex = "0123456789abcdef";
  uint64_t v = h;
  for (int i = 0; i < width; ++i) {
    out.push_back(kHex[v & 0xF]);
    v = (v >> 4) | (v << 60);
    v *= 0x9E3779B97F4A7C15ull;
    v ^= h;
  }
  return out;
}

Result<Value> FnMd5(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  return Value::Str(FnvDigest(s, 32));
}

Result<Value> FnSha1(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  return Value::Str(FnvDigest(s, 40));
}

Result<Value> FnStrcmp(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view a, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view b, ctx.ArgString(args[1]));
  const int c = a.compare(b);
  return Value::Int(c < 0 ? -1 : (c > 0 ? 1 : 0));
}

Result<Value> FnElt(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t n, ctx.ArgInt(args[0]));
  if (n < 1 || n >= static_cast<int64_t>(args.size())) {
    ctx.Cover(1);
    return Value::Null();
  }
  return args[static_cast<size_t>(n)];
}

Result<Value> FnField(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view needle, ctx.ArgString(args[0]));
  for (size_t i = 1; i < args.size(); ++i) {
    SOFT_ASSIGN_OR_RETURN(std::string_view hay, ctx.ArgString(args[i]));
    if (hay == needle) {
      return Value::Int(static_cast<int64_t>(i));
    }
  }
  ctx.Cover(1);
  return Value::Int(0);
}

Result<Value> FnSplitPart(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view delim, ctx.ArgString(args[1]));
  SOFT_ASSIGN_OR_RETURN(int64_t n, ctx.ArgInt(args[2]));
  if (n == 0) {
    ctx.Cover(1);
    return InvalidArgument("field position must not be zero");
  }
  if (delim.empty()) {
    ctx.Cover(2);
    return (n == 1 || n == -1) ? Value::Str(std::string(s)) : Value::Str("");
  }
  // Parts are split by non-overlapping matches, left to right. A negative n
  // counts from the end, so count the parts first.
  int64_t idx = n - 1;
  if (n < 0) {
    idx = static_cast<int64_t>(CountOccurrences(s, delim)) + 1 + n;
  }
  // Walk past idx delimiters and copy out only the part that follows.
  size_t begin = 0;
  for (int64_t i = 0; i < idx && begin != std::string_view::npos; ++i) {
    const size_t hit = s.find(delim, begin);
    begin = hit == std::string_view::npos ? hit : hit + delim.size();
  }
  if (idx < 0 || begin == std::string_view::npos) {
    ctx.Cover(3);
    return Value::Str("");
  }
  const size_t end = s.find(delim, begin);
  return Value::Str(std::string(s.substr(begin, end == std::string_view::npos ? end : end - begin)));
}

Result<Value> FnTranslate(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view from, ctx.ArgString(args[1]));
  SOFT_ASSIGN_OR_RETURN(std::string_view to, ctx.ArgString(args[2]));
  // Each byte's image, from its first occurrence in `from`: itself when it
  // has none, nothing when `to` is too short.
  std::array<int, 256> image;
  for (int c = 0; c < 256; ++c) {
    image[c] = c;
  }
  for (size_t i = from.size(); i-- > 0;) {
    image[static_cast<unsigned char>(from[i])] =
        i < to.size() ? static_cast<unsigned char>(to[i]) : -1;
  }
  std::string out(s.size(), '\0');
  size_t kept = 0;
  for (char c : s) {
    const int mapped = image[static_cast<unsigned char>(c)];
    if (mapped >= 0) {
      out[kept++] = static_cast<char>(mapped);
    }
  }
  if (kept < s.size()) {
    ctx.Cover(1);  // a character mapped to nothing: deletion path
    out.resize(kept);
  }
  return Value::Str(std::move(out));
}

Result<Value> FnInitcap(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view arg, ctx.ArgString(args[0]));
  std::string s(arg);
  // A word starts after any byte that is not alphanumeric. Case maps leave
  // such a byte alone, so every byte can be mapped without a branch.
  bool start = true;
  for (char& c : s) {
    const bool alnum = IsAsciiAlnum(c);
    c = start ? ToAsciiUpper(c) : ToAsciiLower(c);
    start = !alnum;
  }
  return Value::Str(std::move(s));
}

Result<Value> FnQuote(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  return Value::Str(SqlQuote(s));
}

Result<Value> FnSoundex(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  auto code = [](char c) -> char {
    switch (ToAsciiUpper(c)) {
      case 'B':
      case 'F':
      case 'P':
      case 'V':
        return '1';
      case 'C':
      case 'G':
      case 'J':
      case 'K':
      case 'Q':
      case 'S':
      case 'X':
      case 'Z':
        return '2';
      case 'D':
      case 'T':
        return '3';
      case 'L':
        return '4';
      case 'M':
      case 'N':
        return '5';
      case 'R':
        return '6';
      default:
        return '0';
    }
  };
  // The first letter, then at most three codes: the scan stops at four.
  std::string out;
  char last = '0';
  for (size_t i = 0; i < s.size() && out.size() < 4; ++i) {
    const char c = s[i];
    if (!IsAsciiAlpha(c)) {
      continue;
    }
    if (out.empty()) {
      out.push_back(ToAsciiUpper(c));
      last = code(c);
      continue;
    }
    const char d = code(c);
    if (d != '0' && d != last) {
      out.push_back(d);
    }
    last = d;
  }
  if (out.empty()) {
    ctx.Cover(1);
    return Value::Str("");
  }
  out.resize(4, '0');
  return Value::Str(std::move(out));
}

constexpr char kBase64Chars[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

Result<Value> FnToBase64(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  std::string out;
  out.reserve((s.size() + 2) / 3 * 4);
  for (size_t i = 0; i < s.size(); i += 3) {
    uint32_t chunk = static_cast<unsigned char>(s[i]) << 16;
    int bytes = 1;
    if (i + 1 < s.size()) {
      chunk |= static_cast<unsigned char>(s[i + 1]) << 8;
      bytes = 2;
    }
    if (i + 2 < s.size()) {
      chunk |= static_cast<unsigned char>(s[i + 2]);
      bytes = 3;
    }
    out.push_back(kBase64Chars[(chunk >> 18) & 0x3F]);
    out.push_back(kBase64Chars[(chunk >> 12) & 0x3F]);
    out.push_back(bytes >= 2 ? kBase64Chars[(chunk >> 6) & 0x3F] : '=');
    out.push_back(bytes >= 3 ? kBase64Chars[chunk & 0x3F] : '=');
  }
  return Value::Str(std::move(out));
}

// Each byte's 6-bit value in kBase64Chars; '=' and whitespace are skipped,
// and any other byte is malformed input.
constexpr int kBase64Skip = -2;
constexpr int kBase64Bad = -1;
constexpr std::array<int, 256> kBase64Values = [] {
  std::array<int, 256> values{};
  for (int c = 0; c < 256; ++c) {
    values[c] = c == '=' || IsAsciiSpace(static_cast<char>(c)) ? kBase64Skip : kBase64Bad;
  }
  for (int i = 0; i < 64; ++i) {
    values[static_cast<unsigned char>(kBase64Chars[i])] = i;
  }
  return values;
}();

Result<Value> FnFromBase64(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  // Every kept character carries 6 bits: size the buffer for all of them.
  std::string out(s.size() / 4 * 3 + 2, '\0');
  size_t written = 0;
  uint32_t acc = 0;
  int bits = 0;
  for (char c : s) {
    const int v = kBase64Values[static_cast<unsigned char>(c)];
    if (v == kBase64Skip) {
      continue;
    }
    if (v == kBase64Bad) {
      ctx.Cover(1);
      return Value::Null();
    }
    acc = (acc << 6) | static_cast<uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out[written++] = static_cast<char>((acc >> bits) & 0xFF);
    }
  }
  out.resize(written);
  return Value::BlobVal(std::move(out));
}

// --- Tiny regular-expression engine ---------------------------------------
//
// Supports: literal characters, '.', '*' (postfix), '^'/'$' anchors, and
// character classes '[a-z]' with negation and '\xNN…' numeric escapes. The
// numeric-escape range path mirrors the CVE-2016-0773 surface: the reference
// implementation range-checks the codepoint; the PostgreSQL-dialect injected
// bug keys on codepoints at INT32_MAX.

struct RegexClass {
  bool negated = false;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  bool Matches(unsigned char c) const {
    bool hit = false;
    for (const auto& [lo, hi] : ranges) {
      if (c >= lo && c <= hi) {
        hit = true;
        break;
      }
    }
    return negated ? !hit : hit;
  }
};

struct RegexNode {
  enum Kind { kChar, kAny, kClass } kind = kChar;
  char ch = 0;
  RegexClass cls;
  bool star = false;
};

struct RegexProgram {
  bool anchored_start = false;
  bool anchored_end = false;
  std::vector<RegexNode> nodes;
};

Result<int64_t> ParseRegexEscape(std::string_view pattern, size_t& i) {
  // At pattern[i] == '\\'.
  ++i;
  if (i >= pattern.size()) {
    return InvalidArgument("trailing backslash in regex");
  }
  const char c = pattern[i];
  if (c == 'x') {
    ++i;
    int64_t code = 0;
    size_t digits = 0;
    while (i < pattern.size() && digits < 16 && IsAsciiXDigit(pattern[i])) {
      const char h = pattern[i];
      int v = 0;
      if (h >= '0' && h <= '9') {
        v = h - '0';
      } else if (h >= 'a' && h <= 'f') {
        v = h - 'a' + 10;
      } else {
        v = h - 'A' + 10;
      }
      code = code * 16 + v;
      ++i;
      ++digits;
    }
    --i;  // caller advances
    if (digits == 0) {
      return InvalidArgument("empty \\x escape in regex");
    }
    return code;
  }
  switch (c) {
    case 'n':
      return static_cast<int64_t>('\n');
    case 't':
      return static_cast<int64_t>('\t');
    case 'r':
      return static_cast<int64_t>('\r');
    default:
      return static_cast<int64_t>(static_cast<unsigned char>(c));
  }
}

Result<RegexProgram> CompileRegex(std::string_view pattern, FunctionContext& ctx) {
  RegexProgram prog;
  size_t i = 0;
  if (!pattern.empty() && pattern[0] == '^') {
    prog.anchored_start = true;
    i = 1;
  }
  for (; i < pattern.size(); ++i) {
    const char c = pattern[i];
    if (c == '$' && i + 1 == pattern.size()) {
      prog.anchored_end = true;
      break;
    }
    RegexNode node;
    if (c == '.') {
      node.kind = RegexNode::kAny;
    } else if (c == '[') {
      node.kind = RegexNode::kClass;
      ++i;
      if (i < pattern.size() && pattern[i] == '^') {
        node.cls.negated = true;
        ++i;
      }
      while (i < pattern.size() && pattern[i] != ']') {
        int64_t lo = 0;
        if (pattern[i] == '\\') {
          SOFT_ASSIGN_OR_RETURN(lo, ParseRegexEscape(pattern, i));
        } else {
          lo = static_cast<unsigned char>(pattern[i]);
        }
        ++i;
        int64_t hi = lo;
        if (i + 1 < pattern.size() && pattern[i] == '-' && pattern[i + 1] != ']') {
          ++i;
          if (pattern[i] == '\\') {
            SOFT_ASSIGN_OR_RETURN(hi, ParseRegexEscape(pattern, i));
          } else {
            hi = static_cast<unsigned char>(pattern[i]);
          }
          ++i;
        }
        // Range checks: the patched CVE-2016-0773 behaviour rejects
        // codepoints at INT32_MAX instead of overflowing in the expansion
        // loop.
        if (lo > hi) {
          ctx.Cover(3);
          return InvalidArgument("invalid regular expression: bad range");
        }
        if (hi >= 0x7ffffffe) {
          ctx.Cover(4);
          return InvalidArgument("invalid regular expression: invalid escape sequence");
        }
        node.cls.ranges.emplace_back(lo, hi);
      }
      if (i >= pattern.size()) {
        return InvalidArgument("unterminated character class in regex");
      }
    } else if (c == '\\') {
      SOFT_ASSIGN_OR_RETURN(int64_t code, ParseRegexEscape(pattern, i));
      if (code >= 0x7ffffffe) {
        ctx.Cover(4);
        return InvalidArgument("invalid regular expression: invalid escape sequence");
      }
      node.kind = RegexNode::kChar;
      node.ch = static_cast<char>(code & 0xFF);
    } else {
      node.kind = RegexNode::kChar;
      node.ch = c;
    }
    if (i + 1 < pattern.size() && pattern[i + 1] == '*') {
      node.star = true;
      ++i;
    }
    prog.nodes.push_back(std::move(node));
  }
  return prog;
}

bool NodeMatches(const RegexNode& node, unsigned char c) {
  switch (node.kind) {
    case RegexNode::kChar:
      return static_cast<unsigned char>(node.ch) == c;
    case RegexNode::kAny:
      return true;
    case RegexNode::kClass:
      return node.cls.Matches(c);
  }
  return false;
}

bool MatchHere(const std::vector<RegexNode>& nodes, size_t ni, std::string_view s, size_t si,
               bool anchored_end, int depth) {
  if (depth > 10000) {
    return false;  // backtracking guard
  }
  if (ni == nodes.size()) {
    return !anchored_end || si == s.size();
  }
  const RegexNode& node = nodes[ni];
  if (node.star) {
    // Zero occurrences first, then extend greedily via recursion.
    if (MatchHere(nodes, ni + 1, s, si, anchored_end, depth + 1)) {
      return true;
    }
    while (si < s.size() && NodeMatches(node, static_cast<unsigned char>(s[si]))) {
      ++si;
      if (MatchHere(nodes, ni + 1, s, si, anchored_end, depth + 1)) {
        return true;
      }
    }
    return false;
  }
  if (si < s.size() && NodeMatches(node, static_cast<unsigned char>(s[si]))) {
    return MatchHere(nodes, ni + 1, s, si + 1, anchored_end, depth + 1);
  }
  return false;
}

bool RunRegex(const RegexProgram& prog, std::string_view s) {
  if (prog.anchored_start) {
    return MatchHere(prog.nodes, 0, s, 0, prog.anchored_end, 0);
  }
  for (size_t start = 0; start <= s.size(); ++start) {
    if (MatchHere(prog.nodes, 0, s, start, prog.anchored_end, 0)) {
      return true;
    }
  }
  return false;
}

Result<Value> FnRegexpLike(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view pattern, ctx.ArgString(args[1]));
  if (pattern.empty()) {
    ctx.Cover(1);
    return Value::Boolean(true);
  }
  if (s.size() > 262144 || pattern.size() > 4096) {
    ctx.Cover(5);
    return ResourceExhausted("REGEXP_LIKE operand exceeds matcher limits");
  }
  SOFT_ASSIGN_OR_RETURN(RegexProgram prog, CompileRegex(pattern, ctx));
  if (prog.nodes.empty()) {
    ctx.Cover(2);
  }
  return Value::Boolean(RunRegex(prog, s));
}

Result<Value> FnRegexpReplace(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view pattern, ctx.ArgString(args[1]));
  SOFT_ASSIGN_OR_RETURN(std::string_view replacement, ctx.ArgString(args[2]));
  if (pattern.empty()) {
    ctx.Cover(1);
    return Value::Str(std::string(s));
  }
  // The window scan below is quadratic in the subject; enforce the regex
  // engine's subject limit rather than letting giant REPEAT outputs stall
  // the whole server (resource guard, not a crash).
  if (s.size() > 16384 || pattern.size() > 1024) {
    ctx.Cover(3);
    return ResourceExhausted("REGEXP_REPLACE operand exceeds matcher limits");
  }
  SOFT_ASSIGN_OR_RETURN(RegexProgram prog, CompileRegex(pattern, ctx));
  // Replace the leftmost shortest match at each position (simplified): each
  // window must match whole, so '^' and '$' anchor nothing inside it.
  prog.anchored_start = true;
  prog.anchored_end = true;
  const std::string_view subject = s;
  std::string out;
  size_t pos = 0;
  while (pos < s.size()) {
    // Some window starting at pos matches exactly when the pattern matches a
    // prefix of the rest, so one unanchored probe skips the window scan at
    // most positions. MatchHere's depth guard cannot fire: the depth is at
    // most the node count, and patterns are at most 1,024 bytes.
    bool matched = false;
    if (MatchHere(prog.nodes, 0, subject.substr(pos), 0, /*anchored_end=*/false, 0)) {
      for (size_t end = pos; end <= s.size(); ++end) {
        if (RunRegex(prog, subject.substr(pos, end - pos))) {
          out += replacement;
          pos = end > pos ? end : pos + 1;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      out.push_back(s[pos]);
      ++pos;
    }
    if (out.size() > ctx.limits().max_string_len) {
      ctx.Cover(2);
      return ResourceExhausted("REGEXP_REPLACE result exceeds engine string limit");
    }
  }
  return Value::Str(std::move(out));
}

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args, ScalarFunction fn,
         const char* doc, const char* example) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kString;
  def.min_args = min_args;
  def.max_args = max_args;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterStringFunctions(FunctionRegistry& r) {
  Reg(r, "LENGTH", 1, 1, FnLength, "Byte length of a string", "LENGTH('abc')");
  Reg(r, "CHAR_LENGTH", 1, 1, FnLength, "Character length of a string",
      "CHAR_LENGTH('abc')");
  Reg(r, "OCTET_LENGTH", 1, 1, FnLength, "Byte length of a string", "OCTET_LENGTH('abc')");
  Reg(r, "UPPER", 1, 1, FnUpper, "Uppercase conversion", "UPPER('abc')");
  Reg(r, "LOWER", 1, 1, FnLower, "Lowercase conversion", "LOWER('ABC')");
  Reg(r, "CONCAT", 1, -1, FnConcat, "String concatenation", "CONCAT('a', 'b')");
  {
    // CONCAT_WS skips NULL values instead of propagating them, so it opts
    // out of the engine's default NULL short-circuit.
    FunctionDef def;
    def.name = "CONCAT_WS";
    def.type = FunctionType::kString;
    def.min_args = 2;
    def.max_args = -1;
    def.null_propagates = false;
    def.scalar = FnConcatWs;
    def.doc = "Concatenation with separator (skips NULLs)";
    def.example = "CONCAT_WS(',', 'a', 'b')";
    r.Register(std::move(def));
  }
  Reg(r, "SUBSTR", 2, 3, FnSubstr, "Substring extraction", "SUBSTR('abcdef', 2, 3)");
  Reg(r, "SUBSTRING", 2, 3, FnSubstr, "Substring extraction", "SUBSTRING('abcdef', 2, 3)");
  Reg(r, "LEFT", 2, 2, FnLeft, "Leftmost characters", "LEFT('abcdef', 3)");
  Reg(r, "RIGHT", 2, 2, FnRight, "Rightmost characters", "RIGHT('abcdef', 3)");
  Reg(r, "LPAD", 2, 3, FnLpad, "Left padding to a target length", "LPAD('5', 3, '0')");
  Reg(r, "RPAD", 2, 3, FnRpad, "Right padding to a target length", "RPAD('5', 3, '0')");
  Reg(r, "TRIM", 1, 1, FnTrim, "Strip spaces from both ends", "TRIM('  a  ')");
  Reg(r, "LTRIM", 1, 1, FnLtrim, "Strip leading spaces", "LTRIM('  a')");
  Reg(r, "RTRIM", 1, 1, FnRtrim, "Strip trailing spaces", "RTRIM('a  ')");
  Reg(r, "REPLACE", 3, 3, FnReplace, "Substring replacement",
      "REPLACE('banana', 'a', 'o')");
  Reg(r, "REPEAT", 2, 2, FnRepeat, "Repeat a string N times", "REPEAT('ab', 3)");
  Reg(r, "REVERSE", 1, 1, FnReverse, "Reverse a string", "REVERSE('abc')");
  Reg(r, "INSTR", 2, 2, FnInstr, "Position of substring", "INSTR('banana', 'na')");
  Reg(r, "LOCATE", 2, 3, FnLocate, "Position of substring from offset",
      "LOCATE('na', 'banana', 3)");
  Reg(r, "ASCII", 1, 1, FnAscii, "Code of the first character", "ASCII('A')");
  Reg(r, "CHR", 1, 1, FnChr, "Character from code", "CHR(65)");
  Reg(r, "SPACE", 1, 1, FnSpace, "String of N spaces", "SPACE(4)");
  Reg(r, "FORMAT", 2, 3, FnFormat, "Number formatting with separators",
      "FORMAT(1234.567, 2)");
  Reg(r, "HEX", 1, 1, FnHex, "Hex encoding", "HEX('abc')");
  Reg(r, "UNHEX", 1, 1, FnUnhex, "Hex decoding", "UNHEX('616263')");
  Reg(r, "MD5", 1, 1, FnMd5, "Digest of a string (simulated)", "MD5('abc')");
  Reg(r, "SHA1", 1, 1, FnSha1, "Digest of a string (simulated)", "SHA1('abc')");
  Reg(r, "STRCMP", 2, 2, FnStrcmp, "Three-way string comparison", "STRCMP('a', 'b')");
  Reg(r, "ELT", 2, -1, FnElt, "N-th string of a list", "ELT(2, 'a', 'b', 'c')");
  Reg(r, "FIELD", 2, -1, FnField, "Index of a string in a list",
      "FIELD('b', 'a', 'b', 'c')");
  Reg(r, "SPLIT_PART", 3, 3, FnSplitPart, "N-th field of a delimited string",
      "SPLIT_PART('a,b,c', ',', 2)");
  Reg(r, "TRANSLATE", 3, 3, FnTranslate, "Per-character mapping",
      "TRANSLATE('abc', 'abc', 'xyz')");
  Reg(r, "INITCAP", 1, 1, FnInitcap, "Capitalize each word", "INITCAP('hello world')");
  Reg(r, "QUOTE", 1, 1, FnQuote, "SQL-quote a string", "QUOTE('it''s')");
  Reg(r, "SOUNDEX", 1, 1, FnSoundex, "Phonetic code", "SOUNDEX('Robert')");
  Reg(r, "TO_BASE64", 1, 1, FnToBase64, "Base64 encoding", "TO_BASE64('abc')");
  Reg(r, "FROM_BASE64", 1, 1, FnFromBase64, "Base64 decoding", "FROM_BASE64('YWJj')");
  Reg(r, "REGEXP_LIKE", 2, 2, FnRegexpLike, "Regular-expression match",
      "REGEXP_LIKE('abc', 'a.c')");
  Reg(r, "REGEXP_REPLACE", 3, 3, FnRegexpReplace, "Regular-expression replacement",
      "REGEXP_REPLACE('abc', 'b', 'x')");
}

}  // namespace soft
