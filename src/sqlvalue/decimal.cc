#include "src/sqlvalue/decimal.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "src/util/str_util.h"

namespace soft {
namespace {

bool AllDigits(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), IsAsciiDigit);
}

}  // namespace

void Decimal::Normalize() {
  if (scale_ < 0) {
    // Negative scale means trailing integer zeros were implied; materialize.
    digits_.append(static_cast<size_t>(-scale_), '0');
    scale_ = 0;
  }
  // Ensure the digit string covers the fractional part plus at least one
  // integer digit (so 1e-3 renders "0.001", not ".001").
  if (static_cast<int>(digits_.size()) <= scale_) {
    digits_.insert(0, static_cast<size_t>(scale_) + 1 - digits_.size(), '0');
  }
  // Strip leading zeros of the integer part (keep digits for the fraction).
  size_t strip = 0;
  while (strip + 1 < digits_.size() &&
         static_cast<int>(digits_.size() - strip) > scale_ + 1 && digits_[strip] == '0') {
    ++strip;
  }
  // One more: allow integer part "0.xxx" to be a single zero digit... the loop
  // above already keeps integer part length >= 1.
  if (strip > 0) {
    digits_.erase(0, strip);
  }
  if (IsZero()) {
    negative_ = false;
  }
}

bool Decimal::IsZero() const {
  return digits_.find_first_not_of('0') == std::string::npos;
}

Decimal Decimal::FromInt64(int64_t v) {
  if (v == 0) {
    return Decimal();
  }
  const bool neg = v < 0;
  // Careful with INT64_MIN.
  uint64_t mag = neg ? (~static_cast<uint64_t>(v) + 1) : static_cast<uint64_t>(v);
  std::string digits;
  while (mag > 0) {
    digits.push_back(static_cast<char>('0' + mag % 10));
    mag /= 10;
  }
  std::reverse(digits.begin(), digits.end());
  return Decimal(neg, std::move(digits), 0);
}

Result<Decimal> Decimal::FromDouble(double v) {
  if (std::isnan(v) || std::isinf(v)) {
    return InvalidArgument("cannot convert non-finite double to DECIMAL");
  }
  char buf[64];
  // %.17g round-trips doubles; parse the result as decimal text.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return FromString(buf);
}

Result<Decimal> Decimal::FromString(std::string_view s) {
  // Trim surrounding whitespace.
  s = TrimWhitespace(s);
  if (s.empty()) {
    return InvalidArgument("empty DECIMAL literal");
  }
  bool neg = false;
  if (s.front() == '+' || s.front() == '-') {
    neg = s.front() == '-';
    s.remove_prefix(1);
  }
  // One scan of the mantissa, which ends at the first 'e' or 'E': where its
  // first '.' is, and whether any other byte of it is not a digit. Nothing
  // is copied before every check has passed, and the checks keep their
  // order: the exponent, then the literal, then the digit limit.
  size_t epos = 0;
  size_t dot = std::string_view::npos;
  bool digits_only = true;
  for (; epos < s.size(); ++epos) {
    const char c = s[epos];
    if (c == 'e' || c == 'E') {
      break;
    }
    if (c == '.' && dot == std::string_view::npos) {
      dot = epos;
    } else if (!IsAsciiDigit(c)) {
      // The literal is malformed; only the exponent, whose error comes
      // first, is still to be found.
      digits_only = false;
      epos = std::min({s.find('e', epos), s.find('E', epos), s.size()});
      break;
    }
  }
  // Optional exponent suffix.
  int exponent = 0;
  if (epos < s.size()) {
    std::string_view exp_text = s.substr(epos + 1);
    s = s.substr(0, epos);
    bool exp_neg = false;
    if (!exp_text.empty() && (exp_text.front() == '+' || exp_text.front() == '-')) {
      exp_neg = exp_text.front() == '-';
      exp_text.remove_prefix(1);
    }
    if (exp_text.size() > 6 || !AllDigits(exp_text)) {
      return InvalidArgument("malformed DECIMAL exponent");
    }
    int mag = 0;
    std::from_chars(exp_text.data(), exp_text.data() + exp_text.size(), mag);
    exponent = exp_neg ? -mag : mag;
  }

  const std::string_view int_part = s.substr(0, std::min(dot, s.size()));
  const std::string_view frac_part =
      dot == std::string_view::npos ? std::string_view() : s.substr(dot + 1);
  if ((int_part.empty() && frac_part.empty()) || !digits_only) {
    return InvalidArgument("malformed DECIMAL literal");
  }
  // An empty integer part reads as one '0'.
  const size_t int_digits = int_part.empty() ? 1 : int_part.size();
  if (int_digits + frac_part.size() > static_cast<size_t>(kHardDigitLimit)) {
    return ResourceExhausted("DECIMAL literal exceeds hard digit limit");
  }

  std::string digits;
  digits.reserve(int_digits + frac_part.size());
  digits.append(int_part.empty() ? std::string_view("0") : int_part);
  digits.append(frac_part);
  int scale = static_cast<int>(frac_part.size());
  // Apply the exponent by shifting the scale.
  scale -= exponent;
  if (scale < 0) {
    digits.append(static_cast<size_t>(-scale), '0');
    scale = 0;
  }
  if (scale > kHardDigitLimit) {
    return ResourceExhausted("DECIMAL scale exceeds hard digit limit");
  }
  return Decimal(neg, std::move(digits), scale);
}

std::string Decimal::ToString() const {
  std::string out;
  if (negative()) {
    out.push_back('-');
  }
  const int int_len = integer_digits();
  out.append(digits_, 0, static_cast<size_t>(int_len));
  if (scale_ > 0) {
    out.push_back('.');
    out.append(digits_, static_cast<size_t>(int_len), static_cast<size_t>(scale_));
  }
  return out;
}

std::string Decimal::ToScientificString() const {
  if (IsZero()) {
    return "0e0";
  }
  // Find the first significant digit; exponent counts from there.
  const size_t first = digits_.find_first_not_of('0');
  const int int_len = integer_digits();
  // Position value of the first significant digit: 10^(int_len - 1 - first).
  const int exp = int_len - 1 - static_cast<int>(first);
  std::string mantissa;
  mantissa.push_back(digits_[first]);
  std::string rest = digits_.substr(first + 1);
  // Strip trailing zeros from the mantissa remainder.
  const size_t last = rest.find_last_not_of('0');
  rest = (last == std::string::npos) ? std::string() : rest.substr(0, last + 1);
  if (!rest.empty()) {
    mantissa.push_back('.');
    mantissa += rest;
  }
  std::string out;
  if (negative()) {
    out.push_back('-');
  }
  out += mantissa;
  out.push_back('e');
  out += std::to_string(exp);
  return out;
}

double Decimal::ToDouble() const {
  // Parse a bounded prefix (doubles cannot hold more than ~17 digits anyway);
  // keep the exponent exact via the scale.
  const std::string text = ToString();
  return std::strtod(text.c_str(), nullptr);
}

Result<int64_t> Decimal::ToInt64() const {
  const int int_len = integer_digits();
  std::string_view int_digits(digits_.data(), static_cast<size_t>(int_len));
  // Strip leading zeros for the magnitude check.
  const size_t first = int_digits.find_first_not_of('0');
  if (first == std::string_view::npos) {
    return static_cast<int64_t>(0);
  }
  int_digits.remove_prefix(first);
  if (int_digits.size() > 19) {
    return InvalidArgument("DECIMAL out of INT range");
  }
  uint64_t mag = 0;
  for (char c : int_digits) {
    mag = mag * 10 + static_cast<uint64_t>(c - '0');
  }
  if (negative()) {
    if (mag > static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + 1) {
      return InvalidArgument("DECIMAL out of INT range");
    }
    return static_cast<int64_t>(~mag + 1);
  }
  if (mag > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return InvalidArgument("DECIMAL out of INT range");
  }
  return static_cast<int64_t>(mag);
}

Decimal Decimal::Negated() const {
  Decimal out = *this;
  if (!out.IsZero()) {
    out.negative_ = !out.negative_;
  }
  return out;
}

Decimal Decimal::Rounded(int new_scale) const {
  if (new_scale < 0) {
    new_scale = 0;
  }
  if (new_scale >= scale_) {
    // Extend with zeros.
    Decimal out = *this;
    out.digits_.append(static_cast<size_t>(new_scale - scale_), '0');
    out.scale_ = new_scale;
    return out;
  }
  const int drop = scale_ - new_scale;
  std::string kept = digits_.substr(0, digits_.size() - static_cast<size_t>(drop));
  const char next = digits_[digits_.size() - static_cast<size_t>(drop)];
  if (kept.empty()) {
    kept.push_back('0');
  }
  if (next >= '5') {
    // Increment the kept magnitude by one unit.
    kept = AddMagnitude(kept, "1");
  }
  return Decimal(negative_, std::move(kept), new_scale);
}

int Decimal::CompareMagnitude(const std::string& a, const std::string& b) {
  // Compare as integers: strip leading zeros first.
  const size_t fa = std::min(a.find_first_not_of('0'), a.size());
  const size_t fb = std::min(b.find_first_not_of('0'), b.size());
  const size_t la = a.size() - fa;
  const size_t lb = b.size() - fb;
  if (la != lb) {
    return la < lb ? -1 : 1;
  }
  const int c = a.compare(fa, la, b, fb, lb);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

std::string Decimal::AddMagnitude(const std::string& a, const std::string& b) {
  std::string out;
  out.reserve(std::max(a.size(), b.size()) + 1);
  int carry = 0;
  auto ia = a.rbegin();
  auto ib = b.rbegin();
  while (ia != a.rend() || ib != b.rend() || carry != 0) {
    int sum = carry;
    if (ia != a.rend()) {
      sum += *ia - '0';
      ++ia;
    }
    if (ib != b.rend()) {
      sum += *ib - '0';
      ++ib;
    }
    out.push_back(static_cast<char>('0' + sum % 10));
    carry = sum / 10;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string Decimal::SubMagnitude(const std::string& a, const std::string& b) {
  assert(CompareMagnitude(a, b) >= 0);
  std::string out;
  out.reserve(a.size());
  int borrow = 0;
  auto ia = a.rbegin();
  auto ib = b.rbegin();
  while (ia != a.rend()) {
    int diff = (*ia - '0') - borrow;
    if (ib != b.rend()) {
      diff -= *ib - '0';
      ++ib;
    }
    if (diff < 0) {
      diff += 10;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<char>('0' + diff));
    ++ia;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

namespace {

// Aligns two decimals to a common scale, returning padded digit strings.
void AlignScales(const Decimal& a, const Decimal& b, std::string& da, std::string& db,
                 int& scale, const std::string& a_digits, int a_scale,
                 const std::string& b_digits, int b_scale) {
  scale = std::max(a_scale, b_scale);
  da = a_digits;
  da.append(static_cast<size_t>(scale - a_scale), '0');
  db = b_digits;
  db.append(static_cast<size_t>(scale - b_scale), '0');
  (void)a;
  (void)b;
}

}  // namespace

Decimal Decimal::Add(const Decimal& a, const Decimal& b) {
  std::string da;
  std::string db;
  int scale = 0;
  AlignScales(a, b, da, db, scale, a.digits_, a.scale_, b.digits_, b.scale_);
  if (a.negative() == b.negative()) {
    return Decimal(a.negative(), AddMagnitude(da, db), scale);
  }
  const int cmp = CompareMagnitude(da, db);
  if (cmp == 0) {
    return Decimal(false, std::string(static_cast<size_t>(scale) + 1, '0'), scale);
  }
  if (cmp > 0) {
    return Decimal(a.negative(), SubMagnitude(da, db), scale);
  }
  return Decimal(b.negative(), SubMagnitude(db, da), scale);
}

Decimal Decimal::Sub(const Decimal& a, const Decimal& b) { return Add(a, b.Negated()); }

Decimal Decimal::Mul(const Decimal& a, const Decimal& b) {
  if (a.IsZero() || b.IsZero()) {
    return Decimal();
  }
  // Schoolbook multiplication over digit vectors.
  const std::string& x = a.digits_;
  const std::string& y = b.digits_;
  std::vector<int> acc(x.size() + y.size(), 0);
  for (size_t i = x.size(); i-- > 0;) {
    for (size_t j = y.size(); j-- > 0;) {
      acc[i + j + 1] += (x[i] - '0') * (y[j] - '0');
    }
  }
  for (size_t k = acc.size(); k-- > 1;) {
    acc[k - 1] += acc[k] / 10;
    acc[k] %= 10;
  }
  std::string digits;
  digits.reserve(acc.size());
  for (int d : acc) {
    digits.push_back(static_cast<char>('0' + d));
  }
  return Decimal(a.negative() != b.negative(), std::move(digits), a.scale_ + b.scale_);
}

Result<Decimal> Decimal::Div(const Decimal& a, const Decimal& b, int result_scale) {
  if (b.IsZero()) {
    return InvalidArgument("division by zero");
  }
  if (a.IsZero()) {
    return Decimal();
  }
  if (result_scale < 0) {
    result_scale = 0;
  }
  // Long division on magnitudes: compute floor(A * 10^k / B) where the
  // operands are scaled integers.
  std::string dividend = a.digits_;
  dividend.append(static_cast<size_t>(result_scale + b.scale_), '0');
  const std::string& divisor = b.digits_;

  std::string quotient;
  std::string remainder;
  quotient.reserve(dividend.size());
  for (char c : dividend) {
    remainder.push_back(c);
    // Strip leading zeros in remainder for compare speed.
    const size_t nz = remainder.find_first_not_of('0');
    if (nz == std::string::npos) {
      remainder.assign(1, '0');
    } else if (nz > 0) {
      remainder.erase(0, nz);
    }
    int q = 0;
    while (CompareMagnitude(remainder, divisor) >= 0) {
      remainder = SubMagnitude(
          std::string(std::max(remainder.size(), divisor.size()) - remainder.size(), '0') +
              remainder,
          std::string(std::max(remainder.size(), divisor.size()) - divisor.size(), '0') +
              divisor);
      const size_t rnz = remainder.find_first_not_of('0');
      remainder = (rnz == std::string::npos) ? "0" : remainder.substr(rnz);
      ++q;
    }
    quotient.push_back(static_cast<char>('0' + q));
  }
  // quotient currently has scale (result_scale + a.scale_).
  Decimal out(a.negative() != b.negative(), std::move(quotient), result_scale + a.scale_);
  return out.Rounded(result_scale);
}

int Decimal::Compare(const Decimal& a, const Decimal& b) {
  const bool an = a.negative();
  const bool bn = b.negative();
  if (an != bn) {
    return an ? -1 : 1;
  }
  std::string da;
  std::string db;
  int scale = 0;
  AlignScales(a, b, da, db, scale, a.digits_, a.scale_, b.digits_, b.scale_);
  const int mag = CompareMagnitude(da, db);
  return an ? -mag : mag;
}

}  // namespace soft
