// Decimal substrate tests: exactness across digit-count boundaries is what
// the fault corpus and Pattern 1.1/1.3 rely on.
#include <gtest/gtest.h>

#include <string>

#include "src/sqlvalue/decimal.h"

namespace soft {
namespace {

Decimal Dec(const std::string& text) {
  Result<Decimal> d = Decimal::FromString(text);
  EXPECT_TRUE(d.ok()) << text << ": " << d.status().ToString();
  return d.ok() ? *d : Decimal();
}

TEST(DecimalParse, BasicForms) {
  EXPECT_EQ(Dec("0").ToString(), "0");
  EXPECT_EQ(Dec("42").ToString(), "42");
  EXPECT_EQ(Dec("-42").ToString(), "-42");
  EXPECT_EQ(Dec("1.50").ToString(), "1.50");
  EXPECT_EQ(Dec("-0.5").ToString(), "-0.5");
  EXPECT_EQ(Dec(".5").ToString(), "0.5");
  EXPECT_EQ(Dec("  7  ").ToString(), "7");
}

TEST(DecimalParse, ExponentForms) {
  EXPECT_EQ(Dec("1e3").ToString(), "1000");
  EXPECT_EQ(Dec("1.5e2").ToString(), "150");
  EXPECT_EQ(Dec("1e-3").ToString(), "0.001");
  EXPECT_EQ(Dec("1.5e-2").ToString(), "0.015");
}

TEST(DecimalParse, RejectsGarbage) {
  EXPECT_FALSE(Decimal::FromString("").ok());
  EXPECT_FALSE(Decimal::FromString("abc").ok());
  EXPECT_FALSE(Decimal::FromString("1.2.3").ok());
  EXPECT_FALSE(Decimal::FromString("1e").ok());
  EXPECT_FALSE(Decimal::FromString(".").ok());
}

TEST(DecimalParse, HardDigitLimitIsResourceError) {
  const std::string huge(Decimal::kHardDigitLimit + 1, '9');
  const Result<Decimal> d = Decimal::FromString(huge);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kResourceExhausted);
}

// Megabyte literals keep every error and its precedence: a malformed
// exponent is reported before a malformed literal, which is reported before
// the hard digit limit.
TEST(DecimalParse, MegabyteErrorsKeepTheirPrecedence) {
  const std::string digits(1100000, '9');
  const auto message = [](const std::string& text) {
    const Result<Decimal> d = Decimal::FromString(text);
    return d.ok() ? std::string("ok") : d.status().message();
  };
  EXPECT_EQ(message(digits), "DECIMAL literal exceeds hard digit limit");
  EXPECT_EQ(message(digits + "x"), "malformed DECIMAL literal");
  EXPECT_EQ(message(digits + ".1.2"), "malformed DECIMAL literal");
  EXPECT_EQ(message("." + digits), "DECIMAL literal exceeds hard digit limit");
  EXPECT_EQ(message(digits + "e1x"), "malformed DECIMAL exponent");
  EXPECT_EQ(message("x" + digits + "e"), "malformed DECIMAL exponent");
  EXPECT_EQ(message("1e" + digits), "malformed DECIMAL exponent");
  EXPECT_EQ(message("x" + digits + "E5"), "malformed DECIMAL literal");
  EXPECT_EQ(message(std::string(1100000, ' ') + "-1.5" + std::string(1100000, '\n')), "ok");
  // An empty integer part counts as one digit against the limit.
  const std::string ones(Decimal::kHardDigitLimit - 1, '1');
  EXPECT_EQ(message("." + ones), "ok");
  EXPECT_EQ(message(".1" + ones), "DECIMAL literal exceeds hard digit limit");
  EXPECT_EQ(message(ones + "1e-1"), "ok");
  EXPECT_EQ(message("1." + ones + "e-2"), "DECIMAL scale exceeds hard digit limit");
}

TEST(DecimalDigits, CountsAreExact) {
  const Decimal d = Dec("123.4567");
  EXPECT_EQ(d.total_digits(), 7);
  EXPECT_EQ(d.integer_digits(), 3);
  EXPECT_EQ(d.fraction_digits(), 4);
  // The MDEV-8407 shape: a 48-digit value must report 48 digits.
  const std::string digits48(48, '9');
  EXPECT_EQ(Dec(digits48).total_digits(), 48);
}

TEST(DecimalDigits, LeadingZerosNormalized) {
  EXPECT_EQ(Dec("000123").ToString(), "123");
  EXPECT_EQ(Dec("0.500").fraction_digits(), 3);  // trailing zeros kept
  EXPECT_EQ(Dec("-000.5").ToString(), "-0.5");
}

TEST(DecimalArithmetic, AddSub) {
  EXPECT_EQ(Decimal::Add(Dec("1.5"), Dec("2.25")).ToString(), "3.75");
  EXPECT_EQ(Decimal::Add(Dec("-1.5"), Dec("1.5")).ToString(), "0.0");
  EXPECT_EQ(Decimal::Sub(Dec("1"), Dec("2")).ToString(), "-1");
  EXPECT_EQ(Decimal::Add(Dec("9999999999999999999"), Dec("1")).ToString(),
            "10000000000000000000");
}

TEST(DecimalArithmetic, MulExactAtScale) {
  EXPECT_EQ(Decimal::Mul(Dec("1.5"), Dec("2")).ToString(), "3.0");
  EXPECT_EQ(Decimal::Mul(Dec("-1.5"), Dec("1.5")).ToString(), "-2.25");
  // 40-digit multiplication stays exact.
  const std::string n20(20, '9');
  const Decimal prod = Decimal::Mul(Dec(n20), Dec(n20));
  EXPECT_EQ(prod.total_digits(), 40);
}

TEST(DecimalArithmetic, DivExactAndByZero) {
  const Result<Decimal> q = Decimal::Div(Dec("1"), Dec("4"), 4);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ToString(), "0.2500");
  EXPECT_FALSE(Decimal::Div(Dec("1"), Dec("0")).ok());
  const Result<Decimal> third = Decimal::Div(Dec("10"), Dec("3"), 6);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->ToString(), "3.333333");
}

TEST(DecimalCompare, Ordering) {
  EXPECT_LT(Decimal::Compare(Dec("-1"), Dec("1")), 0);
  EXPECT_GT(Decimal::Compare(Dec("1.01"), Dec("1.001")), 0);
  EXPECT_EQ(Decimal::Compare(Dec("1.50"), Dec("1.5")), 0);
  EXPECT_EQ(Decimal::Compare(Dec("0"), Dec("-0")), 0);
  EXPECT_LT(Decimal::Compare(Dec("-2"), Dec("-1")), 0);
}

TEST(DecimalRound, HalfAwayFromZero) {
  EXPECT_EQ(Dec("1.25").Rounded(1).ToString(), "1.3");
  EXPECT_EQ(Dec("-1.25").Rounded(1).ToString(), "-1.3");
  EXPECT_EQ(Dec("1.24").Rounded(1).ToString(), "1.2");
  EXPECT_EQ(Dec("9.99").Rounded(1).ToString(), "10.0");
  EXPECT_EQ(Dec("1.5").Rounded(0).ToString(), "2");
  EXPECT_EQ(Dec("1.5").Rounded(3).ToString(), "1.500");
}

TEST(DecimalConvert, ToInt64RangeChecked) {
  EXPECT_EQ(*Dec("42.9").ToInt64(), 42);
  EXPECT_EQ(*Dec("-42.9").ToInt64(), -42);
  EXPECT_EQ(*Dec("9223372036854775807").ToInt64(), INT64_MAX);
  EXPECT_EQ(*Dec("-9223372036854775808").ToInt64(), INT64_MIN);
  EXPECT_FALSE(Dec("9223372036854775808").ToInt64().ok());
  EXPECT_FALSE(Dec(std::string(30, '9')).ToInt64().ok());
}

TEST(DecimalConvert, FromInt64Extremes) {
  EXPECT_EQ(Decimal::FromInt64(INT64_MIN).ToString(), "-9223372036854775808");
  EXPECT_EQ(Decimal::FromInt64(INT64_MAX).ToString(), "9223372036854775807");
  EXPECT_EQ(Decimal::FromInt64(0).ToString(), "0");
}

TEST(DecimalConvert, DoubleRoundTrip) {
  EXPECT_DOUBLE_EQ(Dec("1.5").ToDouble(), 1.5);
  EXPECT_DOUBLE_EQ(Dec("-0.25").ToDouble(), -0.25);
  const Result<Decimal> d = Decimal::FromDouble(0.1);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->ToDouble(), 0.1);
  EXPECT_FALSE(Decimal::FromDouble(1.0 / 0.0).ok());
}

TEST(DecimalScientific, Mdev23415Shape) {
  // MariaDB's String::set_real switches to scientific notation for small
  // values — the returned short string is the MDEV-23415 overflow source.
  EXPECT_EQ(Dec("0.00000000000000000000000000000001").ToScientificString(), "1e-32");
  EXPECT_EQ(Dec("150").ToScientificString(), "1.5e2");
  EXPECT_EQ(Dec("-0.5").ToScientificString(), "-5e-1");
  EXPECT_EQ(Dec("0").ToScientificString(), "0e0");
}

// Property sweep: ToString/FromString round-trips across digit lengths.
class DecimalRoundTripTest : public testing::TestWithParam<int> {};

TEST_P(DecimalRoundTripTest, StringRoundTrip) {
  const int digits = GetParam();
  const std::string nines(digits, '9');
  for (const std::string& text :
       {nines, "-" + nines, "0." + nines, "1." + nines, nines + "." + nines}) {
    const Decimal d = Dec(text);
    EXPECT_EQ(Dec(d.ToString()).ToString(), d.ToString()) << text;
    EXPECT_EQ(Decimal::Compare(d, Dec(d.ToString())), 0) << text;
  }
}

TEST_P(DecimalRoundTripTest, AddIsInverseOfSub) {
  const int digits = GetParam();
  const Decimal a = Dec(std::string(digits, '7') + ".5");
  const Decimal b = Dec("0." + std::string(digits, '3'));
  const Decimal sum = Decimal::Add(a, b);
  EXPECT_EQ(Decimal::Compare(Decimal::Sub(sum, b), a), 0) << digits;
}

INSTANTIATE_TEST_SUITE_P(DigitSweep, DecimalRoundTripTest,
                         testing::Values(1, 2, 5, 10, 20, 31, 38, 40, 41, 50, 65, 66,
                                         80, 100));

}  // namespace
}  // namespace soft
