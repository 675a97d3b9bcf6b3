// Behaviour tests for the math and date/time function libraries.
#include <gtest/gtest.h>

#include "src/engine/database.h"
#include "src/sqlvalue/inet.h"

namespace soft {
namespace {

class FunctionsTest : public testing::Test {
 protected:
  std::string Eval(const std::string& expr) {
    const StatementResult r = db_.Execute("SELECT " + expr);
    if (!r.ok()) {
      return std::string("<").append(StatusCodeName(r.status.code())).append(">");
    }
    return r.rows[0][0].ToDisplayString();
  }
  Database db_;
};

TEST_F(FunctionsTest, AbsSignBoundaries) {
  EXPECT_EQ(Eval("ABS(-5)"), "5");
  EXPECT_EQ(Eval("ABS(5)"), "5");
  EXPECT_EQ(Eval("ABS(-1.25)"), "1.25");  // exact decimal path
  // The INT64_MIN literal doesn't fit int64, so the parser types it DECIMAL
  // and ABS stays exact (a true int64 INT64_MIN would be an overflow error).
  EXPECT_EQ(Eval("ABS(-9223372036854775808)"), "9223372036854775808");
  EXPECT_EQ(Eval("SIGN(-3)"), "-1");
  EXPECT_EQ(Eval("SIGN(0)"), "0");
  EXPECT_EQ(Eval("SIGN(0.5)"), "1");
}

TEST_F(FunctionsTest, RoundingFamily) {
  EXPECT_EQ(Eval("CEIL(1.2)"), "2");
  EXPECT_EQ(Eval("CEIL(-1.2)"), "-1");
  EXPECT_EQ(Eval("FLOOR(1.8)"), "1");
  EXPECT_EQ(Eval("FLOOR(-1.2)"), "-2");
  EXPECT_EQ(Eval("ROUND(1.2345, 2)"), "1.23");
  EXPECT_EQ(Eval("ROUND(1.5)"), "2");
  EXPECT_EQ(Eval("ROUND(-1.5)"), "-2");  // half away from zero
  EXPECT_EQ(Eval("ROUND(1234.5, -2)"), "1200");
  EXPECT_EQ(Eval("TRUNCATE(1.999, 1)"), "1.9");
  EXPECT_EQ(Eval("TRUNCATE(-1.999, 1)"), "-1.9");
  EXPECT_EQ(Eval("TRUNCATE(5, 2)"), "5");
}

TEST_F(FunctionsTest, ModDivBoundaries) {
  EXPECT_EQ(Eval("MOD(10, 3)"), "1");
  EXPECT_EQ(Eval("MOD(-10, 3)"), "-1");
  EXPECT_EQ(Eval("MOD(10, 0)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("MOD(-9223372036854775808, -1)"), "0");  // checked SIGFPE case
  EXPECT_EQ(Eval("DIV(10, 3)"), "3");
  EXPECT_EQ(Eval("DIV(10, 0)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("DIV(-9223372036854775808, -1)"), "<INVALID_ARGUMENT>");
}

TEST_F(FunctionsTest, PowerLogDomains) {
  EXPECT_EQ(Eval("POWER(2, 10)"), "1024");
  EXPECT_EQ(Eval("POWER(2, 10000)"), "<INVALID_ARGUMENT>");  // overflow
  EXPECT_EQ(Eval("POWER(0, -1)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("SQRT(-1)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("SQRT(4)"), "2");
  EXPECT_EQ(Eval("LN(0)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("LOG(2, 8)"), "3");
  EXPECT_EQ(Eval("LOG(1, 8)"), "<INVALID_ARGUMENT>");  // base 1
  EXPECT_EQ(Eval("LOG10(100)"), "2");
  EXPECT_EQ(Eval("LOG2(8)"), "3");
  EXPECT_EQ(Eval("EXP(10000)"), "<INVALID_ARGUMENT>");
}

TEST_F(FunctionsTest, TrigDomains) {
  EXPECT_EQ(Eval("SIN(0)"), "0");
  EXPECT_EQ(Eval("COS(0)"), "1");
  EXPECT_EQ(Eval("ASIN(2)"), "<INVALID_ARGUMENT>");  // |x| > 1
  EXPECT_EQ(Eval("ACOS(-2)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("ATAN2(0, 1)"), "0");
  EXPECT_EQ(Eval("DEGREES(PI())"), "180");
  EXPECT_EQ(Eval("RADIANS(0)"), "0");
}

TEST_F(FunctionsTest, BitAndChecksum) {
  EXPECT_EQ(Eval("BIT_COUNT(7)"), "3");
  EXPECT_EQ(Eval("BIT_COUNT(0)"), "0");
  EXPECT_EQ(Eval("BIT_COUNT(-1)"), "64");
  EXPECT_EQ(Eval("CRC32('abc')"), Eval("CRC32('abc')"));
  EXPECT_NE(Eval("CRC32('abc')"), Eval("CRC32('abd')"));
  // Known answers: zlib's crc32, and 'MySQL' is the MySQL manual's example.
  EXPECT_EQ(Eval("CRC32('')"), "0");
  EXPECT_EQ(Eval("CRC32('abc')"), "891568578");
  EXPECT_EQ(Eval("CRC32('123456789')"), "3421780262");
  EXPECT_EQ(Eval("CRC32('MySQL')"), "3259397556");
  EXPECT_EQ(Eval("CRC32(REPEAT('ab', 1100000))"), "1387470030");
  EXPECT_EQ(Eval("RAND(42)"), Eval("RAND(42)"));  // deterministic
}

// --- Dates -------------------------------------------------------------------

TEST_F(FunctionsTest, DateParts) {
  EXPECT_EQ(Eval("YEAR(DATE '2024-06-15')"), "2024");
  EXPECT_EQ(Eval("MONTH(DATE '2024-06-15')"), "6");
  EXPECT_EQ(Eval("DAY(DATE '2024-06-15')"), "15");
  EXPECT_EQ(Eval("QUARTER(DATE '2024-06-15')"), "2");
  EXPECT_EQ(Eval("DAYOFWEEK(DATE '2024-06-15')"), "7");  // Saturday
  EXPECT_EQ(Eval("DAYOFYEAR(DATE '2024-03-01')"), "61"); // leap year
}

TEST_F(FunctionsTest, DateArithmetic) {
  EXPECT_EQ(Eval("DATE_ADD(DATE '2024-02-28', 1)"), "2024-02-29");
  EXPECT_EQ(Eval("DATE_SUB(DATE '2024-03-01', 1)"), "2024-02-29");
  EXPECT_EQ(Eval("DATEDIFF(DATE '2024-02-01', DATE '2024-01-01')"), "31");
  EXPECT_EQ(Eval("DATEDIFF('2024-01-01', '2024-02-01')"), "-31");  // string coercion
  EXPECT_EQ(Eval("DATE_ADD(DATE '9999-12-31', 1)"), "NULL");       // out of range
  EXPECT_EQ(Eval("LAST_DAY(DATE '2024-02-10')"), "2024-02-29");
  EXPECT_EQ(Eval("ADD_MONTHS(DATE '2024-01-31', 1)"), "2024-02-29");
}

TEST_F(FunctionsTest, MakedateBoundaries) {
  EXPECT_EQ(Eval("MAKEDATE(2024, 60)"), "2024-02-29");
  EXPECT_EQ(Eval("MAKEDATE(2024, 0)"), "NULL");
  EXPECT_EQ(Eval("MAKEDATE(2024, 366)"), "2024-12-31");
  EXPECT_EQ(Eval("MAKEDATE(-5, 1)"), "NULL");
  EXPECT_EQ(Eval("MAKEDATE(9999, 400)"), "NULL");  // spills past year 9999
}

TEST_F(FunctionsTest, DateFormatSpecifiers) {
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', '%Y/%m/%d')"), "2024/06/15");
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', '%j')"), "167");
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', '%%')"), "%");
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', 'plain')"), "plain");
  EXPECT_EQ(Eval("DATE_FORMAT('bogus', '%Y')"), "NULL");
  // Repeated, unknown and trailing specifiers.
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', '%Y-%Y %d%d %j%j %w%w')"),
            "2024-2024 1515 167167 66");
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', '%q%Q %m')"), "%q%Q 06");
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', 'abc%')"), "abc%");
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', '%')"), "%");
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', '%%Y')"), "%Y");
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', '%%%')"), "%%");
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '2024-06-15', '')"), "");
  EXPECT_EQ(Eval("DATE_FORMAT('2024-06-15 13:04:05', '%H:%i:%s %H%i%s')"),
            "13:04:05 130405");
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '0000-01-01', '%Y %j %w')"),
            Eval("CONCAT('0000 001 ', DAYOFWEEK(DATE '0000-01-01') - 1)"));
  EXPECT_EQ(Eval("DATE_FORMAT(DATE '9999-12-31', '%Y%m%d')"), "99991231");
  EXPECT_EQ(Eval("LENGTH(DATE_FORMAT(DATE '2024-06-15', REPEAT('%Y', 100000)))"), "400000");
  EXPECT_EQ(Eval("RIGHT(DATE_FORMAT(DATE '2024-06-15', REPEAT('%d%x', 1000)), 6)"),
            "%x15%x");
}

TEST_F(FunctionsTest, DayNumberRoundTrip) {
  EXPECT_EQ(Eval("FROM_DAYS(TO_DAYS(DATE '2024-06-15'))"), "2024-06-15");
  EXPECT_EQ(Eval("FROM_DAYS(0)"), "0000-01-01");   // year-0 floor
  EXPECT_EQ(Eval("FROM_DAYS(-1)"), "NULL");        // before year 0
  EXPECT_EQ(Eval("CURRENT_DATE()"), "2025-03-30");  // pinned engine date
}

// --- Condition functions -------------------------------------------------------

TEST_F(FunctionsTest, ConditionFamily) {
  EXPECT_EQ(Eval("IFNULL(NULL, 'x')"), "x");
  EXPECT_EQ(Eval("IFNULL(1, 'x')"), "1");
  EXPECT_EQ(Eval("NULLIF(1, 1)"), "NULL");
  EXPECT_EQ(Eval("NULLIF(1, 2)"), "1");
  EXPECT_EQ(Eval("COALESCE(NULL, NULL, 3)"), "3");
  EXPECT_EQ(Eval("COALESCE(NULL, NULL)"), "NULL");
  EXPECT_EQ(Eval("IF(1 < 2, 'y', 'n')"), "y");
  EXPECT_EQ(Eval("IF(NULL, 'y', 'n')"), "n");
  EXPECT_EQ(Eval("ISNULL(NULL)"), "1");
  EXPECT_EQ(Eval("GREATEST(1, 2.5, 2)"), "2.5");
  EXPECT_EQ(Eval("LEAST('b', 'a')"), "a");
  EXPECT_EQ(Eval("GREATEST(1, NULL)"), "NULL");
  EXPECT_EQ(Eval("NVL2(NULL, 'a', 'b')"), "b");
  EXPECT_EQ(Eval("DECODE(2, 1, 'a', 2, 'b', 'z')"), "b");
  EXPECT_EQ(Eval("DECODE(9, 1, 'a', 'z')"), "z");
  EXPECT_EQ(Eval("DECODE(NULL, NULL, 'matched', 'z')"), "matched");
}

TEST_F(FunctionsTest, IntervalValidatesComparability) {
  EXPECT_EQ(Eval("INTERVAL(5, 1, 10)"), "1");
  EXPECT_EQ(Eval("INTERVAL(0, 1, 10)"), "0");
  EXPECT_EQ(Eval("INTERVAL(15, 1, 10)"), "2");
  EXPECT_EQ(Eval("INTERVAL(NULL, 1)"), "-1");
  // MDEV-14596: ROW arguments must be rejected, not dereferenced.
  EXPECT_EQ(Eval("INTERVAL(ROW(1,1), ROW(1,2))"), "<TYPE_ERROR>");
}

// --- Casting functions ------------------------------------------------------------

TEST_F(FunctionsTest, CastingFamily) {
  EXPECT_EQ(Eval("CONVERT('12', 'SIGNED')"), "12");
  EXPECT_EQ(Eval("CONVERT('1.5', 'DOUBLE')"), "1.5");
  EXPECT_EQ(Eval("CONVERT(1, 'NO_TYPE')"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("TO_NUMBER('1.5')"), "1.5");
  EXPECT_EQ(Eval("TO_CHAR(1.5)"), "1.5");
  EXPECT_EQ(Eval("BIN(7)"), "111");
  EXPECT_EQ(Eval("BIN(0)"), "0");
  EXPECT_EQ(Eval("OCT(8)"), "10");
}

TEST_F(FunctionsTest, ToDecimalStringValidatesPrecision) {
  EXPECT_EQ(Eval("TODECIMALSTRING(1.5, 4)"), "1.5000");
  EXPECT_EQ(Eval("TODECIMALSTRING(1.5, 0)"), "2");
  EXPECT_EQ(Eval("TODECIMALSTRING(1.5, -1)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("TODECIMALSTRING(1.5, 100)"), "<INVALID_ARGUMENT>");
  // Listing 1's star argument: validated in the reference implementation.
  EXPECT_EQ(Eval("TODECIMALSTRING('110'::Decimal256(45), *)"), "<INVALID_ARGUMENT>");
}

TEST_F(FunctionsTest, InetFamily) {
  EXPECT_EQ(Eval("INET_ATON('10.0.0.1')"), "167772161");
  EXPECT_EQ(Eval("INET_NTOA(167772161)"), "10.0.0.1");
  EXPECT_EQ(Eval("INET_ATON('bogus')"), "NULL");
  EXPECT_EQ(Eval("INET_NTOA(-1)"), "NULL");
  EXPECT_EQ(Eval("INET6_NTOA(INET6_ATON('255.255.255.255'))"), "255.255.255.255");
  EXPECT_EQ(Eval("INET6_ATON('not-an-ip')"), "NULL");
  // IPv4: exactly four octets of 1-3 decimal digits, each at most 255.
  EXPECT_EQ(Eval("INET_ATON('255.255.255.255')"), "4294967295");
  EXPECT_EQ(Eval("INET_ATON('0.0.0.0')"), "0");
  EXPECT_EQ(Eval("INET_ATON('001.002.003.004')"), "16909060");
  EXPECT_EQ(Eval("INET_ATON('1.2.3.4.5')"), "NULL");
  EXPECT_EQ(Eval("INET_ATON('1.2.3')"), "NULL");
  EXPECT_EQ(Eval("INET_ATON('1..3.4')"), "NULL");
  EXPECT_EQ(Eval("INET_ATON('1.2.3.1000')"), "NULL");
  EXPECT_EQ(Eval("INET_ATON('1.2.3.256')"), "NULL");
  EXPECT_EQ(Eval("INET_ATON('')"), "NULL");
  EXPECT_EQ(Eval("INET_ATON('::1')"), "NULL");  // valid, but not IPv4
  EXPECT_EQ(Eval("INET_ATON(REPEAT('1.', 500000))"), "NULL");
  EXPECT_EQ(ParseInet("1.2.3.4.5").status().message(), "malformed IPv4 address");
  EXPECT_EQ(ParseInet("1.2.3").status().message(), "malformed IPv4 address");
  EXPECT_EQ(ParseInet("").status().message(), "malformed IPv4 address");
  EXPECT_EQ(ParseInet("1.2.3.").status().message(), "malformed IPv4 octet");
  EXPECT_EQ(ParseInet("1..3.4").status().message(), "malformed IPv4 octet");
  EXPECT_EQ(ParseInet("1.2.3.1000").status().message(), "malformed IPv4 octet");
  EXPECT_EQ(ParseInet("1.2.3.256").status().message(), "malformed IPv4 octet");
  EXPECT_EQ(ParseInet("+1.2.3.4").status().message(), "malformed IPv4 octet");
  EXPECT_EQ(ParseInet("1.2.3.4 ").status().message(), "malformed IPv4 octet");
  EXPECT_EQ(ParseInet("x.y..").status().message(), "malformed IPv4 octet");
  // IPv6: '::' at the start, at the end, alone; groups of 1-4 hex digits.
  EXPECT_EQ(Eval("INET6_NTOA(INET6_ATON('::1'))"), "0:0:0:0:0:0:0:1");
  EXPECT_EQ(Eval("INET6_NTOA(INET6_ATON('1::'))"), "1:0:0:0:0:0:0:0");
  EXPECT_EQ(Eval("INET6_NTOA(INET6_ATON('::'))"), "0:0:0:0:0:0:0:0");
  EXPECT_EQ(Eval("INET6_NTOA(INET6_ATON('a:B:c::ffff:1'))"), "a:b:c:0:0:0:ffff:1");
  EXPECT_EQ(Eval("INET6_NTOA(INET6_ATON('1:2:3:4:5:6:7:8'))"), "1:2:3:4:5:6:7:8");
  EXPECT_EQ(Eval("INET6_NTOA(INET6_ATON('1:2:3:4::5:6:7'))"), "1:2:3:4:0:5:6:7");
  EXPECT_EQ(Eval("INET6_ATON('1:2:3:4:5:6:7:8:9')"), "NULL");
  EXPECT_EQ(Eval("INET6_ATON(':::')"), "NULL");
  EXPECT_EQ(Eval("INET6_ATON('12345::')"), "NULL");
  EXPECT_EQ(Eval("INET6_ATON(REPEAT('1:', 500000))"), "NULL");
  EXPECT_EQ(ParseInet("1:2:3:4:5:6:7:8:9").status().message(), "wrong number of IPv6 groups");
  EXPECT_EQ(ParseInet("1:2:3:4:5:6:7").status().message(), "wrong number of IPv6 groups");
  EXPECT_EQ(ParseInet("1:2:3:4::5:6:7:8").status().message(), "wrong number of IPv6 groups");
  EXPECT_EQ(ParseInet("1:2:3:4:5:6:7:8::").status().message(), "wrong number of IPv6 groups");
  EXPECT_EQ(ParseInet(":::").status().message(), "malformed IPv6 group");
  EXPECT_EQ(ParseInet("::1::").status().message(), "malformed IPv6 group");
  EXPECT_EQ(ParseInet("12345::").status().message(), "malformed IPv6 group");
  EXPECT_EQ(ParseInet("::12345").status().message(), "malformed IPv6 group");
  EXPECT_EQ(ParseInet("1:2:3:4:5:6:7:").status().message(), "malformed IPv6 group");
  EXPECT_EQ(ParseInet(":1:2:3:4:5:6:7").status().message(), "malformed IPv6 group");
  EXPECT_EQ(ParseInet("g::1").status().message(), "malformed IPv6 group");
  EXPECT_EQ(ParseInet("1.2.3.4:5").status().message(), "malformed IPv6 group");
  // A malformed group is reported before a wrong group count, in the head
  // first and then in the tail.
  EXPECT_EQ(ParseInet("1:2:3:4:5:6:7:8:9:x").status().message(), "malformed IPv6 group");
  EXPECT_EQ(ParseInet("1:2:3:4:5:6:7:8::9:x").status().message(), "malformed IPv6 group");
}

}  // namespace
}  // namespace soft
