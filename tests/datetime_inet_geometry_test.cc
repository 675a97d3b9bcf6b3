// Date, inet, and geometry substrate tests.
#include <gtest/gtest.h>

#include "src/sqlvalue/datetime.h"
#include "src/sqlvalue/geometry.h"
#include "src/sqlvalue/inet.h"

namespace soft {
namespace {

// --- Dates ------------------------------------------------------------------

TEST(DateParse, Basic) {
  const Result<Date> d = ParseDate("2024-06-15");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->year, 2024);
  EXPECT_EQ(d->month, 6);
  EXPECT_EQ(d->day, 15);
  EXPECT_TRUE(ParseDate("2024/06/15").ok());
}

TEST(DateParse, RejectsInvalid) {
  EXPECT_FALSE(ParseDate("2024-13-01").ok());
  EXPECT_FALSE(ParseDate("2024-02-30").ok());
  EXPECT_FALSE(ParseDate("2023-02-29").ok());  // not a leap year
  EXPECT_FALSE(ParseDate("garbage").ok());
  EXPECT_FALSE(ParseDate("2024-01").ok());
  EXPECT_FALSE(ParseDate("10000-01-01").ok());
}

TEST(DateLeapYears, Rules) {
  EXPECT_TRUE(IsLeapYear(2024));
  EXPECT_FALSE(IsLeapYear(2023));
  EXPECT_FALSE(IsLeapYear(1900));  // century, not divisible by 400
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_EQ(DaysInMonth(2024, 2), 29);
  EXPECT_EQ(DaysInMonth(2023, 2), 28);
  EXPECT_EQ(DaysInMonth(2024, 4), 30);
  EXPECT_EQ(DaysInMonth(2024, 13), 0);
}

TEST(DateDayNumber, RoundTripsAcrossRange) {
  for (const char* text : {"0001-01-01", "1969-12-31", "1970-01-01", "2000-02-29",
                           "2024-06-15", "9999-12-31"}) {
    const Result<Date> d = ParseDate(text);
    ASSERT_TRUE(d.ok()) << text;
    const Result<Date> back = DayNumberToDate(DateToDayNumber(*d));
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(*back, *d) << text;
  }
  EXPECT_EQ(DateToDayNumber(Date{1970, 1, 1}), 0);
}

TEST(DateArithmetic, AddDaysAndOverflow) {
  const Date base{2024, 2, 28};
  EXPECT_EQ(AddDays(base, 1)->day, 29);  // leap day
  EXPECT_EQ(AddDays(base, 2)->month, 3);
  EXPECT_FALSE(AddDays(Date{9999, 12, 31}, 1).ok());
  EXPECT_FALSE(AddDays(Date{0, 1, 1}, -400).ok());
}

TEST(DateArithmetic, AddMonthsClampsEndOfMonth) {
  const Result<Date> d = AddMonths(Date{2024, 1, 31}, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->month, 2);
  EXPECT_EQ(d->day, 29);  // clamped to Feb 29
  EXPECT_EQ(AddMonths(Date{2024, 1, 31}, -1)->day, 31);
  EXPECT_FALSE(AddMonths(Date{9999, 12, 1}, 1).ok());
}

TEST(DateWeekday, KnownAnchors) {
  EXPECT_EQ(DayOfWeek(Date{1970, 1, 1}), 5);   // Thursday (1 = Sunday)
  EXPECT_EQ(DayOfWeek(Date{2024, 6, 15}), 7);  // Saturday
  EXPECT_EQ(DayOfYear(Date{2024, 3, 1}), 61);  // leap year
  EXPECT_EQ(DayOfYear(Date{2023, 3, 1}), 60);
}

TEST(DateTimeParse, WithTimeOfDay) {
  const Result<DateTime> dt = ParseDateTime("2024-06-15 23:59:59");
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(dt->hour, 23);
  EXPECT_FALSE(ParseDateTime("2024-06-15 24:00:00").ok());
  EXPECT_FALSE(ParseDateTime("2024-06-15 12:61:00").ok());
  EXPECT_EQ(FormatDateTime(*dt), "2024-06-15 23:59:59");
}

// Megabyte texts keep their errors: the date ends at the first ' ' or 'T'
// however far it is, and each field is read whole.
TEST(DateTimeParse, MegabyteText) {
  const auto message = [](const std::string& text) {
    const Result<DateTime> dt = ParseDateTime(text);
    return dt.ok() ? FormatDateTime(*dt) : dt.status().message();
  };
  EXPECT_EQ(message(std::string(1100000, 'x')), "malformed DATE literal");
  EXPECT_EQ(message("2024-06-15" + std::string(1100000, 'x')), "malformed date field");
  EXPECT_EQ(message("2024-06-15" + std::string(1100000, ' ')), "malformed DATETIME literal");
  EXPECT_EQ(message("2024-06-15T10:00:" + std::string(1100000, '0')), "2024-06-15 10:00:00");
  EXPECT_EQ(message("2024-06-15 10:00:" + std::string(1100000, '9')), "malformed date field");
  EXPECT_EQ(message(std::string(1100000, '1') + "-06-15 10:00:00"), "malformed date field");
  EXPECT_EQ(message("2024/06/15" + std::string(1100000, '-') + " 10:00:00"),
            "malformed date field");
}

// --- Inet -------------------------------------------------------------------

TEST(InetParse, V4) {
  const Result<InetAddr> a = ParseInet("255.255.255.255");
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->is_v4);
  EXPECT_EQ(FormatInet(*a), "255.255.255.255");
  EXPECT_EQ(InetToBinary(*a).size(), 4u);
  EXPECT_FALSE(ParseInet("1.2.3").ok());
  EXPECT_FALSE(ParseInet("1.2.3.256").ok());
  EXPECT_FALSE(ParseInet("a.b.c.d").ok());
}

TEST(InetParse, V6) {
  const Result<InetAddr> a = ParseInet("2001:db8::1");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->is_v4);
  EXPECT_EQ(InetToBinary(*a).size(), 16u);
  EXPECT_TRUE(ParseInet("::").ok());
  EXPECT_TRUE(ParseInet("::1").ok());
  EXPECT_FALSE(ParseInet("1:2:3:4:5:6:7").ok());     // too few without ::
  EXPECT_FALSE(ParseInet("1:2:3:4:5:6:7:8:9").ok()); // too many
  EXPECT_FALSE(ParseInet("xyz::1").ok());
}

TEST(InetBinary, RoundTrip) {
  for (const char* text : {"10.0.0.1", "::1", "2001:db8::ff"}) {
    const Result<InetAddr> a = ParseInet(text);
    ASSERT_TRUE(a.ok()) << text;
    const Result<InetAddr> back = InetFromBinary(InetToBinary(*a));
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(*back, *a) << text;
  }
  EXPECT_FALSE(InetFromBinary("abc").ok());  // 3 bytes: neither v4 nor v6
}

// --- Geometry ----------------------------------------------------------------

TEST(GeometryWkt, ParseAndRender) {
  const Result<Geometry> p = ParseWkt("POINT(1 2)");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->kind, GeometryKind::kPoint);
  EXPECT_EQ(GeometryToWkt(*p), "POINT(1 2)");

  const Result<Geometry> l = ParseWkt("LINESTRING(0 0, 3 4)");
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->points.size(), 2u);

  EXPECT_FALSE(ParseWkt("POINT(1 2, 3 4)").ok());
  EXPECT_FALSE(ParseWkt("LINESTRING(0 0)").ok());
  EXPECT_FALSE(ParseWkt("CIRCLE(0 0)").ok());
  EXPECT_FALSE(ParseWkt("POINT").ok());
}

TEST(GeometryBinary, RoundTripAndRejection) {
  const Result<Geometry> g = ParseWkt("LINESTRING(0 0, 1 1, 2 0)");
  ASSERT_TRUE(g.ok());
  const Result<Geometry> back = GeometryFromBinary(GeometryToBinary(*g));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, *g);

  // The Case 6 surface: inet binary forms must NOT decode as geometry.
  const Result<InetAddr> addr = ParseInet("255.255.255.255");
  ASSERT_TRUE(addr.ok());
  EXPECT_FALSE(GeometryFromBinary(InetToBinary(*addr)).ok());
  EXPECT_FALSE(GeometryFromBinary("").ok());
  EXPECT_FALSE(GeometryFromBinary(std::string("\xFF\x00\x00\x00\x00", 5)).ok());
}

TEST(GeometryBoundary, PerKind) {
  const Result<Geometry> line = ParseWkt("LINESTRING(0 0, 1 1, 2 0)");
  const Result<Geometry> boundary = GeometryBoundary(*line);
  ASSERT_TRUE(boundary.ok());
  EXPECT_EQ(boundary->points.size(), 2u);
  EXPECT_EQ(boundary->points[1], (GeoPoint{2, 0}));

  const Result<Geometry> point = ParseWkt("POINT(1 2)");
  EXPECT_FALSE(GeometryBoundary(*point).ok());  // empty boundary
}

}  // namespace
}  // namespace soft
