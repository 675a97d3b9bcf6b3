#include "src/sqlvalue/datetime.h"

#include <charconv>

namespace soft {
namespace {

constexpr int kMonthDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

Result<int> ParseIntField(std::string_view s) {
  int v = 0;
  if (s.empty()) {
    return InvalidArgument("empty date field");
  }
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) {
    return InvalidArgument("malformed date field");
  }
  return v;
}

}  // namespace

bool IsLeapYear(int32_t year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int32_t year, int32_t month) {
  if (month < 1 || month > 12) {
    return 0;
  }
  if (month == 2 && IsLeapYear(year)) {
    return 29;
  }
  return kMonthDays[month - 1];
}

bool IsValidDate(const Date& d) {
  if (d.year < 0 || d.year > 9999 || d.month < 1 || d.month > 12) {
    return false;
  }
  return d.day >= 1 && d.day <= DaysInMonth(d.year, d.month);
}

int64_t DateToDayNumber(const Date& d) {
  // Howard Hinnant's days_from_civil algorithm.
  int64_t y = d.year;
  const int64_t m = d.month;
  const int64_t day = d.day;
  y -= m <= 2 ? 1 : 0;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + day - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;  // days since 1970-01-01
}

Result<Date> DayNumberToDate(int64_t z) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  const int64_t day = doy - (153 * mp + 2) / 5 + 1;
  const int64_t m = mp + (mp < 10 ? 3 : -9);
  const int64_t year = y + (m <= 2 ? 1 : 0);
  if (year < 0 || year > 9999) {
    return InvalidArgument("date out of supported range");
  }
  Date d;
  d.year = static_cast<int32_t>(year);
  d.month = static_cast<int32_t>(m);
  d.day = static_cast<int32_t>(day);
  return d;
}

Result<Date> ParseDate(std::string_view text) {
  // Accept YYYY-MM-DD or YYYY/MM/DD.
  char sep = '-';
  if (text.find('/') != std::string_view::npos) {
    sep = '/';
  }
  const size_t s1 = text.find(sep);
  if (s1 == std::string_view::npos) {
    return InvalidArgument("malformed DATE literal");
  }
  const size_t s2 = text.find(sep, s1 + 1);
  if (s2 == std::string_view::npos) {
    return InvalidArgument("malformed DATE literal");
  }
  Date d;
  SOFT_ASSIGN_OR_RETURN(d.year, ParseIntField(text.substr(0, s1)));
  SOFT_ASSIGN_OR_RETURN(d.month, ParseIntField(text.substr(s1 + 1, s2 - s1 - 1)));
  SOFT_ASSIGN_OR_RETURN(d.day, ParseIntField(text.substr(s2 + 1)));
  if (!IsValidDate(d)) {
    return InvalidArgument("invalid DATE value");
  }
  return d;
}

Result<DateTime> ParseDateTime(std::string_view text) {
  // The date ends at the first ' ' or 'T'; an inline scan finds it without
  // a library call per byte.
  size_t space = 0;
  while (space < text.size() && text[space] != ' ' && text[space] != 'T') {
    ++space;
  }
  DateTime dt;
  if (space == text.size()) {
    SOFT_ASSIGN_OR_RETURN(dt.date, ParseDate(text));
    return dt;
  }
  SOFT_ASSIGN_OR_RETURN(dt.date, ParseDate(text.substr(0, space)));
  const std::string_view time = text.substr(space + 1);
  const size_t c1 = time.find(':');
  const size_t c2 = c1 == std::string_view::npos ? std::string_view::npos
                                                 : time.find(':', c1 + 1);
  if (c1 == std::string_view::npos || c2 == std::string_view::npos) {
    return InvalidArgument("malformed DATETIME literal");
  }
  SOFT_ASSIGN_OR_RETURN(dt.hour, ParseIntField(time.substr(0, c1)));
  SOFT_ASSIGN_OR_RETURN(dt.minute, ParseIntField(time.substr(c1 + 1, c2 - c1 - 1)));
  SOFT_ASSIGN_OR_RETURN(dt.second, ParseIntField(time.substr(c2 + 1)));
  if (dt.hour < 0 || dt.hour > 23 || dt.minute < 0 || dt.minute > 59 || dt.second < 0 ||
      dt.second > 59) {
    return InvalidArgument("invalid time of day");
  }
  return dt;
}

std::string FormatDate(const Date& d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", d.year, d.month, d.day);
  return buf;
}

std::string FormatDateTime(const DateTime& dt) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", dt.date.year,
                dt.date.month, dt.date.day, dt.hour, dt.minute, dt.second);
  return buf;
}

Result<Date> AddDays(const Date& d, int64_t days) {
  return DayNumberToDate(DateToDayNumber(d) + days);
}

Result<Date> AddMonths(const Date& d, int64_t months) {
  int64_t total = static_cast<int64_t>(d.year) * 12 + (d.month - 1) + months;
  const int64_t year = total >= 0 ? total / 12 : -((-total + 11) / 12);
  const int64_t month = total - year * 12 + 1;
  if (year < 0 || year > 9999) {
    return InvalidArgument("date out of supported range");
  }
  Date out;
  out.year = static_cast<int32_t>(year);
  out.month = static_cast<int32_t>(month);
  out.day = d.day;
  const int dim = DaysInMonth(out.year, out.month);
  if (out.day > dim) {
    out.day = dim;  // end-of-month clamp
  }
  return out;
}

int64_t DateDiffDays(const Date& a, const Date& b) {
  return DateToDayNumber(a) - DateToDayNumber(b);
}

int DayOfWeek(const Date& d) {
  // 1970-01-01 was a Thursday; ODBC: 1=Sunday.
  const int64_t days = DateToDayNumber(d);
  const int64_t dow = ((days % 7) + 7 + 4) % 7;  // 0=Sunday
  return static_cast<int>(dow) + 1;
}

int DayOfYear(const Date& d) {
  Date jan1{d.year, 1, 1};
  return static_cast<int>(DateDiffDays(d, jan1)) + 1;
}

}  // namespace soft
