// Built-in date/time functions.
//
// Date boundaries: year 0000/9999, invalid months/days accepted leniently by
// MySQL-style casts, huge AddDays offsets. CURRENT_DATE is pinned to a fixed
// date so every campaign is reproducible.
#include <array>
#include <cstdio>

#include "src/sqlfunc/function.h"

namespace soft {
namespace {

// Fixed "today" for deterministic runs.
constexpr Date kEngineToday{2025, 3, 30};  // EuroSys'25 week, why not

Result<Date> ArgDate(FunctionContext& ctx, const Value& v) {
  SOFT_ASSIGN_OR_RETURN(Value d, CoerceValue(v, TypeKind::kDate, ctx.cast_options()));
  if (d.is_null()) {
    return InvalidArgument("invalid DATE argument");
  }
  return d.date_value();
}

Result<Value> FnCurrentDate(FunctionContext& ctx, const ValueList& args) {
  return Value::DateVal(kEngineToday);
}

Result<Value> FnNow(FunctionContext& ctx, const ValueList& args) {
  DateTime dt;
  dt.date = kEngineToday;
  dt.hour = 12;
  return Value::DateTimeVal(dt);
}

Result<Value> FnDateAdd(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t days, ctx.ArgInt(args[1]));
  const Result<Date> out = AddDays(d, days);
  if (!out.ok()) {
    ctx.Cover(1);
    return Value::Null();  // out-of-range result → NULL (MySQL)
  }
  return Value::DateVal(*out);
}

Result<Value> FnDateSub(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t days, ctx.ArgInt(args[1]));
  const Result<Date> out = AddDays(d, -days);
  if (!out.ok()) {
    ctx.Cover(1);
    return Value::Null();
  }
  return Value::DateVal(*out);
}

Result<Value> FnAddMonths(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t months, ctx.ArgInt(args[1]));
  const Result<Date> out = AddMonths(d, months);
  if (!out.ok()) {
    ctx.Cover(1);
    return Value::Null();
  }
  if (out->day != d.day) {
    ctx.Cover(2);  // end-of-month clamp path
  }
  return Value::DateVal(*out);
}

Result<Value> FnDateDiff(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date a, ArgDate(ctx, args[0]));
  SOFT_ASSIGN_OR_RETURN(Date b, ArgDate(ctx, args[1]));
  return Value::Int(DateDiffDays(a, b));
}

Result<Value> FnYear(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  return Value::Int(d.year);
}

Result<Value> FnMonth(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  return Value::Int(d.month);
}

Result<Value> FnDay(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  return Value::Int(d.day);
}

Result<Value> FnDayOfWeek(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  return Value::Int(DayOfWeek(d));
}

Result<Value> FnDayOfYear(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  return Value::Int(DayOfYear(d));
}

Result<Value> FnLastDay(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  d.day = DaysInMonth(d.year, d.month);
  return Value::DateVal(d);
}

Result<Value> FnMakeDate(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t year, ctx.ArgInt(args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t doy, ctx.ArgInt(args[1]));
  if (year < 0 || year > 9999) {
    ctx.Cover(1);
    return Value::Null();
  }
  if (doy < 1) {
    ctx.Cover(2);
    return Value::Null();  // MySQL: MAKEDATE with dayofyear < 1 → NULL
  }
  Date jan1{static_cast<int32_t>(year), 1, 1};
  const Result<Date> out = AddDays(jan1, doy - 1);
  if (!out.ok()) {
    ctx.Cover(3);
    return Value::Null();
  }
  return Value::DateVal(*out);
}

Result<Value> FnQuarter(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  return Value::Int((d.month - 1) / 3 + 1);
}

Result<Value> FnWeek(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  return Value::Int((DayOfYear(d) - 1) / 7 + 1);
}

// DATE_FORMAT(date, fmt): %Y %m %d %H %i %s %j %w subset.
Result<Value> FnDateFormat(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Value dv, CoerceValue(args[0], TypeKind::kDateTime,
                                              ctx.cast_options()));
  if (dv.is_null()) {
    ctx.Cover(1);
    return Value::Null();
  }
  const DateTime dt = dv.datetime_value();
  SOFT_ASSIGN_OR_RETURN(std::string_view fmt, ctx.ArgString(args[1]));
  // The numeric fields by specifier, each rendered on its first use: a long
  // format repeats a few specifiers many times.
  static constexpr std::string_view kFields = "YmdHisjw";
  // kFields' index of each byte, -1 for a byte that names no field.
  static constexpr std::array<int, 256> kFieldOf = [] {
    std::array<int, 256> index{};
    index.fill(-1);
    for (size_t f = 0; f < kFields.size(); ++f) {
      index[static_cast<unsigned char>(kFields[f])] = static_cast<int>(f);
    }
    return index;
  }();
  static constexpr const char* kFieldFormats[] = {"%04d", "%02d", "%02d", "%02d",
                                                  "%02d", "%02d", "%03d", "%d"};
  const int values[] = {dt.date.year, dt.date.month, dt.date.day, dt.hour, dt.minute,
                        dt.second, DayOfYear(dt.date), DayOfWeek(dt.date) - 1};
  std::array<std::string, kFields.size()> rendered;
  bool unknown_seen = false;
  // One pass writes the output in place. A specifier renders at most four
  // bytes for a valid date, so twice the format is room enough; the buffer
  // still doubles whenever less than one rendering's room (15 bytes) is left.
  char buf[16];
  std::string out(2 * fmt.size() + sizeof(buf), '\0');
  size_t n = 0;
  for (size_t i = 0; i < fmt.size(); ++i) {
    if (out.size() - n < sizeof(buf)) {
      out.resize(2 * out.size());
    }
    if (fmt[i] != '%' || i + 1 == fmt.size()) {
      out[n++] = fmt[i];  // text, and a trailing '%'
      continue;
    }
    const char specifier = fmt[++i];
    const int field = kFieldOf[static_cast<unsigned char>(specifier)];
    if (field >= 0) {
      if (rendered[field].empty()) {
        std::snprintf(buf, sizeof(buf), kFieldFormats[field], values[field]);
        rendered[field] = buf;
      }
      for (char c : rendered[field]) {
        out[n++] = c;
      }
    } else if (specifier == '%') {
      out[n++] = '%';
    } else {
      if (!unknown_seen) {
        ctx.Cover(2);  // unknown specifier passes through
        unknown_seen = true;
      }
      out[n++] = '%';
      out[n++] = specifier;
    }
  }
  out.resize(n);
  return Value::Str(std::move(out));
}

Result<Value> FnToDays(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Date d, ArgDate(ctx, args[0]));
  // MySQL's TO_DAYS counts from year 0; ours counts from 1970-01-01 shifted.
  return Value::Int(DateToDayNumber(d) + 719528);
}

Result<Value> FnFromDays(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t n, ctx.ArgInt(args[0]));
  const Result<Date> d = DayNumberToDate(n - 719528);
  if (!d.ok()) {
    ctx.Cover(1);
    return Value::Null();
  }
  return Value::DateVal(*d);
}

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args, ScalarFunction fn,
         const char* doc, const char* example) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kDate;
  def.min_args = min_args;
  def.max_args = max_args;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterDateFunctions(FunctionRegistry& r) {
  Reg(r, "CURRENT_DATE", 0, 0, FnCurrentDate, "Fixed engine date", "CURRENT_DATE()");
  Reg(r, "CURDATE", 0, 0, FnCurrentDate, "Fixed engine date", "CURDATE()");
  Reg(r, "NOW", 0, 0, FnNow, "Fixed engine timestamp", "NOW()");
  Reg(r, "DATE_ADD", 2, 2, FnDateAdd, "Add days to a date",
      "DATE_ADD(DATE '2024-01-01', 30)");
  Reg(r, "ADDDATE", 2, 2, FnDateAdd, "Add days to a date",
      "ADDDATE(DATE '2024-01-01', 30)");
  Reg(r, "DATE_SUB", 2, 2, FnDateSub, "Subtract days from a date",
      "DATE_SUB(DATE '2024-01-01', 30)");
  Reg(r, "ADD_MONTHS", 2, 2, FnAddMonths, "Add months with end-of-month clamp",
      "ADD_MONTHS(DATE '2024-01-31', 1)");
  Reg(r, "DATEDIFF", 2, 2, FnDateDiff, "Days between two dates",
      "DATEDIFF(DATE '2024-02-01', DATE '2024-01-01')");
  Reg(r, "YEAR", 1, 1, FnYear, "Year part", "YEAR(DATE '2024-06-15')");
  Reg(r, "MONTH", 1, 1, FnMonth, "Month part", "MONTH(DATE '2024-06-15')");
  Reg(r, "DAY", 1, 1, FnDay, "Day part", "DAY(DATE '2024-06-15')");
  Reg(r, "DAYOFMONTH", 1, 1, FnDay, "Day part", "DAYOFMONTH(DATE '2024-06-15')");
  Reg(r, "DAYOFWEEK", 1, 1, FnDayOfWeek, "Day of week (1=Sunday)",
      "DAYOFWEEK(DATE '2024-06-15')");
  Reg(r, "DAYOFYEAR", 1, 1, FnDayOfYear, "Day of year", "DAYOFYEAR(DATE '2024-06-15')");
  Reg(r, "LAST_DAY", 1, 1, FnLastDay, "Last day of the month",
      "LAST_DAY(DATE '2024-02-10')");
  Reg(r, "MAKEDATE", 2, 2, FnMakeDate, "Date from year and day-of-year",
      "MAKEDATE(2024, 60)");
  Reg(r, "QUARTER", 1, 1, FnQuarter, "Quarter of the year", "QUARTER(DATE '2024-06-15')");
  Reg(r, "WEEK", 1, 1, FnWeek, "Week of the year", "WEEK(DATE '2024-06-15')");
  Reg(r, "DATE_FORMAT", 2, 2, FnDateFormat, "Format a date",
      "DATE_FORMAT(DATE '2024-06-15', '%Y/%m/%d')");
  Reg(r, "TO_DAYS", 1, 1, FnToDays, "Day number of a date", "TO_DAYS(DATE '2024-06-15')");
  Reg(r, "FROM_DAYS", 1, 1, FnFromDays, "Date from a day number", "FROM_DAYS(739000)");
}

}  // namespace soft
