// Built-in math functions.
//
// Numeric boundary values (INT64 extremes, huge decimal digit counts,
// division by zero, domain edges of LOG/SQRT/ASIN) are the Pattern 1.1
// workhorses. Exact decimal arguments route through the Decimal substrate so
// digit-count boundaries are observable by the fault predicates.
#include <cmath>

#include "src/sqlfunc/function.h"
#include "src/util/crc32.h"

namespace soft {
namespace {

Result<Value> FnAbs(FunctionContext& ctx, const ValueList& args) {
  const Value& v = args[0];
  switch (v.kind()) {
    case TypeKind::kInt: {
      const int64_t i = v.int_value();
      if (i == INT64_MIN) {
        ctx.Cover(1);
        return InvalidArgument("ABS(INT64_MIN) overflows");
      }
      return Value::Int(i < 0 ? -i : i);
    }
    case TypeKind::kDecimal: {
      ctx.Cover(2);
      const Decimal& d = v.decimal_value();
      return Value::Dec(d.negative() ? d.Negated() : d);
    }
    default: {
      SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(v));
      return Value::DoubleVal(std::fabs(d));
    }
  }
}

Result<Value> FnSign(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  if (d == 0) {
    ctx.Cover(1);
    return Value::Int(0);
  }
  return Value::Int(d < 0 ? -1 : 1);
}

Result<Value> FnCeil(FunctionContext& ctx, const ValueList& args) {
  if (args[0].kind() == TypeKind::kDecimal) {
    ctx.Cover(1);
    const Decimal r = args[0].decimal_value().Rounded(0);
    // Rounded() rounds half away; CEIL must go up when there was a fraction.
    const Decimal& d = args[0].decimal_value();
    if (Decimal::Compare(r, d) < 0) {
      return Value::Dec(Decimal::Add(r, Decimal::FromInt64(1)));
    }
    return Value::Dec(r);
  }
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  return Value::DoubleVal(std::ceil(d));
}

Result<Value> FnFloor(FunctionContext& ctx, const ValueList& args) {
  if (args[0].kind() == TypeKind::kDecimal) {
    ctx.Cover(1);
    const Decimal r = args[0].decimal_value().Rounded(0);
    const Decimal& d = args[0].decimal_value();
    if (Decimal::Compare(r, d) > 0) {
      return Value::Dec(Decimal::Sub(r, Decimal::FromInt64(1)));
    }
    return Value::Dec(r);
  }
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  return Value::DoubleVal(std::floor(d));
}

Result<Value> FnRound(FunctionContext& ctx, const ValueList& args) {
  int64_t places = 0;
  if (args.size() >= 2) {
    SOFT_ASSIGN_OR_RETURN(places, ctx.ArgInt(args[1]));
  }
  if (args[0].kind() == TypeKind::kDecimal || args[0].kind() == TypeKind::kInt) {
    SOFT_ASSIGN_OR_RETURN(Decimal d, ctx.ArgDecimal(args[0]));
    if (places < -38) {
      ctx.Cover(1);
      return Value::Dec(Decimal());
    }
    if (places < 0) {
      ctx.Cover(2);
      // Round to a power of ten left of the decimal point.
      Decimal shifted = d;
      for (int64_t i = 0; i < -places; ++i) {
        SOFT_ASSIGN_OR_RETURN(shifted, Decimal::Div(shifted, Decimal::FromInt64(10), 20));
      }
      shifted = shifted.Rounded(0);
      for (int64_t i = 0; i < -places; ++i) {
        shifted = Decimal::Mul(shifted, Decimal::FromInt64(10));
      }
      return Value::Dec(shifted);
    }
    if (places > 10000) {
      ctx.Cover(3);
      return ResourceExhausted("ROUND scale exceeds engine limit");
    }
    return Value::Dec(d.Rounded(static_cast<int>(places)));
  }
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  const double scale = std::pow(10.0, static_cast<double>(places));
  if (!std::isfinite(scale) || scale == 0) {
    ctx.Cover(4);
    return Value::DoubleVal(places > 0 ? d : 0.0);
  }
  return Value::DoubleVal(std::round(d * scale) / scale);
}

Result<Value> FnTruncate(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Decimal d, ctx.ArgDecimal(args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t places, ctx.ArgInt(args[1]));
  if (places < 0) {
    ctx.Cover(1);
    places = 0;
  }
  if (places > 10000) {
    ctx.Cover(2);
    return ResourceExhausted("TRUNCATE scale exceeds engine limit");
  }
  // Truncation = rounding toward zero: chop digits without the half-up step.
  const std::string text = d.ToString();
  const size_t dot = text.find('.');
  if (dot == std::string::npos || text.size() - dot - 1 <= static_cast<size_t>(places)) {
    ctx.Cover(3);
    return Value::Dec(d);
  }
  const std::string chopped =
      text.substr(0, dot + (places > 0 ? static_cast<size_t>(places) + 1 : 0));
  SOFT_ASSIGN_OR_RETURN(Decimal out, Decimal::FromString(chopped));
  return Value::Dec(out);
}

Result<Value> FnMod(FunctionContext& ctx, const ValueList& args) {
  if (args[0].kind() == TypeKind::kInt && args[1].kind() == TypeKind::kInt) {
    const int64_t a = args[0].int_value();
    const int64_t b = args[1].int_value();
    if (b == 0) {
      ctx.Cover(1);
      return InvalidArgument("division by zero in MOD");
    }
    if (a == INT64_MIN && b == -1) {
      ctx.Cover(2);
      return Value::Int(0);  // checked: avoids the classic SIGFPE
    }
    return Value::Int(a % b);
  }
  SOFT_ASSIGN_OR_RETURN(double a, ctx.ArgDouble(args[0]));
  SOFT_ASSIGN_OR_RETURN(double b, ctx.ArgDouble(args[1]));
  if (b == 0) {
    ctx.Cover(1);
    return InvalidArgument("division by zero in MOD");
  }
  return Value::DoubleVal(std::fmod(a, b));
}

Result<Value> FnDiv(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t a, ctx.ArgInt(args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t b, ctx.ArgInt(args[1]));
  if (b == 0) {
    ctx.Cover(1);
    return InvalidArgument("division by zero in DIV");
  }
  if (a == INT64_MIN && b == -1) {
    ctx.Cover(2);
    return InvalidArgument("DIV overflow");
  }
  return Value::Int(a / b);
}

Result<Value> FnPower(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double base, ctx.ArgDouble(args[0]));
  SOFT_ASSIGN_OR_RETURN(double exp, ctx.ArgDouble(args[1]));
  const double out = std::pow(base, exp);
  if (!std::isfinite(out)) {
    ctx.Cover(1);
    return InvalidArgument("POWER result out of range");
  }
  if (base == 0 && exp < 0) {
    ctx.Cover(2);
    return InvalidArgument("zero raised to a negative power");
  }
  return Value::DoubleVal(out);
}

Result<Value> FnSqrt(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  if (d < 0) {
    ctx.Cover(1);
    return InvalidArgument("SQRT of a negative number");
  }
  return Value::DoubleVal(std::sqrt(d));
}

Result<Value> FnExp(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  const double out = std::exp(d);
  if (!std::isfinite(out)) {
    ctx.Cover(1);
    return InvalidArgument("EXP result out of range");
  }
  return Value::DoubleVal(out);
}

Result<Value> FnLn(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  if (d <= 0) {
    ctx.Cover(1);
    return InvalidArgument("LN of a non-positive number");
  }
  return Value::DoubleVal(std::log(d));
}

Result<Value> FnLog(FunctionContext& ctx, const ValueList& args) {
  if (args.size() == 1) {
    return FnLn(ctx, args);
  }
  SOFT_ASSIGN_OR_RETURN(double base, ctx.ArgDouble(args[0]));
  SOFT_ASSIGN_OR_RETURN(double x, ctx.ArgDouble(args[1]));
  if (x <= 0 || base <= 0 || base == 1) {
    ctx.Cover(1);
    return InvalidArgument("LOG domain error");
  }
  return Value::DoubleVal(std::log(x) / std::log(base));
}

Result<Value> FnLog10(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  if (d <= 0) {
    ctx.Cover(1);
    return InvalidArgument("LOG10 of a non-positive number");
  }
  return Value::DoubleVal(std::log10(d));
}

Result<Value> FnLog2(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  if (d <= 0) {
    ctx.Cover(1);
    return InvalidArgument("LOG2 of a non-positive number");
  }
  return Value::DoubleVal(std::log2(d));
}

Result<Value> TrigImpl(FunctionContext& ctx, const ValueList& args, double (*fn)(double)) {
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  const double out = fn(d);
  if (std::isnan(out)) {
    ctx.Cover(1);
    return InvalidArgument("trigonometric domain error");
  }
  return Value::DoubleVal(out);
}

Result<Value> FnSin(FunctionContext& ctx, const ValueList& args) {
  return TrigImpl(ctx, args, std::sin);
}
Result<Value> FnCos(FunctionContext& ctx, const ValueList& args) {
  return TrigImpl(ctx, args, std::cos);
}
Result<Value> FnTan(FunctionContext& ctx, const ValueList& args) {
  return TrigImpl(ctx, args, std::tan);
}
Result<Value> FnAsin(FunctionContext& ctx, const ValueList& args) {
  return TrigImpl(ctx, args, std::asin);
}
Result<Value> FnAcos(FunctionContext& ctx, const ValueList& args) {
  return TrigImpl(ctx, args, std::acos);
}
Result<Value> FnAtan(FunctionContext& ctx, const ValueList& args) {
  return TrigImpl(ctx, args, std::atan);
}

Result<Value> FnAtan2(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double y, ctx.ArgDouble(args[0]));
  SOFT_ASSIGN_OR_RETURN(double x, ctx.ArgDouble(args[1]));
  return Value::DoubleVal(std::atan2(y, x));
}

Result<Value> FnPi(FunctionContext& ctx, const ValueList& args) {
  return Value::DoubleVal(3.14159265358979323846);
}

Result<Value> FnRadians(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  return Value::DoubleVal(d * 3.14159265358979323846 / 180.0);
}

Result<Value> FnDegrees(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
  return Value::DoubleVal(d * 180.0 / 3.14159265358979323846);
}

Result<Value> FnCrc32(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  return Value::Int(Crc32(0, s.data(), s.size()));
}

Result<Value> FnBitCount(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t v, ctx.ArgInt(args[0]));
  uint64_t u = static_cast<uint64_t>(v);
  int count = 0;
  while (u != 0) {
    count += static_cast<int>(u & 1);
    u >>= 1;
  }
  return Value::Int(count);
}

// RAND([seed]) — deterministic; without a seed uses a fixed engine seed so
// campaigns stay reproducible.
Result<Value> FnRand(FunctionContext& ctx, const ValueList& args) {
  uint64_t seed = 0x853c49e6748fea9bull;
  if (!args.empty()) {
    ctx.Cover(1);
    SOFT_ASSIGN_OR_RETURN(int64_t s, ctx.ArgInt(args[0]));
    seed ^= static_cast<uint64_t>(s) * 0x9E3779B97F4A7C15ull;
  }
  seed ^= seed >> 33;
  seed *= 0xFF51AFD7ED558CCDull;
  seed ^= seed >> 33;
  return Value::DoubleVal(static_cast<double>(seed >> 11) * 0x1.0p-53);
}

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args, ScalarFunction fn,
         const char* doc, const char* example) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kMath;
  def.min_args = min_args;
  def.max_args = max_args;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterMathFunctions(FunctionRegistry& r) {
  Reg(r, "ABS", 1, 1, FnAbs, "Absolute value", "ABS(-5)");
  Reg(r, "SIGN", 1, 1, FnSign, "Sign of a number", "SIGN(-5)");
  Reg(r, "CEIL", 1, 1, FnCeil, "Round up", "CEIL(1.2)");
  Reg(r, "CEILING", 1, 1, FnCeil, "Round up", "CEILING(1.2)");
  Reg(r, "FLOOR", 1, 1, FnFloor, "Round down", "FLOOR(1.8)");
  Reg(r, "ROUND", 1, 2, FnRound, "Round to N places", "ROUND(1.2345, 2)");
  Reg(r, "TRUNCATE", 2, 2, FnTruncate, "Truncate to N places", "TRUNCATE(1.999, 1)");
  Reg(r, "MOD", 2, 2, FnMod, "Remainder", "MOD(10, 3)");
  Reg(r, "DIV", 2, 2, FnDiv, "Integer division", "DIV(10, 3)");
  Reg(r, "POWER", 2, 2, FnPower, "Exponentiation", "POWER(2, 10)");
  Reg(r, "POW", 2, 2, FnPower, "Exponentiation", "POW(2, 10)");
  Reg(r, "SQRT", 1, 1, FnSqrt, "Square root", "SQRT(2)");
  Reg(r, "EXP", 1, 1, FnExp, "e^x", "EXP(1)");
  Reg(r, "LN", 1, 1, FnLn, "Natural logarithm", "LN(2.718)");
  Reg(r, "LOG", 1, 2, FnLog, "Logarithm (optionally with base)", "LOG(2, 8)");
  Reg(r, "LOG10", 1, 1, FnLog10, "Base-10 logarithm", "LOG10(100)");
  Reg(r, "LOG2", 1, 1, FnLog2, "Base-2 logarithm", "LOG2(8)");
  Reg(r, "SIN", 1, 1, FnSin, "Sine", "SIN(0)");
  Reg(r, "COS", 1, 1, FnCos, "Cosine", "COS(0)");
  Reg(r, "TAN", 1, 1, FnTan, "Tangent", "TAN(0)");
  Reg(r, "ASIN", 1, 1, FnAsin, "Arc sine", "ASIN(0.5)");
  Reg(r, "ACOS", 1, 1, FnAcos, "Arc cosine", "ACOS(0.5)");
  Reg(r, "ATAN", 1, 1, FnAtan, "Arc tangent", "ATAN(1)");
  Reg(r, "ATAN2", 2, 2, FnAtan2, "Two-argument arc tangent", "ATAN2(1, 1)");
  Reg(r, "PI", 0, 0, FnPi, "The constant pi", "PI()");
  Reg(r, "RADIANS", 1, 1, FnRadians, "Degrees to radians", "RADIANS(180)");
  Reg(r, "DEGREES", 1, 1, FnDegrees, "Radians to degrees", "DEGREES(3.14159)");
  Reg(r, "CRC32", 1, 1, FnCrc32, "CRC-32 checksum", "CRC32('abc')");
  Reg(r, "BIT_COUNT", 1, 1, FnBitCount, "Count of set bits", "BIT_COUNT(7)");
  Reg(r, "RAND", 0, 1, FnRand, "Deterministic pseudo-random value", "RAND(42)");
}

}  // namespace soft
