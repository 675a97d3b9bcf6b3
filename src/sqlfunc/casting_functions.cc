// Built-in casting / conversion functions.
//
// These are explicit-function-call forms of the cast matrix (CONVERT,
// TO_NUMBER, TODECIMALSTRING, INET codecs, ...). The ClickHouse
// toDecimalString null-pointer dereference that opens the paper lives on this
// surface: its precision argument accepted '*' without validation.
#include <cstdio>

#include "src/sqlfunc/function.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

Result<Value> FnConvert(FunctionContext& ctx, const ValueList& args) {
  // CONVERT(value, 'TYPE') — the type name arrives as a string argument
  // (MySQL also allows bare keywords; the parser delivers them as column
  // refs which the engine stringifies before this point).
  SOFT_ASSIGN_OR_RETURN(std::string_view type_name, ctx.ArgString(args[1]));
  const std::optional<TypeKind> kind = ParseTypeName(type_name);
  if (!kind.has_value()) {
    ctx.Cover(1);
    return InvalidArgument("unknown conversion type '" + std::string(type_name) + "'");
  }
  return CastValue(args[0], *kind, ctx.cast_options());
}

Result<Value> FnToNumber(FunctionContext& ctx, const ValueList& args) {
  return CastValue(args[0], TypeKind::kDecimal, ctx.cast_options());
}

Result<Value> FnToChar(FunctionContext& ctx, const ValueList& args) {
  return CastValue(args[0], TypeKind::kString, ctx.cast_options());
}

// TODECIMALSTRING(value, precision) — ClickHouse-style: renders a decimal
// with exactly `precision` fractional digits. Reference behaviour validates
// the precision argument (the bug in Listing 1 was a '*' flowing in).
Result<Value> FnToDecimalString(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Decimal d, ctx.ArgDecimal(args[0]));
  if (args[1].is_star()) {
    ctx.Cover(1);
    return InvalidArgument("precision argument must be an integer, not '*'");
  }
  SOFT_ASSIGN_OR_RETURN(int64_t precision, ctx.ArgInt(args[1]));
  if (precision < 0 || precision > 77) {
    ctx.Cover(2);
    return InvalidArgument("precision out of range [0, 77]");
  }
  return Value::Str(d.Rounded(static_cast<int>(precision)).ToString());
}

Result<Value> FnInet6Aton(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view text, ctx.ArgString(args[0]));
  const Result<InetAddr> addr = ParseInet(text);
  if (!addr.ok()) {
    ctx.Cover(1);
    return Value::Null();  // MySQL: invalid address → NULL
  }
  return Value::BlobVal(InetToBinary(*addr));
}

Result<Value> FnInet6Ntoa(FunctionContext& ctx, const ValueList& args) {
  if (args[0].kind() != TypeKind::kBlob) {
    ctx.Cover(1);
    return Value::Null();
  }
  const Result<InetAddr> addr = InetFromBinary(args[0].blob_value());
  if (!addr.ok()) {
    ctx.Cover(2);
    return Value::Null();
  }
  return Value::Str(FormatInet(*addr));
}

Result<Value> FnInetAton(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view text, ctx.ArgString(args[0]));
  const Result<InetAddr> addr = ParseInet(text);
  if (!addr.ok() || !addr->is_v4) {
    ctx.Cover(1);
    return Value::Null();
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | addr->bytes[12 + i];
  }
  return Value::Int(static_cast<int64_t>(v));
}

Result<Value> FnInetNtoa(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t v, ctx.ArgInt(args[0]));
  if (v < 0 || v > 0xFFFFFFFFll) {
    ctx.Cover(1);
    return Value::Null();
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", static_cast<unsigned>((v >> 24) & 0xFF),
                static_cast<unsigned>((v >> 16) & 0xFF),
                static_cast<unsigned>((v >> 8) & 0xFF), static_cast<unsigned>(v & 0xFF));
  return Value::Str(buf);
}

Result<Value> FnToDate(FunctionContext& ctx, const ValueList& args) {
  return CastValue(args[0], TypeKind::kDate, ctx.cast_options());
}

Result<Value> FnToTimestamp(FunctionContext& ctx, const ValueList& args) {
  return CastValue(args[0], TypeKind::kDateTime, ctx.cast_options());
}

Result<Value> FnToJson(FunctionContext& ctx, const ValueList& args) {
  return CastValue(args[0], TypeKind::kJson, ctx.cast_options());
}

Result<Value> FnBin(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t v, ctx.ArgInt(args[0]));
  if (v == 0) {
    ctx.Cover(1);
    return Value::Str("0");
  }
  uint64_t u = static_cast<uint64_t>(v);
  std::string out;
  while (u != 0) {
    out.insert(out.begin(), static_cast<char>('0' + (u & 1)));
    u >>= 1;
  }
  return Value::Str(std::move(out));
}

Result<Value> FnOct(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t v, ctx.ArgInt(args[0]));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llo", static_cast<unsigned long long>(v));
  return Value::Str(buf);
}

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args, ScalarFunction fn,
         const char* doc, const char* example) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kCasting;
  def.min_args = min_args;
  def.max_args = max_args;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterCastingFunctions(FunctionRegistry& r) {
  Reg(r, "CONVERT", 2, 2, FnConvert, "Convert to a named type",
      "CONVERT('12', 'SIGNED')");
  Reg(r, "TO_NUMBER", 1, 1, FnToNumber, "Text to exact decimal", "TO_NUMBER('1.5')");
  Reg(r, "TO_CHAR", 1, 1, FnToChar, "Any value to text", "TO_CHAR(1.5)");
  Reg(r, "TODECIMALSTRING", 2, 2, FnToDecimalString,
      "Decimal rendered with fixed fractional digits", "TODECIMALSTRING(1.5, 4)");
  Reg(r, "INET6_ATON", 1, 1, FnInet6Aton, "Address text to binary",
      "INET6_ATON('255.255.255.255')");
  Reg(r, "INET6_NTOA", 1, 1, FnInet6Ntoa, "Binary address to text",
      "INET6_NTOA(INET6_ATON('::1'))");
  Reg(r, "INET_ATON", 1, 1, FnInetAton, "IPv4 text to integer",
      "INET_ATON('10.0.0.1')");
  Reg(r, "INET_NTOA", 1, 1, FnInetNtoa, "Integer to IPv4 text", "INET_NTOA(167772161)");
  Reg(r, "TO_DATE", 1, 1, FnToDate, "Text to DATE", "TO_DATE('2024-06-15')");
  Reg(r, "TO_TIMESTAMP", 1, 1, FnToTimestamp, "Text to DATETIME",
      "TO_TIMESTAMP('2024-06-15 10:00:00')");
  Reg(r, "TO_JSON", 1, 1, FnToJson, "Value to JSON", "TO_JSON('[1,2]')");
  Reg(r, "BIN", 1, 1, FnBin, "Integer to binary text", "BIN(7)");
  Reg(r, "OCT", 1, 1, FnOct, "Integer to octal text", "OCT(8)");
}

}  // namespace soft
