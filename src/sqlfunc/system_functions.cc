// Built-in system / information functions.
//
// Virtuoso's bug table is dominated by system functions (15 of its 45) —
// introspection helpers that accept loosely-typed arguments. CONTAINS is the
// Case 2 exemplar: the reference implementation rejects '*' arguments; the
// Virtuoso-dialect injected bug does not.
#include <algorithm>
#include <functional>

#include "src/sqlfunc/function.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

Result<Value> FnVersion(FunctionContext& ctx, const ValueList& args) {
  return Value::Str("soft-engine 1.0.0");
}

Result<Value> FnDatabase(FunctionContext& ctx, const ValueList& args) {
  return Value::Str("main");
}

Result<Value> FnCurrentUser(FunctionContext& ctx, const ValueList& args) {
  return Value::Str("soft@localhost");
}

Result<Value> FnConnectionId(FunctionContext& ctx, const ValueList& args) {
  return Value::Int(static_cast<int64_t>(ctx.session()->connection_id));
}

// CONTAINS(haystack, needle[, options]) — text search. The options argument
// must be a string; '*' is explicitly rejected here (the fixed behaviour).
Result<Value> FnContains(FunctionContext& ctx, const ValueList& args) {
  for (const Value& v : args) {
    if (v.is_star()) {
      ctx.Cover(1);
      return InvalidArgument("CONTAINS does not accept '*' arguments");
    }
  }
  SOFT_ASSIGN_OR_RETURN(std::string_view hay, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view needle, ctx.ArgString(args[1]));
  std::string lowered_hay;
  std::string lowered_needle;
  if (args.size() >= 3) {
    SOFT_ASSIGN_OR_RETURN(std::string_view options, ctx.ArgString(args[2]));
    if (EqualsIgnoreCase(options, "i")) {
      ctx.Cover(2);
      lowered_hay = AsciiLower(hay);
      lowered_needle = AsciiLower(needle);
      hay = lowered_hay;
      needle = lowered_needle;
    }
  }
  if (needle.empty()) {
    ctx.Cover(3);
    return Value::Int(1);
  }
  // Horspool skips ahead on a mismatch, where find() would re-probe every
  // position of a haystack that repeats the needle's first byte.
  const auto hit =
      std::search(hay.begin(), hay.end(),
                  std::boyer_moore_horspool_searcher(needle.begin(), needle.end()));
  return Value::Int(hit != hay.end() ? 1 : 0);
}

Result<Value> FnSleep(FunctionContext& ctx, const ValueList& args) {
  // Deterministic engine: SLEEP validates its argument but never blocks.
  SOFT_ASSIGN_OR_RETURN(double seconds, ctx.ArgDouble(args[0]));
  if (seconds < 0) {
    ctx.Cover(1);
    return InvalidArgument("negative SLEEP duration");
  }
  return Value::Int(0);
}

Result<Value> FnUuid(FunctionContext& ctx, const ValueList& args) {
  // Deterministic per-session UUID-shaped string.
  const uint64_t id = ctx.session()->connection_id * 0x9E3779B97F4A7C15ull + 7;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%08x-%04x-%04x-%04x-%012llx",
                static_cast<unsigned>(id & 0xFFFFFFFF),
                static_cast<unsigned>((id >> 32) & 0xFFFF),
                static_cast<unsigned>((id >> 48) & 0xFFFF), 0x4000u,
                static_cast<unsigned long long>(id & 0xFFFFFFFFFFFFull));
  return Value::Str(buf);
}

Result<Value> FnTypeOf(FunctionContext& ctx, const ValueList& args) {
  return Value::Str(std::string(TypeKindName(args[0].kind())));
}

Result<Value> FnLastInsertId(FunctionContext& ctx, const ValueList& args) {
  return Value::Int(ctx.session()->last_sequence_value);
}

Result<Value> FnBenchmark(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t count, ctx.ArgInt(args[0]));
  if (count < 0) {
    ctx.Cover(1);
    return Value::Null();
  }
  if (count > 1000000) {
    ctx.Cover(2);
    return ResourceExhausted("BENCHMARK repetition limit exceeded");
  }
  // The expression argument was already evaluated once by the engine; the
  // loop is modeled, not executed.
  return Value::Int(0);
}

Result<Value> FnFoundRows(FunctionContext& ctx, const ValueList& args) {
  return Value::Int(0);
}

Result<Value> FnCharset(FunctionContext& ctx, const ValueList& args) {
  return Value::Str("utf8mb4");
}

Result<Value> FnCollation(FunctionContext& ctx, const ValueList& args) {
  return Value::Str("utf8mb4_general_ci");
}

Result<Value> FnCoercibility(FunctionContext& ctx, const ValueList& args) {
  // MySQL coercibility levels: literal = 4, NULL = 6.
  if (args[0].is_null()) {
    ctx.Cover(1);
    return Value::Int(6);
  }
  return Value::Int(4);
}

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args, ScalarFunction fn,
         const char* doc, const char* example, bool null_prop = true) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kSystem;
  def.min_args = min_args;
  def.max_args = max_args;
  def.null_propagates = null_prop;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterSystemFunctions(FunctionRegistry& r) {
  Reg(r, "VERSION", 0, 0, FnVersion, "Engine version string", "VERSION()");
  Reg(r, "DATABASE", 0, 0, FnDatabase, "Current database name", "DATABASE()");
  Reg(r, "CURRENT_USER", 0, 0, FnCurrentUser, "Current user", "CURRENT_USER()");
  Reg(r, "USER", 0, 0, FnCurrentUser, "Current user", "USER()");
  Reg(r, "CONNECTION_ID", 0, 0, FnConnectionId, "Session id", "CONNECTION_ID()");
  Reg(r, "CONTAINS", 2, 3, FnContains, "Text containment search",
      "CONTAINS('haystack', 'hay')");
  Reg(r, "SLEEP", 1, 1, FnSleep, "Validated no-op delay", "SLEEP(0)");
  Reg(r, "UUID", 0, 0, FnUuid, "Deterministic UUID-shaped string", "UUID()");
  Reg(r, "TYPEOF", 1, 1, FnTypeOf, "Type of a value", "TYPEOF(1)", false);
  Reg(r, "LAST_INSERT_ID", 0, 0, FnLastInsertId, "Last sequence value",
      "LAST_INSERT_ID()");
  Reg(r, "BENCHMARK", 2, 2, FnBenchmark, "Repeated-evaluation probe",
      "BENCHMARK(10, 1 + 1)");
  Reg(r, "FOUND_ROWS", 0, 0, FnFoundRows, "Rows found by the last query",
      "FOUND_ROWS()");
  Reg(r, "CHARSET", 1, 1, FnCharset, "Character set of a value", "CHARSET('a')", false);
  Reg(r, "COLLATION", 1, 1, FnCollation, "Collation of a value", "COLLATION('a')", false);
  Reg(r, "COERCIBILITY", 1, 1, FnCoercibility, "Collation coercibility",
      "COERCIBILITY('a')", false);
}

}  // namespace soft
