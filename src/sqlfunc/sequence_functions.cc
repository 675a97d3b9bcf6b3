// Built-in sequence functions (MariaDB-style NEXTVAL/LASTVAL/SETVAL).
//
// Sequences live in SessionState; one MariaDB Table 4 bug keys on NEXTVAL
// receiving a non-identifier argument produced by a nested function.
#include "src/sqlfunc/function.h"

namespace soft {
namespace {

Result<Value> FnNextval(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view name, ctx.ArgString(args[0]));
  if (name.empty()) {
    ctx.Cover(1);
    return InvalidArgument("sequence name must not be empty");
  }
  SessionState* session = ctx.session();
  const int64_t next = ++session->sequences[std::string(name)];
  session->last_sequence_value = next;
  return Value::Int(next);
}

Result<Value> FnLastval(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view name, ctx.ArgString(args[0]));
  SessionState* session = ctx.session();
  const auto it = session->sequences.find(name);
  if (it == session->sequences.end()) {
    ctx.Cover(1);
    return Value::Null();
  }
  return Value::Int(it->second);
}

Result<Value> FnSetval(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view name, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(int64_t value, ctx.ArgInt(args[1]));
  if (name.empty()) {
    ctx.Cover(1);
    return InvalidArgument("sequence name must not be empty");
  }
  SessionState* session = ctx.session();
  session->sequences[std::string(name)] = value;
  session->last_sequence_value = value;
  return Value::Int(value);
}

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args, ScalarFunction fn,
         const char* doc, const char* example) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kSequence;
  def.min_args = min_args;
  def.max_args = max_args;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterSequenceFunctions(FunctionRegistry& r) {
  Reg(r, "NEXTVAL", 1, 1, FnNextval, "Advance and return a sequence", "NEXTVAL('s1')");
  Reg(r, "LASTVAL", 1, 1, FnLastval, "Current value of a sequence", "LASTVAL('s1')");
  Reg(r, "SETVAL", 2, 2, FnSetval, "Set a sequence value", "SETVAL('s1', 10)");
}

}  // namespace soft
