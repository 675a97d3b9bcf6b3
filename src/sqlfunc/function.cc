#include "src/sqlfunc/function.h"

#include <mutex>

#include "src/util/str_util.h"

namespace soft {

std::string_view FunctionTypeName(FunctionType type) {
  switch (type) {
    case FunctionType::kString:
      return "string";
    case FunctionType::kAggregate:
      return "aggregate";
    case FunctionType::kMath:
      return "math";
    case FunctionType::kDate:
      return "date";
    case FunctionType::kJson:
      return "json";
    case FunctionType::kXml:
      return "xml";
    case FunctionType::kSpatial:
      return "spatial";
    case FunctionType::kSystem:
      return "system";
    case FunctionType::kCondition:
      return "condition";
    case FunctionType::kCasting:
      return "casting";
    case FunctionType::kArray:
      return "array";
    case FunctionType::kMap:
      return "map";
    case FunctionType::kSequence:
      return "sequence";
  }
  return "unknown";
}

Result<std::string_view> FunctionContext::ArgString(const Value& v) {
  if (v.kind() == TypeKind::kString) {
    return std::string_view(v.string_value());
  }
  if (v.kind() == TypeKind::kBlob) {
    return std::string_view(v.blob_value());
  }
  SOFT_ASSIGN_OR_RETURN(Value s, CoerceValue(v, TypeKind::kString, cast_options_));
  if (s.is_null()) {
    return TypeError("NULL where string argument required");
  }
  coerced_.push_front(std::move(s));
  return std::string_view(coerced_.front().string_value());
}

Result<int64_t> FunctionContext::ArgInt(const Value& v) const {
  SOFT_ASSIGN_OR_RETURN(Value i, CoerceValue(v, TypeKind::kInt, cast_options_));
  if (i.is_null()) {
    return TypeError("NULL where integer argument required");
  }
  return i.int_value();
}

Result<double> FunctionContext::ArgDouble(const Value& v) const {
  SOFT_ASSIGN_OR_RETURN(Value d, CoerceValue(v, TypeKind::kDouble, cast_options_));
  if (d.is_null()) {
    return TypeError("NULL where double argument required");
  }
  return d.double_value();
}

Result<Decimal> FunctionContext::ArgDecimal(const Value& v) const {
  SOFT_ASSIGN_OR_RETURN(Value d, CoerceValue(v, TypeKind::kDecimal, cast_options_));
  if (d.is_null()) {
    return TypeError("NULL where decimal argument required");
  }
  return d.decimal_value();
}

void FunctionRegistry::Register(FunctionDef def) {
  def.name = AsciiUpper(def.name);
  functions_[def.name] = std::move(def);
}

const FunctionDef* FunctionRegistry::Find(std::string_view name) const {
  const auto it = FindUpperCase(functions_, name);
  return it == functions_.end() ? nullptr : &it->second;
}

std::vector<const FunctionDef*> FunctionRegistry::All() const {
  std::vector<const FunctionDef*> out;
  out.reserve(functions_.size());
  for (const auto& [name, def] : functions_) {
    out.push_back(&def);
  }
  return out;
}

void FunctionRegistry::Remove(std::string_view name) {
  functions_.erase(AsciiUpper(name));
}

const FunctionRegistry& BuiltinRegistry() {
  // Not a magic static: the prototype is reachable from every campaign shard
  // thread, so the one-time category registration is call_once-guarded and
  // the storage is never torn down (immutable after init).
  static std::once_flag once;
  static const FunctionRegistry* prototype = nullptr;
  std::call_once(once, [] {
    auto* registry = new FunctionRegistry();
    RegisterStringFunctions(*registry);
    RegisterMathFunctions(*registry);
    RegisterDateFunctions(*registry);
    RegisterJsonFunctions(*registry);
    RegisterXmlFunctions(*registry);
    RegisterSpatialFunctions(*registry);
    RegisterSystemFunctions(*registry);
    RegisterConditionFunctions(*registry);
    RegisterCastingFunctions(*registry);
    RegisterArrayMapFunctions(*registry);
    RegisterSequenceFunctions(*registry);
    RegisterAggregateFunctions(*registry);
    prototype = registry;
  });
  return *prototype;
}

void RegisterAllBuiltins(FunctionRegistry& registry) {
  for (const FunctionDef* def : BuiltinRegistry().All()) {
    registry.Register(*def);
  }
}

}  // namespace soft
