// Built-in JSON functions.
//
// JSON arguments combine two boundary axes the paper leans on: nesting depth
// (CVE-2015-5289, the MariaDB JSON_LENGTH global overflow) and huge embedded
// numbers (MDEV-8407's COLUMN_JSON on a 48-digit decimal). Every function
// here funnels string arguments through the depth-accounted parser.
#include "src/sqlfunc/function.h"

namespace soft {
namespace {

Result<JsonPtr> ArgJson(FunctionContext& ctx, const Value& v) {
  if (v.kind() == TypeKind::kJson) {
    return v.json_value();
  }
  SOFT_ASSIGN_OR_RETURN(std::string_view text, ctx.ArgString(v));
  SOFT_ASSIGN_OR_RETURN(JsonParseResult parsed,
                        ParseJson(text, ctx.limits().json_depth_limit));
  return parsed.value;
}

Result<Value> FnJsonValid(FunctionContext& ctx, const ValueList& args) {
  if (args[0].kind() == TypeKind::kJson) {
    ctx.Cover(1);
    return Value::Boolean(true);
  }
  SOFT_ASSIGN_OR_RETURN(std::string_view text, ctx.ArgString(args[0]));
  const Result<JsonParseResult> parsed = ParseJson(text, ctx.limits().json_depth_limit);
  if (!parsed.ok() && parsed.status().code() == StatusCode::kResourceExhausted) {
    ctx.Cover(2);
    return parsed.status();  // depth limit is an engine error, not "invalid"
  }
  return Value::Boolean(parsed.ok());
}

Result<Value> FnJsonDepth(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(JsonPtr doc, ArgJson(ctx, args[0]));
  return Value::Int(doc->Depth());
}

// JSON_LENGTH(doc[, path]) — number of elements/members at the target.
Result<Value> FnJsonLength(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(JsonPtr doc, ArgJson(ctx, args[0]));
  JsonPtr target = doc;
  if (args.size() >= 2) {
    SOFT_ASSIGN_OR_RETURN(std::string_view path, ctx.ArgString(args[1]));
    SOFT_ASSIGN_OR_RETURN(target, EvalJsonPath(doc, path));
    if (target == nullptr) {
      ctx.Cover(1);
      return Value::Null();
    }
  }
  switch (target->kind()) {
    case JsonKind::kArray:
      return Value::Int(static_cast<int64_t>(target->array_items().size()));
    case JsonKind::kObject:
      return Value::Int(static_cast<int64_t>(target->object_members().size()));
    default:
      ctx.Cover(2);
      return Value::Int(1);
  }
}

Result<Value> FnJsonExtract(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(JsonPtr doc, ArgJson(ctx, args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view path, ctx.ArgString(args[1]));
  SOFT_ASSIGN_OR_RETURN(JsonPtr target, EvalJsonPath(doc, path));
  if (target == nullptr) {
    ctx.Cover(1);
    return Value::Null();
  }
  return Value::JsonVal(target);
}

Result<Value> FnJsonType(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(JsonPtr doc, ArgJson(ctx, args[0]));
  switch (doc->kind()) {
    case JsonKind::kNull:
      return Value::Str("NULL");
    case JsonKind::kBool:
      return Value::Str("BOOLEAN");
    case JsonKind::kNumber:
      return Value::Str("NUMBER");
    case JsonKind::kString:
      return Value::Str("STRING");
    case JsonKind::kArray:
      return Value::Str("ARRAY");
    case JsonKind::kObject:
      return Value::Str("OBJECT");
  }
  return Value::Null();
}

Result<Value> FnJsonKeys(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(JsonPtr doc, ArgJson(ctx, args[0]));
  if (doc->kind() != JsonKind::kObject) {
    ctx.Cover(1);
    return Value::Null();
  }
  JsonValue::Array keys;
  for (const auto& [k, v] : doc->object_members()) {
    keys.push_back(JsonValue::MakeString(k));
  }
  return Value::JsonVal(JsonValue::MakeArray(std::move(keys)));
}

// JSON_ARRAY(v1, v2, ...) — builds an array from SQL values.
Result<JsonPtr> SqlValueToJson(FunctionContext& ctx, const Value& v) {
  switch (v.kind()) {
    case TypeKind::kNull:
      return JsonValue::MakeNull();
    case TypeKind::kBool:
      return JsonValue::MakeBool(v.bool_value());
    case TypeKind::kInt:
      return JsonValue::MakeNumber(static_cast<double>(v.int_value()));
    case TypeKind::kDouble:
      return JsonValue::MakeNumber(v.double_value());
    case TypeKind::kDecimal:
      return JsonValue::MakeNumber(v.decimal_value().ToDouble());
    case TypeKind::kJson:
      return v.json_value();
    default: {
      SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(v));
      return JsonValue::MakeString(std::string(s));
    }
  }
}

Result<Value> FnJsonArray(FunctionContext& ctx, const ValueList& args) {
  JsonValue::Array items;
  for (const Value& v : args) {
    SOFT_ASSIGN_OR_RETURN(JsonPtr j, SqlValueToJson(ctx, v));
    items.push_back(std::move(j));
  }
  return Value::JsonVal(JsonValue::MakeArray(std::move(items)));
}

Result<Value> FnJsonObject(FunctionContext& ctx, const ValueList& args) {
  if (args.size() % 2 != 0) {
    ctx.Cover(1);
    return InvalidArgument("JSON_OBJECT requires an even number of arguments");
  }
  JsonValue::Object members;
  for (size_t i = 0; i < args.size(); i += 2) {
    SOFT_ASSIGN_OR_RETURN(std::string_view key, ctx.ArgString(args[i]));
    SOFT_ASSIGN_OR_RETURN(JsonPtr val, SqlValueToJson(ctx, args[i + 1]));
    members.emplace_back(key, std::move(val));
  }
  return Value::JsonVal(JsonValue::MakeObject(std::move(members)));
}

Result<Value> FnJsonQuote(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  return Value::Str(JsonValue::MakeString(std::string(s))->Serialize());
}

Result<Value> FnJsonUnquote(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(JsonPtr doc, ArgJson(ctx, args[0]));
  if (doc->kind() == JsonKind::kString) {
    return Value::Str(doc->string_value());
  }
  ctx.Cover(1);
  return Value::Str(doc->Serialize());
}

Result<Value> FnJsonMergePreserve(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(JsonPtr a, ArgJson(ctx, args[0]));
  SOFT_ASSIGN_OR_RETURN(JsonPtr b, ArgJson(ctx, args[1]));
  // Array-style merge: wrap non-arrays.
  JsonValue::Array items;
  auto extend = [&](const JsonPtr& doc) {
    if (doc->kind() == JsonKind::kArray) {
      for (const JsonPtr& item : doc->array_items()) {
        items.push_back(item);
      }
    } else {
      items.push_back(doc);
    }
  };
  extend(a);
  extend(b);
  return Value::JsonVal(JsonValue::MakeArray(std::move(items)));
}

Result<Value> FnJsonContainsPath(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(JsonPtr doc, ArgJson(ctx, args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view path, ctx.ArgString(args[1]));
  const Result<JsonPtr> target = EvalJsonPath(doc, path);
  if (!target.ok()) {
    ctx.Cover(1);
    return target.status();
  }
  return Value::Boolean(*target != nullptr);
}

// COLUMN_CREATE / COLUMN_JSON — MariaDB dynamic columns, simplified: a
// dynamic column set is a JSON object carried as a blob.
Result<Value> FnColumnCreate(FunctionContext& ctx, const ValueList& args) {
  if (args.size() % 2 != 0) {
    ctx.Cover(1);
    return InvalidArgument("COLUMN_CREATE requires name/value pairs");
  }
  JsonValue::Object members;
  for (size_t i = 0; i < args.size(); i += 2) {
    SOFT_ASSIGN_OR_RETURN(std::string_view key, ctx.ArgString(args[i]));
    // Decimal values keep their full digit string (the MDEV-8407 surface).
    if (args[i + 1].kind() == TypeKind::kDecimal) {
      ctx.Cover(2);
      members.emplace_back(key, JsonValue::MakeString(args[i + 1].decimal_value().ToString()));
      continue;
    }
    SOFT_ASSIGN_OR_RETURN(JsonPtr val, SqlValueToJson(ctx, args[i + 1]));
    members.emplace_back(key, std::move(val));
  }
  return Value::BlobVal(JsonValue::MakeObject(std::move(members))->Serialize());
}

Result<Value> FnColumnJson(FunctionContext& ctx, const ValueList& args) {
  if (args[0].kind() != TypeKind::kBlob) {
    ctx.Cover(1);
    return InvalidArgument("COLUMN_JSON expects a dynamic-column blob");
  }
  SOFT_ASSIGN_OR_RETURN(JsonParseResult parsed,
                        ParseJson(args[0].blob_value(), ctx.limits().json_depth_limit));
  return Value::Str(parsed.value->Serialize());
}

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args, ScalarFunction fn,
         const char* doc, const char* example) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kJson;
  def.min_args = min_args;
  def.max_args = max_args;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterJsonFunctions(FunctionRegistry& r) {
  Reg(r, "JSON_VALID", 1, 1, FnJsonValid, "Whether text parses as JSON",
      "JSON_VALID('{\"a\": 1}')");
  Reg(r, "JSON_DEPTH", 1, 1, FnJsonDepth, "Nesting depth of a document",
      "JSON_DEPTH('[[1]]')");
  Reg(r, "JSON_LENGTH", 1, 2, FnJsonLength, "Element count at a path",
      "JSON_LENGTH('[1,2,3]', '$')");
  Reg(r, "JSON_EXTRACT", 2, 2, FnJsonExtract, "Value at a path",
      "JSON_EXTRACT('{\"a\": [1,2]}', '$.a[1]')");
  Reg(r, "JSON_TYPE", 1, 1, FnJsonType, "Type tag of a document", "JSON_TYPE('[1]')");
  Reg(r, "JSON_KEYS", 1, 1, FnJsonKeys, "Keys of an object", "JSON_KEYS('{\"a\": 1}')");
  Reg(r, "JSON_ARRAY", 0, -1, FnJsonArray, "Build a JSON array", "JSON_ARRAY(1, 'a')");
  Reg(r, "JSON_OBJECT", 0, -1, FnJsonObject, "Build a JSON object",
      "JSON_OBJECT('a', 1)");
  Reg(r, "JSON_QUOTE", 1, 1, FnJsonQuote, "Quote text as a JSON string",
      "JSON_QUOTE('abc')");
  Reg(r, "JSON_UNQUOTE", 1, 1, FnJsonUnquote, "Unquote a JSON string",
      "JSON_UNQUOTE('\"abc\"')");
  Reg(r, "JSON_MERGE_PRESERVE", 2, 2, FnJsonMergePreserve, "Merge two documents",
      "JSON_MERGE_PRESERVE('[1]', '[2]')");
  Reg(r, "JSON_CONTAINS_PATH", 2, 2, FnJsonContainsPath, "Whether a path resolves",
      "JSON_CONTAINS_PATH('{\"a\": 1}', '$.a')");
  Reg(r, "COLUMN_CREATE", 2, -1, FnColumnCreate, "Build a dynamic-column blob",
      "COLUMN_CREATE('x', 1)");
  Reg(r, "COLUMN_JSON", 1, 1, FnColumnJson, "Dynamic-column blob to JSON text",
      "COLUMN_JSON(COLUMN_CREATE('x', 1))");
}

}  // namespace soft
