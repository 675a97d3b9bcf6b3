#include "src/sqlvalue/cast.h"

#include <cmath>
#include <cstdlib>

#include "src/util/str_util.h"

namespace soft {
namespace {

// Lenient numeric prefix parse (MySQL semantics): "12abc" → 12, "abc" → 0.
int64_t LenientParseInt(std::string_view s) {
  size_t i = 0;
  while (i < s.size() && IsAsciiSpace(s[i])) {
    ++i;
  }
  bool neg = false;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
    neg = s[i] == '-';
    ++i;
  }
  int64_t v = 0;
  while (i < s.size() && IsAsciiDigit(s[i])) {
    const int digit = s[i] - '0';
    if (v > (INT64_MAX - digit) / 10) {
      v = INT64_MAX;  // saturate
      break;
    }
    v = v * 10 + digit;
    ++i;
  }
  return neg ? -v : v;
}

double LenientParseDouble(const std::string& s) {
  return std::strtod(s.c_str(), nullptr);
}

Result<Value> CastToInt(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kBool:
      return Value::Int(v.bool_value() ? 1 : 0);
    case TypeKind::kInt:
      return v;
    case TypeKind::kDouble: {
      const double d = v.double_value();
      if (std::isnan(d) || d >= 9.3e18 || d <= -9.3e18) {
        return InvalidArgument("DOUBLE out of INT range");
      }
      return Value::Int(static_cast<int64_t>(d));
    }
    case TypeKind::kDecimal: {
      SOFT_ASSIGN_OR_RETURN(int64_t out, v.decimal_value().ToInt64());
      return Value::Int(out);
    }
    case TypeKind::kString: {
      if (opt.strict) {
        const Result<Decimal> dec = Decimal::FromString(v.string_value());
        if (!dec.ok()) {
          return TypeError("invalid input syntax for INT: '" + v.string_value() + "'");
        }
        SOFT_ASSIGN_OR_RETURN(int64_t out, dec->ToInt64());
        return Value::Int(out);
      }
      return Value::Int(LenientParseInt(v.string_value()));
    }
    case TypeKind::kDate: {
      const Date& d = v.date_value();
      return Value::Int(static_cast<int64_t>(d.year) * 10000 + d.month * 100 + d.day);
    }
    default:
      return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                       " to INT");
  }
}

Result<Value> CastToDouble(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kBool:
    case TypeKind::kInt:
    case TypeKind::kDouble:
    case TypeKind::kDecimal: {
      SOFT_ASSIGN_OR_RETURN(double d, v.AsDouble());
      return Value::DoubleVal(d);
    }
    case TypeKind::kString: {
      if (opt.strict) {
        char* end = nullptr;
        const std::string& s = v.string_value();
        const double d = std::strtod(s.c_str(), &end);
        if (end != s.c_str() + s.size() || s.empty()) {
          return TypeError("invalid input syntax for DOUBLE: '" + s + "'");
        }
        return Value::DoubleVal(d);
      }
      return Value::DoubleVal(LenientParseDouble(v.string_value()));
    }
    default:
      return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                       " to DOUBLE");
  }
}

Result<Value> CastToDecimal(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kBool:
    case TypeKind::kInt:
    case TypeKind::kDouble:
    case TypeKind::kDecimal: {
      SOFT_ASSIGN_OR_RETURN(Decimal d, v.AsDecimal());
      return Value::Dec(std::move(d));
    }
    case TypeKind::kString: {
      const Result<Decimal> d = Decimal::FromString(v.string_value());
      if (!d.ok()) {
        if (opt.strict || d.status().code() == StatusCode::kResourceExhausted) {
          return d.status();
        }
        return Value::Dec(Decimal());  // lenient: 0
      }
      return Value::Dec(*d);
    }
    default:
      return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                       " to DECIMAL");
  }
}

Result<Value> CastToString(const Value& v, const CastOptions& opt) {
  if (v.kind() == TypeKind::kBlob) {
    return Value::Str(v.blob_value());
  }
  std::string text = v.ToDisplayString();
  if (text.size() > opt.max_string_len) {
    return ResourceExhausted("string cast result exceeds engine limit");
  }
  return Value::Str(std::move(text));
}

Result<Value> CastToBlob(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kString:
      return Value::BlobVal(v.string_value());
    case TypeKind::kBlob:
      return v;
    case TypeKind::kInet:
      return Value::BlobVal(InetToBinary(v.inet_value()));
    case TypeKind::kGeometry:
      return Value::BlobVal(GeometryToBinary(v.geometry_value()));
    case TypeKind::kInt:
    case TypeKind::kDouble:
    case TypeKind::kDecimal:
      return Value::BlobVal(v.ToDisplayString());
    default:
      return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                       " to BLOB");
  }
}

Result<Value> CastToBool(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kBool:
      return v;
    case TypeKind::kInt:
      return Value::Boolean(v.int_value() != 0);
    case TypeKind::kDouble:
      return Value::Boolean(v.double_value() != 0.0);
    case TypeKind::kDecimal:
      return Value::Boolean(!v.decimal_value().IsZero());
    case TypeKind::kString: {
      // A boolean word is at most five bytes ("false"): only a trimmed text
      // that short is lower-cased and compared.
      const std::string_view trimmed = TrimWhitespace(v.string_value());
      char lowered[5];
      if (trimmed.size() <= sizeof(lowered)) {
        for (size_t i = 0; i < trimmed.size(); ++i) {
          lowered[i] = ToAsciiLower(trimmed[i]);
        }
        const std::string_view s(lowered, trimmed.size());
        if (s == "true" || s == "t" || s == "1" || s == "yes" || s == "on") {
          return Value::Boolean(true);
        }
        if (s == "false" || s == "f" || s == "0" || s == "no" || s == "off") {
          return Value::Boolean(false);
        }
      }
      if (opt.strict) {
        return TypeError("invalid input syntax for BOOL: '" + v.string_value() + "'");
      }
      return Value::Boolean(LenientParseInt(v.string_value()) != 0);
    }
    default:
      return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                       " to BOOL");
  }
}

Result<Value> CastToDate(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kDate:
      return v;
    case TypeKind::kDateTime:
      return Value::DateVal(v.datetime_value().date);
    case TypeKind::kString: {
      const Result<Date> d = ParseDate(v.string_value());
      if (!d.ok()) {
        if (opt.strict) {
          return d.status();
        }
        return Value::Null();  // MySQL-style: invalid date → NULL (+warning)
      }
      return Value::DateVal(*d);
    }
    case TypeKind::kInt: {
      // yyyymmdd integer form.
      const int64_t n = v.int_value();
      Date d;
      d.year = static_cast<int32_t>(n / 10000);
      d.month = static_cast<int32_t>((n / 100) % 100);
      d.day = static_cast<int32_t>(n % 100);
      if (!IsValidDate(d)) {
        if (opt.strict) {
          return TypeError("integer does not encode a valid DATE");
        }
        return Value::Null();
      }
      return Value::DateVal(d);
    }
    default:
      return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                       " to DATE");
  }
}

Result<Value> CastToDateTime(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kDateTime:
      return v;
    case TypeKind::kDate: {
      DateTime dt;
      dt.date = v.date_value();
      return Value::DateTimeVal(dt);
    }
    case TypeKind::kString: {
      const Result<DateTime> dt = ParseDateTime(v.string_value());
      if (!dt.ok()) {
        if (opt.strict) {
          return dt.status();
        }
        return Value::Null();
      }
      return Value::DateTimeVal(*dt);
    }
    default:
      return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                       " to DATETIME");
  }
}

Result<Value> CastToJson(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kJson:
      return v;
    case TypeKind::kString: {
      SOFT_ASSIGN_OR_RETURN(JsonParseResult parsed,
                            ParseJson(v.string_value(), opt.json_depth_limit));
      return Value::JsonVal(parsed.value);
    }
    case TypeKind::kBool:
      return Value::JsonVal(JsonValue::MakeBool(v.bool_value()));
    case TypeKind::kInt:
      return Value::JsonVal(JsonValue::MakeNumber(static_cast<double>(v.int_value())));
    case TypeKind::kDouble:
      return Value::JsonVal(JsonValue::MakeNumber(v.double_value()));
    case TypeKind::kDecimal:
      return Value::JsonVal(JsonValue::MakeNumber(v.decimal_value().ToDouble()));
    case TypeKind::kArray: {
      JsonValue::Array items;
      for (const Value& item : v.array_items()) {
        SOFT_ASSIGN_OR_RETURN(Value j, CastToJson(item, opt));
        items.push_back(j.is_null() ? JsonValue::MakeNull() : j.json_value());
      }
      return Value::JsonVal(JsonValue::MakeArray(std::move(items)));
    }
    default:
      return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                       " to JSON");
  }
}

Result<Value> CastToInet(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kInet:
      return v;
    case TypeKind::kString: {
      SOFT_ASSIGN_OR_RETURN(InetAddr addr, ParseInet(v.string_value()));
      return Value::InetVal(addr);
    }
    case TypeKind::kBlob: {
      SOFT_ASSIGN_OR_RETURN(InetAddr addr, InetFromBinary(v.blob_value()));
      return Value::InetVal(addr);
    }
    default:
      return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                       " to INET");
  }
}

Result<Value> CastToGeometry(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kGeometry:
      return v;
    case TypeKind::kString: {
      SOFT_ASSIGN_OR_RETURN(Geometry g, ParseWkt(v.string_value()));
      return Value::GeoVal(std::move(g));
    }
    case TypeKind::kBlob: {
      SOFT_ASSIGN_OR_RETURN(Geometry g, GeometryFromBinary(v.blob_value()));
      return Value::GeoVal(std::move(g));
    }
    default:
      return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                       " to GEOMETRY");
  }
}

Result<Value> CastToArray(const Value& v, const CastOptions& opt) {
  switch (v.kind()) {
    case TypeKind::kArray:
      return v;
    case TypeKind::kJson: {
      const JsonPtr& j = v.json_value();
      if (j == nullptr || j->kind() != JsonKind::kArray) {
        return TypeError("JSON value is not an array");
      }
      ValueList items;
      for (const JsonPtr& item : j->array_items()) {
        switch (item->kind()) {
          case JsonKind::kNull:
            items.push_back(Value::Null());
            break;
          case JsonKind::kBool:
            items.push_back(Value::Boolean(item->bool_value()));
            break;
          case JsonKind::kNumber:
            items.push_back(Value::DoubleVal(item->number_value()));
            break;
          case JsonKind::kString:
            items.push_back(Value::Str(item->string_value()));
            break;
          default:
            items.push_back(Value::JsonVal(item));
        }
      }
      return Value::ArrayVal(std::move(items));
    }
    default:
      if (opt.strict) {
        return TypeError(std::string("cannot cast ") + std::string(TypeKindName(v.kind())) +
                         " to ARRAY");
      }
      return Value::ArrayVal({v});  // lenient: singleton wrap
  }
}

}  // namespace

Result<Value> CastValue(const Value& v, TypeKind target, const CastOptions& options) {
  if (v.is_null()) {
    return Value::Null();
  }
  if (v.is_star() && target != TypeKind::kStar) {
    return TypeError("'*' is not a castable value");
  }
  switch (target) {
    case TypeKind::kNull:
      return Value::Null();
    case TypeKind::kBool:
      return CastToBool(v, options);
    case TypeKind::kInt:
      return CastToInt(v, options);
    case TypeKind::kDouble:
      return CastToDouble(v, options);
    case TypeKind::kDecimal:
      return CastToDecimal(v, options);
    case TypeKind::kString:
      return CastToString(v, options);
    case TypeKind::kBlob:
      return CastToBlob(v, options);
    case TypeKind::kDate:
      return CastToDate(v, options);
    case TypeKind::kDateTime:
      return CastToDateTime(v, options);
    case TypeKind::kJson:
      return CastToJson(v, options);
    case TypeKind::kArray:
      return CastToArray(v, options);
    case TypeKind::kRow:
      if (v.kind() == TypeKind::kRow) {
        return v;
      }
      return TypeError("cannot cast to ROW");
    case TypeKind::kMap:
      if (v.kind() == TypeKind::kMap) {
        return v;
      }
      return TypeError("cannot cast to MAP");
    case TypeKind::kInet:
      return CastToInet(v, options);
    case TypeKind::kGeometry:
      return CastToGeometry(v, options);
    case TypeKind::kStar:
      return TypeError("'*' is not a cast target");
  }
  return Internal("unhandled cast target");
}

Result<Value> CoerceValue(const Value& v, TypeKind target, const CastOptions& options) {
  if (v.is_null() || v.kind() == target) {
    return v;
  }
  if (options.strict && v.kind() == TypeKind::kString && IsNumericType(target)) {
    // PostgreSQL refuses implicit text → numeric coercion.
    return TypeError("implicit cast from STRING to numeric is not allowed");
  }
  return CastValue(v, target, options);
}

Result<TypeKind> CommonSuperType(TypeKind a, TypeKind b) {
  if (a == b) {
    return a;
  }
  if (a == TypeKind::kNull) {
    return b;
  }
  if (b == TypeKind::kNull) {
    return a;
  }
  if (IsNumericType(a) && IsNumericType(b)) {
    if (a == TypeKind::kDouble || b == TypeKind::kDouble) {
      return TypeKind::kDouble;
    }
    if (a == TypeKind::kDecimal || b == TypeKind::kDecimal) {
      return TypeKind::kDecimal;
    }
    return TypeKind::kInt;
  }
  if ((a == TypeKind::kDate && b == TypeKind::kDateTime) ||
      (a == TypeKind::kDateTime && b == TypeKind::kDate)) {
    return TypeKind::kDateTime;
  }
  // Everything has a textual rendering; STRING is the last-resort supertype,
  // except composite kinds which unify only with themselves.
  const auto composite = [](TypeKind k) {
    return k == TypeKind::kArray || k == TypeKind::kRow || k == TypeKind::kMap;
  };
  if (composite(a) || composite(b)) {
    return TypeError(std::string("UNION types ") + std::string(TypeKindName(a)) + " and " +
                     std::string(TypeKindName(b)) + " cannot be matched");
  }
  return TypeKind::kString;
}

}  // namespace soft
