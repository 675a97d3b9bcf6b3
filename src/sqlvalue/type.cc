#include "src/sqlvalue/type.h"

#include "src/util/str_util.h"

namespace soft {

std::string_view TypeKindName(TypeKind kind) {
  switch (kind) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBool:
      return "BOOL";
    case TypeKind::kInt:
      return "INT";
    case TypeKind::kDouble:
      return "DOUBLE";
    case TypeKind::kDecimal:
      return "DECIMAL";
    case TypeKind::kString:
      return "STRING";
    case TypeKind::kBlob:
      return "BLOB";
    case TypeKind::kDate:
      return "DATE";
    case TypeKind::kDateTime:
      return "DATETIME";
    case TypeKind::kJson:
      return "JSON";
    case TypeKind::kArray:
      return "ARRAY";
    case TypeKind::kRow:
      return "ROW";
    case TypeKind::kMap:
      return "MAP";
    case TypeKind::kInet:
      return "INET";
    case TypeKind::kGeometry:
      return "GEOMETRY";
    case TypeKind::kStar:
      return "STAR";
  }
  return "UNKNOWN";
}

std::optional<TypeKind> ParseTypeName(std::string_view name) {
  // Strip parenthesized parameters: DECIMAL(10,2) → DECIMAL.
  const std::string_view trimmed = TrimWhitespace(name.substr(0, name.find('(')));
  // No type name is longer than "DOUBLE PRECISION": a longer text is not
  // upper-cased at all.
  char upper[16];
  if (trimmed.size() > sizeof(upper)) {
    return std::nullopt;
  }
  for (size_t i = 0; i < trimmed.size(); ++i) {
    upper[i] = ToAsciiUpper(trimmed[i]);
  }
  const std::string_view base(upper, trimmed.size());

  if (base == "INT" || base == "INTEGER" || base == "BIGINT" || base == "SMALLINT" ||
      base == "TINYINT" || base == "SIGNED" || base == "UNSIGNED" || base == "INT64" ||
      base == "INT32" || base == "SERIAL") {
    return TypeKind::kInt;
  }
  if (base == "DOUBLE" || base == "DOUBLE PRECISION" || base == "FLOAT" || base == "REAL" ||
      base == "FLOAT64" || base == "FLOAT32") {
    return TypeKind::kDouble;
  }
  if (base == "DECIMAL" || base == "NUMERIC" || base == "DEC" || base == "NUMBER" ||
      base == "DECIMAL256" || base == "DECIMAL128") {
    return TypeKind::kDecimal;
  }
  if (base == "STRING" || base == "VARCHAR" || base == "TEXT" || base == "CHAR" ||
      base == "CHARACTER" || base == "NVARCHAR" || base == "CLOB") {
    return TypeKind::kString;
  }
  if (base == "BLOB" || base == "BYTEA" || base == "BINARY" || base == "VARBINARY" ||
      base == "BYTES") {
    return TypeKind::kBlob;
  }
  if (base == "BOOL" || base == "BOOLEAN") {
    return TypeKind::kBool;
  }
  if (base == "DATE") {
    return TypeKind::kDate;
  }
  if (base == "DATETIME" || base == "TIMESTAMP") {
    return TypeKind::kDateTime;
  }
  if (base == "JSON" || base == "JSONB") {
    return TypeKind::kJson;
  }
  if (base == "ARRAY") {
    return TypeKind::kArray;
  }
  if (base == "ROW") {
    return TypeKind::kRow;
  }
  if (base == "MAP") {
    return TypeKind::kMap;
  }
  if (base == "INET" || base == "INET6") {
    return TypeKind::kInet;
  }
  if (base == "GEOMETRY") {
    return TypeKind::kGeometry;
  }
  return std::nullopt;
}

bool IsNumericType(TypeKind kind) {
  return kind == TypeKind::kInt || kind == TypeKind::kDouble || kind == TypeKind::kDecimal;
}

bool IsComparableType(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBool:
    case TypeKind::kInt:
    case TypeKind::kDouble:
    case TypeKind::kDecimal:
    case TypeKind::kString:
    case TypeKind::kBlob:
    case TypeKind::kDate:
    case TypeKind::kDateTime:
      return true;
    default:
      return false;
  }
}

}  // namespace soft
