// The engine's runtime value: a tagged union over every SQL type kind.
//
// Recursive payloads (JSON, ARRAY, ROW, MAP, GEOMETRY) are held behind
// shared_ptr, so copying such a value is cheap. STRING and BLOB payloads are
// stored inline and copied with the value: a megabyte string costs a
// megabyte per copy. Function bodies therefore read them in place, through
// FunctionContext::ArgString's view, and copy only what they return or keep.
//
// The STAR kind models the literal '*' argument (SELECT COUNT(*) / the
// Virtuoso CONTAINS(x, x, *) crash input); most functions must reject it,
// and the ones that don't are bug surface.
#ifndef SRC_SQLVALUE_VALUE_H_
#define SRC_SQLVALUE_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/sqlvalue/datetime.h"
#include "src/sqlvalue/decimal.h"
#include "src/sqlvalue/geometry.h"
#include "src/sqlvalue/inet.h"
#include "src/sqlvalue/json.h"
#include "src/sqlvalue/type.h"
#include "src/util/status.h"

namespace soft {

class Value;
using ValueList = std::vector<Value>;
using ValueListPtr = std::shared_ptr<const ValueList>;
using MapEntries = std::vector<std::pair<Value, Value>>;
using MapEntriesPtr = std::shared_ptr<const MapEntries>;
using GeometryPtr = std::shared_ptr<const Geometry>;

// Wrapper so BLOB and STRING are distinct variant alternatives.
struct Blob {
  std::string bytes;
  bool operator==(const Blob&) const = default;
};

struct StarTag {
  bool operator==(const StarTag&) const = default;
};

class Value {
 public:
  Value() : data_(std::monostate{}) {}  // NULL

  static Value Null() { return Value(); }
  static Value Boolean(bool b) { return Value(Payload(b)); }
  static Value Int(int64_t v) { return Value(Payload(v)); }
  static Value DoubleVal(double v) { return Value(Payload(v)); }
  static Value Dec(Decimal d) { return Value(Payload(std::move(d))); }
  static Value Str(std::string s) { return Value(Payload(std::move(s))); }
  static Value BlobVal(std::string bytes) { return Value(Payload(Blob{std::move(bytes)})); }
  static Value DateVal(Date d) { return Value(Payload(d)); }
  static Value DateTimeVal(DateTime dt) { return Value(Payload(dt)); }
  static Value JsonVal(JsonPtr doc) { return Value(Payload(std::move(doc))); }
  static Value ArrayVal(ValueList items) {
    return Value(Payload(ArrayBox{std::make_shared<const ValueList>(std::move(items))}));
  }
  static Value RowVal(ValueList fields) {
    return Value(Payload(RowBox{std::make_shared<const ValueList>(std::move(fields))}));
  }
  static Value MapVal(MapEntries entries) {
    return Value(Payload(std::make_shared<const MapEntries>(std::move(entries))));
  }
  static Value InetVal(InetAddr addr) { return Value(Payload(addr)); }
  static Value GeoVal(Geometry g) {
    return Value(Payload(std::make_shared<const Geometry>(std::move(g))));
  }
  static Value Star() { return Value(Payload(StarTag{})); }

  TypeKind kind() const;

  bool is_null() const { return kind() == TypeKind::kNull; }
  bool is_star() const { return kind() == TypeKind::kStar; }
  bool is_numeric() const { return IsNumericType(kind()); }

  // Typed accessors; only valid when kind() matches.
  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const Decimal& decimal_value() const { return std::get<Decimal>(data_); }
  const std::string& string_value() const { return std::get<std::string>(data_); }
  const std::string& blob_value() const { return std::get<Blob>(data_).bytes; }
  const Date& date_value() const { return std::get<Date>(data_); }
  const DateTime& datetime_value() const { return std::get<DateTime>(data_); }
  const JsonPtr& json_value() const { return std::get<JsonPtr>(data_); }
  const ValueList& array_items() const;
  const ValueList& row_fields() const;
  const MapEntries& map_entries() const { return *std::get<MapEntriesPtr>(data_); }
  const InetAddr& inet_value() const { return std::get<InetAddr>(data_); }
  const Geometry& geometry_value() const { return *std::get<GeometryPtr>(data_); }

  // Numeric widening used by math/aggregate functions. Fails on non-numerics.
  Result<double> AsDouble() const;
  Result<int64_t> AsInt64() const;
  Result<Decimal> AsDecimal() const;

  // Human-readable text used in result sets (NULL → "NULL").
  std::string ToDisplayString() const;
  // SQL literal text that parses back to (approximately) this value; used by
  // the fuzzers when splicing concrete values into generated statements.
  std::string ToSqlLiteral() const;

  // Total order over comparable kinds. Errors with kTypeError when kinds are
  // not mutually comparable (e.g. ROW vs ROW — the MDEV-14596 class). NULLs
  // sort first and compare equal to each other.
  static Result<int> Compare(const Value& a, const Value& b);

  // Structural equality (used by tests and GROUP BY keys). NULL == NULL here.
  bool Equals(const Value& other) const;

 private:
  struct ArrayBox {
    ValueListPtr items;
  };
  struct RowBox {
    ValueListPtr fields;
  };
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, Decimal, std::string, Blob, Date,
                   DateTime, JsonPtr, ArrayBox, RowBox, MapEntriesPtr, InetAddr, GeometryPtr,
                   StarTag>;

  explicit Value(Payload data) : data_(std::move(data)) {}

  Payload data_;
};

}  // namespace soft

#endif  // SRC_SQLVALUE_VALUE_H_
