#include "src/sqlvalue/value.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "src/util/str_util.h"

namespace soft {

TypeKind Value::kind() const {
  struct Visitor {
    TypeKind operator()(const std::monostate&) const { return TypeKind::kNull; }
    TypeKind operator()(const bool&) const { return TypeKind::kBool; }
    TypeKind operator()(const int64_t&) const { return TypeKind::kInt; }
    TypeKind operator()(const double&) const { return TypeKind::kDouble; }
    TypeKind operator()(const Decimal&) const { return TypeKind::kDecimal; }
    TypeKind operator()(const std::string&) const { return TypeKind::kString; }
    TypeKind operator()(const Blob&) const { return TypeKind::kBlob; }
    TypeKind operator()(const Date&) const { return TypeKind::kDate; }
    TypeKind operator()(const DateTime&) const { return TypeKind::kDateTime; }
    TypeKind operator()(const JsonPtr&) const { return TypeKind::kJson; }
    TypeKind operator()(const ArrayBox&) const { return TypeKind::kArray; }
    TypeKind operator()(const RowBox&) const { return TypeKind::kRow; }
    TypeKind operator()(const MapEntriesPtr&) const { return TypeKind::kMap; }
    TypeKind operator()(const InetAddr&) const { return TypeKind::kInet; }
    TypeKind operator()(const GeometryPtr&) const { return TypeKind::kGeometry; }
    TypeKind operator()(const StarTag&) const { return TypeKind::kStar; }
  };
  return std::visit(Visitor{}, data_);
}

const ValueList& Value::array_items() const { return *std::get<ArrayBox>(data_).items; }
const ValueList& Value::row_fields() const { return *std::get<RowBox>(data_).fields; }

Result<double> Value::AsDouble() const {
  switch (kind()) {
    case TypeKind::kBool:
      return bool_value() ? 1.0 : 0.0;
    case TypeKind::kInt:
      return static_cast<double>(int_value());
    case TypeKind::kDouble:
      return double_value();
    case TypeKind::kDecimal:
      return decimal_value().ToDouble();
    default:
      return TypeError("value is not numeric");
  }
}

Result<int64_t> Value::AsInt64() const {
  switch (kind()) {
    case TypeKind::kBool:
      return static_cast<int64_t>(bool_value() ? 1 : 0);
    case TypeKind::kInt:
      return int_value();
    case TypeKind::kDouble: {
      const double d = double_value();
      if (std::isnan(d) || d >= 9.3e18 || d <= -9.3e18) {
        return InvalidArgument("DOUBLE out of INT range");
      }
      return static_cast<int64_t>(d);
    }
    case TypeKind::kDecimal:
      return decimal_value().ToInt64();
    default:
      return TypeError("value is not numeric");
  }
}

Result<Decimal> Value::AsDecimal() const {
  switch (kind()) {
    case TypeKind::kBool:
      return Decimal::FromInt64(bool_value() ? 1 : 0);
    case TypeKind::kInt:
      return Decimal::FromInt64(int_value());
    case TypeKind::kDouble:
      return Decimal::FromDouble(double_value());
    case TypeKind::kDecimal:
      return decimal_value();
    default:
      return TypeError("value is not numeric");
  }
}

namespace {

std::string DoubleToText(double d) {
  if (std::isnan(d)) {
    return "nan";
  }
  if (std::isinf(d)) {
    return d > 0 ? "inf" : "-inf";
  }
  if (d == 0) {
    return "0";  // canonical: no "-0"
  }
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    return std::to_string(static_cast<long long>(d));
  }
  // The first precision whose "%.*g" text converts back to `d`. Of the
  // precisions below the digit count P of std::to_chars' shortest text
  // (the fewest characters that convert back), only P - 1 can, when its
  // rounding lengthens the exponent; so the search starts there, not at 1.
  char buf[40];
  const std::to_chars_result shortest =
      std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::scientific);
  int digits = 0;
  for (const char* c = buf; c != shortest.ptr && *c != 'e'; ++c) {
    digits += IsAsciiDigit(*c) ? 1 : 0;
  }
  for (int prec = std::max(1, digits - 1); prec <= 17; ++prec) {
    const std::to_chars_result probe =
        std::to_chars(buf, buf + sizeof(buf) - 1, d, std::chars_format::general, prec);
    *probe.ptr = '\0';
    if (std::strtod(buf, nullptr) == d) {
      return std::string(buf, probe.ptr);
    }
  }
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string BlobToHex(const std::string& bytes) {
  std::string out = "x'";
  static const char* kHex = "0123456789ABCDEF";
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  out.push_back('\'');
  return out;
}

}  // namespace

std::string Value::ToDisplayString() const {
  switch (kind()) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case TypeKind::kInt:
      return std::to_string(int_value());
    case TypeKind::kDouble:
      return DoubleToText(double_value());
    case TypeKind::kDecimal:
      return decimal_value().ToString();
    case TypeKind::kString:
      return string_value();
    case TypeKind::kBlob:
      return BlobToHex(blob_value());
    case TypeKind::kDate:
      return FormatDate(date_value());
    case TypeKind::kDateTime:
      return FormatDateTime(datetime_value());
    case TypeKind::kJson:
      return json_value() != nullptr ? json_value()->Serialize() : "null";
    case TypeKind::kArray: {
      std::string out = "[";
      const ValueList& items = array_items();
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += items[i].ToDisplayString();
      }
      out += "]";
      return out;
    }
    case TypeKind::kRow: {
      std::string out = "ROW(";
      const ValueList& fields = row_fields();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += fields[i].ToDisplayString();
      }
      out += ")";
      return out;
    }
    case TypeKind::kMap: {
      std::string out = "{";
      const MapEntries& entries = map_entries();
      for (size_t i = 0; i < entries.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += entries[i].first.ToDisplayString();
        out += "=";
        out += entries[i].second.ToDisplayString();
      }
      out += "}";
      return out;
    }
    case TypeKind::kInet:
      return FormatInet(inet_value());
    case TypeKind::kGeometry:
      return GeometryToWkt(geometry_value());
    case TypeKind::kStar:
      return "*";
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  switch (kind()) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case TypeKind::kInt:
    case TypeKind::kDouble:
    case TypeKind::kDecimal:
      return ToDisplayString();
    case TypeKind::kString:
      return SqlQuote(string_value());
    case TypeKind::kBlob:
      return BlobToHex(blob_value());
    case TypeKind::kDate:
      return "DATE " + SqlQuote(FormatDate(date_value()));
    case TypeKind::kDateTime:
      return "TIMESTAMP " + SqlQuote(FormatDateTime(datetime_value()));
    case TypeKind::kJson:
      return "CAST(" + SqlQuote(ToDisplayString()) + " AS JSON)";
    case TypeKind::kArray: {
      std::string out = "ARRAY[";
      const ValueList& items = array_items();
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += items[i].ToSqlLiteral();
      }
      out += "]";
      return out;
    }
    case TypeKind::kRow: {
      std::string out = "ROW(";
      const ValueList& fields = row_fields();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += fields[i].ToSqlLiteral();
      }
      out += ")";
      return out;
    }
    case TypeKind::kMap:
    case TypeKind::kInet:
    case TypeKind::kGeometry:
      return "CAST(" + SqlQuote(ToDisplayString()) + " AS " +
             std::string(TypeKindName(kind())) + ")";
    case TypeKind::kStar:
      return "*";
  }
  return "NULL";
}

Result<int> Value::Compare(const Value& a, const Value& b) {
  const TypeKind ka = a.kind();
  const TypeKind kb = b.kind();
  if (ka == TypeKind::kNull || kb == TypeKind::kNull) {
    if (ka == kb) {
      return 0;
    }
    return ka == TypeKind::kNull ? -1 : 1;
  }
  // Numeric cross-type comparison via decimal (exact) or double.
  if (IsNumericType(ka) && IsNumericType(kb)) {
    if (ka == TypeKind::kDouble || kb == TypeKind::kDouble) {
      SOFT_ASSIGN_OR_RETURN(double da, a.AsDouble());
      SOFT_ASSIGN_OR_RETURN(double db, b.AsDouble());
      if (da < db) {
        return -1;
      }
      return da > db ? 1 : 0;
    }
    SOFT_ASSIGN_OR_RETURN(Decimal da, a.AsDecimal());
    SOFT_ASSIGN_OR_RETURN(Decimal db, b.AsDecimal());
    return Decimal::Compare(da, db);
  }
  if (ka != kb) {
    return TypeError(std::string("cannot compare ") + std::string(TypeKindName(ka)) +
                     " with " + std::string(TypeKindName(kb)));
  }
  if (!IsComparableType(ka)) {
    return TypeError(std::string(TypeKindName(ka)) + " values are not comparable");
  }
  switch (ka) {
    case TypeKind::kBool: {
      const int va = a.bool_value() ? 1 : 0;
      const int vb = b.bool_value() ? 1 : 0;
      return va - vb;
    }
    case TypeKind::kString: {
      const int c = a.string_value().compare(b.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeKind::kBlob: {
      const int c = a.blob_value().compare(b.blob_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeKind::kDate: {
      const int64_t d = DateDiffDays(a.date_value(), b.date_value());
      return d < 0 ? -1 : (d > 0 ? 1 : 0);
    }
    case TypeKind::kDateTime: {
      const DateTime& x = a.datetime_value();
      const DateTime& y = b.datetime_value();
      const int64_t d = DateDiffDays(x.date, y.date);
      if (d != 0) {
        return d < 0 ? -1 : 1;
      }
      const int64_t sx = x.hour * 3600 + x.minute * 60 + x.second;
      const int64_t sy = y.hour * 3600 + y.minute * 60 + y.second;
      return sx < sy ? -1 : (sx > sy ? 1 : 0);
    }
    default:
      return TypeError("unsupported comparison");
  }
}

bool Value::Equals(const Value& other) const {
  const TypeKind ka = kind();
  const TypeKind kb = other.kind();
  if (ka == TypeKind::kNull || kb == TypeKind::kNull) {
    return ka == kb;
  }
  if (ka == TypeKind::kStar || kb == TypeKind::kStar) {
    return ka == kb;
  }
  // Structural equality for composite kinds.
  if (ka == TypeKind::kArray && kb == TypeKind::kArray) {
    const ValueList& x = array_items();
    const ValueList& y = other.array_items();
    if (x.size() != y.size()) {
      return false;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (!x[i].Equals(y[i])) {
        return false;
      }
    }
    return true;
  }
  if (ka == TypeKind::kRow && kb == TypeKind::kRow) {
    const ValueList& x = row_fields();
    const ValueList& y = other.row_fields();
    if (x.size() != y.size()) {
      return false;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (!x[i].Equals(y[i])) {
        return false;
      }
    }
    return true;
  }
  if (ka == TypeKind::kMap && kb == TypeKind::kMap) {
    const MapEntries& x = map_entries();
    const MapEntries& y = other.map_entries();
    if (x.size() != y.size()) {
      return false;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (!x[i].first.Equals(y[i].first) || !x[i].second.Equals(y[i].second)) {
        return false;
      }
    }
    return true;
  }
  if (ka == TypeKind::kJson && kb == TypeKind::kJson) {
    return ToDisplayString() == other.ToDisplayString();
  }
  if (ka == TypeKind::kGeometry && kb == TypeKind::kGeometry) {
    return geometry_value() == other.geometry_value();
  }
  if (ka == TypeKind::kInet && kb == TypeKind::kInet) {
    return inet_value() == other.inet_value();
  }
  const Result<int> cmp = Compare(*this, other);
  return cmp.ok() && *cmp == 0;
}

size_t Value::PayloadSize() const {
  switch (kind()) {
    case TypeKind::kString:
      return string_value().size();
    case TypeKind::kBlob:
      return blob_value().size();
    case TypeKind::kJson:
      return json_value() != nullptr ? json_value()->Serialize().size() : 0;
    case TypeKind::kDecimal:
      return static_cast<size_t>(decimal_value().total_digits());
    case TypeKind::kArray:
      return array_items().size();
    case TypeKind::kRow:
      return row_fields().size();
    case TypeKind::kMap:
      return map_entries().size();
    case TypeKind::kGeometry:
      return geometry_value().points.size();
    default:
      return 0;
  }
}

}  // namespace soft
