// Value semantics and the cast matrix — the Pattern 2.x substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/sqlvalue/cast.h"
#include "src/sqlvalue/value.h"

namespace soft {
namespace {

CastOptions Strict() {
  CastOptions o;
  o.strict = true;
  return o;
}

CastOptions Lenient() { return CastOptions(); }

TEST(ValueKinds, TagsMatchFactories) {
  EXPECT_EQ(Value::Null().kind(), TypeKind::kNull);
  EXPECT_EQ(Value::Boolean(true).kind(), TypeKind::kBool);
  EXPECT_EQ(Value::Int(1).kind(), TypeKind::kInt);
  EXPECT_EQ(Value::DoubleVal(1.5).kind(), TypeKind::kDouble);
  EXPECT_EQ(Value::Str("x").kind(), TypeKind::kString);
  EXPECT_EQ(Value::BlobVal("x").kind(), TypeKind::kBlob);
  EXPECT_EQ(Value::Star().kind(), TypeKind::kStar);
  EXPECT_EQ(Value::ArrayVal({Value::Int(1)}).kind(), TypeKind::kArray);
  EXPECT_EQ(Value::RowVal({Value::Int(1)}).kind(), TypeKind::kRow);
}

TEST(ValueCompare, CrossNumericExact) {
  // Decimal/int comparison is exact, not via double.
  const Value big1 = Value::Dec(*Decimal::FromString("10000000000000000000000001"));
  const Value big2 = Value::Dec(*Decimal::FromString("10000000000000000000000002"));
  EXPECT_EQ(*Value::Compare(big1, big2), -1);
  EXPECT_EQ(*Value::Compare(Value::Int(2), Value::DoubleVal(1.5)), 1);
  EXPECT_EQ(*Value::Compare(Value::Int(2), Value::Dec(Decimal::FromInt64(2))), 0);
}

TEST(ValueCompare, NullsSortFirstAndEqual) {
  EXPECT_EQ(*Value::Compare(Value::Null(), Value::Null()), 0);
  EXPECT_EQ(*Value::Compare(Value::Null(), Value::Int(0)), -1);
  EXPECT_EQ(*Value::Compare(Value::Int(0), Value::Null()), 1);
}

TEST(ValueCompare, RowsAreNotComparable) {
  const Value r1 = Value::RowVal({Value::Int(1), Value::Int(1)});
  const Value r2 = Value::RowVal({Value::Int(1), Value::Int(2)});
  const Result<int> cmp = Value::Compare(r1, r2);
  ASSERT_FALSE(cmp.ok());  // the MDEV-14596 class
  EXPECT_EQ(cmp.status().code(), StatusCode::kTypeError);
  // Structural equality still works.
  EXPECT_FALSE(r1.Equals(r2));
  EXPECT_TRUE(r1.Equals(Value::RowVal({Value::Int(1), Value::Int(1)})));
}

TEST(ValueLiterals, SqlRoundTripText) {
  EXPECT_EQ(Value::Str("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value::Null().ToSqlLiteral(), "NULL");
  EXPECT_EQ(Value::Star().ToSqlLiteral(), "*");
  EXPECT_EQ(Value::BlobVal(std::string("\x01\xAB", 2)).ToSqlLiteral(), "x'01AB'");
}

// The DOUBLE display text as it was first written: the first "%.*g"
// precision from 1 up whose text strtod converts back to the value.
std::string FirstRoundTripText(double d) {
  if (std::isnan(d)) {
    return "nan";
  }
  if (std::isinf(d)) {
    return d > 0 ? "inf" : "-inf";
  }
  if (d == 0) {
    return "0";
  }
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    return std::to_string(static_cast<long long>(d));
  }
  for (int prec = 1; prec <= 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, d);
    if (std::strtod(probe, nullptr) == d) {
      return probe;
    }
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

// The display text starts its precision search near the shortest round-trip
// digit count; it must print what the search from 1 printed. Powers of two
// and of ten with both neighbours (where the shortest text's exponent and
// digit count change), then a fixed-seed sample of bit patterns.
TEST(ValueLiterals, DoubleTextIsTheFirstRoundTripPrecision) {
  std::vector<double> values = {std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(), 0.1, 1.0 / 3};
  for (int e = -1074; e <= 1023; ++e) {
    values.push_back(std::ldexp(1.0, e));
  }
  for (int e = -323; e <= 308; ++e) {
    values.push_back(std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));
  }
  const size_t anchors = values.size();
  for (size_t i = 0; i < anchors; ++i) {
    values.push_back(std::nextafter(values[i], 0.0));
    values.push_back(std::nextafter(values[i], std::numeric_limits<double>::infinity()));
  }
  uint64_t state = 0x5eed;
  for (int i = 0; i < 20000; ++i) {
    // splitmix64
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    double d = 0;
    std::memcpy(&d, &z, sizeof(d));
    values.push_back(d);
  }
  size_t mismatches = 0;
  for (const double magnitude : values) {
    for (const double d : {magnitude, -magnitude}) {
      const std::string text = Value::DoubleVal(d).ToDisplayString();
      if (text != FirstRoundTripText(d) && ++mismatches <= 10) {
        ADD_FAILURE() << std::hexfloat << d << ": " << text << " vs "
                      << FirstRoundTripText(d);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// --- Cast matrix ---------------------------------------------------------------

TEST(CastMatrix, NullCastsToNullEverywhere) {
  for (int k = 1; k < kNumTypeKinds - 1; ++k) {
    const Result<Value> out = CastValue(Value::Null(), static_cast<TypeKind>(k));
    ASSERT_TRUE(out.ok()) << k;
    EXPECT_TRUE(out->is_null()) << k;
  }
}

TEST(CastMatrix, StarIsNotCastable) {
  EXPECT_FALSE(CastValue(Value::Star(), TypeKind::kInt).ok());
  EXPECT_FALSE(CastValue(Value::Star(), TypeKind::kString).ok());
}

TEST(CastMatrix, StringToIntStrictVsLenient) {
  EXPECT_EQ(CastValue(Value::Str("12"), TypeKind::kInt, Strict())->int_value(), 12);
  EXPECT_FALSE(CastValue(Value::Str("12abc"), TypeKind::kInt, Strict()).ok());
  // MySQL-style prefix parse.
  EXPECT_EQ(CastValue(Value::Str("12abc"), TypeKind::kInt, Lenient())->int_value(), 12);
  EXPECT_EQ(CastValue(Value::Str("abc"), TypeKind::kInt, Lenient())->int_value(), 0);
  EXPECT_EQ(CastValue(Value::Str("-7"), TypeKind::kInt, Lenient())->int_value(), -7);
}

TEST(CastMatrix, DoubleToIntRangeChecked) {
  EXPECT_EQ(CastValue(Value::DoubleVal(1.9), TypeKind::kInt)->int_value(), 1);
  EXPECT_FALSE(CastValue(Value::DoubleVal(1e19), TypeKind::kInt).ok());
  EXPECT_FALSE(CastValue(Value::DoubleVal(0.0 / 0.0), TypeKind::kInt).ok());
}

TEST(CastMatrix, StringToDateLenientGivesNull) {
  const Result<Value> bad = CastValue(Value::Str("not-a-date"), TypeKind::kDate,
                                      Lenient());
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->is_null());
  EXPECT_FALSE(CastValue(Value::Str("not-a-date"), TypeKind::kDate, Strict()).ok());
  EXPECT_EQ(CastValue(Value::Str("2024-06-15"), TypeKind::kDate)->date_value().month, 6);
}

TEST(CastMatrix, IntToDateYyyymmdd) {
  const Result<Value> d = CastValue(Value::Int(20240615), TypeKind::kDate);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->date_value().day, 15);
  EXPECT_TRUE(CastValue(Value::Int(3), TypeKind::kDate, Lenient())->is_null());
}

TEST(CastMatrix, JsonDepthLimited) {
  CastOptions opt;
  opt.json_depth_limit = 4;
  const Result<Value> shallow = CastValue(Value::Str("[[1]]"), TypeKind::kJson, opt);
  EXPECT_TRUE(shallow.ok());
  const Result<Value> deep = CastValue(Value::Str("[[[[[[1]]]]]]"), TypeKind::kJson, opt);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kResourceExhausted);
}

TEST(CastMatrix, BlobConversions) {
  EXPECT_EQ(CastValue(Value::Str("ab"), TypeKind::kBlob)->blob_value(), "ab");
  const Value inet = *CastValue(Value::Str("1.2.3.4"), TypeKind::kInet);
  EXPECT_EQ(CastValue(inet, TypeKind::kBlob)->blob_value().size(), 4u);
  const Value geo = *CastValue(Value::Str("POINT(1 2)"), TypeKind::kGeometry);
  const Value blob = *CastValue(geo, TypeKind::kBlob);
  // Geometry → blob → geometry round-trips.
  EXPECT_EQ(CastValue(blob, TypeKind::kGeometry)->geometry_value(),
            geo.geometry_value());
}

TEST(CastMatrix, BoolText) {
  EXPECT_TRUE(CastValue(Value::Str("true"), TypeKind::kBool)->bool_value());
  EXPECT_FALSE(CastValue(Value::Str("off"), TypeKind::kBool)->bool_value());
  EXPECT_FALSE(CastValue(Value::Str("maybe"), TypeKind::kBool, Strict()).ok());
}

// A trimmed text longer than five bytes is no boolean word: strict mode
// rejects it with its whole text, lenient mode reads its integer prefix.
TEST(CastMatrix, MegabyteBoolText) {
  const std::string pad(1100000, ' ');
  const std::string xs(1100000, 'x');
  EXPECT_TRUE(CastValue(Value::Str(pad + "YeS" + pad), TypeKind::kBool, Strict())->bool_value());
  EXPECT_FALSE(CastValue(Value::Str(pad + "\tfalse\r"), TypeKind::kBool, Strict())->bool_value());
  const Result<Value> strict = CastValue(Value::Str(xs), TypeKind::kBool, Strict());
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kTypeError);
  EXPECT_EQ(strict.status().message(), "invalid input syntax for BOOL: '" + xs + "'");
  EXPECT_FALSE(CastValue(Value::Str(xs), TypeKind::kBool, Lenient())->bool_value());
  EXPECT_TRUE(
      CastValue(Value::Str(std::string(1100000, '7')), TypeKind::kBool, Lenient())->bool_value());
  EXPECT_FALSE(CastValue(Value::Str(pad + std::string(1100000, '0') + xs), TypeKind::kBool,
                         Lenient())
                   ->bool_value());
  EXPECT_TRUE(CastValue(Value::Str(" falsey"), TypeKind::kBool, Lenient()).ok());
  EXPECT_FALSE(CastValue(Value::Str(" falsey"), TypeKind::kBool, Strict()).ok());
}

TEST(CoerceValue, StrictRefusesImplicitStringToNumeric) {
  EXPECT_FALSE(CoerceValue(Value::Str("1"), TypeKind::kInt, Strict()).ok());
  EXPECT_TRUE(CoerceValue(Value::Str("1"), TypeKind::kInt, Lenient()).ok());
  // Explicit CastValue is allowed even in strict mode.
  EXPECT_TRUE(CastValue(Value::Str("1"), TypeKind::kInt, Strict()).ok());
}

TEST(CommonSuperType, Lattice) {
  EXPECT_EQ(*CommonSuperType(TypeKind::kInt, TypeKind::kDouble), TypeKind::kDouble);
  EXPECT_EQ(*CommonSuperType(TypeKind::kInt, TypeKind::kDecimal), TypeKind::kDecimal);
  EXPECT_EQ(*CommonSuperType(TypeKind::kDate, TypeKind::kDateTime),
            TypeKind::kDateTime);
  EXPECT_EQ(*CommonSuperType(TypeKind::kInt, TypeKind::kString), TypeKind::kString);
  EXPECT_EQ(*CommonSuperType(TypeKind::kNull, TypeKind::kJson), TypeKind::kJson);
  EXPECT_FALSE(CommonSuperType(TypeKind::kRow, TypeKind::kInt).ok());
  EXPECT_FALSE(CommonSuperType(TypeKind::kArray, TypeKind::kString).ok());
}

TEST(TypeNames, ParseAliases) {
  EXPECT_EQ(*ParseTypeName("BIGINT"), TypeKind::kInt);
  EXPECT_EQ(*ParseTypeName("varchar(255)"), TypeKind::kString);
  EXPECT_EQ(*ParseTypeName("Decimal256(45)"), TypeKind::kDecimal);
  EXPECT_EQ(*ParseTypeName("NUMERIC(10,2)"), TypeKind::kDecimal);
  EXPECT_EQ(*ParseTypeName("bytea"), TypeKind::kBlob);
  EXPECT_EQ(*ParseTypeName("TIMESTAMP"), TypeKind::kDateTime);
  EXPECT_FALSE(ParseTypeName("NO_SUCH_TYPE").has_value());
}

}  // namespace
}  // namespace soft
