// Built-in spatial functions.
//
// The MariaDB Case 6 chain — ST_ASTEXT(BOUNDARY(INET6_ATON('255.255.255.255')))
// — flows an inet blob into geometry code. The reference implementations here
// validate blob payloads via GeometryFromBinary before touching them; the
// injected spatial bugs key on exactly the unvalidated-blob condition.
#include <cmath>

#include "src/sqlfunc/function.h"

namespace soft {
namespace {

Result<Geometry> ArgGeometry(FunctionContext& ctx, const Value& v) {
  switch (v.kind()) {
    case TypeKind::kGeometry:
      return v.geometry_value();
    case TypeKind::kString: {
      ctx.Cover(11);
      return ParseWkt(v.string_value());
    }
    case TypeKind::kBlob: {
      ctx.Cover(12);
      return GeometryFromBinary(v.blob_value());
    }
    default:
      return TypeError("argument is not a geometry");
  }
}

Result<Value> FnStGeomFromText(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view wkt, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(Geometry g, ParseWkt(wkt));
  return Value::GeoVal(std::move(g));
}

Result<Value> FnStAsText(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Geometry g, ArgGeometry(ctx, args[0]));
  return Value::Str(GeometryToWkt(g));
}

Result<Value> FnStAsBinary(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Geometry g, ArgGeometry(ctx, args[0]));
  return Value::BlobVal(GeometryToBinary(g));
}

Result<Value> FnBoundary(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Geometry g, ArgGeometry(ctx, args[0]));
  const Result<Geometry> boundary = GeometryBoundary(g);
  if (!boundary.ok()) {
    ctx.Cover(1);
    return Value::Null();  // empty boundary → NULL
  }
  return Value::GeoVal(*boundary);
}

Result<Value> FnPoint(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(double x, ctx.ArgDouble(args[0]));
  SOFT_ASSIGN_OR_RETURN(double y, ctx.ArgDouble(args[1]));
  Geometry g;
  g.kind = GeometryKind::kPoint;
  g.points = {GeoPoint{x, y}};
  return Value::GeoVal(std::move(g));
}

Result<Value> FnStX(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Geometry g, ArgGeometry(ctx, args[0]));
  if (g.kind != GeometryKind::kPoint) {
    ctx.Cover(1);
    return InvalidArgument("ST_X requires a POINT");
  }
  return Value::DoubleVal(g.points[0].x);
}

Result<Value> FnStY(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Geometry g, ArgGeometry(ctx, args[0]));
  if (g.kind != GeometryKind::kPoint) {
    ctx.Cover(1);
    return InvalidArgument("ST_Y requires a POINT");
  }
  return Value::DoubleVal(g.points[0].y);
}

Result<Value> FnStNumPoints(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Geometry g, ArgGeometry(ctx, args[0]));
  return Value::Int(static_cast<int64_t>(g.points.size()));
}

Result<Value> FnStLength(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Geometry g, ArgGeometry(ctx, args[0]));
  if (g.kind == GeometryKind::kPoint) {
    ctx.Cover(1);
    return Value::DoubleVal(0);
  }
  double total = 0;
  for (size_t i = 1; i < g.points.size(); ++i) {
    const double dx = g.points[i].x - g.points[i - 1].x;
    const double dy = g.points[i].y - g.points[i - 1].y;
    total += std::sqrt(dx * dx + dy * dy);
  }
  return Value::DoubleVal(total);
}

Result<Value> FnStDistance(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Geometry a, ArgGeometry(ctx, args[0]));
  SOFT_ASSIGN_OR_RETURN(Geometry b, ArgGeometry(ctx, args[1]));
  if (a.kind != GeometryKind::kPoint || b.kind != GeometryKind::kPoint) {
    ctx.Cover(1);
    return InvalidArgument("ST_DISTANCE supports POINT arguments only");
  }
  const double dx = a.points[0].x - b.points[0].x;
  const double dy = a.points[0].y - b.points[0].y;
  return Value::DoubleVal(std::sqrt(dx * dx + dy * dy));
}

Result<Value> FnStEquals(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(Geometry a, ArgGeometry(ctx, args[0]));
  SOFT_ASSIGN_OR_RETURN(Geometry b, ArgGeometry(ctx, args[1]));
  return Value::Boolean(a == b);
}

Result<Value> FnStIsValid(FunctionContext& ctx, const ValueList& args) {
  // Accepts anything geometry-shaped; returns false instead of erroring when
  // the payload fails to decode.
  const Result<Geometry> g = ArgGeometry(ctx, args[0]);
  if (!g.ok()) {
    ctx.Cover(1);
    return Value::Boolean(false);
  }
  if (g->kind == GeometryKind::kPolygon &&
      !(g->points.front() == g->points.back())) {
    ctx.Cover(2);
    return Value::Boolean(false);  // unclosed ring
  }
  return Value::Boolean(true);
}

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args, ScalarFunction fn,
         const char* doc, const char* example) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kSpatial;
  def.min_args = min_args;
  def.max_args = max_args;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterSpatialFunctions(FunctionRegistry& r) {
  Reg(r, "ST_GEOMFROMTEXT", 1, 1, FnStGeomFromText, "Geometry from WKT",
      "ST_GEOMFROMTEXT('POINT(1 2)')");
  Reg(r, "ST_ASTEXT", 1, 1, FnStAsText, "Geometry to WKT",
      "ST_ASTEXT(POINT(1, 2))");
  Reg(r, "ST_ASBINARY", 1, 1, FnStAsBinary, "Geometry to binary",
      "ST_ASBINARY(POINT(1, 2))");
  Reg(r, "BOUNDARY", 1, 1, FnBoundary, "Topological boundary",
      "BOUNDARY(ST_GEOMFROMTEXT('LINESTRING(0 0, 1 1)'))");
  Reg(r, "POINT", 2, 2, FnPoint, "Point from coordinates", "POINT(1, 2)");
  Reg(r, "ST_X", 1, 1, FnStX, "X coordinate of a point", "ST_X(POINT(1, 2))");
  Reg(r, "ST_Y", 1, 1, FnStY, "Y coordinate of a point", "ST_Y(POINT(1, 2))");
  Reg(r, "ST_NUMPOINTS", 1, 1, FnStNumPoints, "Vertex count",
      "ST_NUMPOINTS(ST_GEOMFROMTEXT('LINESTRING(0 0, 1 1)'))");
  Reg(r, "ST_LENGTH", 1, 1, FnStLength, "Length of a linestring",
      "ST_LENGTH(ST_GEOMFROMTEXT('LINESTRING(0 0, 3 4)'))");
  Reg(r, "ST_DISTANCE", 2, 2, FnStDistance, "Distance between points",
      "ST_DISTANCE(POINT(0, 0), POINT(3, 4))");
  Reg(r, "ST_EQUALS", 2, 2, FnStEquals, "Geometry equality",
      "ST_EQUALS(POINT(1, 2), POINT(1, 2))");
  Reg(r, "ST_ISVALID", 1, 1, FnStIsValid, "Validity check",
      "ST_ISVALID(POINT(1, 2))");
}

}  // namespace soft
