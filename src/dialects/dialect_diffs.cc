#include "src/dialects/dialect_diffs.h"

#include <algorithm>
#include <cmath>

namespace soft {
namespace {

// Functions whose result depends on mutable session state.
const std::vector<std::string>& VolatileFunctions() {
  static const std::vector<std::string>* const kVolatile = new std::vector<std::string>{
      "NEXTVAL", "LASTVAL", "SETVAL", "LAST_INSERT_ID",
  };
  return *kVolatile;
}

}  // namespace

bool OracleComparable(const Statement& stmt) {
  if (!stmt.is_select()) {
    return false;
  }
  // CollectFunctionCalls only gathers pointers; the tree is not modified.
  std::vector<Expr*> calls;
  const_cast<SelectStmt*>(stmt.select())->CollectFunctionCalls(calls);
  const std::vector<std::string>& volatile_functions = VolatileFunctions();
  return std::none_of(calls.begin(), calls.end(), [&](const Expr* call) {
    return std::find(volatile_functions.begin(), volatile_functions.end(),
                     call->func_name) != volatile_functions.end();
  });
}

namespace {

// Two values are the same when their display texts are equal. The scalar
// kinds compare by value to the same effect: a DOUBLE's text converts back
// to the value, both zeros print "0" and every NaN prints "nan".
bool SameValue(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    return false;
  }
  switch (a.kind()) {
    case TypeKind::kNull:
      return true;
    case TypeKind::kBool:
      return a.bool_value() == b.bool_value();
    case TypeKind::kInt:
      return a.int_value() == b.int_value();
    case TypeKind::kDouble:
      return a.double_value() == b.double_value() ||
             (std::isnan(a.double_value()) && std::isnan(b.double_value()));
    case TypeKind::kString:
      return a.string_value() == b.string_value();
    case TypeKind::kBlob:
      return a.blob_value() == b.blob_value();
    default:
      return a.ToDisplayString() == b.ToDisplayString();
  }
}

bool SameRow(const ValueList& a, const ValueList& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), SameValue);
}

}  // namespace

bool SameResultSet(const StatementResult& a, const StatementResult& b) {
  return a.columns.size() == b.columns.size() &&
         std::equal(a.rows.begin(), a.rows.end(), b.rows.begin(), b.rows.end(), SameRow);
}

DialectDiffClass ClassifyDifferential(const StatementResult& main,
                                      const StatementResult& sibling) {
  // Any non-OK outcome on either side is a declared axis: the sibling may
  // lack the function (catalog pruning), reject a coercion (strictness), or
  // hit its own injected crash corpus. Error/crash DETAILS are per-dialect
  // by design, so two failures are never compared further.
  if (!main.ok() || !sibling.ok()) {
    return DialectDiffClass::kDeclaredDifference;
  }
  return SameResultSet(main, sibling) ? DialectDiffClass::kIdentical
                                      : DialectDiffClass::kDivergence;
}

}  // namespace soft
