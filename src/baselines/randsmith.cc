// RandSmith: SQLsmith-like grammar-random generation.
//
// SQLsmith introspects the catalog and emits type-correct random queries
// with nested expressions and clause clutter. We reproduce that shape by
// deriving each function's argument template from its registry example
// (catalog introspection) and re-randomizing the leaf literals with benign
// mid-range values — the real tool's literals are similarly unremarkable,
// which is exactly why it misses boundary-argument bugs (Section 7.5).
#include "src/baselines/baselines.h"

#include <set>

#include "src/baselines/baseline_util.h"
#include "src/sqlparser/parser.h"

namespace soft {
namespace {

// Re-randomizes the leaf literals of an expression tree in place.
void RandomizeLiterals(Expr& e, Rng& rng) {
  if (e.kind == ExprKind::kLiteral) {
    switch (e.literal.kind()) {
      case TypeKind::kInt:
        e.literal = Value::Int(static_cast<int64_t>(rng.NextBelow(10)));
        break;
      case TypeKind::kDouble:
      case TypeKind::kDecimal:
        e.literal = Value::DoubleVal(static_cast<double>(rng.NextBelow(100)) / 10.0);
        break;
      case TypeKind::kString:
        e.literal = Value::Str(rng.NextIdentifier(1 + rng.NextBelow(8)));
        break;
      default:
        break;  // dates, blobs, stars kept as the template has them
    }
    return;
  }
  for (ExprPtr& a : e.args) {
    RandomizeLiterals(*a, rng);
  }
}

// Occasionally deepens an expression: wraps a string-valued leaf in a string
// function or a numeric leaf in a math function (SQLsmith nests heavily).
void MaybeNest(Expr& e, Rng& rng, const FunctionRegistry& registry, int depth) {
  if (depth > 2) {
    return;
  }
  for (ExprPtr& a : e.args) {
    if (a->kind == ExprKind::kLiteral && rng.NextBool(0.2)) {
      if (a->literal.kind() == TypeKind::kString && registry.Contains("UPPER")) {
        std::vector<ExprPtr> args;
        args.push_back(std::move(a));
        a = MakeFunctionCall("UPPER", std::move(args));
      } else if (a->literal.kind() == TypeKind::kInt && registry.Contains("ABS")) {
        std::vector<ExprPtr> args;
        args.push_back(std::move(a));
        a = MakeFunctionCall("ABS", std::move(args));
      }
    } else {
      MaybeNest(*a, rng, registry, depth + 1);
    }
  }
}

}  // namespace

CampaignResult RandSmith::Run(Database& db, const CampaignOptions& options) {
  CampaignResult result;
  result.tool = name();
  result.dialect = db.config().name;
  const telemetry::ScopedCollector telem(&result.telemetry);
  const ScopedBaselineRecorders recorders(result, options);
  Rng rng(options.seed ^ 0x536d697468ull);
  std::set<int> found_ids;
  ApplyCampaignLimits(db, options);

  // Its own scratch table for FROM-clause clutter.
  db.Execute("CREATE TABLE t_rs (x INT, s STRING)");
  db.Execute("INSERT INTO t_rs VALUES (1, 'aa'), (2, 'bb'), (3, 'cc')");

  // Catalog introspection: argument templates from registry examples.
  // SQLsmith's typed expression generator only reaches functions whose
  // signatures it can satisfy from its scalar type universe — approximate
  // that by keeping templates whose arguments are all plain scalar literals
  // (no nested constructors, no temporal/array/blob literals).
  std::vector<const FunctionDef*> catalog;
  for (const FunctionDef* def : db.registry().All()) {
    if (def->example.empty()) {
      continue;
    }
    Result<ExprPtr> tmpl = ParseExpression(def->example);
    if (!tmpl.ok() || (*tmpl)->kind != ExprKind::kFunctionCall) {
      continue;
    }
    bool simple = true;
    for (const ExprPtr& arg : (*tmpl)->args) {
      if (arg->kind != ExprKind::kLiteral) {
        simple = false;
        break;
      }
      const TypeKind kind = arg->literal.kind();
      if (kind != TypeKind::kInt && kind != TypeKind::kDouble &&
          kind != TypeKind::kDecimal && kind != TypeKind::kString &&
          kind != TypeKind::kStar) {
        simple = false;
        break;
      }
    }
    if (simple) {
      catalog.push_back(def);
    }
  }
  if (catalog.empty()) {
    return result;
  }

  while (result.statements_executed < options.max_statements) {
    const FunctionDef* def = catalog[rng.NextBelow(catalog.size())];
    Result<ExprPtr> tmpl = ParseExpression(def->example);
    if (!tmpl.ok()) {
      continue;
    }
    ExprPtr expr = std::move(tmpl).value();
    RandomizeLiterals(*expr, rng);
    MaybeNest(*expr, rng, db.registry(), 0);

    std::string sql = "SELECT " + expr->ToSql();
    // Clause clutter in the SQLsmith style.
    if (rng.NextBool(0.3)) {
      sql += ", x FROM t_rs WHERE x > " + BenignInt(rng);
      if (rng.NextBool(0.5)) {
        sql += " ORDER BY x";
      }
      if (rng.NextBool(0.5)) {
        sql += " LIMIT " + std::to_string(1 + rng.NextBelow(3));
      }
    }
    ExecuteAndRecord(db, sql, name(), result, found_ids);
  }

  result.functions_triggered = db.coverage().TriggeredFunctionCount();
  result.branches_covered = db.coverage().CoveredBranchCount();
  return result;
}

}  // namespace soft
