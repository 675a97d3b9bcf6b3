#include "src/soft/eet_transform.h"

#include <memory>
#include <utility>

#include "src/dialects/dialect_diffs.h"
#include "src/sqlast/ast.h"

namespace soft {
namespace {

bool IsStarItem(const SelectItem& item) {
  return item.expr->kind == ExprKind::kLiteral && item.expr->literal.is_star();
}

// Mirrors the evaluator's notion of a constant argument expression
// (LogicScope::kConstArgs): literals and unary-op/cast chains over them.
bool IsConstExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return !e.literal.is_star();
    case ExprKind::kUnaryOp:
    case ExprKind::kCast:
      return e.args.size() == 1 && IsConstExpr(*e.args[0]);
    default:
      return false;
  }
}

ExprPtr CoalescePair(const Expr& e) {
  std::vector<ExprPtr> args;
  args.push_back(e.Clone());
  args.push_back(e.Clone());
  return MakeFunctionCall("COALESCE", std::move(args));
}

// Wraps every non-star select item of every UNION branch in COALESCE(e, e).
// Equivalent because COALESCE returns its first non-null argument verbatim
// (and NULL when both are) — but each wrapped call now sits one level deeper.
std::unique_ptr<SelectStmt> ShellCoalesceVariant(const SelectStmt& sel) {
  std::unique_ptr<SelectStmt> clone = sel.Clone();
  bool changed = false;
  for (SelectStmt* s = clone.get(); s != nullptr; s = s->union_next.get()) {
    for (SelectItem& item : s->items) {
      if (IsStarItem(item)) {
        continue;
      }
      item.expr = CoalescePair(*item.expr);
      changed = true;
    }
  }
  return changed ? std::move(clone) : nullptr;
}

// Wraps the top-level WHERE predicate: p AND TRUE / p OR FALSE / NOT (NOT p).
// All three preserve three-valued row selection: WHERE keeps a row exactly
// when the condition coerces to TRUE, and each wrapper maps
// {TRUE, FALSE, NULL} onto itself.
std::unique_ptr<SelectStmt> PredicateVariant(const SelectStmt& sel,
                                             const std::string& shape) {
  if (sel.where == nullptr) {
    return nullptr;
  }
  std::unique_ptr<SelectStmt> clone = sel.Clone();
  if (shape == "and_true") {
    clone->where = MakeBinaryOp("AND", std::move(clone->where),
                                MakeLiteral(Value::Boolean(true)));
  } else if (shape == "or_false") {
    clone->where = MakeBinaryOp("OR", std::move(clone->where),
                                MakeLiteral(Value::Boolean(false)));
  } else {
    clone->where = MakeUnaryOp("NOT", MakeUnaryOp("NOT", std::move(clone->where)));
  }
  return clone;
}

// Replaces the first constant function argument with the identity chain
// COALESCE(c, c) — same value, but the argument expression is no longer
// syntactically constant.
std::unique_ptr<SelectStmt> ArgIdentityVariant(const SelectStmt& sel) {
  std::unique_ptr<SelectStmt> clone = sel.Clone();
  std::vector<Expr*> calls;
  clone->CollectFunctionCalls(calls);
  for (Expr* call : calls) {
    if (call->func_name == "COALESCE") {
      continue;  // wrapping COALESCE's own args is a no-op rewrite
    }
    for (ExprPtr& arg : call->args) {
      if (!IsConstExpr(*arg)) {
        continue;
      }
      arg = CoalescePair(*arg);
      return clone;
    }
  }
  return nullptr;
}

}  // namespace

std::vector<EetVariant> BuildEetVariants(const Statement& stmt, const std::string& sql) {
  std::vector<EetVariant> variants;
  if (!OracleComparable(stmt)) {
    return variants;
  }
  const SelectStmt& sel = *stmt.select();
  const auto add = [&](const char* label, std::unique_ptr<SelectStmt> variant) {
    if (variant == nullptr) {
      return;
    }
    std::string variant_sql = variant->ToSql();
    if (variant_sql != sql) {
      variants.push_back(
          EetVariant{label, std::move(variant_sql), Statement{std::move(variant)}});
    }
  };
  add("shell.coalesce", ShellCoalesceVariant(sel));
  add("pred.and_true", PredicateVariant(sel, "and_true"));
  add("pred.or_false", PredicateVariant(sel, "or_false"));
  add("pred.not_not", PredicateVariant(sel, "not_not"));
  add("arg.identity", ArgIdentityVariant(sel));
  return variants;
}

}  // namespace soft
