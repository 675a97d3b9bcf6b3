// Expression evaluation: literals, columns, operators, casts, function
// dispatch with fault-engine and coverage hooks.
#include <cmath>

#include "src/engine/exec_internal.h"
#include "src/failpoint/failpoint.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

constexpr int kMaxEvalDepth = 2000;

// Three-valued logic helpers: Value is NULL, or BOOL after coercion.
Result<Value> ToBool3V(ExecContext& ec, const Value& v) {
  if (v.is_null()) {
    return Value::Null();
  }
  return CoerceValue(v, TypeKind::kBool, ec.db->config().cast_options);
}

// Syntactic constant-ness of an argument expression, for
// LogicScope::kConstArgs: literals, and unary operators / casts over
// constants. A function call is NOT constant — that is exactly the hook an
// EET identity chain (COALESCE(c, c)) uses to evade a const-args-scoped
// wrong-result fault.
bool IsConstExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kUnaryOp:
    case ExprKind::kCast:
      return e.args.size() == 1 && IsConstExpr(*e.args[0]);
    default:
      return false;
  }
}

bool AllArgumentsConst(const Expr& call) {
  if (call.args.empty()) {
    return false;
  }
  for (const ExprPtr& a : call.args) {
    if (!IsConstExpr(*a)) {
      return false;
    }
  }
  return true;
}

Result<Value> EvalArithmetic(ExecContext& ec, const std::string& op, const Value& a,
                             const Value& b) {
  if (a.is_null() || b.is_null()) {
    return Value::Null();
  }
  const CastOptions& cast = ec.db->config().cast_options;
  SOFT_ASSIGN_OR_RETURN(Value na, CoerceValue(a, TypeKind::kDecimal, cast));
  SOFT_ASSIGN_OR_RETURN(Value nb, CoerceValue(b, TypeKind::kDecimal, cast));
  // Double path when either operand is a double.
  if (a.kind() == TypeKind::kDouble || b.kind() == TypeKind::kDouble) {
    SOFT_ASSIGN_OR_RETURN(double da, a.AsDouble());
    SOFT_ASSIGN_OR_RETURN(double db, b.AsDouble());
    double out = 0;
    if (op == "+") {
      out = da + db;
    } else if (op == "-") {
      out = da - db;
    } else if (op == "*") {
      out = da * db;
    } else if (op == "/") {
      if (db == 0) {
        return cast.strict ? Result<Value>(InvalidArgument("division by zero"))
                           : Result<Value>(Value::Null());
      }
      out = da / db;
    } else if (op == "%") {
      if (db == 0) {
        return cast.strict ? Result<Value>(InvalidArgument("division by zero"))
                           : Result<Value>(Value::Null());
      }
      out = std::fmod(da, db);
    }
    return Value::DoubleVal(out);
  }
  const Decimal& da = na.decimal_value();
  const Decimal& db = nb.decimal_value();
  if (op == "+") {
    const Decimal sum = Decimal::Add(da, db);
    if (sum.scale() == 0 && sum.total_digits() <= 18) {
      SOFT_ASSIGN_OR_RETURN(int64_t iv, sum.ToInt64());
      if (a.kind() == TypeKind::kInt && b.kind() == TypeKind::kInt) {
        return Value::Int(iv);
      }
    }
    return Value::Dec(sum);
  }
  if (op == "-") {
    const Decimal diff = Decimal::Sub(da, db);
    if (diff.scale() == 0 && diff.total_digits() <= 18 && a.kind() == TypeKind::kInt &&
        b.kind() == TypeKind::kInt) {
      SOFT_ASSIGN_OR_RETURN(int64_t iv, diff.ToInt64());
      return Value::Int(iv);
    }
    return Value::Dec(diff);
  }
  if (op == "*") {
    if (da.total_digits() + db.total_digits() > Decimal::kHardDigitLimit) {
      return ResourceExhausted("multiplication result exceeds digit limit");
    }
    const Decimal prod = Decimal::Mul(da, db);
    if (prod.scale() == 0 && prod.total_digits() <= 18 && a.kind() == TypeKind::kInt &&
        b.kind() == TypeKind::kInt) {
      SOFT_ASSIGN_OR_RETURN(int64_t iv, prod.ToInt64());
      return Value::Int(iv);
    }
    return Value::Dec(prod);
  }
  if (op == "/") {
    if (db.IsZero()) {
      return cast.strict ? Result<Value>(InvalidArgument("division by zero"))
                         : Result<Value>(Value::Null());
    }
    SOFT_ASSIGN_OR_RETURN(Decimal q, Decimal::Div(da, db, 8));
    return Value::Dec(q);
  }
  if (op == "%") {
    if (db.IsZero()) {
      return cast.strict ? Result<Value>(InvalidArgument("division by zero"))
                         : Result<Value>(Value::Null());
    }
    // a - trunc(a/b)*b.
    SOFT_ASSIGN_OR_RETURN(Decimal q, Decimal::Div(da, db, 0));
    return Value::Dec(Decimal::Sub(da, Decimal::Mul(q, db)));
  }
  return Internal("unknown arithmetic operator " + op);
}

// SQL LIKE with % and _ wildcards. The backtracking is exponential in the
// number of '%'s, and recursion steps are invisible to the statement fuel
// budget, so the matcher carries its own deterministic step budget: when
// `budget` goes negative the match unwinds false and the caller reports
// resource exhaustion.
bool LikeMatch(std::string_view text, std::string_view pattern, int64_t& budget) {
  if (--budget < 0) {
    return false;
  }
  if (pattern.empty()) {
    return text.empty();
  }
  if (pattern[0] == '%') {
    for (size_t skip = 0; skip <= text.size(); ++skip) {
      if (LikeMatch(text.substr(skip), pattern.substr(1), budget)) {
        return true;
      }
      if (budget < 0) {
        return false;
      }
    }
    return false;
  }
  if (text.empty()) {
    return false;
  }
  if (pattern[0] == '_' || pattern[0] == text[0]) {
    return LikeMatch(text.substr(1), pattern.substr(1), budget);
  }
  return false;
}

}  // namespace

FunctionContext MakeFunctionContext(ExecContext& ec) {
  return FunctionContext(ec.db->config().cast_options, ec.db->config().limits,
                         &ec.db->coverage(), &ec.db->session());
}

Result<Value> CheckedCast(ExecContext& ec, const Value& v, TypeKind target) {
  if (auto crash = ec.db->faults().CheckCast(target, v, ec.stage)) {
    return ec.RaiseCrash(std::move(*crash));
  }
  return CastValue(v, target, ec.db->config().cast_options);
}

Result<Value> Evaluator::Eval(const Expr& e, const RowBinding& row) {
  if (Status wd = ec_.CheckWatchdog(); !wd.ok()) {
    return wd;
  }
  SOFT_FAILPOINT("eval.enter");
  if (++ec_.eval_depth > kMaxEvalDepth) {
    --ec_.eval_depth;
    return ResourceExhausted("expression evaluation too deep");
  }
  struct DepthGuard {
    ExecContext& ec;
    ~DepthGuard() { --ec.eval_depth; }
  } guard{ec_};

  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumnRef: {
      const std::optional<Value> v = row.Lookup(e.column_name);
      if (!v.has_value()) {
        return NotFound("unknown column '" + e.column_name + "'");
      }
      return *v;
    }
    case ExprKind::kFunctionCall:
      return EvalFunctionCall(e, row);
    case ExprKind::kCast:
      return EvalCast(e, row);
    case ExprKind::kBinaryOp:
      return EvalBinaryOp(e, row);
    case ExprKind::kUnaryOp:
      return EvalUnaryOp(e, row);
    case ExprKind::kRowCtor: {
      ValueList fields;
      for (const ExprPtr& f : e.args) {
        SOFT_ASSIGN_OR_RETURN(Value v, Eval(*f, row));
        fields.push_back(std::move(v));
      }
      return Value::RowVal(std::move(fields));
    }
    case ExprKind::kArrayCtor: {
      ValueList items;
      for (const ExprPtr& item : e.args) {
        SOFT_ASSIGN_OR_RETURN(Value v, Eval(*item, row));
        items.push_back(std::move(v));
      }
      return Value::ArrayVal(std::move(items));
    }
    case ExprKind::kSubquery:
      return EvalSubquery(e, row);
  }
  return Internal("unhandled expression kind");
}

Result<Value> Evaluator::EvalFunctionCall(const Expr& e, const RowBinding& row) {
  SOFT_FAILPOINT("eval.function");
  // Aggregates resolved by the SELECT executor arrive pre-computed.
  if (agg_values_ != nullptr) {
    const auto it = agg_values_->find(&e);
    if (it != agg_values_->end()) {
      return it->second;
    }
  }
  Database& db = *ec_.db;
  const FunctionDef* def = db.registry().Find(e.func_name);
  if (def == nullptr) {
    return NotFound("unknown function " + e.func_name);
  }
  const int argc = static_cast<int>(e.args.size());
  if (argc < def->min_args || (def->max_args >= 0 && argc > def->max_args)) {
    return InvalidArgument("wrong argument count for " + e.func_name);
  }
  if (def->is_aggregate) {
    return InvalidArgument("aggregate function " + e.func_name +
                           " is not allowed in this context");
  }

  ++ec_.call_depth;
  struct CallGuard {
    ExecContext& ec;
    ~CallGuard() { --ec.call_depth; }
  } guard{ec_};
  if (ec_.call_depth > db.config().limits.max_call_depth) {
    return ResourceExhausted("function call nesting too deep");
  }

  ValueList argv;
  argv.reserve(e.args.size());
  for (const ExprPtr& a : e.args) {
    SOFT_ASSIGN_OR_RETURN(Value v, Eval(*a, row));
    argv.push_back(std::move(v));
  }

  // Fault check FIRST: an injected bug is a missing validation, so it fires
  // before the reference implementation's own checks would run.
  if (auto crash = db.faults().CheckFunction(e.func_name, argv, ec_.call_depth,
                                             e.distinct_arg, ec_.stage)) {
    return ec_.RaiseCrash(std::move(*crash));
  }

  // The function counts as triggered once arguments reached it.
  db.coverage().Trigger(def->name);

  // Reference validation: '*' only where allowed, NULL propagation.
  if (!def->accepts_star) {
    for (const Value& v : argv) {
      if (v.is_star()) {
        return InvalidArgument("'*' is not a valid argument of " + e.func_name);
      }
    }
  }
  if (def->null_propagates) {
    for (const Value& v : argv) {
      if (v.is_null()) {
        return Value::Null();
      }
    }
  }

  FunctionContext ctx = MakeFunctionContext(ec_);
  ctx.set_current_function(def->name);
  ctx.set_call_depth(ec_.call_depth);
  Result<Value> out = def->scalar(ctx, argv);

  // Wrong-result faults fire AFTER a successful computation: the statement
  // keeps succeeding, only the value is silently perturbed (fault.h,
  // LogicBugSpec). Recording the hit is ground-truth bookkeeping for oracle
  // validation, never a detection signal.
  if (out.ok() && ec_.allow_logic_faults && db.logic_faults_enabled() &&
      db.faults().HasLogicBugs(e.func_name)) {
    if (auto hit = db.faults().CheckLogicFunction(e.func_name, argv, ec_.call_depth,
                                                  AllArgumentsConst(e), ec_.in_where)) {
      Value perturbed = ApplyLogicEffect(hit->effect, *out);
      ec_.RecordLogicHit(std::move(*hit));
      return perturbed;
    }
  }
  return out;
}

Result<Value> Evaluator::EvalCast(const Expr& e, const RowBinding& row) {
  SOFT_ASSIGN_OR_RETURN(Value v, Eval(*e.args[0], row));
  return CheckedCast(ec_, v, e.cast_type);
}

Result<Value> Evaluator::EvalBinaryOp(const Expr& e, const RowBinding& row) {
  const std::string& op = e.op;
  // Short-circuiting three-valued AND/OR.
  if (op == "AND" || op == "OR") {
    SOFT_ASSIGN_OR_RETURN(Value lv, Eval(*e.args[0], row));
    SOFT_ASSIGN_OR_RETURN(Value lb, ToBool3V(ec_, lv));
    if (op == "AND" && !lb.is_null() && !lb.bool_value()) {
      return Value::Boolean(false);
    }
    if (op == "OR" && !lb.is_null() && lb.bool_value()) {
      return Value::Boolean(true);
    }
    SOFT_ASSIGN_OR_RETURN(Value rv, Eval(*e.args[1], row));
    SOFT_ASSIGN_OR_RETURN(Value rb, ToBool3V(ec_, rv));
    if (lb.is_null() || rb.is_null()) {
      // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; otherwise NULL.
      if (op == "AND" && !rb.is_null() && !rb.bool_value()) {
        return Value::Boolean(false);
      }
      if (op == "OR" && !rb.is_null() && rb.bool_value()) {
        return Value::Boolean(true);
      }
      return Value::Null();
    }
    return Value::Boolean(op == "AND" ? (lb.bool_value() && rb.bool_value())
                                      : (lb.bool_value() || rb.bool_value()));
  }

  SOFT_ASSIGN_OR_RETURN(Value a, Eval(*e.args[0], row));
  SOFT_ASSIGN_OR_RETURN(Value b, Eval(*e.args[1], row));

  if (op == "||") {
    if (a.is_null() || b.is_null()) {
      return Value::Null();
    }
    FunctionContext ctx = MakeFunctionContext(ec_);
    SOFT_ASSIGN_OR_RETURN(std::string_view sa, ctx.ArgString(a));
    SOFT_ASSIGN_OR_RETURN(std::string_view sb, ctx.ArgString(b));
    if (sa.size() + sb.size() > ec_.db->config().limits.max_string_len) {
      return ResourceExhausted("concatenation exceeds engine string limit");
    }
    std::string out;
    out.reserve(sa.size() + sb.size());
    out.append(sa).append(sb);
    return Value::Str(std::move(out));
  }
  if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
    return EvalArithmetic(ec_, op, a, b);
  }
  if (op == "LIKE") {
    if (a.is_null() || b.is_null()) {
      return Value::Null();
    }
    // A named context: the views of coerced operands live as long as it does.
    FunctionContext ctx = MakeFunctionContext(ec_);
    SOFT_ASSIGN_OR_RETURN(std::string_view text, ctx.ArgString(a));
    SOFT_ASSIGN_OR_RETURN(std::string_view pattern, ctx.ArgString(b));
    if (text.size() > 4096 || pattern.size() > 1024) {
      return ResourceExhausted("LIKE operands exceed engine matcher limits");
    }
    int64_t budget = int64_t{1} << 22;  // deterministic matcher step cap
    const bool matched = LikeMatch(text, pattern, budget);
    if (budget < 0) {
      return ResourceExhausted("LIKE matcher step budget exhausted");
    }
    return Value::Boolean(matched);
  }
  // Comparisons.
  if (a.is_null() || b.is_null()) {
    return Value::Null();
  }
  SOFT_ASSIGN_OR_RETURN(int cmp, Value::Compare(a, b));
  if (op == "=") {
    return Value::Boolean(cmp == 0);
  }
  if (op == "!=" || op == "<>") {
    return Value::Boolean(cmp != 0);
  }
  if (op == "<") {
    return Value::Boolean(cmp < 0);
  }
  if (op == "<=") {
    return Value::Boolean(cmp <= 0);
  }
  if (op == ">") {
    return Value::Boolean(cmp > 0);
  }
  if (op == ">=") {
    return Value::Boolean(cmp >= 0);
  }
  return Internal("unknown binary operator " + op);
}

Result<Value> Evaluator::EvalUnaryOp(const Expr& e, const RowBinding& row) {
  SOFT_ASSIGN_OR_RETURN(Value v, Eval(*e.args[0], row));
  if (e.op == "IS NULL") {
    return Value::Boolean(v.is_null());
  }
  if (e.op == "IS NOT NULL") {
    return Value::Boolean(!v.is_null());
  }
  if (e.op == "NOT") {
    SOFT_ASSIGN_OR_RETURN(Value b, ToBool3V(ec_, v));
    if (b.is_null()) {
      return Value::Null();
    }
    return Value::Boolean(!b.bool_value());
  }
  if (e.op == "-") {
    if (v.is_null()) {
      return Value::Null();
    }
    switch (v.kind()) {
      case TypeKind::kInt:
        if (v.int_value() == INT64_MIN) {
          return InvalidArgument("negation overflow");
        }
        return Value::Int(-v.int_value());
      case TypeKind::kDouble:
        return Value::DoubleVal(-v.double_value());
      case TypeKind::kDecimal:
        return Value::Dec(v.decimal_value().Negated());
      default:
        return TypeError("cannot negate a non-numeric value");
    }
  }
  return Internal("unknown unary operator " + e.op);
}

Result<Value> Evaluator::EvalSubquery(const Expr& e, const RowBinding& row) {
  SOFT_FAILPOINT("eval.subquery");
  SOFT_ASSIGN_OR_RETURN(QueryOutput out, RunSelect(ec_, *e.subquery));
  if (out.rows.empty() || out.rows[0].empty()) {
    return Value::Null();
  }
  if (out.rows[0].size() > 1) {
    return InvalidArgument("scalar subquery returned more than one column");
  }
  // First-row semantics (as in SQLite): a multi-row subquery yields its
  // first row. This keeps Pattern 2.2's UNION shape usable as an argument.
  return out.rows[0][0];
}

}  // namespace soft
