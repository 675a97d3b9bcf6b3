#include "src/sqlast/ast.h"

#include "src/util/str_util.h"

namespace soft {

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->column_name = column_name;
  out->func_name = func_name;
  out->distinct_arg = distinct_arg;
  out->cast_type = cast_type;
  out->cast_type_text = cast_type_text;
  out->op = op;
  out->args.reserve(args.size());
  for (const ExprPtr& a : args) {
    out->args.push_back(a->Clone());
  }
  if (subquery != nullptr) {
    out->subquery = subquery->Clone();
  }
  return out;
}

std::string Expr::ToSql() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToSqlLiteral();
    case ExprKind::kColumnRef:
      return column_name;
    case ExprKind::kFunctionCall: {
      std::string out = func_name;
      out.push_back('(');
      if (distinct_arg) {
        out += "DISTINCT ";
      }
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += args[i]->ToSql();
      }
      out.push_back(')');
      return out;
    }
    case ExprKind::kCast: {
      std::string out = "CAST(";
      out += args[0]->ToSql();
      out += " AS ";
      if (cast_type_text.empty()) {
        out += TypeKindName(cast_type);
      } else {
        out += cast_type_text;
      }
      out.push_back(')');
      return out;
    }
    case ExprKind::kBinaryOp: {
      std::string out = "(";
      out += args[0]->ToSql();
      out.push_back(' ');
      out += op;
      out.push_back(' ');
      out += args[1]->ToSql();
      out.push_back(')');
      return out;
    }
    case ExprKind::kUnaryOp: {
      std::string out = "(";
      if (op == "IS NULL" || op == "IS NOT NULL") {
        out += args[0]->ToSql();
        out.push_back(' ');
        out += op;
      } else {
        out += op;
        if (op == "NOT") {
          out.push_back(' ');
        }
        out += args[0]->ToSql();
      }
      out.push_back(')');
      return out;
    }
    case ExprKind::kRowCtor: {
      std::string out = "ROW(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += args[i]->ToSql();
      }
      out.push_back(')');
      return out;
    }
    case ExprKind::kArrayCtor: {
      std::string out = "ARRAY[";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += args[i]->ToSql();
      }
      out.push_back(']');
      return out;
    }
    case ExprKind::kSubquery: {
      std::string out = "(";
      out += subquery->ToSql();
      out.push_back(')');
      return out;
    }
  }
  return "?";
}

int Expr::CountFunctionCalls() const {
  int count = kind == ExprKind::kFunctionCall ? 1 : 0;
  for (const ExprPtr& a : args) {
    count += a->CountFunctionCalls();
  }
  if (subquery != nullptr) {
    count += subquery->CountFunctionCalls();
  }
  return count;
}

void Expr::CollectFunctionCalls(std::vector<Expr*>& out) {
  if (kind == ExprKind::kFunctionCall) {
    out.push_back(this);
  }
  for (ExprPtr& a : args) {
    a->CollectFunctionCalls(out);
  }
  if (subquery != nullptr) {
    subquery->CollectFunctionCalls(out);
  }
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column_name = std::move(name);
  return e;
}

ExprPtr MakeFunctionCall(std::string name, std::vector<ExprPtr> args, bool distinct) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunctionCall;
  e->func_name = AsciiUpper(name);
  e->args = std::move(args);
  e->distinct_arg = distinct;
  return e;
}

ExprPtr MakeCast(ExprPtr operand, TypeKind type, std::string type_text) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCast;
  e->cast_type = type;
  e->cast_type_text = std::move(type_text);
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr MakeBinaryOp(std::string op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinaryOp;
  e->op = std::move(op);
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeUnaryOp(std::string op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnaryOp;
  e->op = std::move(op);
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr MakeRowCtor(std::vector<ExprPtr> fields) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kRowCtor;
  e->args = std::move(fields);
  return e;
}

ExprPtr MakeArrayCtor(std::vector<ExprPtr> items) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kArrayCtor;
  e->args = std::move(items);
  return e;
}

ExprPtr MakeSubquery(std::unique_ptr<SelectStmt> select) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kSubquery;
  e->subquery = std::move(select);
  return e;
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = distinct;
  for (const SelectItem& item : items) {
    out->items.emplace_back(item.expr->Clone(), item.alias);
  }
  out->from_table = from_table;
  if (from_subquery != nullptr) {
    out->from_subquery = from_subquery->Clone();
  }
  out->from_alias = from_alias;
  if (where != nullptr) {
    out->where = where->Clone();
  }
  for (const ExprPtr& g : group_by) {
    out->group_by.push_back(g->Clone());
  }
  if (having != nullptr) {
    out->having = having->Clone();
  }
  for (const OrderItem& o : order_by) {
    out->order_by.push_back(OrderItem{o.expr->Clone(), o.ascending});
  }
  out->limit = limit;
  if (union_next != nullptr) {
    out->union_next = union_next->Clone();
  }
  out->union_all = union_all;
  return out;
}

std::string SelectStmt::ToSql() const {
  std::string out = "SELECT ";
  if (distinct) {
    out += "DISTINCT ";
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += items[i].expr->ToSql();
    if (!items[i].alias.empty()) {
      out += " AS " + items[i].alias;
    }
  }
  if (!from_table.empty()) {
    out += " FROM " + from_table;
  } else if (from_subquery != nullptr) {
    out += " FROM (" + from_subquery->ToSql() + ")";
    if (!from_alias.empty()) {
      out += " " + from_alias;
    }
  }
  if (where != nullptr) {
    out += " WHERE " + where->ToSql();
  }
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += group_by[i]->ToSql();
    }
  }
  if (having != nullptr) {
    out += " HAVING " + having->ToSql();
  }
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += order_by[i].expr->ToSql();
      if (!order_by[i].ascending) {
        out += " DESC";
      }
    }
  }
  if (limit.has_value()) {
    out += " LIMIT " + std::to_string(*limit);
  }
  if (union_next != nullptr) {
    out += union_all ? " UNION ALL " : " UNION ";
    out += union_next->ToSql();
  }
  return out;
}

int SelectStmt::CountFunctionCalls() const {
  int count = 0;
  for (const SelectItem& item : items) {
    count += item.expr->CountFunctionCalls();
  }
  if (from_subquery != nullptr) {
    count += from_subquery->CountFunctionCalls();
  }
  if (where != nullptr) {
    count += where->CountFunctionCalls();
  }
  for (const ExprPtr& g : group_by) {
    count += g->CountFunctionCalls();
  }
  if (having != nullptr) {
    count += having->CountFunctionCalls();
  }
  for (const OrderItem& o : order_by) {
    count += o.expr->CountFunctionCalls();
  }
  if (union_next != nullptr) {
    count += union_next->CountFunctionCalls();
  }
  return count;
}

void SelectStmt::CollectFunctionCalls(std::vector<Expr*>& out) {
  for (SelectItem& item : items) {
    item.expr->CollectFunctionCalls(out);
  }
  if (from_subquery != nullptr) {
    from_subquery->CollectFunctionCalls(out);
  }
  if (where != nullptr) {
    where->CollectFunctionCalls(out);
  }
  for (ExprPtr& g : group_by) {
    g->CollectFunctionCalls(out);
  }
  if (having != nullptr) {
    having->CollectFunctionCalls(out);
  }
  for (OrderItem& o : order_by) {
    o.expr->CollectFunctionCalls(out);
  }
  if (union_next != nullptr) {
    union_next->CollectFunctionCalls(out);
  }
}

std::string CreateTableStmt::ToSql() const {
  std::string out = "CREATE TABLE " + table + " (";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += columns[i].name + " ";
    out += columns[i].type_text.empty() ? std::string(TypeKindName(columns[i].type))
                                        : columns[i].type_text;
    if (columns[i].not_null) {
      out += " NOT NULL";
    }
  }
  out += ")";
  return out;
}

std::string InsertStmt::ToSql() const {
  std::string out = "INSERT INTO " + table;
  if (!columns.empty()) {
    out += " (";
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += columns[i];
    }
    out += ")";
  }
  out += " VALUES ";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) {
      out += ", ";
    }
    out += "(";
    for (size_t i = 0; i < rows[r].size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += rows[r][i]->ToSql();
    }
    out += ")";
  }
  return out;
}

std::string DropTableStmt::ToSql() const {
  return std::string("DROP TABLE ") + (if_exists ? "IF EXISTS " : "") + table;
}

std::string Statement::ToSql() const {
  struct Visitor {
    std::string operator()(const std::unique_ptr<SelectStmt>& s) const { return s->ToSql(); }
    std::string operator()(const CreateTableStmt& s) const { return s.ToSql(); }
    std::string operator()(const InsertStmt& s) const { return s.ToSql(); }
    std::string operator()(const DropTableStmt& s) const { return s.ToSql(); }
  };
  return std::visit(Visitor{}, node);
}

}  // namespace soft
