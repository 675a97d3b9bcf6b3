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

namespace {

// The one renderer: appends a tree's SQL text to `out`, leaving out the node
// `hole` and recording the offset where its text would start. A node's text
// depends only on the node and its children's texts, so splicing any
// replacement's text at that offset renders the replaced tree.
class SqlRenderer {
 public:
  SqlRenderer(std::string& out, const Expr* hole) : out_(out), hole_(hole) {}

  size_t hole_at() const { return hole_at_; }

  void Render(const Expr& e) {
    if (&e == hole_) {
      hole_at_ = out_.size();
      return;
    }
    switch (e.kind) {
      case ExprKind::kLiteral:
        out_ += e.literal.ToSqlLiteral();
        return;
      case ExprKind::kColumnRef:
        out_ += e.column_name;
        return;
      case ExprKind::kFunctionCall:
        out_ += e.func_name;
        out_ += e.distinct_arg ? "(DISTINCT " : "(";
        RenderList(e.args);
        out_.push_back(')');
        return;
      case ExprKind::kCast:
        out_ += "CAST(";
        Render(*e.args[0]);
        out_ += " AS ";
        if (e.cast_type_text.empty()) {
          out_ += TypeKindName(e.cast_type);
        } else {
          out_ += e.cast_type_text;
        }
        out_.push_back(')');
        return;
      case ExprKind::kBinaryOp:
        out_.push_back('(');
        Render(*e.args[0]);
        out_.push_back(' ');
        out_ += e.op;
        out_.push_back(' ');
        Render(*e.args[1]);
        out_.push_back(')');
        return;
      case ExprKind::kUnaryOp:
        out_.push_back('(');
        if (e.op == "IS NULL" || e.op == "IS NOT NULL") {
          Render(*e.args[0]);
          out_.push_back(' ');
          out_ += e.op;
        } else {
          out_ += e.op;
          if (e.op == "NOT") {
            out_.push_back(' ');
          }
          Render(*e.args[0]);
        }
        out_.push_back(')');
        return;
      case ExprKind::kRowCtor:
        out_ += "ROW(";
        RenderList(e.args);
        out_.push_back(')');
        return;
      case ExprKind::kArrayCtor:
        out_ += "ARRAY[";
        RenderList(e.args);
        out_.push_back(']');
        return;
      case ExprKind::kSubquery:
        out_.push_back('(');
        Render(*e.subquery);
        out_.push_back(')');
        return;
    }
    out_.push_back('?');
  }

  void Render(const SelectStmt& s) {
    out_ += s.distinct ? "SELECT DISTINCT " : "SELECT ";
    for (size_t i = 0; i < s.items.size(); ++i) {
      if (i > 0) {
        out_ += ", ";
      }
      Render(*s.items[i].expr);
      if (!s.items[i].alias.empty()) {
        out_ += " AS ";
        out_ += s.items[i].alias;
      }
    }
    if (!s.from_table.empty()) {
      out_ += " FROM ";
      out_ += s.from_table;
    } else if (s.from_subquery != nullptr) {
      out_ += " FROM (";
      Render(*s.from_subquery);
      out_.push_back(')');
      if (!s.from_alias.empty()) {
        out_.push_back(' ');
        out_ += s.from_alias;
      }
    }
    if (s.where != nullptr) {
      out_ += " WHERE ";
      Render(*s.where);
    }
    if (!s.group_by.empty()) {
      out_ += " GROUP BY ";
      RenderList(s.group_by);
    }
    if (s.having != nullptr) {
      out_ += " HAVING ";
      Render(*s.having);
    }
    if (!s.order_by.empty()) {
      out_ += " ORDER BY ";
      for (size_t i = 0; i < s.order_by.size(); ++i) {
        if (i > 0) {
          out_ += ", ";
        }
        Render(*s.order_by[i].expr);
        if (!s.order_by[i].ascending) {
          out_ += " DESC";
        }
      }
    }
    if (s.limit.has_value()) {
      out_ += " LIMIT ";
      out_ += std::to_string(*s.limit);
    }
    if (s.union_next != nullptr) {
      out_ += s.union_all ? " UNION ALL " : " UNION ";
      Render(*s.union_next);
    }
  }

 private:
  void RenderList(const std::vector<ExprPtr>& items) {
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) {
        out_ += ", ";
      }
      Render(*items[i]);
    }
  }

  std::string& out_;
  const Expr* hole_;
  size_t hole_at_ = std::string::npos;
};

}  // namespace

std::string Expr::ToSql() const {
  std::string out;
  AppendSql(out);
  return out;
}

size_t Expr::AppendSql(std::string& out, const Expr* hole) const {
  SqlRenderer renderer(out, hole);
  renderer.Render(*this);
  return renderer.hole_at();
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
  std::string out;
  AppendSql(out);
  return out;
}

size_t SelectStmt::AppendSql(std::string& out, const Expr* hole) const {
  SqlRenderer renderer(out, hole);
  renderer.Render(*this);
  return renderer.hole_at();
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
      rows[r][i]->AppendSql(out);
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
