// Abstract syntax for the SQL subset the engine executes.
//
// Nodes are unique_ptr-owned trees with deep Clone() and one renderer that
// turns any tree back into SQL text. The renderer can leave one node out and
// report where its text would start, so SOFT's pattern engine (Patterns
// 1.2–3.3) renders each seed once per function-call argument and splices
// every replacement into that text. Every generated test case is text, so
// the parser is exercised on every execution, matching the paper's
// parse→optimize→execute crash attribution.
#ifndef SRC_SQLAST_AST_H_
#define SRC_SQLAST_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/sqlvalue/type.h"
#include "src/sqlvalue/value.h"

namespace soft {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct SelectStmt;

enum class ExprKind {
  kLiteral,       // constant Value (includes NULL and '*')
  kColumnRef,     // bare identifier
  kFunctionCall,  // NAME(args...), optionally DISTINCT
  kCast,          // CAST(x AS T) or x::T
  kBinaryOp,      // x <op> y
  kUnaryOp,       // <op> x
  kRowCtor,       // ROW(a, b, ...)
  kArrayCtor,     // ARRAY[a, b, ...]
  kSubquery,      // scalar subquery (SELECT ...)
};

struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string column_name;

  // kFunctionCall
  std::string func_name;  // stored upper-case
  bool distinct_arg = false;

  // kCast
  TypeKind cast_type = TypeKind::kString;
  std::string cast_type_text;  // original spelling, e.g. "Decimal256(45)"

  // kBinaryOp / kUnaryOp
  std::string op;

  // Children: function args, cast operand (args[0]), binary operands
  // (args[0], args[1]), unary operand (args[0]), row/array elements.
  std::vector<ExprPtr> args;

  // kSubquery
  std::unique_ptr<SelectStmt> subquery;

  ExprPtr Clone() const;

  // Renders this expression as SQL text.
  std::string ToSql() const;

  // Appends ToSql() to `out` with the subtree `hole` (a node of this tree,
  // subqueries included) left out, and returns the offset in `out` where the
  // hole's text would start, or npos when `hole` is null or not in the tree.
  // Inserting a node's text at that offset renders the tree with that node
  // in the hole's place.
  size_t AppendSql(std::string& out, const Expr* hole = nullptr) const;

  // Number of function-call nodes in this subtree (Finding 3 accounting).
  int CountFunctionCalls() const;

  // Collects mutable pointers to every function-call node (pre-order).
  void CollectFunctionCalls(std::vector<Expr*>& out);
};

// --- Expression factories -------------------------------------------------

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string name);
ExprPtr MakeFunctionCall(std::string name, std::vector<ExprPtr> args, bool distinct = false);
ExprPtr MakeCast(ExprPtr operand, TypeKind type, std::string type_text = "");
ExprPtr MakeBinaryOp(std::string op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeUnaryOp(std::string op, ExprPtr operand);
ExprPtr MakeRowCtor(std::vector<ExprPtr> fields);
ExprPtr MakeArrayCtor(std::vector<ExprPtr> items);
ExprPtr MakeSubquery(std::unique_ptr<SelectStmt> select);

// --- Statements -------------------------------------------------------------

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty when none

  SelectItem() = default;
  SelectItem(ExprPtr e, std::string a) : expr(std::move(e)), alias(std::move(a)) {}
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;

  // FROM: either a named table or a derived table (subquery + alias).
  std::string from_table;  // empty when absent
  std::unique_ptr<SelectStmt> from_subquery;
  std::string from_alias;

  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;

  // UNION chain; when set, this statement is the left branch.
  std::unique_ptr<SelectStmt> union_next;
  bool union_all = false;

  std::unique_ptr<SelectStmt> Clone() const;
  std::string ToSql() const;
  size_t AppendSql(std::string& out, const Expr* hole = nullptr) const;  // as Expr's
  int CountFunctionCalls() const;
  void CollectFunctionCalls(std::vector<Expr*>& out);
};

struct ColumnDef {
  std::string name;
  TypeKind type = TypeKind::kString;
  std::string type_text;
  bool not_null = false;
};

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDef> columns;
  std::string ToSql() const;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;          // empty → positional
  std::vector<std::vector<ExprPtr>> rows;    // VALUES rows
  std::string ToSql() const;
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
  std::string ToSql() const;
};

struct Statement {
  std::variant<std::unique_ptr<SelectStmt>, CreateTableStmt, InsertStmt, DropTableStmt> node;

  bool is_select() const {
    return std::holds_alternative<std::unique_ptr<SelectStmt>>(node);
  }
  const SelectStmt* select() const {
    return is_select() ? std::get<std::unique_ptr<SelectStmt>>(node).get() : nullptr;
  }
  SelectStmt* mutable_select() {
    return is_select() ? std::get<std::unique_ptr<SelectStmt>>(node).get() : nullptr;
  }

  std::string ToSql() const;
};

}  // namespace soft

#endif  // SRC_SQLAST_AST_H_
