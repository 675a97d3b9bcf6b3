// Internal execution machinery shared by the evaluator, the SELECT executor,
// and the optimizer. Not part of the public engine API.
#ifndef SRC_ENGINE_EXEC_INTERNAL_H_
#define SRC_ENGINE_EXEC_INTERNAL_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/engine/database.h"

namespace soft {

// Per-statement execution state. Carries the crash slot: when a fault fires
// anywhere in the pipeline, the CrashInfo lands here and a kCrash status
// unwinds to the statement boundary.
struct ExecContext {
  Database* db = nullptr;
  Stage stage = Stage::kExecute;
  std::optional<CrashInfo> crash;
  int call_depth = 0;   // nested function-call depth
  int eval_depth = 0;   // total expression recursion depth

  // Statement-watchdog state, seeded by Database::InitWatchdog from the
  // engine's StatementLimits. deadline_ns == 0 disables the deadline;
  // fuel_remaining == -1 disables the fuel budget; max_rows == 0 disables
  // the row budget.
  int64_t deadline_ns = 0;     // absolute MonotonicNowNs() deadline
  int64_t fuel_remaining = -1;
  int64_t max_rows = 0;
  uint32_t watchdog_tick = 0;

  // Wrong-result fault state (src/fault/fault.h). `allow_logic_faults` is
  // set only for SELECT execution of a logic-fault-enabled Database, so DDL
  // and INSERT paths never store perturbed values; `in_where` marks WHERE
  // predicate evaluation (LogicScope::kWherePredicate). Fired specs are
  // recorded here, deduplicated by bug id, and copied into the
  // StatementResult — silently, the statement still succeeds.
  bool allow_logic_faults = false;
  bool in_where = false;
  std::vector<LogicBugInfo> logic_hits;

  void RecordLogicHit(LogicBugInfo info) {
    for (const LogicBugInfo& hit : logic_hits) {
      if (hit.bug_id == info.bug_id) {
        return;
      }
    }
    logic_hits.push_back(std::move(info));
  }

  // Records a crash and produces the status that unwinds the evaluation (in
  // real-crash mode after OnCrashTriggered realized it in a forked copy).
  Status RaiseCrash(CrashInfo info) {
    if (db != nullptr) {
      db->OnCrashTriggered(info);
    }
    Status status = CrashStatus(info.Summary());
    crash = std::move(info);
    return status;
  }

  // One watchdog tick: charges a unit of fuel and, every 256 ticks, compares
  // the wall clock against the statement deadline. Called from the evaluator
  // entry and the executor row loops.
  Status CheckWatchdog() {
    if (fuel_remaining >= 0) {
      if (fuel_remaining == 0) {  // stays pinned at 0 once exhausted
        return ResourceExhausted("statement watchdog: evaluation fuel exhausted");
      }
      --fuel_remaining;
    }
    if (deadline_ns > 0 && (++watchdog_tick & 0xFFu) == 0) {
      return CheckDeadline();
    }
    return OkStatus();
  }

  // The clock read, out of line (defined in database.cc).
  Status CheckDeadline() const;
};

// Column-name → value binding for one row.
class RowBinding {
 public:
  RowBinding() = default;
  RowBinding(std::vector<std::string> names, const ValueList* values)
      : names_(std::move(names)), values_(values) {}

  // Returns nullopt when the name is unbound.
  std::optional<Value> Lookup(const std::string& name) const {
    if (values_ == nullptr) {
      return std::nullopt;
    }
    for (size_t i = 0; i < names_.size() && i < values_->size(); ++i) {
      if (names_[i] == name) {
        return (*values_)[i];
      }
    }
    return std::nullopt;
  }

  bool empty() const { return values_ == nullptr; }

 private:
  std::vector<std::string> names_;
  const ValueList* values_ = nullptr;
};

// Expression evaluator. `agg_values` (when set) maps aggregate-call AST nodes
// to their finalized values — the SELECT executor resolves aggregates before
// projecting.
class Evaluator {
 public:
  explicit Evaluator(ExecContext& ec) : ec_(ec) {}

  void set_agg_values(const std::unordered_map<const Expr*, Value>* agg_values) {
    agg_values_ = agg_values;
  }

  Result<Value> Eval(const Expr& e, const RowBinding& row);

 private:
  Result<Value> EvalFunctionCall(const Expr& e, const RowBinding& row);
  Result<Value> EvalCast(const Expr& e, const RowBinding& row);
  Result<Value> EvalBinaryOp(const Expr& e, const RowBinding& row);
  Result<Value> EvalUnaryOp(const Expr& e, const RowBinding& row);
  Result<Value> EvalSubquery(const Expr& e, const RowBinding& row);

  ExecContext& ec_;
  const std::unordered_map<const Expr*, Value>* agg_values_ = nullptr;
};

struct QueryOutput {
  std::vector<std::string> columns;
  std::vector<ValueList> rows;
  // Source-row snapshots parallel to `rows`, so ORDER BY can reference
  // un-projected source columns (SELECT UPPER(a) FROM t ORDER BY b). Empty
  // after UNION, where standard SQL only allows output columns anyway.
  std::vector<std::string> source_names;
  std::vector<ValueList> source_rows;
};

// Runs a SELECT (including UNION chains) and returns its rows.
Result<QueryOutput> RunSelect(ExecContext& ec, const SelectStmt& select);

// Optimizer pass: constant-folds literal casts (cast-layer bugs can fire at
// the optimize stage here) and performs structural fault checks on function
// expressions (plan-construction bugs).
Status OptimizeStatement(ExecContext& ec, Statement& stmt);

// Builds a FunctionContext bound to the database's configuration.
FunctionContext MakeFunctionContext(ExecContext& ec);

// Fault-checked cast used by explicit CASTs, implicit coercions in UNION
// column unification, and INSERT column conversion.
Result<Value> CheckedCast(ExecContext& ec, const Value& v, TypeKind target);

}  // namespace soft

#endif  // SRC_ENGINE_EXEC_INTERNAL_H_
