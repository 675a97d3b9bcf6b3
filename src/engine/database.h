// The simulated DBMS: parse → optimize → execute over an in-memory catalog.
//
// This is the substrate standing in for the paper's seven production DBMSs.
// Its external interface matches what SOFT needs from a DBMS: send SQL text,
// receive a result set, an SQL error, or a (simulated) crash with stage
// attribution. Each of the seven dialects (src/dialects) is a Database
// configured with its own function catalog, cast strictness, and injected
// fault corpus.
#ifndef SRC_ENGINE_DATABASE_H_
#define SRC_ENGINE_DATABASE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/coverage/coverage.h"
#include "src/engine/table.h"
#include "src/fault/fault.h"
#include "src/sqlast/ast.h"
#include "src/sqlfunc/function.h"
#include "src/sqlparser/parser.h"
#include "src/util/status.h"

namespace soft {

struct ExecContext;

// Cooperative statement-watchdog budgets (docs/ROBUSTNESS.md). The defaults
// leave statements unbounded, matching the pre-watchdog engine. Deadlines are
// wall-clock and therefore excluded from the determinism contract; fuel and
// row budgets are pure counts and deterministic.
struct StatementLimits {
  int64_t deadline_ms = 0;  // wall-clock budget per statement; 0 = none → kTimeout
  int64_t eval_fuel = -1;   // watchdog ticks per statement; -1 = unlimited
                            // (Eval calls + executor row steps) → kResourceExhausted
  int64_t max_rows = 0;     // rows materialized per statement; 0 = unlimited
                            // → kResourceExhausted

  bool operator==(const StatementLimits&) const = default;
};

struct EngineConfig {
  std::string name = "engine";
  CastOptions cast_options;
  EngineLimits limits;
  StatementLimits statement_limits;
};

// One crash realized under CrashRealism::kReal (Database::OnCrashTriggered).
struct RealizedCrash {
  CrashInfo crash;
  // The forked copy died by ExpectedSignalFor(crash.crash). False when the
  // fork failed, so the crash stayed simulated, or the copy died otherwise.
  bool died_by_expected_signal = false;
};

struct StatementResult {
  // OK, an SQL-level error, or kCrash when an injected fault fired.
  Status status;
  // Present exactly when status.code() == kCrash.
  std::optional<CrashInfo> crash;
  // Stage the statement reached (the failing stage on error/crash).
  Stage stage = Stage::kExecute;

  std::vector<std::string> columns;
  std::vector<ValueList> rows;

  // Wrong-result faults (LogicBugSpec) that fired during SELECT execution.
  // Ground-truth bookkeeping only: a logic bug by definition leaves status
  // OK, and campaigns use these records to validate oracle verdicts — never
  // to detect bugs directly. Empty unless logic faults are enabled.
  std::vector<LogicBugInfo> logic_hits;

  bool ok() const { return status.ok(); }
  bool crashed() const { return crash.has_value(); }
};

class Database {
 public:
  explicit Database(EngineConfig config = {});

  // Engine-owned collaborators. The registry starts with every builtin
  // registered; dialects then prune/replace entries and install fault specs.
  FunctionRegistry& registry() { return registry_; }
  const FunctionRegistry& registry() const { return registry_; }
  FaultEngine& faults() { return faults_; }
  const FaultEngine& faults() const { return faults_; }
  CoverageTracker& coverage() { return coverage_; }
  SessionState& session() { return session_; }
  const EngineConfig& config() const { return config_; }

  // Watchdog budgets applied to every subsequent statement (part of
  // EngineConfig so config copies carry them).
  void set_statement_limits(const StatementLimits& limits) {
    config_.statement_limits = limits;
  }
  const StatementLimits& statement_limits() const { return config_.statement_limits; }

  // Crash realization (simulated vs real signals; see fault.h).
  void set_crash_realism(CrashRealism realism) { crash_realism_ = realism; }

  // The crashes realized since the last call, oldest first (kReal only).
  std::vector<RealizedCrash> TakeRealizedCrashes() {
    return std::exchange(realized_crashes_, {});
  }

  // Arms the wrong-result fault corpus (LogicBugSpec). Off by default: the
  // dialect constructors seed the specs unconditionally, but they perturb
  // nothing until a logic-oracle campaign enables them — so the crash path,
  // golden PoC corpus, and every determinism contract are unaffected.
  void set_logic_faults_enabled(bool enabled) { logic_faults_enabled_ = enabled; }
  bool logic_faults_enabled() const { return logic_faults_enabled_; }

  // Invoked the moment an injected fault fires (ExecContext::RaiseCrash and
  // the parse-stage probe). Under CrashRealism::kReal it forks a copy that
  // raises the real signal, waits for the copy to die and records the
  // realization. Either way it returns, and the crash surfaces as a
  // simulated kCrash StatementResult.
  void OnCrashTriggered(const CrashInfo& info);

  // Executes one statement of SQL text through all three stages. Allocation
  // failure anywhere in the pipeline (std::bad_alloc — e.g. the oom failpoint
  // mode, docs/ROBUSTNESS.md) surfaces as kResourceExhausted, never as an
  // escaping exception.
  StatementResult Execute(std::string_view sql);

  // Executes `stmt`, the parse of `sql`, exactly as Execute(sql) would: the
  // parse-stage fault probe and timer still run on the text, but the text
  // is not parsed again. The oracles use it to run one tree many ways.
  StatementResult Execute(std::string_view sql, const Statement& stmt);

  // Executes a ';'-separated script, stopping at the first crash (a crashed
  // server processes nothing further). The script is parsed as a whole, so
  // its statements run the optimize and execute stages only.
  std::vector<StatementResult> ExecuteScript(std::string_view sql);

  // Catalog access.
  const Table* FindTable(const std::string& name) const;
  Status CreateTable(const CreateTableStmt& stmt);
  Status DropTable(const DropTableStmt& stmt);
  // `crash` (when non-null) receives the CrashInfo if an injected fault
  // fires while evaluating the VALUES expressions.
  Status Insert(const InsertStmt& stmt, std::optional<CrashInfo>* crash = nullptr);
  void ClearTables() { tables_.clear(); }
  size_t table_count() const { return tables_.size(); }

 private:
  // Seeds an ExecContext's watchdog state from statement_limits (the deadline
  // is anchored at call time). Defined in database.cc, which sees ExecContext.
  void InitWatchdog(ExecContext& ec) const;

  // Pipeline bodies; the public Execute/ExecuteScript entry points add the
  // std::bad_alloc → kResourceExhausted boundary around them. ExecuteImpl
  // parses `sql` only when `parsed` is null.
  StatementResult ExecuteImpl(std::string_view sql, const Statement* parsed);
  StatementResult ExecuteStatementImpl(const Statement& stmt);

  EngineConfig config_;
  CrashRealism crash_realism_ = CrashRealism::kSimulated;
  std::vector<RealizedCrash> realized_crashes_;
  bool logic_faults_enabled_ = false;
  FunctionRegistry registry_;
  FaultEngine faults_;
  CoverageTracker coverage_;
  SessionState session_;
  std::map<std::string, Table> tables_;
};

}  // namespace soft

#endif  // SRC_ENGINE_DATABASE_H_
