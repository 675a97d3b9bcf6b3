// Database: the statement pipeline (parse → optimize → execute) and catalog
// maintenance.
#include "src/engine/database.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <new>

#include "src/engine/exec_internal.h"
#include "src/failpoint/failpoint.h"
#include "src/telemetry/telemetry.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

// Allocation failure anywhere in the pipeline must look like any other
// engine resource limit — a clean kResourceExhausted statement status —
// rather than an exception unwinding through the campaign loop. The oom
// failpoint mode exercises exactly this boundary.
template <typename Pipeline>
StatementResult CatchAllocationFailure(Pipeline pipeline) {
  try {
    return pipeline();
  } catch (const std::bad_alloc&) {
    StatementResult result;
    result.status = ResourceExhausted("allocation failure while executing statement");
    return result;
  }
}

}  // namespace

Database::Database(EngineConfig config) : config_(std::move(config)) {
  RegisterAllBuiltins(registry_);
}

void Database::OnCrashTriggered(const CrashInfo& info) {
  if (crash_realism_ != CrashRealism::kReal) {
    return;
  }
  // The copy dies by the real signal; this process takes the simulated path,
  // so the campaign's outcome is the simulated one by construction. The
  // worker.fork failpoint stands in for a failed fork (EAGAIN class).
  RealizedCrash realized{info, false};
  const pid_t pid = SOFT_FAILPOINT_HIT("worker.fork") ? -1 : ::fork();
  if (pid == 0) {
    RaiseRealCrashSignal(info.crash);
  }
  if (pid > 0) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    realized.died_by_expected_signal =
        WIFSIGNALED(status) && WTERMSIG(status) == ExpectedSignalFor(info.crash);
  }
  realized_crashes_.push_back(std::move(realized));
}

void Database::InitWatchdog(ExecContext& ec) const {
  const StatementLimits& limits = config_.statement_limits;
  ec.fuel_remaining = limits.eval_fuel;
  ec.max_rows = limits.max_rows;
  ec.deadline_ns =
      limits.deadline_ms > 0
          ? static_cast<int64_t>(telemetry::MonotonicNowNs()) + limits.deadline_ms * 1000000
          : 0;
}

Status ExecContext::CheckDeadline() const {
  if (static_cast<int64_t>(telemetry::MonotonicNowNs()) > deadline_ns) {
    return Timeout("statement watchdog: deadline exceeded");
  }
  return OkStatus();
}

const Table* Database::FindTable(const std::string& name) const {
  const auto it = tables_.find(AsciiLower(name));
  return it == tables_.end() ? nullptr : &it->second;
}

Status Database::CreateTable(const CreateTableStmt& stmt) {
  SOFT_FAILPOINT("catalog.create");
  const std::string key = AsciiLower(stmt.table);
  if (tables_.count(key) != 0) {
    return InvalidArgument("table '" + stmt.table + "' already exists");
  }
  if (stmt.columns.empty()) {
    return InvalidArgument("table must have at least one column");
  }
  Table table;
  table.name = stmt.table;
  table.columns = stmt.columns;
  tables_[key] = std::move(table);
  return OkStatus();
}

Status Database::DropTable(const DropTableStmt& stmt) {
  SOFT_FAILPOINT("catalog.drop");
  const std::string key = AsciiLower(stmt.table);
  if (tables_.erase(key) == 0 && !stmt.if_exists) {
    return NotFound("unknown table '" + stmt.table + "'");
  }
  return OkStatus();
}

Status Database::Insert(const InsertStmt& stmt, std::optional<CrashInfo>* crash) {
  SOFT_FAILPOINT("catalog.insert");
  const std::string key = AsciiLower(stmt.table);
  const auto it = tables_.find(key);
  if (it == tables_.end()) {
    return NotFound("unknown table '" + stmt.table + "'");
  }
  Table& table = it->second;

  // Map INSERT column list to table positions.
  std::vector<int> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < table.columns.size(); ++i) {
      positions.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& name : stmt.columns) {
      const int idx = table.ColumnIndex(name);
      if (idx < 0) {
        return NotFound("unknown column '" + name + "' in INSERT");
      }
      positions.push_back(idx);
    }
  }

  ExecContext ec;
  ec.db = this;
  ec.stage = Stage::kExecute;
  InitWatchdog(ec);
  Evaluator eval(ec);
  RowBinding no_row;

  for (const std::vector<ExprPtr>& value_row : stmt.rows) {
    if (value_row.size() != positions.size()) {
      return InvalidArgument("INSERT value count does not match column count");
    }
    ValueList row(table.columns.size(), Value::Null());
    for (size_t i = 0; i < value_row.size(); ++i) {
      Result<Value> evaluated = eval.Eval(*value_row[i], no_row);
      if (!evaluated.ok()) {
        if (crash != nullptr) {
          *crash = std::move(ec.crash);
        }
        return evaluated.status();
      }
      Value v = std::move(evaluated).value();
      const ColumnDef& col = table.columns[static_cast<size_t>(positions[i])];
      if (!v.is_null() && v.kind() != col.type) {
        // Implicit conversion to the column type — fault-checked.
        const Result<Value> cast = CheckedCast(ec, v, col.type);
        if (!cast.ok()) {
          if (crash != nullptr) {
            *crash = std::move(ec.crash);
          }
          return cast.status();
        }
        v = *cast;
      }
      if (v.is_null() && col.not_null) {
        return InvalidArgument("NULL into NOT NULL column '" + col.name + "'");
      }
      row[static_cast<size_t>(positions[i])] = std::move(v);
    }
    table.rows.push_back(std::move(row));
  }
  return OkStatus();
}

StatementResult Database::Execute(std::string_view sql) {
  return CatchAllocationFailure([&] { return ExecuteImpl(sql, nullptr); });
}

StatementResult Database::Execute(std::string_view sql, const Statement& stmt) {
  return CatchAllocationFailure([&] { return ExecuteImpl(sql, &stmt); });
}

StatementResult Database::ExecuteImpl(std::string_view sql, const Statement* parsed) {
  StatementResult result;

  // --- Parse stage ---------------------------------------------------------
  // Telemetry hook: the parse-stage histogram covers the parse-stage fault
  // probe plus lexing/parsing proper. A parse error or parse-stage crash
  // contributes a parse sample and nothing downstream. A caller that parsed
  // `sql` already passes its tree; the probe still reads the text.
  result.stage = Stage::kParse;
  Statement own;
  {
    const telemetry::ScopedStageTimer parse_timer(Stage::kParse);
    // Parse-stage injected bugs key on properties of the raw statement text.
    {
      ValueList probe = {Value::Str(std::string(sql))};
      if (auto crash = faults_.CheckFunction("PARSER", probe, 0, false, Stage::kParse)) {
        OnCrashTriggered(*crash);
        result.status = CrashStatus(crash->Summary());
        result.crash = std::move(*crash);
        return result;
      }
    }
    if (parsed == nullptr) {
      Result<Statement> own_parse = ParseStatement(sql);
      if (!own_parse.ok()) {
        result.status = own_parse.status();
        return result;
      }
      own = std::move(own_parse).value();
      parsed = &own;
    }
  }
  return ExecuteStatementImpl(*parsed);
}

StatementResult Database::ExecuteStatementImpl(const Statement& stmt_in) {
  StatementResult result;
  ExecContext ec;
  ec.db = this;
  InitWatchdog(ec);

  // --- Optimize stage ------------------------------------------------------
  // Telemetry hook: the optimize histogram covers tree cloning plus the
  // optimizer pass — the work a statement costs before execution starts.
  result.stage = Stage::kOptimize;
  ec.stage = Stage::kOptimize;
  Statement stmt;
  {
    const telemetry::ScopedStageTimer optimize_timer(Stage::kOptimize);
    // The optimizer may rewrite the tree; clone SELECTs, copy others.
    if (stmt_in.is_select()) {
      stmt.node = stmt_in.select()->Clone();
    } else if (const auto* create = std::get_if<CreateTableStmt>(&stmt_in.node)) {
      stmt.node = *create;
    } else if (const auto* drop = std::get_if<DropTableStmt>(&stmt_in.node)) {
      stmt.node = *drop;
    } else if (const auto* insert = std::get_if<InsertStmt>(&stmt_in.node)) {
      InsertStmt copy;
      copy.table = insert->table;
      copy.columns = insert->columns;
      for (const std::vector<ExprPtr>& row : insert->rows) {
        std::vector<ExprPtr> row_copy;
        for (const ExprPtr& v : row) {
          row_copy.push_back(v->Clone());
        }
        copy.rows.push_back(std::move(row_copy));
      }
      stmt.node = std::move(copy);
    }

    const Status opt_status = OptimizeStatement(ec, stmt);
    if (!opt_status.ok()) {
      result.status = opt_status;
      result.crash = std::move(ec.crash);
      return result;
    }
  }

  // --- Execute stage -------------------------------------------------------
  // Telemetry hook: the execute histogram covers evaluation/catalog work up
  // to whichever return path the statement takes.
  const telemetry::ScopedStageTimer execute_timer(Stage::kExecute);
  result.stage = Stage::kExecute;
  ec.stage = Stage::kExecute;

  if (const SelectStmt* sel = stmt.select()) {
    // Wrong-result faults apply to SELECT execution only: DDL and INSERT
    // never store perturbed values, so table state stays clean ground truth
    // for the result-set oracles.
    ec.allow_logic_faults = logic_faults_enabled_;
    Result<QueryOutput> out = RunSelect(ec, *sel);
    if (!out.ok()) {
      result.status = out.status();
      result.crash = std::move(ec.crash);
      result.logic_hits = std::move(ec.logic_hits);
      return result;
    }
    result.columns = std::move(out->columns);
    result.rows = std::move(out->rows);
    result.logic_hits = std::move(ec.logic_hits);
    return result;
  }
  if (const auto* create = std::get_if<CreateTableStmt>(&stmt.node)) {
    result.status = CreateTable(*create);
    return result;
  }
  if (const auto* drop = std::get_if<DropTableStmt>(&stmt.node)) {
    result.status = DropTable(*drop);
    return result;
  }
  if (const auto* insert = std::get_if<InsertStmt>(&stmt.node)) {
    result.status = Insert(*insert, &result.crash);
    return result;
  }
  result.status = Internal("unhandled statement kind");
  return result;
}

std::vector<StatementResult> Database::ExecuteScript(std::string_view sql) {
  std::vector<StatementResult> results;
  const Result<std::vector<Statement>> parsed = ParseScript(sql);
  if (!parsed.ok()) {
    StatementResult r;
    r.stage = Stage::kParse;
    r.status = parsed.status();
    results.push_back(std::move(r));
    return results;
  }
  for (const Statement& stmt : parsed.value()) {
    StatementResult r = CatchAllocationFailure([&] { return ExecuteStatementImpl(stmt); });
    const bool crashed = r.crashed();
    results.push_back(std::move(r));
    if (crashed) {
      break;  // a crashed server does not process the rest of the script
    }
  }
  return results;
}

}  // namespace soft
