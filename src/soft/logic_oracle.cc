#include "src/soft/logic_oracle.h"

#include <algorithm>
#include <utility>

#include "src/dialects/dialect_diffs.h"
#include "src/dialects/dialects.h"
#include "src/soft/eet_transform.h"

namespace soft {
namespace {

// Executes a statement that must succeed for the oracle to have a verdict.
Result<StatementResult> MustRun(Database& db, const std::string& sql) {
  StatementResult r = db.Execute(sql);
  if (!r.ok()) {
    return r.status;
  }
  return r;
}

int64_t CountTrueColumn(const StatementResult& r) {
  int64_t count = 0;
  for (const ValueList& row : r.rows) {
    if (!row.empty() && row[0].kind() == TypeKind::kBool && row[0].bool_value()) {
      ++count;
    }
  }
  return count;
}

}  // namespace

Result<std::optional<LogicBug>> CheckNoRec(Database& db, const std::string& table,
                                           const std::string& predicate) {
  // Optimized form: the engine filters.
  SOFT_ASSIGN_OR_RETURN(
      StatementResult optimized,
      MustRun(db, "SELECT COUNT(*) FROM " + table + " WHERE " + predicate));
  // Non-optimizing reference: project the predicate, count TRUE client-side.
  SOFT_ASSIGN_OR_RETURN(
      StatementResult reference,
      MustRun(db, "SELECT CAST((" + predicate + ") AS BOOL) FROM " + table));

  SOFT_ASSIGN_OR_RETURN(int64_t optimized_count, optimized.rows.at(0).at(0).AsInt64());
  const int64_t reference_count = CountTrueColumn(reference);
  if (optimized_count != reference_count) {
    LogicBug bug;
    bug.oracle = "NoREC";
    bug.predicate = predicate;
    bug.detail = "optimized WHERE selected " + std::to_string(optimized_count) +
                 " rows, per-row evaluation says " + std::to_string(reference_count);
    return std::optional<LogicBug>(std::move(bug));
  }
  return std::optional<LogicBug>();
}

Result<std::optional<LogicBug>> CheckTlp(Database& db, const std::string& table,
                                         const std::string& predicate) {
  SOFT_ASSIGN_OR_RETURN(StatementResult total,
                        MustRun(db, "SELECT COUNT(*) FROM " + table));
  SOFT_ASSIGN_OR_RETURN(
      StatementResult when_true,
      MustRun(db, "SELECT COUNT(*) FROM " + table + " WHERE " + predicate));
  SOFT_ASSIGN_OR_RETURN(
      StatementResult when_false,
      MustRun(db, "SELECT COUNT(*) FROM " + table + " WHERE NOT (" + predicate + ")"));
  SOFT_ASSIGN_OR_RETURN(
      StatementResult when_null,
      MustRun(db,
              "SELECT COUNT(*) FROM " + table + " WHERE (" + predicate + ") IS NULL"));

  SOFT_ASSIGN_OR_RETURN(int64_t n_total, total.rows.at(0).at(0).AsInt64());
  SOFT_ASSIGN_OR_RETURN(int64_t n_true, when_true.rows.at(0).at(0).AsInt64());
  SOFT_ASSIGN_OR_RETURN(int64_t n_false, when_false.rows.at(0).at(0).AsInt64());
  SOFT_ASSIGN_OR_RETURN(int64_t n_null, when_null.rows.at(0).at(0).AsInt64());

  if (n_total != n_true + n_false + n_null) {
    LogicBug bug;
    bug.oracle = "TLP";
    bug.predicate = predicate;
    bug.detail = std::to_string(n_total) + " rows partition into " +
                 std::to_string(n_true) + " + " + std::to_string(n_false) + " + " +
                 std::to_string(n_null);
    return std::optional<LogicBug>(std::move(bug));
  }
  return std::optional<LogicBug>();
}

namespace {

// Shared scope test for the NoREC/TLP campaign adapters: a comparable
// single-table SELECT with a WHERE clause and no UNION tail. Returns the
// (table, predicate-SQL) pair when in scope.
std::optional<std::pair<std::string, std::string>> WhereShape(const Statement& stmt) {
  const SelectStmt* sel = stmt.select();
  if (!OracleComparable(stmt) || sel->where == nullptr || sel->from_table.empty() ||
      sel->union_next != nullptr) {
    return std::nullopt;
  }
  return std::make_pair(sel->from_table, sel->where->ToSql());
}

// EET: execute each equivalent rewrite's tree on the same database and
// compare result sets. Variants that fail to execute (a crash spec newly
// reached through the deeper call chain, a pruned COALESCE) are skipped —
// declared differences, not divergences.
class EetOracle final : public LogicOracle {
 public:
  std::string_view name() const override { return "eet"; }

  Verdict Check(Database& db, const std::string& sql, const Statement& stmt,
                const StatementResult& result) override {
    Verdict verdict;
    for (const EetVariant& variant : BuildEetVariants(stmt, sql)) {
      const StatementResult v = db.Execute(variant.sql, variant.stmt);
      if (!v.ok()) {
        continue;
      }
      verdict.checked = true;
      if (!SameResultSet(v, result)) {
        verdict.divergence = true;
        verdict.witness = variant.sql;
        verdict.detail = variant.label + " variant returned a different result set";
        return verdict;
      }
    }
    return verdict;
  }
};

// Differential: the campaign's tree on the six sibling dialects, compared
// modulo the declared difference table (dialect_diffs.h). Siblings run with
// logic faults disabled — they are the clean reference.
class DifferentialOracle final : public LogicOracle {
 public:
  explicit DifferentialOracle(const std::string& dialect) {
    for (const std::string& name : AllDialectNames()) {
      if (name == dialect) {
        continue;
      }
      if (auto sibling = MakeDialect(name)) {
        siblings_.emplace_back(name, std::move(sibling));
      }
    }
  }

  std::string_view name() const override { return "diff"; }

  void ObserveSideEffect(const std::string& sql) override {
    for (auto& [name, sibling] : siblings_) {
      sibling->Execute(sql);
    }
  }

  Verdict Check(Database& db, const std::string& sql, const Statement& stmt,
                const StatementResult& result) override {
    (void)db;
    Verdict verdict;
    if (!OracleComparable(stmt)) {
      return verdict;
    }
    for (auto& [name, sibling] : siblings_) {
      const StatementResult s = sibling->Execute(sql, stmt);
      switch (ClassifyDifferential(result, s)) {
        case DialectDiffClass::kDeclaredDifference:
          continue;
        case DialectDiffClass::kIdentical:
          verdict.checked = true;
          continue;
        case DialectDiffClass::kDivergence:
          verdict.checked = true;
          verdict.divergence = true;
          verdict.witness = name;
          verdict.detail = "result set differs from the " + name + " dialect";
          return verdict;
      }
    }
    return verdict;
  }

 private:
  std::vector<std::pair<std::string, std::unique_ptr<Database>>> siblings_;
};

// NoREC/TLP as campaign oracles: applied to WHERE-shaped statements, reusing
// the free-function checks above (CheckNoRec, CheckTlp) on the statement's
// own predicate. They execute their own text queries.
class PredicateOracle final : public LogicOracle {
 public:
  using PredicateCheck = Result<std::optional<LogicBug>> (*)(Database&, const std::string&,
                                                             const std::string&);
  PredicateOracle(std::string_view name, PredicateCheck check) : name_(name), check_(check) {}

  std::string_view name() const override { return name_; }

  Verdict Check(Database& db, const std::string& sql, const Statement& stmt,
                const StatementResult& result) override {
    Verdict verdict;
    const auto shape = WhereShape(stmt);
    if (!shape.has_value()) {
      return verdict;
    }
    const Result<std::optional<LogicBug>> check = check_(db, shape->first, shape->second);
    if (!check.ok()) {
      return verdict;
    }
    verdict.checked = true;
    if (check->has_value()) {
      verdict.divergence = true;
      verdict.witness = shape->second;
      verdict.detail = (*check)->detail;
    }
    return verdict;
  }

 private:
  std::string_view name_;
  PredicateCheck check_;
};

const char* const kOracleNames[] = {"eet", "diff", "norec", "tlp"};

}  // namespace

bool IsKnownLogicOracle(const std::string& name) {
  if (name == "all") {
    return true;
  }
  for (const char* known : kOracleNames) {
    if (name == known) {
      return true;
    }
  }
  return false;
}

std::vector<std::unique_ptr<LogicOracle>> MakeLogicOracles(
    const std::vector<std::string>& names, const std::string& dialect) {
  std::vector<std::string> expanded;
  for (const std::string& name : names) {
    if (name == "all") {
      expanded.insert(expanded.end(), std::begin(kOracleNames), std::end(kOracleNames));
    } else {
      expanded.push_back(name);
    }
  }
  std::vector<std::unique_ptr<LogicOracle>> oracles;
  std::vector<std::string> seen;
  for (const std::string& name : expanded) {
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) {
      continue;
    }
    seen.push_back(name);
    if (name == "eet") {
      oracles.push_back(std::make_unique<EetOracle>());
    } else if (name == "diff") {
      oracles.push_back(std::make_unique<DifferentialOracle>(dialect));
    } else if (name == "norec") {
      oracles.push_back(std::make_unique<PredicateOracle>("norec", CheckNoRec));
    } else if (name == "tlp") {
      oracles.push_back(std::make_unique<PredicateOracle>("tlp", CheckTlp));
    }
  }
  return oracles;
}

}  // namespace soft
