// PqsGen: SQLancer-like pivoted query synthesis.
//
// PQS builds random tables, picks a pivot row, synthesizes predicates that
// are true for the pivot, and checks the pivot appears in the result — a
// logic oracle. SQLancer supports only functions it has hand-written Java
// models for; we mirror that with a small fixed pool, and generate its
// trademark random literals (including NULLs in condition functions).
#include "src/baselines/baselines.h"

#include "src/baselines/baseline_util.h"

namespace soft {
namespace {

// The hand-modeled function pool (only entries the dialect ships are used).
constexpr const char* kModeledFunctions[] = {
    "ABS",  "LENGTH", "UPPER",    "LOWER", "SUBSTR", "ROUND", "FLOOR",
    "CEIL", "MOD",    "CONCAT",   "REVERSE", "TRIM", "MIN",   "MAX",
    "SUM",  "COUNT",  "AVG",      "IFNULL", "COALESCE", "NULLIF", "INSTR",
    "LEFT", "RIGHT",  "SIN",      "COS",
};

}  // namespace

CampaignResult PqsGen::Run(Database& db, const CampaignOptions& options) {
  CampaignRecorder recorder(name(), db, options, /*on_the_fly=*/true);
  Rng rng(options.seed ^ 0x505153ull);

  db.Execute("DROP TABLE IF EXISTS t_pqs");
  db.Execute("CREATE TABLE t_pqs (a INT, b STRING, c DOUBLE)");
  // Random rows; remember one as the pivot.
  int64_t pivot_a = 0;
  std::string pivot_b;
  for (int i = 0; i < 5; ++i) {
    const int64_t a = static_cast<int64_t>(rng.NextBelow(10));
    const std::string b = rng.NextIdentifier(3);
    db.Execute("INSERT INTO t_pqs VALUES (" + std::to_string(a) + ", '" + b + "', " +
               BenignDouble(rng) + ")");
    if (i == 2) {
      pivot_a = a;
      pivot_b = b;
    }
  }

  std::vector<std::string> pool;
  for (const char* fn : kModeledFunctions) {
    if (db.registry().Contains(fn)) {
      pool.push_back(fn);
    }
  }

  while (recorder.result().statements_executed < options.max_statements) {
    const std::string& fn = pool[rng.NextBelow(pool.size())];
    std::string call;
    std::string rhs;
    const int shape = static_cast<int>(rng.NextBelow(4));
    switch (shape) {
      case 0:  // numeric predicate on the pivot's a column
        call = fn + "(a)";
        rhs = fn + "(" + std::to_string(pivot_a) + ")";
        break;
      case 1:  // string predicate on the pivot's b column
        call = fn + "(b)";
        rhs = fn + "('" + pivot_b + "')";
        break;
      case 2:  // literal-only invocation (SQLancer expression generator)
        call = fn + "(" + (rng.NextBool() ? BenignInt(rng) : BenignString(rng)) + ")";
        rhs.clear();
        break;
      default:  // NULL-heavy condition shapes
        call = fn + "(" + (rng.NextBool(0.3) ? "NULL" : BenignInt(rng)) + ", " +
               BenignInt(rng) + ")";
        rhs.clear();
        break;
    }
    std::string sql;
    if (!rhs.empty()) {
      sql = "SELECT a, b FROM t_pqs WHERE " + call + " = " + rhs;
    } else {
      sql = "SELECT " + call;
    }
    recorder.Execute(sql, name());
    recorder.Close();
    // The pivot-containment logic oracle itself finds no crash bugs by
    // construction; crash detection above is what counts here.
  }

  return recorder.Finish();
}

}  // namespace soft
