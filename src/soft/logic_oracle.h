// Correctness-bug extension (Section 8, "Correctness Bugs in SQL Functions").
//
// The paper proposes extending SOFT beyond crashes with metamorphic oracles
// in the NoREC / TLP style. This module implements both for the simulated
// engine:
//
//   NoREC  — a predicate's optimized evaluation (WHERE p) must select
//            exactly the rows where the unoptimized per-row evaluation of p
//            (projected as a SELECT item) yields TRUE.
//   TLP    — ternary logic partitioning: |t| = |WHERE p| + |WHERE NOT p| +
//            |WHERE p IS NULL| for any predicate p.
//
// SOFT's boundary pool supplies the predicate constants, so logic bugs in
// boundary handling surface the same way crash bugs do.
#ifndef SRC_SOFT_LOGIC_ORACLE_H_
#define SRC_SOFT_LOGIC_ORACLE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/database.h"

namespace soft {

// One result-set oracle examining campaign statements. Four implementations
// ship ("eet", "diff", "norec", "tlp"); campaigns run any subset. Verdicts
// come exclusively from result comparison — an oracle never consults the
// injected LogicBugSpec corpus, which exists only so the campaign can
// validate verdicts against ground truth afterwards.
class LogicOracle {
 public:
  struct Verdict {
    bool checked = false;     // the statement was in this oracle's scope
    bool divergence = false;  // results disagreed — a wrong-result bug
    std::string witness;      // what disagreed: variant SQL, sibling dialect,
                              // or reference predicate
    std::string detail;       // human-readable account of the disagreement
  };

  virtual ~LogicOracle() = default;

  virtual std::string_view name() const = 0;

  // Examines one successfully executed campaign SELECT. `stmt` is the parse
  // of `sql`, made once and shared by every oracle, which never parses `sql`
  // again. Must be a pure function of (sql, current table state, armed
  // faults) so partition-mode sharding reproduces serial verdicts exactly.
  virtual Verdict Check(Database& db, const std::string& sql, const Statement& stmt,
                        const StatementResult& result) = 0;

  // Successful non-SELECT campaign statements pass through here so stateful
  // oracles (the differential's sibling engines) keep their catalogs and
  // table contents in lockstep with the campaign database.
  virtual void ObserveSideEffect(const std::string& sql) {}
};

// True for "eet", "diff", "norec", "tlp", and "all".
bool IsKnownLogicOracle(const std::string& name);

// Builds the oracle set for a campaign on `dialect`. "all" expands to every
// implementation; duplicates collapse. The differential oracle instantiates
// the six sibling dialects with their logic faults left DISABLED — clean
// reference engines.
std::vector<std::unique_ptr<LogicOracle>> MakeLogicOracles(
    const std::vector<std::string>& names, const std::string& dialect);

struct LogicBug {
  std::string oracle;     // "NoREC" | "TLP"
  std::string predicate;  // SQL text of p
  std::string detail;     // counts that disagreed
};

// Runs the NoREC oracle for predicate `p` over table `table`. Returns a
// LogicBug on mismatch, nullopt when consistent, and an error status when
// the queries themselves fail (not an oracle verdict).
Result<std::optional<LogicBug>> CheckNoRec(Database& db, const std::string& table,
                                           const std::string& predicate);

// Runs the TLP partition oracle for predicate `p` over `table`.
Result<std::optional<LogicBug>> CheckTlp(Database& db, const std::string& table,
                                         const std::string& predicate);

struct LogicCampaignResult {
  int predicates_checked = 0;
  int skipped_errors = 0;  // predicates that failed to execute at all
  std::vector<LogicBug> bugs;
};

// Generates boundary-valued predicates over the table's columns and runs
// both oracles on each. Deterministic per seed.
LogicCampaignResult RunLogicCampaign(Database& db, const std::string& table,
                                     int predicate_budget, uint64_t seed = 1);

}  // namespace soft

#endif  // SRC_SOFT_LOGIC_ORACLE_H_
