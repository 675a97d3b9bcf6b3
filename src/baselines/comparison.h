// Comparison harness: runs SOFT and the three baselines under identical
// statement budgets against fresh instances of a dialect — the machinery
// behind Tables 5 and 6 and the Section 7.5 bug-count comparison.
#ifndef SRC_BASELINES_COMPARISON_H_
#define SRC_BASELINES_COMPARISON_H_

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/soft/soft_fuzzer.h"

namespace soft {

struct ToolRun {
  std::string tool;
  CampaignResult result;
};

// One fresh dialect instance per tool (the paper restarts each DBMS per
// tool), identical budget and seed, each tool run serially.
std::vector<ToolRun> RunAllTools(const std::string& dialect, int budget,
                                 uint64_t seed = 1);

// The tools in the paper's column order: SQUIRREL*, SQLancer*, SQLsmith*,
// SOFT.
std::vector<std::unique_ptr<Fuzzer>> MakeAllTools();

// Which baselines "support" which dialect, mirroring Table 5's dashes
// (SQUIRREL: PostgreSQL/MySQL/MariaDB; SQLsmith: PostgreSQL/MonetDB;
// SQLancer: PostgreSQL/MySQL/MariaDB/ClickHouse). SOFT supports all seven.
bool ToolSupportsDialect(const std::string& tool, const std::string& dialect);

}  // namespace soft

#endif  // SRC_BASELINES_COMPARISON_H_
