#include "src/baselines/comparison.h"

#include "src/dialects/dialects.h"

namespace soft {

std::vector<std::unique_ptr<Fuzzer>> MakeAllTools() {
  std::vector<std::unique_ptr<Fuzzer>> tools;
  tools.push_back(std::make_unique<MutSquirrel>());
  tools.push_back(std::make_unique<PqsGen>());
  tools.push_back(std::make_unique<RandSmith>());
  tools.push_back(std::make_unique<SoftFuzzer>());
  return tools;
}

bool ToolSupportsDialect(const std::string& tool, const std::string& dialect) {
  if (tool == "SOFT") {
    return true;
  }
  if (tool == "SQUIRREL*") {
    return dialect == "postgresql" || dialect == "mysql" || dialect == "mariadb";
  }
  if (tool == "SQLancer*") {
    return dialect == "postgresql" || dialect == "mysql" || dialect == "mariadb" ||
           dialect == "clickhouse";
  }
  if (tool == "SQLsmith*") {
    return dialect == "postgresql" || dialect == "monetdb";
  }
  return false;
}

std::vector<ToolRun> RunAllTools(const std::string& dialect, int budget, uint64_t seed) {
  std::vector<ToolRun> out;
  CampaignOptions options;
  options.seed = seed;
  options.max_statements = budget;
  for (const std::unique_ptr<Fuzzer>& tool : MakeAllTools()) {
    std::unique_ptr<Database> db = MakeDialect(dialect);
    out.push_back({tool->name(), tool->Run(*db, options)});
  }
  return out;
}

}  // namespace soft
