// Regenerates Table 6: covered code branches of the DBMSs' built-in SQL
// function modules per tool, under identical statement budgets. Branch
// points are the real decision points of the function implementations
// (src/coverage), so the gaps reflect behaviour, not bookkeeping.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/baselines/comparison.h"
#include "src/dialects/dialects.h"

namespace soft {
namespace {

constexpr int kBudget = 20000;

const std::map<std::string, std::map<std::string, std::string>>& PaperTable6() {
  static const auto* kValues = new std::map<std::string, std::map<std::string, std::string>>{
      {"postgresql",
       {{"SQUIRREL*", "2106"},
        {"SQLancer*", "6106"},
        {"SQLsmith*", "11768"},
        {"SOFT", "13334"}}},
      {"mysql", {{"SQUIRREL*", "1105"}, {"SQLancer*", "1927"}, {"SOFT", "6914"}}},
      {"mariadb", {{"SQUIRREL*", "1758"}, {"SQLancer*", "1732"}, {"SOFT", "6283"}}},
      {"clickhouse", {{"SQLancer*", "26655"}, {"SOFT", "45836"}}},
      {"monetdb", {{"SQLsmith*", "551"}, {"SOFT", "1431"}}},
  };
  return *kValues;
}

void PrintTable6() {
  PrintHeader(
      "Table 6: covered branches of the SQL-function component per tool\n"
      "(identical statement budgets; '-' = DBMS unsupported by the tool;\n"
      "absolute counts are engine branch points, not gcov branches — the\n"
      "SOFT-vs-baseline gap is the reproduced claim)");
  PrintRow({"DBMS", "SQUIRREL*", "SQLancer*", "SQLsmith*", "SOFT"}, {12, 18, 18, 18, 18});

  std::map<std::string, size_t> totals;
  for (const std::string& dialect : AllDialectNames()) {
    const std::vector<ToolRun> runs = RunAllTools(dialect, kBudget);
    std::vector<std::string> cells = {dialect};
    for (const char* tool : {"SQUIRREL*", "SQLancer*", "SQLsmith*", "SOFT"}) {
      const ToolRun* run = nullptr;
      for (const ToolRun& r : runs) {
        if (r.tool == tool) {
          run = &r;
        }
      }
      if (!ToolSupportsDialect(tool, dialect) || run == nullptr) {
        cells.push_back("-");
        continue;
      }
      std::string cell = std::to_string(run->result.branches_covered);
      const auto& paper = PaperTable6();
      if (paper.count(dialect) != 0 && paper.at(dialect).count(tool) != 0) {
        cell += " (paper " + paper.at(dialect).at(tool) + ")";
      }
      totals[tool] += run->result.branches_covered;
      cells.push_back(std::move(cell));
    }
    PrintRow(cells, {12, 18, 18, 18, 18});
  }
  PrintRow({"Total", std::to_string(totals["SQUIRREL*"]),
            std::to_string(totals["SQLancer*"]), std::to_string(totals["SQLsmith*"]),
            std::to_string(totals["SOFT"])},
           {12, 18, 18, 18, 18});
}

void BM_BranchAccounting(benchmark::State& state) {
  auto db = MakeDialect("mariadb");
  for (auto _ : state) {
    db->Execute("SELECT SUBSTR('abcdef', -2, 3)");
    benchmark::DoNotOptimize(db->coverage().CoveredBranchCount());
  }
}
BENCHMARK(BM_BranchAccounting);

}  // namespace
}  // namespace soft

int main(int argc, char** argv) {
  soft::PrintTable6();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
