// Regenerates Table 5: built-in SQL functions triggered by each tool's
// generated statements under an identical statement budget (standing in for
// the paper's 24-hour wall clock). Dashes mark tool/DBMS pairs the original
// tools do not support.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/baselines/comparison.h"
#include "src/dialects/dialects.h"

namespace soft {
namespace {

constexpr int kBudget = 20000;

// Paper's Table 5 values for reference printing.
const std::map<std::string, std::map<std::string, std::string>>& PaperTable5() {
  static const auto* kValues = new std::map<std::string, std::map<std::string, std::string>>{
      {"postgresql",
       {{"SQUIRREL*", "29"}, {"SQLancer*", "123"}, {"SQLsmith*", "417"}, {"SOFT", "456"}}},
      {"mysql", {{"SQUIRREL*", "23"}, {"SQLancer*", "35"}, {"SOFT", "323"}}},
      {"mariadb", {{"SQUIRREL*", "22"}, {"SQLancer*", "20"}, {"SOFT", "279"}}},
      {"clickhouse", {{"SQLancer*", "24"}, {"SOFT", "711"}}},
      {"monetdb", {{"SQLsmith*", "29"}, {"SOFT", "171"}}},
  };
  return *kValues;
}

void PrintTable5() {
  PrintHeader(
      "Table 5: number of triggered built-in SQL functions per tool\n"
      "(identical statement budgets; '-' = DBMS unsupported by the tool;\n"
      "absolute values differ from the paper — our engine has ~200 functions\n"
      "per catalog, not thousands — the ordering is the reproduced claim)");
  PrintRow({"DBMS", "SQUIRREL*", "SQLancer*", "SQLsmith*", "SOFT"}, {12, 16, 16, 16, 16});

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
      std::string cell = std::to_string(run->result.functions_triggered);
      const auto& paper = PaperTable5();
      if (paper.count(dialect) != 0 && paper.at(dialect).count(tool) != 0) {
        cell += " (paper " + paper.at(dialect).at(tool) + ")";
      }
      totals[tool] += run->result.functions_triggered;
      cells.push_back(std::move(cell));
    }
    PrintRow(cells, {12, 16, 16, 16, 16});
  }
  PrintRow({"Total", std::to_string(totals["SQUIRREL*"]),
            std::to_string(totals["SQLancer*"]), std::to_string(totals["SQLsmith*"]),
            std::to_string(totals["SOFT"])},
           {12, 16, 16, 16, 16});
}

void BM_SoftTriggerSweep(benchmark::State& state) {
  for (auto _ : state) {
    const std::vector<ToolRun> runs = RunAllTools("monetdb", 2000);
    benchmark::DoNotOptimize(runs.size());
  }
}
BENCHMARK(BM_SoftTriggerSweep)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace soft

int main(int argc, char** argv) {
  soft::PrintTable5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
