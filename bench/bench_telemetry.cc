// Telemetry export bench: runs a fixed-budget SOFT campaign on every
// dialect, prints the recorded stage latencies and per-pattern counters, and
// writes BENCH_telemetry.json (per-stage histograms + per-pattern counters
// for all seven dialects) for docs/OBSERVABILITY.md.
//
// Also checks the observability contract: re-running one campaign with the
// runtime kill switch off must leave every campaign outcome (statements,
// bug set, coverage) bit-identical — recording is observational only. The
// bench exits non-zero if that check fails.
//
// Knobs: --budget=N / SOFT_BENCH_BUDGET (default 20000), --seed=N.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/dialects/dialects.h"
#include "src/soft/soft_fuzzer.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace soft {
namespace {

std::set<int> BugIds(const CampaignResult& result) {
  std::set<int> ids;
  for (const FoundBug& bug : result.unique_bugs) {
    ids.insert(bug.crash.bug_id);
  }
  return ids;
}

CampaignResult RunOne(const std::string& dialect, const CampaignOptions& options) {
  std::unique_ptr<Database> db = MakeDialect(dialect);
  SoftFuzzer fuzzer;
  return fuzzer.Run(*db, options);
}

int RunBench(int budget, uint64_t seed) {
  CampaignOptions options;
  options.seed = seed;
  options.max_statements = budget;

  PrintHeader("Campaign telemetry: SOFT on every dialect, budget " +
              std::to_string(budget) + ", seed " + std::to_string(seed));
  PrintRow({"dialect", "stmts", "bugs", "parse µs", "optimize µs", "execute µs"},
           {12, 10, 8, 12, 13, 12});

  const std::vector<std::string> dialects = AllDialectNames();
  std::vector<CampaignResult> results;
  results.reserve(dialects.size());
  for (const std::string& dialect : dialects) {
    CampaignResult result = RunOne(dialect, options);
    char parse_buf[32], optimize_buf[32], execute_buf[32];
    std::snprintf(parse_buf, sizeof(parse_buf), "%.1f",
                  result.telemetry.ForStage(Stage::kParse).MeanUs());
    std::snprintf(optimize_buf, sizeof(optimize_buf), "%.1f",
                  result.telemetry.ForStage(Stage::kOptimize).MeanUs());
    std::snprintf(execute_buf, sizeof(execute_buf), "%.1f",
                  result.telemetry.ForStage(Stage::kExecute).MeanUs());
    PrintRow({dialect, std::to_string(result.statements_executed),
              std::to_string(result.unique_bugs.size()), parse_buf, optimize_buf,
              execute_buf},
             {12, 10, 8, 12, 13, 12});
    results.push_back(std::move(result));
  }

  // Observational-only check: the kill switch must not change any outcome.
  const std::string& probe = dialects.front();
  telemetry::SetRuntimeEnabled(false);
  const CampaignResult dark = RunOne(probe, options);
  telemetry::SetRuntimeEnabled(true);
  const CampaignResult& lit = results.front();
  const bool identical = dark.statements_executed == lit.statements_executed &&
                         dark.sql_errors == lit.sql_errors &&
                         dark.crashes_observed == lit.crashes_observed &&
                         dark.false_positives == lit.false_positives &&
                         dark.functions_triggered == lit.functions_triggered &&
                         dark.branches_covered == lit.branches_covered &&
                         BugIds(dark) == BugIds(lit);
  std::printf("\nrecording off vs on (%s): campaign outcomes %s\n", probe.c_str(),
              identical ? "identical" : "DIVERGED");
#ifdef SOFT_TELEMETRY_ENABLED
  std::printf("telemetry hooks: compiled in (SOFT_TELEMETRY=ON)\n");
#else
  std::printf("telemetry hooks: compiled out (SOFT_TELEMETRY=OFF)\n");
#endif

  // Metrics-registry overhead point: how long it takes to fold one finished
  // campaign's telemetry into the typed registry and render the Prometheus
  // exposition. An export-path cost — nothing here runs inside the campaign
  // loop.
  constexpr int kRegistryReps = 200;
  const telemetry::WallTimer build_timer;
  size_t render_bytes = 0;
  size_t series_count = 0;
  for (int rep = 0; rep < kRegistryReps; ++rep) {
    telemetry::MetricsRegistry reg;
    telemetry::AddTelemetryMetrics(reg, results.front().telemetry);
    render_bytes = reg.RenderPrometheusText().size();
    series_count = reg.series_count();
  }
  const double build_render_us =
      static_cast<double>(build_timer.ElapsedNs()) / 1000.0 / kRegistryReps;
  std::printf("\nmetrics registry: %zu series, %zu exposition bytes, "
              "build+render %.1f µs\n",
              series_count, render_bytes, build_render_us);

  std::ostringstream json;
  json << "{\n  \"bench\": \"telemetry\",\n  \"budget\": " << budget
       << ",\n  \"seed\": " << seed
       << ",\n  \"metrics_registry\": {\n    \"series\": " << series_count
       << ",\n    \"exposition_bytes\": " << render_bytes
       << ",\n    \"build_render_us\": " << build_render_us << "\n  }"
       << ",\n  \"dialects\": {\n";
  for (size_t i = 0; i < results.size(); ++i) {
    json << "    \"" << dialects[i] << "\": " << results[i].telemetry.ToJson()
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  }\n}\n";
  if (!WriteBenchJson("BENCH_telemetry.json", json.str())) {
    return 1;
  }

  if (!identical) {
    std::fprintf(stderr, "FAIL: disabling telemetry changed a campaign result\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace soft

int main(int argc, char** argv) {
  int budget = 20000;
  uint64_t seed = 1;
  if (const char* env = std::getenv("SOFT_BENCH_BUDGET")) {
    budget = std::atoi(env);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      budget = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    }
  }
  return soft::RunBench(budget, seed);
}
