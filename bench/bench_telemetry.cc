// Telemetry export bench: runs a fixed-budget SOFT campaign on every
// dialect, prints the recorded stage latencies and per-pattern counters, and
// writes BENCH_telemetry.json (per-stage histograms + per-pattern counters
// for all seven dialects) for docs/OBSERVABILITY.md.
//
// Also checks the observability contract: re-running one campaign with the
// runtime kill switch off must leave its outcome digest
// (DigestCampaignResult: counters, bug set with witnesses, coverage)
// bit-identical — recording is observational only. The bench exits
// non-zero if that check fails.
//
// Usage: bench_telemetry [--budget=N] [--seed=N] (defaults 20000 and 1).
// The budget must be positive. Any other argument, or a value that is not a
// number, exits 2 with a usage line before any campaign runs.
#include <charconv>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/dialects/dialects.h"
#include "src/soft/chaos.h"
#include "src/soft/soft_fuzzer.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace soft {
namespace {

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
  const bool identical =
      DigestCampaignResult(dark) == DigestCampaignResult(results.front());
  std::printf("\nrecording off vs on (%s): campaign outcomes %s\n", probe.c_str(),
              identical ? "identical" : "DIVERGED");

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

// Parses all of `text` as a decimal number; false when it is empty, has any
// other character, or overflows T.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc() && ptr == end;
}

}  // namespace
}  // namespace soft

int main(int argc, char** argv) {
  int budget = 20000;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool ok = arg.rfind("--budget=", 0) == 0
                        ? soft::ParseNumber(arg.substr(9), &budget) && budget > 0
                        : arg.rfind("--seed=", 0) == 0 &&
                              soft::ParseNumber(arg.substr(7), &seed);
    if (!ok) {
      std::fprintf(stderr, "bad argument '%s'\nusage: %s [--budget=N] [--seed=N]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  return soft::RunBench(budget, seed);
}
