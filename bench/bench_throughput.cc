// Supporting performance benches: parse / evaluate / generate throughput of
// the harness machinery (no paper counterpart; documents that the simulated
// substrate is fast enough for the statement budgets used elsewhere).
//
// The sharded-campaign bench honours --threads=N (or SOFT_BENCH_THREADS) for
// the shard count; the full scaling curve lives in bench_parallel_scaling.
// --telemetry=<path> writes the sharded campaign's NDJSON event journal
// (docs/OBSERVABILITY.md) after its final iteration. --timeout-ms=<n> and
// --crash-mode=sim|real apply the statement watchdog / real-crash worker
// harness (docs/ROBUSTNESS.md) to the sharded campaign, so their overhead is
// measurable. --trace=<path> enables span tracing during the sharded
// campaign (so its overhead is measurable) and exports the final
// iteration's Chrome trace-event JSON.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "src/dialects/dialects.h"
#include "src/soft/expr_collection.h"
#include "src/soft/patterns.h"
#include "src/soft/seeds.h"
#include "src/soft/soft_fuzzer.h"
#include "src/sqlparser/parser.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/telemetry.h"

namespace soft {

int g_bench_threads = 0;           // 0 = unset; resolved by BenchThreads()
std::string g_telemetry_path;      // set by --telemetry=<path>
std::string g_trace_path;          // set by --trace=<path>
int g_timeout_ms = 0;              // set by --timeout-ms=<n>
bool g_crash_real = false;         // set by --crash-mode=real

namespace {

int BenchThreads() {
  if (g_bench_threads > 0) {
    return g_bench_threads;
  }
  if (const char* env = std::getenv("SOFT_BENCH_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return 1;
}

void BM_ParseSimpleSelect(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseStatement("SELECT UPPER('abc'), 1 + 2 * 3"));
  }
}
BENCHMARK(BM_ParseSimpleSelect);

void BM_ParseClauseHeavySelect(benchmark::State& state) {
  const std::string sql =
      "SELECT a, SUM(b) AS s FROM t WHERE a > 1 AND b IS NOT NULL GROUP BY a "
      "HAVING SUM(b) > 2 ORDER BY s DESC LIMIT 10";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseStatement(sql));
  }
}
BENCHMARK(BM_ParseClauseHeavySelect);

void BM_ExecuteScalarFunction(benchmark::State& state) {
  auto db = MakeMariadbDialect();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Execute("SELECT REPLACE('banana', 'a', 'o')"));
  }
}
BENCHMARK(BM_ExecuteScalarFunction);

void BM_ExecuteDecimalArithmetic(benchmark::State& state) {
  auto db = MakeMariadbDialect();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Execute("SELECT 123456789012345678901234567890.5 * 987654321.25"));
  }
}
BENCHMARK(BM_ExecuteDecimalArithmetic);

void BM_ExecuteAggregateQuery(benchmark::State& state) {
  auto db = MakeMariadbDialect();
  db->Execute("CREATE TABLE bench_t (a INT, b STRING)");
  for (int i = 0; i < 100; ++i) {
    db->Execute("INSERT INTO bench_t VALUES (" + std::to_string(i) + ", 'row')");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Execute("SELECT b, SUM(a), AVG(a) FROM bench_t GROUP BY b"));
  }
}
BENCHMARK(BM_ExecuteAggregateQuery);

void BM_PatternGenerationPerSeed(benchmark::State& state) {
  auto db = MakeMariadbDialect();
  PatternEngine engine(*db, 1);
  const std::vector<std::string> corpus = {"INSTR('banana', 'na')",
                                           "JSON_LENGTH('[1]', '$')"};
  for (auto _ : state) {
    std::vector<GeneratedCase> out;
    engine.GenerateAll("SUBSTR('abcdef', 2, 3)", corpus, out);
    benchmark::DoNotOptimize(out.size());
    state.counters["cases_per_seed"] = static_cast<double>(out.size());
  }
}
BENCHMARK(BM_PatternGenerationPerSeed);

void BM_CorpusCollection(benchmark::State& state) {
  auto db = MakeMariadbDialect();
  const std::vector<std::string> suite = SeedSuiteFor("mariadb");
  for (auto _ : state) {
    benchmark::DoNotOptimize(CollectCorpus(*db, suite));
  }
}
BENCHMARK(BM_CorpusCollection);

void BM_DialectConstruction(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeVirtuosoDialect());
  }
}
BENCHMARK(BM_DialectConstruction);

void BM_FaultCheckMiss(benchmark::State& state) {
  auto db = MakeVirtuosoDialect();
  const ValueList args = {Value::Str("plain")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->faults().CheckFunction("UPPER", args, 1, false, Stage::kExecute));
  }
}
BENCHMARK(BM_FaultCheckMiss);

void BM_ShardedSoftCampaign(benchmark::State& state) {
  const int shards = BenchThreads();
  CampaignOptions options;
  options.seed = 1;
  options.max_statements = 8000;
  options.statement_limits.deadline_ms = g_timeout_ms;
  options.crash_realism =
      g_crash_real ? CrashRealism::kReal : CrashRealism::kSimulated;
  options.trace_sample = g_trace_path.empty() ? 0 : 1;
  CampaignResult last;
  uint64_t last_wall_ns = 0;
  for (auto _ : state) {
    const telemetry::WallTimer timer;
    CampaignResult result = RunShardedSoftCampaign("mariadb", options, shards);
    last_wall_ns = timer.ElapsedNs();
    benchmark::DoNotOptimize(result.statements_executed);
    state.counters["bugs"] = static_cast<double>(result.unique_bugs.size());
    last = std::move(result);
  }
  state.counters["shards"] = shards;
  if (!g_trace_path.empty()) {
    const Status status = telemetry::WriteChromeTraceFile(g_trace_path, last);
    if (status.ok()) {
      std::printf("wrote Chrome trace (%zu spans) to %s\n", last.trace.spans.size(),
                  g_trace_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace: %s\n", status.message().c_str());
    }
  }
  if (!g_telemetry_path.empty()) {
    const Status status =
        telemetry::WriteCampaignJournalFile(g_telemetry_path, options, last,
                                            last_wall_ns);
    if (status.ok()) {
      std::printf("wrote NDJSON journal to %s\n", g_telemetry_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write journal: %s\n",
                   status.message().c_str());
    }
  }
}
BENCHMARK(BM_ShardedSoftCampaign)->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace
}  // namespace soft

int main(int argc, char** argv) {
  // Strip our own flags before google-benchmark sees the args.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      soft::g_bench_threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
      soft::g_telemetry_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      soft::g_trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--timeout-ms=", 13) == 0) {
      soft::g_timeout_ms = std::atoi(argv[i] + 13);
      if (soft::g_timeout_ms < 0) {
        std::fprintf(stderr, "--timeout-ms must be >= 0\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--crash-mode=", 13) == 0) {
      const char* mode = argv[i] + 13;
      if (std::strcmp(mode, "real") == 0) {
        soft::g_crash_real = true;
      } else if (std::strcmp(mode, "sim") != 0) {
        std::fprintf(stderr, "--crash-mode must be 'sim' or 'real' (got '%s')\n",
                     mode);
        return 1;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
