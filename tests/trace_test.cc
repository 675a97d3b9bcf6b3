// Causal span tracing and the crash flight recorder (docs/OBSERVABILITY.md):
//
//  * Span IDs are a pure function of (dialect, shard, kind, ordinal) — never
//    of wall clock or randomness — so two runs of the same campaign produce
//    the identical span tree modulo timestamps.
//  * Tracing is strictly observational: the outcome digest is bit-identical
//    with tracing on and off, in simulated and real-crash mode alike.
//  * The --trace-sample knob thins statement spans without touching the
//    structural campaign/shard/worker-run spans.
//  * Real-crash campaigns record a bounded flight ring per realized crash;
//    its last entry is the crashing statement itself.
//  * The Chrome trace-event export is well-formed (deep validation lives in
//    tools/check_trace_json.py, wired as TraceLint.ChromeTraceValidates).
//
// NOTE: the RealCrash* tests fork. Keep them out of the TSan lane
// (`ctest -R 'Parallel|GoldenPoc|Telemetry'`); the ASan CI jobs run them.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/soft/chaos.h"
#include "src/soft/soft_fuzzer.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/trace.h"

#ifndef SOFT_GOLDEN_DIR
#error "SOFT_GOLDEN_DIR must be defined to the tests/golden directory"
#endif

namespace soft {
namespace {

CampaignOptions SmallCampaign(int budget, bool traced, bool real) {
  CampaignOptions options;
  options.seed = 7;
  options.max_statements = budget;
  options.trace_sample = traced ? 1 : 0;
  options.crash_realism = real ? CrashRealism::kReal : CrashRealism::kSimulated;
  return options;
}

// The time-free shape of a span: everything the determinism contract covers.
using SpanShape =
    std::tuple<uint64_t, uint64_t, trace::SpanKind, int,
               std::vector<std::pair<std::string, std::string>>>;

std::vector<SpanShape> Shapes(const trace::TraceData& data) {
  std::vector<SpanShape> shapes;
  shapes.reserve(data.spans.size());
  for (const trace::TraceSpan& span : data.spans) {
    shapes.emplace_back(span.id, span.parent_id, span.kind, span.shard, span.args);
  }
  return shapes;
}

const trace::TraceSpan* FindSpan(const trace::TraceData& data, uint64_t id) {
  for (const trace::TraceSpan& span : data.spans) {
    if (span.id == id) {
      return &span;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Span identity
// ---------------------------------------------------------------------------

TEST(TraceSpanId, IsDeterministicAndCollisionResistant) {
  const uint64_t id = trace::SpanId("duckdb", 0, trace::SpanKind::kStatement, 5);
  EXPECT_EQ(id, trace::SpanId("duckdb", 0, trace::SpanKind::kStatement, 5));
  EXPECT_NE(id, 0u);  // 0 is reserved for "no parent"

  std::set<uint64_t> ids;
  for (const char* dialect : {"duckdb", "mariadb", "virtuoso"}) {
    for (int shard = -1; shard < 3; ++shard) {
      for (const trace::SpanKind kind :
           {trace::SpanKind::kCampaign, trace::SpanKind::kShard,
            trace::SpanKind::kWorkerRun, trace::SpanKind::kStatement,
            trace::SpanKind::kParse, trace::SpanKind::kOptimize,
            trace::SpanKind::kExecute}) {
        for (int ordinal = 0; ordinal < 50; ++ordinal) {
          EXPECT_TRUE(ids.insert(trace::SpanId(dialect, shard, kind, ordinal)).second)
              << dialect << " shard=" << shard << " ordinal=" << ordinal;
        }
      }
    }
  }
}

TEST(TraceSpanId, KindNamesAndStageMapping) {
  EXPECT_EQ(trace::SpanKindName(trace::SpanKind::kCampaign), "campaign");
  EXPECT_EQ(trace::SpanKindName(trace::SpanKind::kStatement), "statement");
  EXPECT_EQ(trace::StageSpanKind(Stage::kParse), trace::SpanKind::kParse);
  EXPECT_EQ(trace::StageSpanKind(Stage::kOptimize), trace::SpanKind::kOptimize);
  EXPECT_EQ(trace::StageSpanKind(Stage::kExecute), trace::SpanKind::kExecute);
}

// ---------------------------------------------------------------------------
// Structural spans and determinism (simulated, in-process)
// ---------------------------------------------------------------------------

TEST(TraceStructure, ShardedCampaignBuildsTheCausalTree) {
  const CampaignResult result =
      RunShardedSoftCampaign("duckdb", SmallCampaign(600, true, false), 2);
  ASSERT_FALSE(result.trace.empty());

  const uint64_t campaign_id =
      trace::SpanId("duckdb", -1, trace::SpanKind::kCampaign, 0);
  const trace::TraceSpan* root = FindSpan(result.trace, campaign_id);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(result.trace.spans.front().id, campaign_id);  // root listed first

  int shard_spans = 0;
  int run_spans = 0;
  int statement_spans = 0;
  for (const trace::TraceSpan& span : result.trace.spans) {
    switch (span.kind) {
      case trace::SpanKind::kShard:
        ++shard_spans;
        EXPECT_EQ(span.parent_id, campaign_id);
        break;
      case trace::SpanKind::kWorkerRun: {
        ++run_spans;
        const trace::TraceSpan* parent = FindSpan(result.trace, span.parent_id);
        ASSERT_NE(parent, nullptr);
        EXPECT_EQ(parent->kind, trace::SpanKind::kShard);
        break;
      }
      case trace::SpanKind::kStatement: {
        ++statement_spans;
        const trace::TraceSpan* parent = FindSpan(result.trace, span.parent_id);
        ASSERT_NE(parent, nullptr);
        EXPECT_EQ(parent->kind, trace::SpanKind::kWorkerRun);
        break;
      }
      default:
        break;
    }
  }
  EXPECT_EQ(shard_spans, 2);
  EXPECT_EQ(run_spans, 2);  // one synthetic in-process run per shard
  EXPECT_EQ(statement_spans, result.statements_executed);
}

TEST(TraceStructure, SpanShapesAreIdenticalAcrossRuns) {
  const CampaignResult a =
      RunShardedSoftCampaign("mariadb", SmallCampaign(500, true, false), 2);
  const CampaignResult b =
      RunShardedSoftCampaign("mariadb", SmallCampaign(500, true, false), 2);
  EXPECT_EQ(Shapes(a.trace), Shapes(b.trace));
}

TEST(TraceStructure, TracingNeverPerturbsTheOutcomeDigest) {
  const CampaignResult traced =
      RunShardedSoftCampaign("duckdb", SmallCampaign(800, true, false), 2);
  const CampaignResult plain =
      RunShardedSoftCampaign("duckdb", SmallCampaign(800, false, false), 2);
  EXPECT_EQ(DigestCampaignResult(traced), DigestCampaignResult(plain));
  EXPECT_TRUE(plain.trace.empty());
  EXPECT_EQ(traced.unique_bugs.size(), plain.unique_bugs.size());
}

TEST(TraceStructure, SampleKnobThinsStatementSpans) {
  const CampaignOptions every = SmallCampaign(400, true, false);
  CampaignOptions fifth = every;
  fifth.trace_sample = 5;
  const CampaignResult dense = RunShardedSoftCampaign("virtuoso", every, 1);
  const CampaignResult sparse = RunShardedSoftCampaign("virtuoso", fifth, 1);

  auto count_statements = [](const CampaignResult& r) {
    int n = 0;
    for (const trace::TraceSpan& span : r.trace.spans) {
      n += span.kind == trace::SpanKind::kStatement ? 1 : 0;
    }
    return n;
  };
  const int dense_count = count_statements(dense);
  const int sparse_count = count_statements(sparse);
  EXPECT_EQ(dense_count, dense.statements_executed);
  // Every 5th statement, first always included: ceil(n / 5).
  EXPECT_EQ(sparse_count, (sparse.statements_executed + 4) / 5);
  EXPECT_EQ(DigestCampaignResult(dense), DigestCampaignResult(sparse));
}

TEST(TraceStructure, StageSpansNestInsideTheirStatement) {
  const CampaignResult result =
      RunShardedSoftCampaign("duckdb", SmallCampaign(200, true, false), 1);
  std::map<uint64_t, const trace::TraceSpan*> by_id;
  for (const trace::TraceSpan& span : result.trace.spans) {
    by_id[span.id] = &span;
  }
  int stage_spans = 0;
  for (const trace::TraceSpan& span : result.trace.spans) {
    if (span.kind != trace::SpanKind::kParse &&
        span.kind != trace::SpanKind::kOptimize &&
        span.kind != trace::SpanKind::kExecute) {
      continue;
    }
    ++stage_spans;
    const auto parent = by_id.find(span.parent_id);
    ASSERT_NE(parent, by_id.end());
    EXPECT_EQ(parent->second->kind, trace::SpanKind::kStatement);
    EXPECT_GE(span.start_ns, parent->second->start_ns);
    EXPECT_LE(span.start_ns + span.dur_ns,
              parent->second->start_ns + parent->second->dur_ns);
  }
  EXPECT_GT(stage_spans, 0);
}

// ---------------------------------------------------------------------------
// Real-crash mode: digest parity, flight recorder (these fork)
// ---------------------------------------------------------------------------

TEST(RealCrashTrace, DigestMatchesSimulatedAndUntraced) {
  const CampaignResult traced_real =
      RunShardedSoftCampaign("duckdb", SmallCampaign(800, true, true), 1);
  const CampaignResult plain_real =
      RunShardedSoftCampaign("duckdb", SmallCampaign(800, false, true), 1);
  const CampaignResult plain_sim =
      RunShardedSoftCampaign("duckdb", SmallCampaign(800, false, false), 1);
  EXPECT_EQ(DigestCampaignResult(traced_real), DigestCampaignResult(plain_real));
  EXPECT_EQ(DigestCampaignResult(traced_real), DigestCampaignResult(plain_sim));
}

TEST(RealCrashTrace, WorkerRunSpansCarryVerdicts) {
  // A real-crash shard runs in-process like a simulated one: its trace has
  // the simulated trace's span shapes, one in-process worker-run per shard,
  // and differs only in the shard span's mode.
  const CampaignResult real =
      RunShardedSoftCampaign("duckdb", SmallCampaign(800, true, true), 2);
  const CampaignResult sim =
      RunShardedSoftCampaign("duckdb", SmallCampaign(800, true, false), 2);
  ASSERT_GT(real.crashes_observed, 0);

  std::vector<SpanShape> real_shapes = Shapes(real.trace);
  int real_modes = 0;
  int runs = 0;
  for (SpanShape& shape : real_shapes) {
    for (auto& [key, value] : std::get<4>(shape)) {
      if (std::get<2>(shape) == trace::SpanKind::kShard && key == "mode") {
        real_modes += value == "real" ? 1 : 0;
        value = "sim";
      }
      if (std::get<2>(shape) == trace::SpanKind::kWorkerRun && key == "verdict") {
        runs += value == "in-process" ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(real_modes, 2);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(real_shapes, Shapes(sim.trace));
}

TEST(RealCrashFlight, EveryAnnouncedCrashFlushesTheRing) {
  // Each realized crash records the ring as it stood, ending in the
  // crashing statement; `announced` says its copy died by the real signal.
  const CampaignResult result =
      RunShardedSoftCampaign("duckdb", SmallCampaign(2000, false, true), 1);
  ASSERT_FALSE(result.unique_bugs.empty());
  ASSERT_FALSE(result.crash_flights.empty());
  EXPECT_EQ(static_cast<int>(result.crash_flights.size()), result.crashes_observed);

  for (const trace::CrashFlightRecord& flight : result.crash_flights) {
    EXPECT_TRUE(flight.announced);
    EXPECT_LE(flight.entries.size(), trace::kFlightRingCapacity);
    ASSERT_FALSE(flight.entries.empty());
    const trace::FlightEntry& last = flight.entries.back();
    EXPECT_EQ(last.outcome, "crash");
    EXPECT_FALSE(last.sql.empty());
  }

  // Acceptance: each unique bug's first real crash is on the record — some
  // flight with its bug_id ends in exactly its PoC statement.
  for (const FoundBug& bug : result.unique_bugs) {
    bool witnessed = false;
    for (const trace::CrashFlightRecord& flight : result.crash_flights) {
      if (flight.bug_id == bug.crash.bug_id && !flight.entries.empty() &&
          flight.entries.back().sql == bug.poc_sql) {
        witnessed = true;
        break;
      }
    }
    EXPECT_TRUE(witnessed) << "bug " << bug.crash.bug_id
                           << " has no flight ending in its PoC: " << bug.poc_sql;
  }
}

// One golden PoC per line: "<bug_id>\t<crash type>\t<sql>" (tests/golden/).
struct GoldenPoc {
  int bug_id = 0;
  std::string sql;
};

std::vector<GoldenPoc> LoadGoldenPocs(const std::string& dialect) {
  const std::string path =
      std::string(SOFT_GOLDEN_DIR) + "/pocs_" + dialect + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden corpus: " << path;
  std::vector<GoldenPoc> pocs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t first_tab = line.find('\t');
    const size_t second_tab = line.find('\t', first_tab + 1);
    if (second_tab == std::string::npos) {
      continue;
    }
    pocs.push_back({std::stoi(line.substr(0, first_tab)), line.substr(second_tab + 1)});
  }
  return pocs;
}

// Minimal fuzzer replaying a fixed statement list through the campaign
// recorder — the shape a real campaign loop has, without the generator.
class GoldenReplayFuzzer : public Fuzzer {
 public:
  explicit GoldenReplayFuzzer(std::vector<std::string> script)
      : script_(std::move(script)) {}
  std::string name() const override { return "golden-replay"; }

  CampaignResult Run(Database& db, const CampaignOptions& options) override {
    CampaignRecorder recorder(name(), db, options, /*on_the_fly=*/true);
    for (const std::string& sql : script_) {
      if (recorder.result().statements_executed >= options.max_statements) {
        break;
      }
      recorder.Execute(sql, "golden");
      recorder.Close();
    }
    return recorder.Finish();
  }

 private:
  std::vector<std::string> script_;
};

// The acceptance bar: every golden-corpus bug, realized as a real signal in
// a forked copy, leaves a crash_flight record whose final ring entry is the
// exact crashing statement.
TEST(RealCrashFlight, EveryGoldenCorpusBugLeavesItsPocOnTheRecord) {
  for (const std::string& dialect : AllDialectNames()) {
    SCOPED_TRACE(dialect);
    const std::vector<GoldenPoc> pocs = LoadGoldenPocs(dialect);
    ASSERT_FALSE(pocs.empty());
    std::vector<std::string> script;
    script.reserve(pocs.size());
    for (const GoldenPoc& poc : pocs) {
      script.push_back(poc.sql);
    }
    CampaignOptions options;
    options.max_statements = static_cast<int>(script.size());
    options.crash_realism = CrashRealism::kReal;
    GoldenReplayFuzzer fuzzer(script);
    const CampaignResult result = fuzzer.Run(*MakeDialect(dialect), options);

    ASSERT_EQ(result.unique_bugs.size(), pocs.size());
    ASSERT_EQ(result.crash_flights.size(), pocs.size());
    for (const FoundBug& bug : result.unique_bugs) {
      bool witnessed = false;
      for (const trace::CrashFlightRecord& flight : result.crash_flights) {
        if (flight.announced && flight.bug_id == bug.crash.bug_id &&
            !flight.entries.empty() && flight.entries.back().sql == bug.poc_sql &&
            flight.entries.back().outcome == "crash") {
          witnessed = true;
          break;
        }
      }
      EXPECT_TRUE(witnessed) << "bug " << bug.crash.bug_id
                             << " has no flight ending in its PoC: " << bug.poc_sql;
    }
  }
}

TEST(RealCrashFlight, RecordsSurviveTheJournalRoundTrip) {
  const CampaignResult result =
      RunShardedSoftCampaign("duckdb", SmallCampaign(1500, false, true), 1);
  ASSERT_FALSE(result.crash_flights.empty());

  std::stringstream journal;
  CampaignOptions options = SmallCampaign(1500, false, true);
  telemetry::WriteCampaignJournal(journal, options, result, 0);
  const Result<telemetry::JournalReplay> replay = telemetry::ReplayJournal(journal);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  ASSERT_EQ(replay->crash_flights.size(), result.crash_flights.size());
  for (size_t i = 0; i < result.crash_flights.size(); ++i) {
    const trace::CrashFlightRecord& want = result.crash_flights[i];
    const trace::CrashFlightRecord& got = replay->crash_flights[i];
    EXPECT_EQ(got.shard, want.shard);
    EXPECT_EQ(got.worker_run, want.worker_run);
    EXPECT_EQ(got.announced, want.announced);
    EXPECT_EQ(got.bug_id, want.bug_id);
    ASSERT_EQ(got.entries.size(), want.entries.size());
    for (size_t j = 0; j < want.entries.size(); ++j) {
      EXPECT_EQ(got.entries[j].statement_index, want.entries[j].statement_index);
      EXPECT_EQ(got.entries[j].pattern, want.entries[j].pattern);
      EXPECT_EQ(got.entries[j].sql, want.entries[j].sql);
      EXPECT_EQ(got.entries[j].stage_reached, want.entries[j].stage_reached);
      EXPECT_EQ(got.entries[j].outcome, want.entries[j].outcome);
    }
  }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

TEST(TraceExport, ChromeFileIsWellFormed) {
  const CampaignResult result =
      RunShardedSoftCampaign("mariadb", SmallCampaign(300, true, false), 2);
  const std::string path = ::testing::TempDir() + "/trace_export_test.json";
  const Status wrote = telemetry::WriteChromeTraceFile(path, result);
  ASSERT_TRUE(wrote.ok()) << wrote.message();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // One X event per span, each with its span_id arg.
  size_t x_events = 0;
  for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++x_events;
  }
  EXPECT_EQ(x_events, result.trace.spans.size());
  EXPECT_NE(json.find("\"span_id\":\"0x"), std::string::npos);
}

TEST(TraceExport, EmptyTraceStillWritesLoadableFile) {
  CampaignResult result;
  result.dialect = "duckdb";
  const std::string path = ::testing::TempDir() + "/trace_export_empty.json";
  const Status wrote = telemetry::WriteChromeTraceFile(path, result);
  ASSERT_TRUE(wrote.ok()) << wrote.message();
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace soft
