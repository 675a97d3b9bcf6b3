// Telemetry determinism contract (docs/OBSERVABILITY.md):
//
//   * every fuzzer's per-pattern counters sum to its campaign totals;
//   * a K-shard merged CampaignTelemetry is bit-identical to summing the
//     run's own shard snapshots in shard index order;
//   * partition-sharded pattern counters match the serial campaign's,
//     `generated` included: the shards share one pool and shard 0 alone
//     counts its census;
//   * recording is observational: disabling telemetry at runtime changes no
//     campaign outcome;
//   * an NDJSON journal replay reconstructs the exact bug set and per-bug
//     first witnesses, tolerates a torn tail, and — through the unit spool
//     (src/soft/unit_spool.h) — resumes to the uninterrupted result.
//
// Run under ThreadSanitizer together with the parallel-runner tests:
// `ctest -R 'Parallel|GoldenPoc|Telemetry'` in a -DSOFT_SANITIZE=thread tree.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/dialects/dialects.h"
#include "src/soft/chaos.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/unit_spool.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/telemetry.h"

namespace soft {
namespace {

using telemetry::CampaignTelemetry;
using telemetry::LatencyHistogram;
using telemetry::PatternCounters;

TEST(LatencyHistogramTest, BucketBoundariesArePowersOfTwoMicroseconds) {
  EXPECT_EQ(LatencyHistogram::BucketFor(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(999), 0u);           // < 1 µs
  EXPECT_EQ(LatencyHistogram::BucketFor(1000), 1u);          // [1, 2) µs
  EXPECT_EQ(LatencyHistogram::BucketFor(1999), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(2000), 2u);          // [2, 4) µs
  EXPECT_EQ(LatencyHistogram::BucketFor(3999), 2u);
  EXPECT_EQ(LatencyHistogram::BucketFor(4000), 3u);          // [4, 8) µs
  EXPECT_EQ(LatencyHistogram::BucketFor(8192 * 1000ull), 14u);
  EXPECT_EQ(LatencyHistogram::BucketFor(16384 * 1000ull), 15u);   // overflow bucket
  EXPECT_EQ(LatencyHistogram::BucketFor(uint64_t{1} << 62), 15u);
  for (size_t bucket = 1; bucket < LatencyHistogram::kBucketCount; ++bucket) {
    const uint64_t lower_us = LatencyHistogram::BucketLowerBoundUs(bucket);
    EXPECT_EQ(LatencyHistogram::BucketFor(lower_us * 1000), bucket);
    EXPECT_EQ(LatencyHistogram::BucketFor(lower_us * 1000 - 1), bucket - 1);
  }
}

TEST(LatencyHistogramTest, RecordAndMergeArePerBucketSums) {
  LatencyHistogram a;
  a.Record(500);      // bucket 0
  a.Record(1500);     // bucket 1
  a.Record(1500);
  EXPECT_EQ(a.samples, 3u);
  EXPECT_EQ(a.total_ns, 3500u);
  EXPECT_EQ(a.max_ns, 1500u);
  EXPECT_EQ(a.buckets[0], 1u);
  EXPECT_EQ(a.buckets[1], 2u);

  LatencyHistogram b;
  b.Record(2500);     // bucket 2
  b.Record(20'000'000);  // 20 ms → overflow bucket

  LatencyHistogram merged = a;
  merged.MergeFrom(b);
  EXPECT_EQ(merged.samples, 5u);
  EXPECT_EQ(merged.total_ns, a.total_ns + b.total_ns);
  EXPECT_EQ(merged.max_ns, 20'000'000u);
  EXPECT_EQ(merged.buckets[0], 1u);
  EXPECT_EQ(merged.buckets[1], 2u);
  EXPECT_EQ(merged.buckets[2], 1u);
  EXPECT_EQ(merged.buckets[15], 1u);
  EXPECT_DOUBLE_EQ(a.MeanUs(), 3500.0 / 3.0 / 1000.0);
}

TEST(CampaignTelemetryTest, MergeSumsStagesAndPatterns) {
  CampaignTelemetry a;
  a.stage_latency[0].Record(1000);
  a.patterns["P1.1"].executed = 10;
  a.patterns["P1.1"].crashes = 1;
  CampaignTelemetry b;
  b.stage_latency[0].Record(3000);
  b.stage_latency[2].Record(500);
  b.patterns["P1.1"].executed = 5;
  b.patterns["P2.2"].generated = 7;

  CampaignTelemetry merged = a;
  merged.MergeFrom(b);
  EXPECT_EQ(merged.stage_latency[0].samples, 2u);
  EXPECT_EQ(merged.stage_latency[2].samples, 1u);
  EXPECT_EQ(merged.patterns.at("P1.1").executed, 15u);
  EXPECT_EQ(merged.patterns.at("P1.1").crashes, 1u);
  EXPECT_EQ(merged.patterns.at("P2.2").generated, 7u);
  EXPECT_FALSE(merged.empty());
  EXPECT_TRUE(CampaignTelemetry{}.empty());
}

// Totals a counter field across every pattern of a snapshot.
uint64_t Total(const CampaignTelemetry& t, uint64_t PatternCounters::*field) {
  uint64_t sum = 0;
  for (const auto& [pattern, counters] : t.patterns) {
    sum += counters.*field;
  }
  return sum;
}

CampaignOptions TestOptions(uint64_t seed, int budget) {
  CampaignOptions options;
  options.seed = seed;
  options.max_statements = budget;
  return options;
}

// The recorder's per-pattern counters must reconcile exactly with the
// campaign result they annotate — same events, counted twice, once per
// view — for every fuzzer: SOFT in crash mode, SOFT in logic mode under a
// statement deadline, and the three baselines.
TEST(TelemetryCampaignTest, CountersReconcileWithCampaignResult) {
  CampaignOptions logic = TestOptions(5, 1500);
  logic.logic_oracles = {"all"};
  logic.statement_limits.deadline_ms = 2;
  struct Campaign {
    std::string label;
    std::unique_ptr<Fuzzer> fuzzer;
    CampaignOptions options;
  };
  std::vector<Campaign> campaigns;
  campaigns.push_back({"SOFT", std::make_unique<SoftFuzzer>(), TestOptions(11, 4000)});
  campaigns.push_back({"SOFT logic", std::make_unique<SoftFuzzer>(), logic});
  campaigns.push_back({"RandSmith", std::make_unique<RandSmith>(), TestOptions(11, 1500)});
  campaigns.push_back({"PqsGen", std::make_unique<PqsGen>(), TestOptions(11, 1500)});
  campaigns.push_back(
      {"MutSquirrel", std::make_unique<MutSquirrel>(), TestOptions(11, 1500)});

  for (const Campaign& campaign : campaigns) {
    SCOPED_TRACE(campaign.label);
    std::unique_ptr<Database> db = MakeDialect("mariadb");
    const CampaignResult result = campaign.fuzzer->Run(*db, campaign.options);
    ASSERT_GT(result.statements_executed, 0);

    const CampaignTelemetry& t = result.telemetry;
    const auto total = [&t](uint64_t PatternCounters::*field) {
      return static_cast<int64_t>(Total(t, field));
    };
    EXPECT_EQ(total(&PatternCounters::executed), result.statements_executed);
    EXPECT_EQ(total(&PatternCounters::crashes), result.crashes_observed);
    EXPECT_EQ(total(&PatternCounters::sql_errors), result.sql_errors);
    EXPECT_EQ(total(&PatternCounters::false_positives), result.false_positives);
    EXPECT_EQ(total(&PatternCounters::timeouts), result.watchdog_timeouts);
    EXPECT_EQ(total(&PatternCounters::logic_checks), result.logic_checks);
    EXPECT_EQ(total(&PatternCounters::logic_bugs),
              result.logic_divergences - result.logic_false_positives);
    EXPECT_EQ(total(&PatternCounters::bugs_deduped),
              static_cast<int64_t>(result.unique_bugs.size()));
    if (!campaign.options.logic_oracles.empty()) {
      EXPECT_GT(result.logic_checks, 0);
      EXPECT_GT(result.logic_divergences, 0);
    }
    // Every executed statement entered the parse stage.
    EXPECT_GE(t.stage_latency[0].samples,
              static_cast<uint64_t>(result.statements_executed));
    // Stage sample counts shrink monotonically along the pipeline.
    EXPECT_GE(t.stage_latency[0].samples, t.stage_latency[1].samples);
    EXPECT_GE(t.stage_latency[1].samples, t.stage_latency[2].samples);
  }
}

// Partition-sharded counters match the serial campaign's. The shards share
// one pool and only shard 0 counts its census, so merged `generated` is the
// pool, not K× it.
TEST(TelemetryCampaignTest, PartitionShardCountersMatchSerialExceptGenerated) {
  const CampaignOptions options = TestOptions(11, 4000);
  const int kShards = 4;
  const CampaignResult serial =
      RunShardedSoftCampaign("mariadb", options, 1);
  const CampaignResult sharded =
      RunShardedSoftCampaign("mariadb", options, kShards);

  ASSERT_FALSE(serial.telemetry.patterns.empty());
  for (const auto& [pattern, counters] : serial.telemetry.patterns) {
    ASSERT_TRUE(sharded.telemetry.patterns.count(pattern)) << pattern;
    const PatternCounters& merged = sharded.telemetry.patterns.at(pattern);
    EXPECT_EQ(merged.executed, counters.executed) << pattern;
    EXPECT_EQ(merged.crashes, counters.crashes) << pattern;
    EXPECT_EQ(merged.sql_errors, counters.sql_errors) << pattern;
    EXPECT_EQ(merged.false_positives, counters.false_positives) << pattern;
    EXPECT_EQ(merged.generated, counters.generated) << pattern;
  }
  // Shard-local dedup can witness one bug in several shards, so the merged
  // first-witness count is bounded below by the global unique-bug count.
  EXPECT_GE(Total(sharded.telemetry, &PatternCounters::bugs_deduped),
            sharded.unique_bugs.size());
}

// Turning recording off at runtime must change no campaign outcome.
TEST(TelemetryCampaignTest, DisablingTelemetryChangesNoCampaignOutcome) {
  const CampaignOptions options = TestOptions(3, 5000);
  const CampaignResult lit =
      RunShardedSoftCampaign("virtuoso", options, 2);
  telemetry::SetRuntimeEnabled(false);
  const CampaignResult dark =
      RunShardedSoftCampaign("virtuoso", options, 2);
  telemetry::SetRuntimeEnabled(true);

  EXPECT_FALSE(lit.telemetry.empty());
  EXPECT_TRUE(dark.telemetry.empty());
  EXPECT_EQ(lit.statements_executed, dark.statements_executed);
  EXPECT_EQ(lit.sql_errors, dark.sql_errors);
  EXPECT_EQ(lit.crashes_observed, dark.crashes_observed);
  EXPECT_EQ(lit.false_positives, dark.false_positives);
  EXPECT_EQ(lit.functions_triggered, dark.functions_triggered);
  EXPECT_EQ(lit.branches_covered, dark.branches_covered);
  EXPECT_EQ(lit.shard_statements, dark.shard_statements);
  ASSERT_EQ(lit.unique_bugs.size(), dark.unique_bugs.size());
  for (size_t i = 0; i < lit.unique_bugs.size(); ++i) {
    EXPECT_EQ(lit.unique_bugs[i].crash.bug_id, dark.unique_bugs[i].crash.bug_id);
    EXPECT_EQ(lit.unique_bugs[i].poc_sql, dark.unique_bugs[i].poc_sql);
    EXPECT_EQ(lit.unique_bugs[i].found_by, dark.unique_bugs[i].found_by);
    EXPECT_EQ(lit.unique_bugs[i].statements_until_found,
              dark.unique_bugs[i].statements_until_found);
    EXPECT_EQ(lit.unique_bugs[i].shard, dark.unique_bugs[i].shard);
  }
}

// The merged snapshot is the shard-index-ordered sum of the shards' own
// snapshots — bit-identical, over one set of shard results (histogram
// contents vary across runs with wall time; the merge must not).
TEST(TelemetryMergeTest, MergedTelemetryIsShardIndexOrderedSum) {
  std::vector<ShardResult> outcomes;
  CampaignTelemetry summed;
  for (const ShardPlan& plan : PlanShards(TestOptions(7, 3000), 4)) {
    outcomes.push_back(ExecuteShardPlan([] { return std::make_unique<SoftFuzzer>(); },
                                        [] { return MakeDialect("postgresql"); }, plan));
    summed.MergeFrom(outcomes.back().result.telemetry);
  }
  EXPECT_EQ(MergeShardResults(std::move(outcomes)).telemetry, summed);
}

// Journal round trip: replaying the NDJSON stream reconstructs the exact bug
// set, per-bug first witnesses, and campaign totals.
TEST(TelemetryJournalTest, ReplayReconstructsExactBugSet) {
  const CampaignOptions options = TestOptions(5, 6000);
  const CampaignResult result = RunShardedSoftCampaign("mariadb", options, 3);
  ASSERT_FALSE(result.unique_bugs.empty());

  std::stringstream stream;
  telemetry::WriteCampaignJournal(stream, options, result, 123456789);
  const Result<telemetry::JournalReplay> replayed =
      telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();

  EXPECT_EQ(replayed->tool, result.tool);
  EXPECT_EQ(replayed->dialect, result.dialect);
  EXPECT_EQ(replayed->seed, options.seed);
  EXPECT_EQ(replayed->budget, options.max_statements);
  EXPECT_EQ(replayed->shards, result.shards);
  EXPECT_EQ(replayed->shard_statements, result.shard_statements);
  EXPECT_EQ(replayed->statements_executed, result.statements_executed);
  EXPECT_EQ(replayed->functions_triggered, result.functions_triggered);
  EXPECT_EQ(replayed->branches_covered, result.branches_covered);
  EXPECT_TRUE(replayed->finished);
  EXPECT_DOUBLE_EQ(replayed->wall_ms, 123.457);  // %.3f of 123456789 ns

  std::set<int> expected_ids;
  ASSERT_EQ(replayed->witnesses.size(), result.unique_bugs.size());
  for (size_t i = 0; i < result.unique_bugs.size(); ++i) {
    const FoundBug& bug = result.unique_bugs[i];
    const telemetry::JournalWitness& witness = replayed->witnesses[i];
    EXPECT_EQ(witness.bug_id, bug.crash.bug_id);
    EXPECT_EQ(witness.pattern, bug.found_by);
    EXPECT_EQ(witness.statement_index, bug.statements_until_found);
    EXPECT_EQ(witness.shard, bug.shard);
    expected_ids.insert(bug.crash.bug_id);
  }
  EXPECT_EQ(replayed->BugIds(), expected_ids);
}

// wall_ms alone is ambiguous: 0 can mean "telemetry was off" or "sub-
// millisecond hit". The recorded flag disambiguates and must survive the
// round trip for both values.
TEST(TelemetryJournalTest, WitnessRecordedFlagRoundTrips) {
  CampaignResult result;
  result.tool = "SOFT";
  result.dialect = "duckdb";
  result.statements_executed = 10;
  result.shards = 1;
  result.shard_statements = {10};

  FoundBug instant;  // genuine sub-millisecond witness: wall 0 but recorded
  instant.crash.bug_id = 1;
  instant.found_by = "P1.1";
  instant.statements_until_found = 3;
  instant.found_wall_ns = 0;
  instant.wall_recorded = true;
  FoundBug dark;  // telemetry off: wall 0 and NOT recorded
  dark.crash.bug_id = 2;
  dark.found_by = "P2.1";
  dark.statements_until_found = 7;
  dark.found_wall_ns = 0;
  dark.wall_recorded = false;
  result.unique_bugs = {instant, dark};

  std::stringstream stream;
  telemetry::WriteCampaignJournal(stream, CampaignOptions(), result, 0);
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ASSERT_EQ(replayed->witnesses.size(), 2u);
  EXPECT_DOUBLE_EQ(replayed->witnesses[0].wall_ms, 0.0);
  EXPECT_TRUE(replayed->witnesses[0].recorded);
  EXPECT_DOUBLE_EQ(replayed->witnesses[1].wall_ms, 0.0);
  EXPECT_FALSE(replayed->witnesses[1].recorded);
}

// Journals written before the recorded flag existed replay with the old
// inference: nonzero wall_ms means recorded.
TEST(TelemetryJournalTest, LegacyWitnessLinesInferRecordedFromWallMs) {
  std::stringstream legacy(
      "{\"event\":\"campaign_start\",\"tool\":\"SOFT\",\"dialect\":\"duckdb\","
      "\"seed\":1,\"budget\":10,\"shards\":1}\n"
      "{\"event\":\"first_witness\",\"bug_id\":1,\"pattern\":\"P1.1\","
      "\"statement_index\":3,\"shard\":0,\"wall_ms\":1.500}\n"
      "{\"event\":\"first_witness\",\"bug_id\":2,\"pattern\":\"P2.1\","
      "\"statement_index\":7,\"shard\":0,\"wall_ms\":0.000}\n");
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(legacy);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ASSERT_EQ(replayed->witnesses.size(), 2u);
  EXPECT_TRUE(replayed->witnesses[0].recorded);
  EXPECT_FALSE(replayed->witnesses[1].recorded);
}

TEST(TelemetryJournalTest, ReplayRejectsMalformedStreams) {
  {
    std::stringstream empty;
    EXPECT_FALSE(telemetry::ReplayJournal(empty).ok());
  }
  {
    std::stringstream unknown(
        "{\"event\":\"campaign_start\",\"tool\":\"t\",\"dialect\":\"d\","
        "\"seed\":1,\"budget\":10,\"shards\":1}\n"
        "{\"event\":\"warp_drive\"}\n");
    EXPECT_FALSE(telemetry::ReplayJournal(unknown).ok());
  }
  {
    std::stringstream no_event("{\"foo\":1}\n");
    EXPECT_FALSE(telemetry::ReplayJournal(no_event).ok());
  }
  {
    std::stringstream missing_field(
        "{\"event\":\"campaign_start\",\"tool\":\"t\"}\n");
    EXPECT_FALSE(telemetry::ReplayJournal(missing_field).ok());
  }
}

telemetry::JournalLeaseEvent TestLease(int unit) {
  telemetry::JournalLeaseEvent event;
  event.action = "complete";
  event.unit = unit;
  event.cases = 10 * unit;
  event.unit_digest = 0xABCDull + static_cast<uint64_t>(unit);
  return event;
}

void ExpectSameLease(const telemetry::JournalLeaseEvent& got,
                     const telemetry::JournalLeaseEvent& want) {
  EXPECT_EQ(got.action, want.action);
  EXPECT_EQ(got.unit, want.unit);
  EXPECT_EQ(got.cases, want.cases);
  EXPECT_EQ(got.unit_digest, want.unit_digest);
}

TEST(TelemetryJournalTest, CampaignFinishCarriesJournalDegraded) {
  const CampaignOptions options = TestOptions(5, 3000);
  CampaignResult result = RunShardedSoftCampaign("mariadb", options, 1);
  result.journal_degraded = true;

  std::stringstream stream;
  telemetry::WriteCampaignJournal(stream, options, result, 0);
  EXPECT_NE(stream.str().find("\"journal_degraded\":1"), std::string::npos);
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_TRUE(replayed->journal_degraded);
}

TEST(TelemetryJournalTest, TornTailIsDroppedNotFatal) {
  const CampaignOptions options = TestOptions(1, 100);
  std::stringstream stream;
  telemetry::WriteCampaignStart(stream, options, "SOFT", "mariadb", 2);
  telemetry::WriteLeaseEvent(stream, TestLease(1));
  telemetry::WriteLeaseEvent(stream, TestLease(2));
  const std::string full = stream.str();
  ASSERT_EQ(full.back(), '\n');

  // Kill -9 mid-write of the second record: it loses its tail.
  std::stringstream torn(full.substr(0, full.size() - 7));
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(torn);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_TRUE(replayed->torn_tail);
  EXPECT_FALSE(replayed->finished);
  ASSERT_EQ(replayed->lease_events.size(), 1u);
  ExpectSameLease(replayed->lease_events[0], TestLease(1));

  // A '\n'-terminated but unparseable line is still a hard error — the
  // torn-tail tolerance applies only to the final unterminated record.
  std::stringstream corrupt(full + "{\"event\":\"lease\"\n");
  EXPECT_FALSE(telemetry::ReplayJournal(corrupt).ok());
}

TEST(TelemetryJournalTest, TruncationAtEveryByteOffsetReplaysIntactPrefix) {
  const CampaignOptions options = TestOptions(1, 100);
  std::stringstream stream;
  telemetry::WriteCampaignStart(stream, options, "SOFT", "mariadb", 3);
  std::vector<telemetry::JournalLeaseEvent> written;
  for (int i = 1; i <= 3; ++i) {
    written.push_back(TestLease(i));
    telemetry::WriteLeaseEvent(stream, written.back());
  }
  const std::string full = stream.str();

  std::vector<size_t> line_ends;  // offset one past each '\n'
  for (size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n') {
      line_ends.push_back(i + 1);
    }
  }
  ASSERT_EQ(line_ends.size(), 4u);

  for (size_t len = 0; len <= full.size(); ++len) {
    std::stringstream in(full.substr(0, len));
    const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(in);
    if (len < line_ends.front()) {
      // campaign_start itself is torn away: nothing to replay from.
      EXPECT_FALSE(replayed.ok()) << "offset " << len;
      continue;
    }
    ASSERT_TRUE(replayed.ok()) << "offset " << len << ": "
                               << replayed.status().message();
    size_t complete_lines = 0;
    for (const size_t end : line_ends) {
      complete_lines += end <= len ? 1 : 0;
    }
    // Exactly the fully-written records survive, in order.
    ASSERT_EQ(replayed->lease_events.size(), complete_lines - 1) << "offset " << len;
    for (size_t i = 0; i < replayed->lease_events.size(); ++i) {
      ExpectSameLease(replayed->lease_events[i], written[i]);
    }
    EXPECT_EQ(replayed->torn_tail, full[len - 1] != '\n') << "offset " << len;
    EXPECT_FALSE(replayed->finished);
  }
}

TEST(TelemetryJournalTest, ReplayAcceptsChaosMarker) {
  const CampaignOptions options = TestOptions(1, 100);
  std::stringstream stream;
  telemetry::WriteCampaignStart(stream, options, "SOFT", "mariadb", 1);
  telemetry::WriteChaosMarker(stream, "io.write=error,eval.enter=after:50");
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ASSERT_EQ(replayed->chaos_specs.size(), 1u);
  EXPECT_EQ(replayed->chaos_specs[0], "io.write=error,eval.enter=after:50");
}

TEST(TelemetryJournalTest, ResumeFromTornJournalMatchesUninterruptedRun) {
  const std::string journal_path =
      "torn_resume_" + std::to_string(::getpid()) + ".ndjson";
  const Result<SpooledRun> uninterrupted =
      RunSpooledSoftCampaign(journal_path, "mariadb", TestOptions(7, 4000), 3);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().message();
  std::string full;
  {
    std::ifstream in(journal_path);
    full.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  // The producer dies mid-record after two of its three units committed:
  // keep the intact prefix through the second `complete` record plus a torn
  // half of the next line.
  size_t cut = 0;
  for (int i = 0; i < 2; ++i) {
    cut = full.find('\n', full.find("\"action\":\"complete\"", cut)) + 1;
  }
  const size_t next_end = full.find('\n', cut);
  {
    std::ofstream out(journal_path, std::ios::trunc);
    out << full.substr(0, cut + (next_end - cut) / 2);
  }

  const Result<UnitResume> resume = LoadUnitResume(journal_path);
  ASSERT_TRUE(resume.ok()) << resume.status().message();
  EXPECT_FALSE(resume->finished);
  EXPECT_EQ(resume->completed.size(), 2u);
  const Result<SpooledRun> resumed =
      ResumeSpooledSoftCampaign(journal_path, *resume, CampaignOptions());
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->units_resumed, 2);
  EXPECT_EQ(DigestCampaignResult(resumed->result),
            DigestCampaignResult(uninterrupted->result));

  // The torn record was dropped before the resume appended: the continued
  // journal replays cleanly to a finished campaign.
  const Result<telemetry::JournalReplay> replayed =
      telemetry::ReplayJournalFile(journal_path);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_TRUE(replayed->finished);
  EXPECT_FALSE(replayed->torn_tail);
  EXPECT_EQ(replayed->resume_markers, 1);
  std::remove(journal_path.c_str());
  std::filesystem::remove_all(SpoolDirFor(journal_path));
}

TEST(TelemetryJournalTest, CampaignStartRecordsEveryOutcomeKnob) {
  CampaignOptions options = TestOptions(9, 1200);
  options.stop_when_all_bugs_found = true;
  options.statement_limits.deadline_ms = 250;
  options.logic_oracles = {"eet", "tlp"};
  const std::string journal_path =
      "knobs_" + std::to_string(::getpid()) + ".ndjson";
  {
    std::ofstream out(journal_path, std::ios::trunc);
    telemetry::WriteCampaignStart(out, options, "SOFT", "duckdb", 3);
  }
  const Result<UnitResume> resume = LoadUnitResume(journal_path);
  std::remove(journal_path.c_str());
  ASSERT_TRUE(resume.ok()) << resume.status().message();
  EXPECT_EQ(resume->dialect, "duckdb");
  EXPECT_EQ(resume->units, 3);
  EXPECT_TRUE(CheckResumeMatches(*resume, "duckdb", options, 3).ok());

  // Any knob off is a different campaign.
  CampaignOptions other = options;
  other.statement_limits.deadline_ms = 0;
  const Status mismatch = CheckResumeMatches(*resume, "duckdb", other, 3);
  EXPECT_NE(mismatch.message().find("does not match"), std::string::npos);
  EXPECT_FALSE(CheckResumeMatches(*resume, "duckdb", options, 4).ok());
}

TEST(TelemetryJournalTest, PreSpoolJournalReplaysButResumeRefusesIt) {
  // A journal written before campaign_start carried every outcome knob,
  // with one of its statement checkpoints.
  const std::string legacy =
      "{\"event\":\"campaign_start\",\"tool\":\"SOFT\",\"dialect\":\"duckdb\","
      "\"seed\":5,\"budget\":600,\"shards\":1}\n"
      "{\"event\":\"checkpoint\",\"every\":100,\"shard\":0,\"cases_completed\":100,"
      "\"sql_errors\":3,\"crashes_observed\":0,\"false_positives\":0,"
      "\"watchdog_timeouts\":0,\"unique_bugs\":0,\"rng_fingerprint\":1,"
      "\"dedup_digest\":2}\n";
  std::stringstream stream(legacy);
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_EQ(replayed->missing_knobs,
            (std::vector<std::string>{"stop_when_all_bugs_found", "deadline_ms",
                                      "oracles"}));

  const std::string journal_path =
      "legacy_" + std::to_string(::getpid()) + ".ndjson";
  {
    std::ofstream out(journal_path, std::ios::trunc);
    out << legacy;
  }
  const Result<UnitResume> resume = LoadUnitResume(journal_path);
  std::remove(journal_path.c_str());
  ASSERT_FALSE(resume.ok());
  for (const char* field : {"stop_when_all_bugs_found", "deadline_ms", "oracles"}) {
    EXPECT_NE(resume.status().message().find(field), std::string::npos)
        << resume.status().message();
  }
}

TEST(TelemetryJournalTest, ToJsonCarriesStagesAndPatterns) {
  CampaignTelemetry t;
  t.stage_latency[0].Record(1000);
  t.patterns["P1.1"].executed = 3;
  const std::string json = t.ToJson();
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"optimize\""), std::string::npos);
  EXPECT_NE(json.find("\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"P1.1\""), std::string::npos);
  EXPECT_NE(json.find("\"executed\":3"), std::string::npos);
}

TEST(TelemetryJournalTest, ToJsonCarriesLogicOracleCounters) {
  CampaignTelemetry t;
  t.patterns["logic-seed"].logic_checks = 5;
  t.patterns["logic-seed"].logic_bugs = 2;
  const std::string json = t.ToJson();
  EXPECT_NE(json.find("\"logic_checks\":5"), std::string::npos);
  EXPECT_NE(json.find("\"logic_bugs\":2"), std::string::npos);
}

// A logic (--oracle) campaign's journal replays to the exact wrong-result
// bug set with attribution, alongside the crash-bug witness stream.
TEST(TelemetryJournalTest, LogicBugEventsReplayToExactBugSet) {
  CampaignOptions options = TestOptions(5, 400);
  options.stop_when_all_bugs_found = false;
  options.logic_oracles = {"all"};
  const CampaignResult result = RunShardedSoftCampaign("mysql", options, 1);
  ASSERT_FALSE(result.logic_bugs.empty());

  std::stringstream stream;
  telemetry::WriteCampaignJournal(stream, options, result, 0);
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();

  ASSERT_EQ(replayed->logic_bugs.size(), result.logic_bugs.size());
  std::set<int> expected_ids;
  for (size_t i = 0; i < result.logic_bugs.size(); ++i) {
    const FoundLogicBug& bug = result.logic_bugs[i];
    const telemetry::JournalLogicBug& event = replayed->logic_bugs[i];
    EXPECT_EQ(event.bug_id, bug.info.bug_id);
    EXPECT_EQ(event.oracle, bug.oracle);
    EXPECT_EQ(event.function, bug.info.function);
    EXPECT_EQ(event.effect, LogicEffectName(bug.info.effect));
    EXPECT_EQ(event.scope, LogicScopeName(bug.info.scope));
    EXPECT_EQ(event.case_index, bug.case_index);
    EXPECT_EQ(event.statement_index, bug.statements_until_found);
    EXPECT_EQ(event.shard, bug.shard);
    EXPECT_EQ(event.poc, bug.poc_sql);
    EXPECT_EQ(event.witness, bug.witness);
    expected_ids.insert(bug.info.bug_id);
  }
  EXPECT_EQ(replayed->LogicBugIds(), expected_ids);
  EXPECT_EQ(replayed->logic_checks, result.logic_checks);
  EXPECT_EQ(replayed->logic_divergences, result.logic_divergences);
  EXPECT_EQ(replayed->logic_false_positives, result.logic_false_positives);
}

// Tearing the final record (the campaign_finish line) must not lose the
// logic_bug events written before it.
TEST(TelemetryJournalTest, LogicBugEventsSurviveTornTail) {
  CampaignResult result;
  result.tool = "SOFT";
  result.dialect = "duckdb";
  result.statements_executed = 9;
  result.shards = 1;
  result.shard_statements = {9};
  result.logic_checks = 4;
  result.logic_divergences = 1;
  FoundLogicBug bug;
  bug.info.bug_id = 501;
  bug.info.function = "LENGTH";
  bug.oracle = "eet";
  bug.poc_sql = "SELECT LENGTH('abc')";
  bug.witness = "SELECT COALESCE(LENGTH('abc'), LENGTH('abc'))";
  bug.case_index = 2;
  result.logic_bugs.push_back(bug);

  std::stringstream intact;
  telemetry::WriteCampaignJournal(intact, CampaignOptions(), result, 0);
  const std::string full = intact.str();
  std::stringstream torn(full.substr(0, full.size() - 7));
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(torn);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_TRUE(replayed->torn_tail);
  EXPECT_FALSE(replayed->finished);
  ASSERT_EQ(replayed->logic_bugs.size(), 1u);
  EXPECT_EQ(replayed->logic_bugs[0].bug_id, 501);
  EXPECT_EQ(replayed->logic_bugs[0].oracle, "eet");
  EXPECT_EQ(replayed->logic_bugs[0].case_index, 2);
}

TEST(TelemetryJournalTest, ReplayRejectsMalformedLogicBug) {
  std::stringstream missing_oracle(
      "{\"event\":\"campaign_start\",\"tool\":\"SOFT\",\"dialect\":\"duckdb\","
      "\"seed\":1,\"budget\":10,\"shards\":1}\n"
      "{\"event\":\"logic_bug\",\"bug_id\":501,\"function\":\"LENGTH\","
      "\"effect\":\"truncate\",\"scope\":\"top_level_call\",\"case_index\":0,"
      "\"statement_index\":1,\"shard\":0,\"poc\":\"SELECT 1\",\"witness\":\"w\"}\n");
  EXPECT_FALSE(telemetry::ReplayJournal(missing_oracle).ok());
}

// Journals written before the logic oracles existed replay with zeroed
// logic counters and no logic_bug events.
TEST(TelemetryJournalTest, LegacyFinishLinesReplayWithZeroLogicCounters) {
  std::stringstream legacy(
      "{\"event\":\"campaign_start\",\"tool\":\"SOFT\",\"dialect\":\"duckdb\","
      "\"seed\":1,\"budget\":10,\"shards\":1}\n"
      "{\"event\":\"campaign_finish\",\"statements\":10,\"sql_errors\":2,"
      "\"crashes_observed\":0,\"false_positives\":0,\"unique_bugs\":0,"
      "\"functions_triggered\":3,\"branches_covered\":4,\"wall_ms\":1.000}\n");
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(legacy);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_TRUE(replayed->finished);
  EXPECT_TRUE(replayed->logic_bugs.empty());
  EXPECT_EQ(replayed->logic_checks, 0);
  EXPECT_EQ(replayed->logic_divergences, 0);
  EXPECT_EQ(replayed->logic_false_positives, 0);
}

}  // namespace
}  // namespace soft
