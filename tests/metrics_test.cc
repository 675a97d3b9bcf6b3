// Unified metrics registry, campaign-health doctor, and the new journal
// events (docs/OBSERVABILITY.md, "Metrics" / "Doctor"): registry semantics
// (counters sum, gauges overwrite, histograms merge, kinds pin), Prometheus
// exposition invariants (cumulative buckets, le="+Inf" == _count, derived
// quantile gauges, deterministic order), LatencyHistogram quantile
// interpolation, fake-clock doctor SLO walks, and health/metrics_snapshot
// journal round-trips including truncation at every byte offset.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/fleet/doctor.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace soft {
namespace telemetry {
namespace {

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersSumGaugesOverwriteHistogramsMerge) {
  MetricsRegistry reg;
  reg.Counter("soft_x_total", "x", {{"k", "a"}}, 3);
  reg.Counter("soft_x_total", "x", {{"k", "a"}}, 4);
  reg.Counter("soft_x_total", "x", {{"k", "b"}}, 1);
  EXPECT_EQ(reg.CounterValue("soft_x_total", {{"k", "a"}}), 7u);
  EXPECT_EQ(reg.CounterValue("soft_x_total", {{"k", "b"}}), 1u);

  reg.Gauge("soft_g", "g", {}, 1.5);
  reg.Gauge("soft_g", "g", {}, 2.5);
  EXPECT_EQ(reg.GaugeValue("soft_g", {}), 2.5);

  LatencyHistogram h1, h2;
  h1.Record(1500);   // 1.5 µs
  h2.Record(3000);   // 3 µs
  reg.Histogram("soft_h_us", "h", {}, h1);
  reg.Histogram("soft_h_us", "h", {}, h2);
  const LatencyHistogram* merged = reg.HistogramValue("soft_h_us", {});
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->samples, 2u);
  EXPECT_EQ(merged->total_ns, 4500u);

  EXPECT_EQ(reg.family_count(), 3u);
  EXPECT_EQ(reg.series_count(), 4u);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  reg.Counter("soft_x_total", "x", {{"a", "1"}, {"b", "2"}}, 1);
  reg.Counter("soft_x_total", "x", {{"b", "2"}, {"a", "1"}}, 1);
  EXPECT_EQ(reg.series_count(), 1u);
  EXPECT_EQ(reg.CounterValue("soft_x_total", {{"a", "1"}, {"b", "2"}}), 2u);
  EXPECT_EQ(SerializeMetricLabels({{"b", "2"}, {"a", "1"}}),
            "{a=\"1\",b=\"2\"}");
}

TEST(MetricsRegistry, FirstRegistrationPinsTheKind) {
  MetricsRegistry reg;
  reg.Counter("soft_x_total", "x", {}, 5);
  reg.Gauge("soft_x_total", "x", {}, 9.0);  // dropped: kind mismatch
  EXPECT_EQ(reg.CounterValue("soft_x_total", {}), 5u);
  EXPECT_EQ(reg.GaugeValue("soft_x_total", {}), std::nullopt);
  EXPECT_EQ(reg.family_count(), 1u);
}

TEST(MetricsRegistry, LabelValuesAreEscapedInSerializedBlocks) {
  EXPECT_EQ(SerializeMetricLabels({{"k", "a\"b\\c\nd"}}),
            "{k=\"a\\\"b\\\\c\\nd\"}");
  EXPECT_EQ(SerializeMetricLabels({}), "");
}

TEST(MetricsRegistry, MergeFromSumsCountersAndMergesHistograms) {
  MetricsRegistry a, b;
  a.Counter("soft_x_total", "x", {{"s", "0"}}, 2);
  b.Counter("soft_x_total", "x", {{"s", "0"}}, 3);
  b.Counter("soft_x_total", "x", {{"s", "1"}}, 7);
  b.Gauge("soft_g", "g", {}, 4.0);
  LatencyHistogram h;
  h.Record(2000);
  b.Histogram("soft_h_us", "h", {}, h);

  a.MergeFrom(b);
  EXPECT_EQ(a.CounterValue("soft_x_total", {{"s", "0"}}), 5u);
  EXPECT_EQ(a.CounterValue("soft_x_total", {{"s", "1"}}), 7u);
  EXPECT_EQ(a.GaugeValue("soft_g", {}), 4.0);
  ASSERT_NE(a.HistogramValue("soft_h_us", {}), nullptr);
  EXPECT_EQ(a.HistogramValue("soft_h_us", {})->samples, 1u);

  // Shard-ordered merging is canonical: merging the same parts in the same
  // order twice renders byte-identical text.
  MetricsRegistry c;
  c.MergeFrom(b);
  c.Counter("soft_x_total", "x", {{"s", "0"}}, 2);
  EXPECT_EQ(a.RenderPrometheusText(), c.RenderPrometheusText());
}

// ---------------------------------------------------------------------------
// Prometheus exposition invariants
// ---------------------------------------------------------------------------

TEST(MetricsRender, EmitsHelpTypeAndSeriesInDeterministicOrder) {
  MetricsRegistry reg;
  reg.Counter("soft_b_total", "second", {{"k", "v"}}, 2);
  reg.Counter("soft_a_total", "first", {}, 1);
  const std::string text = reg.RenderPrometheusText();
  const std::string expected =
      "# HELP soft_a_total first\n"
      "# TYPE soft_a_total counter\n"
      "soft_a_total 1\n"
      "# HELP soft_b_total second\n"
      "# TYPE soft_b_total counter\n"
      "soft_b_total{k=\"v\"} 2\n";
  EXPECT_EQ(text, expected);
}

TEST(MetricsRender, HistogramBucketsAreCumulativeWithInfEqualToCount) {
  MetricsRegistry reg;
  LatencyHistogram h;
  h.Record(500);        // bucket 0 (sub-µs)
  h.Record(3'000);      // 3 µs
  h.Record(3'500);      // 3.5 µs
  h.Record(40'000'000); // 40 ms — the open-ended top bucket
  reg.Histogram("soft_h_us", "h", {{"stage", "parse"}}, h);
  const std::string text = reg.RenderPrometheusText();

  // Cumulative counts at the µs bounds: le="1" sees the sub-µs sample,
  // le="4" adds both 3-µs-ish samples, le="16384" still excludes the 40 ms
  // outlier, which only the +Inf bucket covers.
  EXPECT_NE(text.find("soft_h_us_bucket{stage=\"parse\",le=\"1\"} 1\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("soft_h_us_bucket{stage=\"parse\",le=\"4\"} 3\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("soft_h_us_bucket{stage=\"parse\",le=\"16384\"} 3\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("soft_h_us_bucket{stage=\"parse\",le=\"+Inf\"} 4\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("soft_h_us_count{stage=\"parse\"} 4\n"),
            std::string::npos) << text;
  // _sum is µs: (500 + 3000 + 3500 + 40000000) ns / 1000.
  EXPECT_NE(text.find("soft_h_us_sum{stage=\"parse\"} 40007\n"),
            std::string::npos) << text;
  // Derived quantile gauges ride along as a sibling family.
  EXPECT_NE(text.find("# TYPE soft_h_us_quantile gauge\n"), std::string::npos);
  EXPECT_NE(text.find("soft_h_us_quantile{stage=\"parse\",quantile=\"0.5\"}"),
            std::string::npos) << text;
}

TEST(MetricsRender, EmptyHistogramRendersNoQuantileFamily) {
  MetricsRegistry reg;
  reg.Histogram("soft_h_us", "h", {}, LatencyHistogram{});
  const std::string text = reg.RenderPrometheusText();
  EXPECT_NE(text.find("soft_h_us_count 0\n"), std::string::npos);
  EXPECT_EQ(text.find("_quantile"), std::string::npos);
}

// ---------------------------------------------------------------------------
// LatencyHistogram quantiles
// ---------------------------------------------------------------------------

TEST(MetricsQuantile, EmptyHistogramIsZeroEverywhere) {
  LatencyHistogram h;
  EXPECT_EQ(h.QuantileUs(0.5), 0.0);
  EXPECT_EQ(h.QuantileUs(0.99), 0.0);
}

TEST(MetricsQuantile, InterpolatesInsideThePowerOfTwoBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(3'000);  // all 100 samples in bucket [2 µs, 4 µs)
  }
  // Every quantile lands inside the one occupied bucket.
  EXPECT_GE(h.QuantileUs(0.5), 2.0);
  EXPECT_LE(h.QuantileUs(0.5), 4.0);
  // The interpolation is linear in rank: the median of a single bucket sits
  // at its midpoint.
  EXPECT_DOUBLE_EQ(h.QuantileUs(0.5), 3.0);
  EXPECT_LT(h.QuantileUs(0.25), h.QuantileUs(0.75));
}

TEST(MetricsQuantile, TopBucketInterpolatesTowardTheObservedMax) {
  LatencyHistogram h;
  h.Record(1'000);           // 1 µs
  h.Record(50'000'000);      // 50 ms — open-ended top bucket
  // p100 can never exceed the observed maximum.
  EXPECT_DOUBLE_EQ(h.QuantileUs(1.0), 50'000.0);
  EXPECT_LE(h.QuantileUs(0.99), 50'000.0);
  // Quantiles are monotone in q.
  double previous = 0.0;
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double value = h.QuantileUs(q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

TEST(MetricsBuilders, TelemetryCountersBecomeLabeledSeries) {
  CampaignTelemetry telemetry;
  telemetry.patterns["P1.1"].executed = 10;
  telemetry.patterns["P1.1"].bugs_deduped = 2;
  telemetry.patterns["P2.3"].executed = 5;
  telemetry.patterns["P2.3"].logic_checks = 4;
  telemetry.stage_latency[0].Record(2'000);

  MetricsRegistry reg;
  AddTelemetryMetrics(reg, telemetry);
  EXPECT_EQ(reg.CounterValue("soft_pattern_executed_total",
                             {{"pattern", "P1.1"}}), 10u);
  EXPECT_EQ(reg.CounterValue("soft_pattern_bugs_deduped_total",
                             {{"pattern", "P1.1"}}), 2u);
  EXPECT_EQ(reg.CounterValue("soft_oracle_logic_checks_total",
                             {{"pattern", "P2.3"}}), 4u);
  const LatencyHistogram* parse =
      reg.HistogramValue("soft_stage_latency_us", {{"stage", "parse"}});
  ASSERT_NE(parse, nullptr);
  EXPECT_EQ(parse->samples, 1u);

  // Merging two shards' registries equals building from merged telemetry.
  MetricsRegistry shard_a, shard_b, direct;
  AddTelemetryMetrics(shard_a, telemetry);
  AddTelemetryMetrics(shard_b, telemetry);
  shard_a.MergeFrom(shard_b);
  CampaignTelemetry doubled = telemetry;
  doubled.MergeFrom(telemetry);
  AddTelemetryMetrics(direct, doubled);
  EXPECT_EQ(shard_a.RenderPrometheusText(), direct.RenderPrometheusText());
}

TEST(MetricsBuilders, FailpointGaugeReflectsCompileState) {
  MetricsRegistry reg;
  AddFailpointMetrics(reg);
  const auto compiled = reg.GaugeValue("soft_failpoints_compiled", {});
  ASSERT_TRUE(compiled.has_value());
  EXPECT_TRUE(*compiled == 0.0 || *compiled == 1.0);
}

// ---------------------------------------------------------------------------
// Campaign-health doctor (fake clock)
// ---------------------------------------------------------------------------

constexpr uint64_t kSecond = 1'000'000'000ull;

fleet::HealthSample Sample(uint64_t now_ns, uint64_t statements,
                           uint64_t units) {
  fleet::HealthSample sample;
  sample.now_ns = now_ns;
  sample.statements = statements;
  sample.units_completed = units;
  return sample;
}

TEST(MetricsDoctor, StaysOkWhileUnitsKeepCompleting) {
  fleet::DoctorOptions options;
  fleet::HealthDoctor doctor(options, /*lease_ns=*/kSecond, /*start_ns=*/0);
  for (uint64_t t = 1; t <= 10; ++t) {
    const fleet::HealthVerdict verdict =
        doctor.Observe(Sample(t * kSecond / 2, t * 100, t));
    EXPECT_EQ(verdict.state, fleet::HealthState::kOk) << "t=" << t;
    EXPECT_FALSE(verdict.changed) << "t=" << t;
  }
  EXPECT_GT(doctor.rates().statements_per_s, 0.0);
  EXPECT_GT(doctor.rates().units_per_s, 0.0);
}

TEST(MetricsDoctor, StallsAfterLeasePeriodsWithoutCompletionThenRecovers) {
  fleet::DoctorOptions options;
  options.stall_lease_periods = 3;
  fleet::HealthDoctor doctor(options, kSecond, /*start_ns=*/0);

  // 2.9 lease periods of silence: still ok.
  EXPECT_EQ(doctor.Observe(Sample(29 * kSecond / 10, 100, 0)).state,
            fleet::HealthState::kOk);
  // Crossing 3 lease periods with no completion: stall, flagged as a change.
  const fleet::HealthVerdict stalled =
      doctor.Observe(Sample(3 * kSecond, 100, 0));
  EXPECT_EQ(stalled.state, fleet::HealthState::kStall);
  EXPECT_TRUE(stalled.changed);
  EXPECT_NE(stalled.reason.find("lease periods"), std::string::npos);
  // Still stalled one sample later — but no longer a transition.
  EXPECT_FALSE(doctor.Observe(Sample(4 * kSecond, 100, 0)).changed);
  // A unit completion resets the no-completion timer: back to ok.
  const fleet::HealthVerdict recovered =
      doctor.Observe(Sample(5 * kSecond, 300, 1));
  EXPECT_EQ(recovered.state, fleet::HealthState::kOk);
  EXPECT_TRUE(recovered.changed);
}

TEST(MetricsDoctor, FinishedCampaignNeverStalls) {
  fleet::DoctorOptions options;
  options.stall_lease_periods = 1;
  fleet::HealthDoctor doctor(options, kSecond, 0);
  fleet::HealthSample done = Sample(100 * kSecond, 1000, 4);
  done.all_done = true;
  EXPECT_EQ(doctor.Observe(done).state, fleet::HealthState::kOk);
}

TEST(MetricsDoctor, WarnsOnJournalDegradedAndReclaimSpike) {
  fleet::DoctorOptions options;
  options.reclaim_spike = 3;
  fleet::HealthDoctor doctor(options, /*lease_ns=*/100 * kSecond, 0);

  fleet::HealthSample degraded = Sample(kSecond, 100, 1);
  degraded.journal_degraded = true;
  const fleet::HealthVerdict warned = doctor.Observe(degraded);
  EXPECT_EQ(warned.state, fleet::HealthState::kWarn);
  EXPECT_EQ(warned.reason, "journal degraded");

  fleet::HealthSample reclaims = Sample(2 * kSecond, 200, 2);
  reclaims.reclaims = 3;  // 3 reclaims inside one window
  const fleet::HealthVerdict spiked = doctor.Observe(reclaims);
  EXPECT_EQ(spiked.state, fleet::HealthState::kWarn);
  EXPECT_NE(spiked.reason.find("reclaim spike"), std::string::npos);
}

TEST(MetricsDoctor, WarnsOnThroughputCollapseAgainstTheRollingPeak) {
  fleet::DoctorOptions options;
  options.window_ns = 2 * kSecond;
  options.collapse_fraction = 0.25;
  fleet::HealthDoctor doctor(options, /*lease_ns=*/100 * kSecond, 0);

  // Establish a ~1000 statements/s peak.
  doctor.Observe(Sample(1 * kSecond, 1000, 1));
  doctor.Observe(Sample(2 * kSecond, 2000, 2));
  EXPECT_EQ(doctor.state(), fleet::HealthState::kOk);
  // The window slides past the productive samples; throughput craters to
  // ~5 statements/s — far below a quarter of the peak.
  doctor.Observe(Sample(4 * kSecond, 2010, 3));
  const fleet::HealthVerdict collapsed =
      doctor.Observe(Sample(6 * kSecond, 2020, 4));
  EXPECT_EQ(collapsed.state, fleet::HealthState::kWarn);
  EXPECT_NE(collapsed.reason.find("collapse"), std::string::npos);
}

TEST(MetricsDoctor, StallOutranksWarnRules) {
  fleet::DoctorOptions options;
  options.stall_lease_periods = 1;
  fleet::HealthDoctor doctor(options, kSecond, 0);
  fleet::HealthSample bad = Sample(2 * kSecond, 100, 0);
  bad.journal_degraded = true;  // would warn on its own
  EXPECT_EQ(doctor.Observe(bad).state, fleet::HealthState::kStall);
}

// ---------------------------------------------------------------------------
// Journal round-trips for the new events
// ---------------------------------------------------------------------------

void WriteStart(std::ostream& out) {
  CampaignOptions options;
  options.seed = 7;
  options.max_statements = 100;
  WriteCampaignStart(out, options, "SOFT", "duckdb", 1);
}

JournalHealthEvent TestHealth() {
  JournalHealthEvent event;
  event.state = "stall";
  event.reason = "no unit completion in 3 lease periods";
  event.statements_per_s = 1234.5;
  event.units_per_s = 0.25;
  event.bugs_per_s = 0.125;
  event.reclaims_per_s = 2.0;
  event.redeliveries_per_s = 0.5;
  event.wall_ms = 1500.75;
  return event;
}

JournalMetricsSnapshot TestSnapshot() {
  JournalMetricsSnapshot event;
  event.series = 184;
  event.statements = 5'000'000'000ull;  // > int32: the widened payload
  event.units_done = 7;
  event.health = "warn";
  event.wall_ms = 250.5;
  return event;
}

TEST(MetricsJournal, HealthAndSnapshotEventsRoundTrip) {
  std::stringstream stream;
  WriteStart(stream);
  WriteHealthEvent(stream, TestHealth());
  WriteMetricsSnapshotEvent(stream, TestSnapshot());

  const Result<JournalReplay> replayed = ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ASSERT_EQ(replayed->health_events.size(), 1u);
  const JournalHealthEvent& health = replayed->health_events[0];
  EXPECT_EQ(health.state, "stall");
  EXPECT_EQ(health.reason, "no unit completion in 3 lease periods");
  EXPECT_DOUBLE_EQ(health.statements_per_s, 1234.5);
  EXPECT_DOUBLE_EQ(health.units_per_s, 0.25);
  EXPECT_DOUBLE_EQ(health.bugs_per_s, 0.125);
  EXPECT_DOUBLE_EQ(health.reclaims_per_s, 2.0);
  EXPECT_DOUBLE_EQ(health.redeliveries_per_s, 0.5);
  EXPECT_DOUBLE_EQ(health.wall_ms, 1500.75);

  ASSERT_EQ(replayed->metrics_snapshots.size(), 1u);
  const JournalMetricsSnapshot& snapshot = replayed->metrics_snapshots[0];
  EXPECT_EQ(snapshot.series, 184u);
  EXPECT_EQ(snapshot.statements, 5'000'000'000ull);
  EXPECT_EQ(snapshot.units_done, 7u);
  EXPECT_EQ(snapshot.health, "warn");
  EXPECT_DOUBLE_EQ(snapshot.wall_ms, 250.5);
}

TEST(MetricsJournal, FleetFinishCountersSurviveBeyondInt32) {
  JournalFleetFinish finish;
  finish.units = 8;
  finish.heartbeats = 10'000'000'000ull;  // a week of heartbeats
  finish.leases_granted = 3'000'000'000ull;
  finish.units_completed = 8;

  std::stringstream stream;
  WriteStart(stream);
  WriteFleetFinishEvent(stream, finish);
  const Result<JournalReplay> replayed = ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ASSERT_TRUE(replayed->fleet_finished);
  EXPECT_EQ(replayed->fleet.heartbeats, 10'000'000'000ull);
  EXPECT_EQ(replayed->fleet.leases_granted, 3'000'000'000ull);
  EXPECT_EQ(replayed->fleet.units_completed, 8u);
}

TEST(MetricsJournal, MalformedHealthOrSnapshotLinesAreHardErrors) {
  {
    std::stringstream missing_state;
    WriteStart(missing_state);
    missing_state << "{\"event\":\"health\",\"reason\":\"ok\"}\n";
    EXPECT_FALSE(ReplayJournal(missing_state).ok());
  }
  {
    std::stringstream missing_series;
    WriteStart(missing_series);
    missing_series << "{\"event\":\"metrics_snapshot\",\"health\":\"ok\"}\n";
    EXPECT_FALSE(ReplayJournal(missing_series).ok());
  }
}

TEST(MetricsJournal, LegacyFleetJournalWithoutNewEventsReplays) {
  // A journal written before health/metrics_snapshot existed: only the old
  // event vocabulary. It must replay with the new vectors empty.
  std::stringstream legacy(
      "{\"event\":\"campaign_start\",\"tool\":\"SOFT\",\"dialect\":\"duckdb\","
      "\"seed\":1,\"budget\":10,\"shards\":1}\n"
      "{\"event\":\"lease\",\"action\":\"grant\",\"unit\":0,\"worker\":1,"
      "\"cases\":0,\"unit_digest\":0}\n"
      "{\"event\":\"fleet_finish\",\"units\":1,\"workers_spawned\":1,"
      "\"worker_deaths\":0,\"leases_granted\":1,\"leases_reclaimed\":0,"
      "\"leases_stolen\":0,\"heartbeats\":5,\"units_completed\":1,"
      "\"units_run_locally\":0,\"units_resumed\":0,"
      "\"units_spool_diverged\":0,\"degraded_to_local\":0}\n");
  const Result<JournalReplay> replayed = ReplayJournal(legacy);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_TRUE(replayed->health_events.empty());
  EXPECT_TRUE(replayed->metrics_snapshots.empty());
  EXPECT_TRUE(replayed->fleet_finished);
  EXPECT_EQ(replayed->fleet.heartbeats, 5u);
}

TEST(MetricsJournal, TruncationAtEveryByteOffsetReplaysIntactPrefix) {
  std::stringstream stream;
  WriteStart(stream);
  WriteHealthEvent(stream, TestHealth());
  WriteMetricsSnapshotEvent(stream, TestSnapshot());
  JournalHealthEvent recovered = TestHealth();
  recovered.state = "ok";
  recovered.reason = "ok";
  WriteHealthEvent(stream, recovered);
  const std::string full = stream.str();
  ASSERT_EQ(full.back(), '\n');

  std::vector<size_t> line_ends;  // offset one past each '\n'
  for (size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n') {
      line_ends.push_back(i + 1);
    }
  }
  ASSERT_EQ(line_ends.size(), 4u);

  for (size_t len = 0; len <= full.size(); ++len) {
    std::stringstream in(full.substr(0, len));
    const Result<JournalReplay> replayed = ReplayJournal(in);
    if (len < line_ends.front()) {
      // campaign_start itself is torn away: nothing to replay from.
      EXPECT_FALSE(replayed.ok()) << "offset " << len;
      continue;
    }
    ASSERT_TRUE(replayed.ok())
        << "offset " << len << ": " << replayed.status().message();
    size_t complete_lines = 0;
    for (const size_t end : line_ends) {
      complete_lines += end <= len ? 1 : 0;
    }
    // Lines after campaign_start: health, metrics_snapshot, health.
    const size_t want_health =
        (complete_lines >= 2 ? 1 : 0) + (complete_lines >= 4 ? 1 : 0);
    const size_t want_snapshots = complete_lines >= 3 ? 1 : 0;
    EXPECT_EQ(replayed->health_events.size(), want_health)
        << "offset " << len;
    EXPECT_EQ(replayed->metrics_snapshots.size(), want_snapshots)
        << "offset " << len;
    EXPECT_EQ(replayed->torn_tail, full[len - 1] != '\n') << "offset " << len;
  }
}

}  // namespace
}  // namespace telemetry
}  // namespace soft
