// Campaign observability: stage-latency histograms and per-pattern counters.
//
// The paper's Finding 1 attributes function bugs to processing stages and
// Section 7 compares fuzzers by per-pattern yield over a statement budget;
// this layer makes both trajectories inspectable without perturbing the
// campaigns themselves. Three parts:
//
//   * Data model: LatencyHistogram with fixed power-of-two microsecond
//     buckets, PatternCounters, and CampaignTelemetry — the per-campaign
//     snapshot that rides along in CampaignResult and merges
//     deterministically across shards. The per-pattern counter set is
//     declared once, in kPatternCounterFields; merge, wire row, JSON,
//     Prometheus families, STATUS row and report table all iterate it.
//     The fleet coordinator's counters and its doctor's rates are declared
//     the same way (kFleetCounterFields, kHealthRateFields).
//   * Recording: a campaign's CampaignRecorder (src/soft/campaign.h) writes
//     the per-pattern counters into its own result; the engine's stage
//     timers record into the calling thread's collector, which the recorder
//     installs for the campaign. With no collector installed — or with
//     SetRuntimeEnabled(false) — a stage timer is a pointer check.
//   * The NDJSON journal (src/telemetry/journal.h) serializing a campaign's
//     event stream for offline bug-vs-budget replotting.
//
// Determinism contract: telemetry is strictly observational. Campaign
// results (bug sets, coverage, statement totals) are bit-identical with the
// layer on or off, and a merged CampaignTelemetry is the shard-index-ordered
// sum of its shard snapshots — pure data, never thread scheduling
// (tests/telemetry_test.cc).
#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/fault/fault.h"
#include "src/telemetry/trace.h"

namespace soft {
namespace telemetry {

// Monotonic wall clock in nanoseconds (benches use it directly). Defined in
// journal.cc.
uint64_t MonotonicNowNs();

// Fixed-bucket latency histogram. Bucket bounds are powers of two in
// microseconds:
//   bucket 0       [0, 1 µs)
//   bucket i(1-14) [2^(i-1) µs, 2^i µs)
//   bucket 15      [16384 µs, ∞)
// The fixed layout makes shard merging a per-bucket sum and keeps the
// record path branch-light (one bit-scan, no allocation).
struct LatencyHistogram {
  static constexpr size_t kBucketCount = 16;

  std::array<uint64_t, kBucketCount> buckets{};
  uint64_t samples = 0;
  uint64_t total_ns = 0;
  uint64_t max_ns = 0;

  static size_t BucketFor(uint64_t ns) {
    const uint64_t us = ns / 1000;
    if (us == 0) {
      return 0;
    }
    size_t width = 0;
    for (uint64_t v = us; v != 0; v >>= 1) {
      ++width;
    }
    return std::min(width, kBucketCount - 1);
  }

  // Inclusive lower bound of a bucket in microseconds (bucket 0 starts at 0).
  static uint64_t BucketLowerBoundUs(size_t bucket) {
    return bucket == 0 ? 0 : uint64_t{1} << (bucket - 1);
  }

  void Record(uint64_t ns) {
    ++buckets[BucketFor(ns)];
    ++samples;
    total_ns += ns;
    max_ns = std::max(max_ns, ns);
  }

  void MergeFrom(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBucketCount; ++i) {
      buckets[i] += other.buckets[i];
    }
    samples += other.samples;
    total_ns += other.total_ns;
    max_ns = std::max(max_ns, other.max_ns);
  }

  double MeanUs() const {
    return samples == 0 ? 0.0 : static_cast<double>(total_ns) / 1000.0 /
                                    static_cast<double>(samples);
  }

  // Quantile estimate in microseconds (q in [0,1], clamped) by linear
  // interpolation inside the power-of-two bucket holding the q·samples-th
  // sample. The open-ended top bucket interpolates toward the observed
  // maximum, so p99 can never exceed max_ns. 0 when empty.
  double QuantileUs(double q) const {
    if (samples == 0) {
      return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(samples);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kBucketCount; ++i) {
      if (buckets[i] == 0) {
        continue;
      }
      const uint64_t next = cumulative + buckets[i];
      if (static_cast<double>(next) >= rank) {
        const double lower = static_cast<double>(BucketLowerBoundUs(i));
        const double upper =
            i + 1 < kBucketCount
                ? static_cast<double>(uint64_t{1} << i)
                : std::max(static_cast<double>(max_ns) / 1000.0, lower);
        const double within = (rank - static_cast<double>(cumulative)) /
                              static_cast<double>(buckets[i]);
        return lower + (upper - lower) * within;
      }
      cumulative = next;
    }
    return static_cast<double>(max_ns) / 1000.0;
  }

  bool operator==(const LatencyHistogram&) const = default;
};

// Per-pattern (P1.1–P3.3 for SOFT, tool name for the baselines, "seed" for
// the corpus-replay prefix) campaign counters. All counts are statement
// events except `generated`, which counts cases placed into the generation
// pool (partition shards share one pool and shard 0 alone counts it, so the
// merged `generated` is the serial pool at any shard count).
struct PatternCounters {
  uint64_t generated = 0;
  uint64_t executed = 0;
  uint64_t crashes = 0;          // crash events incl. duplicates
  uint64_t bugs_deduped = 0;     // first witnesses (unique bugs)
  uint64_t sql_errors = 0;
  uint64_t false_positives = 0;  // resource-limit kills
  uint64_t timeouts = 0;         // statement-watchdog deadline kills (kTimeout)
  uint64_t logic_checks = 0;     // in-scope logic-oracle examinations
  uint64_t logic_bugs = 0;       // attributed wrong-result divergences

  void MergeFrom(const PatternCounters& other);

  bool operator==(const PatternCounters&) const = default;
};

// The one declaration of the per-pattern counter set. Everything that
// copies, merges, serializes or renders PatternCounters iterates this table
// in this order (which is also the wire TLP row's field order), so no view
// can drop a counter.
struct PatternCounterField {
  uint64_t PatternCounters::*member;
  std::string_view key;     // JSON key, STATUS field, report column
  std::string_view family;  // Prometheus counter family
  std::string_view help;
};

inline constexpr std::array<PatternCounterField, 9> kPatternCounterFields = {{
    {&PatternCounters::generated, "generated", "soft_pattern_generated_total",
     "Cases placed into the generation pool"},
    {&PatternCounters::executed, "executed", "soft_pattern_executed_total",
     "Statements executed"},
    {&PatternCounters::crashes, "crashes", "soft_pattern_crashes_total",
     "Crash events including duplicates"},
    {&PatternCounters::bugs_deduped, "bugs_deduped", "soft_pattern_bugs_deduped_total",
     "First witnesses (unique bugs)"},
    {&PatternCounters::sql_errors, "sql_errors", "soft_pattern_sql_errors_total",
     "Statements rejected with SQL errors"},
    {&PatternCounters::false_positives, "false_positives",
     "soft_pattern_false_positives_total",
     "Resource-limit kills classified as false positives"},
    {&PatternCounters::timeouts, "timeouts", "soft_pattern_timeouts_total",
     "Statement-watchdog deadline kills"},
    {&PatternCounters::logic_checks, "logic_checks", "soft_oracle_logic_checks_total",
     "Logic-oracle examinations"},
    {&PatternCounters::logic_bugs, "logic_bugs", "soft_oracle_logic_bugs_total",
     "Attributed wrong-result divergences"},
}};

inline void PatternCounters::MergeFrom(const PatternCounters& other) {
  for (const PatternCounterField& field : kPatternCounterFields) {
    this->*field.member += other.*field.member;
  }
}

// A fleet coordinator's campaign counters (src/fleet/coordinator.h's
// FleetStats derives from this). uint64_t throughout: a week-long
// campaign's heartbeat counter alone overflows int32 in days.
struct FleetCounters {
  uint64_t workers_spawned = 0;
  uint64_t worker_deaths = 0;
  uint64_t leases_granted = 0;
  uint64_t leases_reclaimed = 0;
  uint64_t leases_stolen = 0;         // grants of previously-reclaimed units
  uint64_t heartbeats = 0;            // accepted (non-stale) heartbeats
  uint64_t units_completed = 0;       // accepted unit results (any executor)
  uint64_t units_run_locally = 0;     // executed in-process on the degrade path
  uint64_t units_resumed = 0;         // re-admitted from the spool on resume
  uint64_t units_spool_diverged = 0;  // spool digest mismatches (re-run instead)
  // --- framed transport ---
  uint64_t sessions_resumed = 0;    // HELLO with a known token after a disconnect
  uint64_t grants_redelivered = 0;  // GRANTs re-sent to a resumed session
  uint64_t dup_results_deduped = 0; // double-delivered unit results discarded
  uint64_t conns_dropped = 0;       // connections condemned (bad frame, seq gap,
                                    // heartbeat timeout, eof) — sessions survive
  uint64_t status_overflow_drops = 0;  // status readers dropped for a full buffer
  // --- campaign-health doctor and --metrics-out ---
  uint64_t health_transitions = 0;  // doctor state changes
  uint64_t health_stalls = 0;       // doctor transitions into stall
  uint64_t metrics_snapshots = 0;   // --metrics-out files written
};

// The one declaration of the fleet counter set. The STATUS fleet_status
// header, the METRICS counter families, the journal's fleet_finish event
// and its replay all iterate this table in this order. New counters go at
// the end: fleet_finish carried only the first ten before it carried them
// all, so its replay requires those ten and reads the rest as optional.
struct FleetCounterField {
  uint64_t FleetCounters::*member;
  std::string_view key;  // JSON key; the counter family is FleetCounterFamily(key)
  std::string_view help;
};

inline constexpr std::array<FleetCounterField, 18> kFleetCounterFields = {{
    {&FleetCounters::workers_spawned, "workers_spawned", "Worker processes forked"},
    {&FleetCounters::worker_deaths, "worker_deaths", "Worker deaths observed"},
    {&FleetCounters::leases_granted, "leases_granted", "Leases granted"},
    {&FleetCounters::leases_reclaimed, "leases_reclaimed", "Expired leases reclaimed"},
    {&FleetCounters::leases_stolen, "leases_stolen", "Grants of previously-reclaimed units"},
    {&FleetCounters::heartbeats, "heartbeats", "Accepted worker heartbeats"},
    {&FleetCounters::units_completed, "units_completed", "Accepted unit results"},
    {&FleetCounters::units_run_locally, "units_run_locally",
     "Units executed on the degrade-to-local path"},
    {&FleetCounters::units_resumed, "units_resumed", "Units re-admitted from the spool"},
    {&FleetCounters::units_spool_diverged, "units_spool_diverged",
     "Spool digest mismatches (unit re-run)"},
    {&FleetCounters::sessions_resumed, "sessions_resumed",
     "Worker sessions resumed after a disconnect"},
    {&FleetCounters::grants_redelivered, "grants_redelivered",
     "GRANTs re-sent to resumed sessions"},
    {&FleetCounters::dup_results_deduped, "dup_results_deduped",
     "Double-delivered unit results discarded"},
    {&FleetCounters::conns_dropped, "conns_dropped", "Connections condemned"},
    {&FleetCounters::status_overflow_drops, "status_overflow_drops",
     "Status readers dropped for a full buffer"},
    {&FleetCounters::health_transitions, "health_transitions", "Doctor state changes"},
    {&FleetCounters::health_stalls, "health_stalls", "Doctor transitions into stall"},
    {&FleetCounters::metrics_snapshots, "metrics_snapshots", "--metrics-out files written"},
}};

// Prometheus counter family of a kFleetCounterFields key.
inline std::string FleetCounterFamily(std::string_view key) {
  return "soft_fleet_" + std::string(key) + "_total";
}

// The campaign-health doctor's per-second rates over its rolling window
// (src/fleet/doctor.h); 0 while the window spans no time.
struct HealthRates {
  double statements_per_s = 0.0;
  double units_per_s = 0.0;
  double bugs_per_s = 0.0;
  double reclaims_per_s = 0.0;
  double redeliveries_per_s = 0.0;
};

// The one declaration of the doctor's rate set: the journal's health event,
// its replay and the METRICS rate gauges iterate it in this order.
struct HealthRateField {
  double HealthRates::*member;
  std::string_view key;     // health event JSON key
  std::string_view family;  // Prometheus gauge family
  std::string_view help;
};

inline constexpr std::array<HealthRateField, 5> kHealthRateFields = {{
    {&HealthRates::statements_per_s, "statements_per_s",
     "soft_fleet_statements_per_second", "Merged statement rate over the doctor window"},
    {&HealthRates::units_per_s, "units_per_s", "soft_fleet_units_per_second",
     "Unit completion rate over the doctor window"},
    {&HealthRates::bugs_per_s, "bugs_per_s", "soft_fleet_bugs_per_second",
     "Unique-bug discovery rate over the doctor window"},
    {&HealthRates::reclaims_per_s, "reclaims_per_s", "soft_fleet_reclaims_per_second",
     "Lease reclaim rate over the doctor window"},
    {&HealthRates::redeliveries_per_s, "redeliveries_per_s",
     "soft_fleet_redeliveries_per_second", "GRANT redelivery rate over the doctor window"},
}};

inline constexpr size_t kStageCount = 3;  // parse, optimize, execute

// Stage key strings in Stage enum order — also the JSON field names.
inline constexpr std::array<std::string_view, kStageCount> kStageKeys = {
    "parse", "optimize", "execute"};

// One campaign's telemetry snapshot. Lives inside CampaignResult; a sharded
// run carries the merged snapshot plus the per-shard snapshots it was summed
// from (shard index order).
struct CampaignTelemetry {
  // Indexed by static_cast<size_t>(Stage). Each stage histogram counts only
  // statements that *entered* that stage (a parse error contributes one
  // parse sample and nothing downstream), so stage sample counts decrease
  // monotonically along the pipeline.
  std::array<LatencyHistogram, kStageCount> stage_latency;

  // Deterministically ordered (std::map) so merge and JSON output are
  // reproducible.
  std::map<std::string, PatternCounters> patterns;

  bool empty() const {
    if (!patterns.empty()) {
      return false;
    }
    for (const LatencyHistogram& h : stage_latency) {
      if (h.samples != 0) {
        return false;
      }
    }
    return true;
  }

  void MergeFrom(const CampaignTelemetry& other) {
    for (size_t i = 0; i < kStageCount; ++i) {
      stage_latency[i].MergeFrom(other.stage_latency[i]);
    }
    for (const auto& [pattern, counters] : other.patterns) {
      patterns[pattern].MergeFrom(counters);
    }
  }

  const LatencyHistogram& ForStage(Stage stage) const {
    return stage_latency[static_cast<size_t>(stage)];
  }

  // Compact JSON object (schema documented in docs/OBSERVABILITY.md).
  std::string ToJson() const;

  bool operator==(const CampaignTelemetry&) const = default;
};

// Process-wide runtime kill switch (atomic; default on). Turning it off
// makes ScopedCollector install nothing, so campaigns record nothing —
// used to prove results are identical with recording on vs. off.
bool RuntimeEnabled();
void SetRuntimeEnabled(bool enabled);

// True when the calling thread has an active collector.
bool CollectorInstalled();

// Installs `sink` as the calling thread's collector for the scope lifetime
// (restores the previous collector on destruction, so scopes nest; the
// innermost wins). A null sink, or RuntimeEnabled() == false, installs
// nothing.
class ScopedCollector {
 public:
  explicit ScopedCollector(CampaignTelemetry* sink);
  ~ScopedCollector();
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;

  bool installed() const { return installed_; }

 private:
  CampaignTelemetry* previous_sink_;
  bool installed_;
};

// Records one stage latency into the calling thread's collector, if any.
void RecordStageLatency(Stage stage, uint64_t ns);

// RAII stage timer used by the engine pipeline. The clock is read only when
// a collector is installed or a sampled statement span is open, so the
// disabled/idle cost is a couple of thread-local pointer checks per stage.
// Also the flight recorder's stage marker: entering a stage advances the
// in-flight statement's deepest-stage-reached note (src/telemetry/trace.h).
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(Stage stage)
      : stage_(stage),
        start_ns_(CollectorInstalled() || trace::StatementOpen() ? MonotonicNowNs()
                                                                 : 0) {
    trace::FlightNoteStage(stage);
  }
  ~ScopedStageTimer() {
    if (start_ns_ != 0) {
      const uint64_t dur_ns = MonotonicNowNs() - start_ns_;
      RecordStageLatency(stage_, dur_ns);
      trace::RecordStageSpan(stage_, start_ns_, dur_ns);
    }
  }
  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  Stage stage_;
  uint64_t start_ns_;
};

// Wall-clock stopwatch over MonotonicNowNs — the one timing code path for
// benches and corpus builds (replaces ad-hoc std::chrono snippets).
struct WallTimer {
  uint64_t start_ns = MonotonicNowNs();
  uint64_t ElapsedNs() const { return MonotonicNowNs() - start_ns; }
  double ElapsedMs() const { return static_cast<double>(ElapsedNs()) / 1e6; }
};

}  // namespace telemetry
}  // namespace soft

#endif  // SRC_TELEMETRY_TELEMETRY_H_
