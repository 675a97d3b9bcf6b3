// Campaign observability: stage-latency histograms and per-pattern counters.
//
// The paper's Finding 1 attributes function bugs to processing stages and
// Section 7 compares fuzzers by per-pattern yield over a statement budget;
// this layer makes both trajectories inspectable without perturbing the
// campaigns themselves. Three parts:
//
//   * Data model (always compiled, methods inline): LatencyHistogram with
//     fixed power-of-two microsecond buckets, PatternCounters, and
//     CampaignTelemetry — the per-campaign snapshot that rides along in
//     CampaignResult and merges deterministically across shards.
//   * Recording hooks (compiled only under SOFT_TELEMETRY_ENABLED, i.e. the
//     default -DSOFT_TELEMETRY=ON build): a thread-local collector installed
//     by each fuzzer's Run for the duration of a campaign. The engine's
//     stage pipeline and the campaign loops call the Record*/Count* hooks;
//     with no collector installed — or with SetRuntimeEnabled(false) — every
//     hook is a pointer check. With -DSOFT_TELEMETRY=OFF the hooks are
//     inline no-ops and the engine/fuzzer objects reference no collector
//     symbol at all (the link proves it: src/telemetry/telemetry.cc is not
//     compiled in that configuration).
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

// Monotonic wall clock in nanoseconds (always a real clock, in every build
// configuration — benches use it directly). Defined in journal.cc.
uint64_t MonotonicNowNs();

// ---------------------------------------------------------------------------
// Data model (always available; all methods inline so that objects built
// with -DSOFT_TELEMETRY=OFF carry no references into this library).
// ---------------------------------------------------------------------------

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

  void MergeFrom(const PatternCounters& other) {
    generated += other.generated;
    executed += other.executed;
    crashes += other.crashes;
    bugs_deduped += other.bugs_deduped;
    sql_errors += other.sql_errors;
    false_positives += other.false_positives;
    timeouts += other.timeouts;
    logic_checks += other.logic_checks;
    logic_bugs += other.logic_bugs;
  }

  bool operator==(const PatternCounters&) const = default;
};

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

// ---------------------------------------------------------------------------
// Recording hooks. Real under SOFT_TELEMETRY_ENABLED, inline no-ops
// otherwise. Every hook routes to the calling thread's installed collector;
// without one (or with the runtime switch off) it does nothing.
// ---------------------------------------------------------------------------

#ifdef SOFT_TELEMETRY_ENABLED

// Process-wide runtime kill switch (atomic; default on). Turning it off
// makes ScopedCollector install nothing, so campaigns record nothing —
// used to prove results are identical with recording on vs. off.
bool RuntimeEnabled();
void SetRuntimeEnabled(bool enabled);

// True when the calling thread has an active collector.
bool CollectorInstalled();

// Installs `sink` as the calling thread's collector for the scope lifetime
// (restores the previous collector on destruction, so scopes nest; the
// innermost wins). Also timestamps the campaign start for
// WallSinceCollectorStartNs(). A null sink, or RuntimeEnabled() == false,
// installs nothing.
class ScopedCollector {
 public:
  explicit ScopedCollector(CampaignTelemetry* sink);
  ~ScopedCollector();
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;

 private:
  CampaignTelemetry* previous_sink_;
  uint64_t previous_start_ns_;
  bool installed_;
};

// Nanoseconds since the innermost collector was installed; 0 without one.
// Used to stamp FoundBug::found_wall_ns (observational only — never part of
// the determinism contract).
uint64_t WallSinceCollectorStartNs();

// Stage-latency and per-pattern recording. `n`-ary CountGenerated exists so
// generation can aggregate locally and record once per pattern.
void RecordStageLatency(Stage stage, uint64_t ns);
void CountGenerated(const std::string& pattern, uint64_t n);
void CountExecuted(const std::string& pattern);
void CountCrash(const std::string& pattern);
void CountBugDeduped(const std::string& pattern);
void CountSqlError(const std::string& pattern);
void CountFalsePositive(const std::string& pattern);
void CountTimeout(const std::string& pattern);
void CountLogicCheck(const std::string& pattern);
void CountLogicBug(const std::string& pattern);

#else  // !SOFT_TELEMETRY_ENABLED — the whole hook surface folds to nothing.

inline bool RuntimeEnabled() { return false; }
inline void SetRuntimeEnabled(bool) {}
inline bool CollectorInstalled() { return false; }

class ScopedCollector {
 public:
  explicit ScopedCollector(CampaignTelemetry*) {}
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;
};

inline uint64_t WallSinceCollectorStartNs() { return 0; }
inline void RecordStageLatency(Stage, uint64_t) {}
inline void CountGenerated(const std::string&, uint64_t) {}
inline void CountExecuted(const std::string&) {}
inline void CountCrash(const std::string&) {}
inline void CountBugDeduped(const std::string&) {}
inline void CountSqlError(const std::string&) {}
inline void CountFalsePositive(const std::string&) {}
inline void CountTimeout(const std::string&) {}
inline void CountLogicCheck(const std::string&) {}
inline void CountLogicBug(const std::string&) {}

#endif  // SOFT_TELEMETRY_ENABLED

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
// benches and corpus builds (replaces ad-hoc std::chrono snippets). Works in
// every build configuration.
struct WallTimer {
  uint64_t start_ns = MonotonicNowNs();
  uint64_t ElapsedNs() const { return MonotonicNowNs() - start_ns; }
  double ElapsedMs() const { return static_cast<double>(ElapsedNs()) / 1e6; }
};

}  // namespace telemetry
}  // namespace soft

#endif  // SRC_TELEMETRY_TELEMETRY_H_
