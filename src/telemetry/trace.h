// Causal span tracing and the crash flight recorder: the data model.
//
// The aggregate telemetry layer (src/telemetry/telemetry.h) answers "how
// much" — histograms and counters — but not "which statement, in which
// worker, caused what". A traced campaign records its causal tree:
//
//   campaign → shard → worker-run → statement → parse/optimize/execute
//
// as spans with deterministic IDs, and a kReal campaign keeps a ring of its
// last executed statements (the flight recorder) so each real-signal crash
// carries its own minimal repro context. This header holds only the data
// model, TraceSpan/TraceData and FlightEntry/CrashFlightRecord, which ride
// along in CampaignResult:
//
//   * A campaign's CampaignRecorder (src/soft/campaign.h) builds each
//     sampled statement span and its stage children from the stage timings
//     Database::Execute returns, and under kReal keeps the flight ring. It
//     sees only campaign statements, never the oracles' re-executions.
//   * The parallel runner adds the structural spans (campaign, shard,
//     worker-run) whenever tracing is requested.
//   * Export: Chrome trace-event JSON via telemetry::WriteChromeTraceFile
//     (src/telemetry/journal.h) — loadable in Perfetto / chrome://tracing.
//
// Determinism contract: tracing is strictly observational. Span *identity*
// (id, parent, kind, shard, ordinal, annotations) is derived from campaign
// structure — dialect, shard index, statement ordinal — never from wall
// clock or randomness, so the span tree is bit-identical run to run; only
// start_ns/dur_ns carry wall time. Campaign bug sets, coverage, and outcome
// digests are bit-identical with tracing on or off, serial and K-shard, sim
// and real-crash modes (tests/trace_test.cc).
#ifndef SRC_TELEMETRY_TRACE_H_
#define SRC_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/fault/fault.h"

namespace soft {
namespace trace {

// ---------------------------------------------------------------------------
// Data model.
// ---------------------------------------------------------------------------

enum class SpanKind {
  kCampaign = 0,
  kShard,
  kWorkerRun,  // the in-process run of a shard's campaign
  kStatement,
  kParse,
  kOptimize,
  kExecute,
};

std::string_view SpanKindName(SpanKind kind);
SpanKind StageSpanKind(Stage stage);

// Deterministic span identity: FNV-1a over the canonical tuple
// (dialect, shard, kind, ordinal). Never wall clock, never randomness —
// the same campaign yields the same IDs on every run and on every merge
// order, which is what lets the sharded merge stay bit-identical.
uint64_t SpanId(std::string_view dialect, int shard, SpanKind kind, int ordinal);

struct TraceSpan {
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = root
  SpanKind kind = SpanKind::kStatement;
  int shard = 0;
  // Wall-clock placement relative to the campaign origin (the shard's start
  // for worker-run/statement/stage spans, rebased to the campaign origin at
  // merge). Observational only — never compared by the
  // determinism tests and never part of the outcome digest.
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  // Deterministically ordered annotations: pattern ID, outcome, bug
  // witnesses, watchdog verdicts, failpoint hits.
  std::vector<std::pair<std::string, std::string>> args;

  bool operator==(const TraceSpan&) const = default;
};

struct TraceData {
  std::vector<TraceSpan> spans;

  bool empty() const { return spans.empty(); }
  void Append(const TraceData& other) {
    spans.insert(spans.end(), other.spans.begin(), other.spans.end());
  }

  bool operator==(const TraceData&) const = default;
};

// ---------------------------------------------------------------------------
// Crash flight recorder data model.
// ---------------------------------------------------------------------------

// Ring capacity: the last K executed statements kept per campaign.
inline constexpr size_t kFlightRingCapacity = 16;

struct FlightEntry {
  int statement_index = 0;    // per-shard executed ordinal (1-based)
  std::string pattern;        // generation pattern / tool name
  std::string sql;            // exact statement text
  std::string stage_reached;  // deepest pipeline stage entered
  std::string outcome;        // "ok"|"sql_error"|"crash"|"timeout"|...

  bool operator==(const FlightEntry&) const = default;
};

// One realized crash's flight record (CampaignRecorder, kReal campaigns):
// the ring as it stood when the crash fired; entries.back() is the crashing
// statement.
struct CrashFlightRecord {
  int shard = 0;
  int worker_run = 0;  // realization ordinal within the shard (0-based)
  // The forked copy died by ExpectedSignalFor of the crash type; false when
  // the fork failed (the crash stayed simulated) or the copy died otherwise.
  bool announced = false;
  int bug_id = 0;
  std::vector<FlightEntry> entries;

  bool operator==(const CrashFlightRecord&) const = default;
};

}  // namespace trace
}  // namespace soft

#endif  // SRC_TELEMETRY_TRACE_H_
