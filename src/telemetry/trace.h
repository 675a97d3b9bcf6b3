// Causal span tracing and the crash flight recorder.
//
// The aggregate telemetry layer (src/telemetry/telemetry.h) answers "how
// much" — histograms and counters — but not "which statement, in which
// worker, caused what". This layer records the causal tree of a campaign:
//
//   campaign → shard → worker-run → statement → parse/optimize/execute
//
// as spans with deterministic IDs, and keeps a fixed-size ring buffer of the
// last executed statements per worker (the flight recorder) so a real-signal
// crash ships its own minimal repro context. Three parts, mirroring the
// telemetry split:
//
//   * Data model (always compiled, methods inline): TraceSpan/TraceData and
//     FlightEntry/CrashFlightRecord. These ride along in CampaignResult; the
//     structural spans (campaign, shard, worker-run) are created by the
//     parallel runner and the worker supervisor in every build configuration
//     whenever tracing is requested, so an exported trace is well-formed even
//     with the per-statement hooks compiled out.
//   * Recording hooks (compiled only under SOFT_TELEMETRY_ENABLED): a
//     thread-local statement tracer installed by the fuzzer execution loops
//     (sampled every trace_sample-th statement) and a thread-local flight
//     ring installed for kReal campaigns. With -DSOFT_TELEMETRY=OFF every
//     hook is an inline no-op and fuzzer/engine objects reference no tracer
//     symbol (the CI nm guard proves it).
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
// Data model (always available).
// ---------------------------------------------------------------------------

enum class SpanKind {
  kCampaign = 0,
  kShard,
  kWorkerRun,  // one forked worker lifetime (or the in-process run for sim)
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
  // Wall-clock placement relative to the campaign origin (the shard's
  // supervision entry for worker-run/statement/stage spans, rebased to the
  // campaign origin at merge). Observational only — never compared by the
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
// Crash flight recorder data model (always available).
// ---------------------------------------------------------------------------

// Ring capacity: the last K executed statements kept per worker.
inline constexpr size_t kFlightRingCapacity = 16;

struct FlightEntry {
  int statement_index = 0;    // per-shard executed ordinal (1-based)
  std::string pattern;        // generation pattern / tool name
  std::string sql;            // exact statement text
  std::string stage_reached;  // deepest pipeline stage entered
  std::string outcome;        // "ok"|"sql_error"|"crash"|"timeout"|...

  bool operator==(const FlightEntry&) const = default;
};

// One worker death's flight record, assembled supervisor-side. An announced
// crash carries the ring flushed over the pipe just before the signal was
// raised (entries.back() is the crashing statement); an unannounced death
// (SIGKILL, OOM killer) carries no entries.
struct CrashFlightRecord {
  int shard = 0;
  int worker_run = 0;  // fork ordinal within the shard (0-based)
  bool announced = false;
  int bug_id = 0;  // 0 when unannounced
  std::vector<FlightEntry> entries;

  bool operator==(const CrashFlightRecord&) const = default;
};

// ---------------------------------------------------------------------------
// Recording hooks. Real under SOFT_TELEMETRY_ENABLED, inline no-ops
// otherwise. All state is thread-local, mirroring telemetry::ScopedCollector.
// ---------------------------------------------------------------------------

#ifdef SOFT_TELEMETRY_ENABLED

// Installs `sink` as the calling thread's statement tracer for the scope
// lifetime. Every sample_every-th statement (1 = all) gets a kStatement span
// with kParse/kOptimize/kExecute children. A null sink installs nothing.
// Statement spans are recorded with parent_id = 0; the runner/worker
// supervisor re-parents them under the owning worker-run span (the child
// process cannot know its own fork ordinal).
class ScopedStatementTracer {
 public:
  ScopedStatementTracer(TraceData* sink, std::string dialect, int shard,
                        int sample_every);
  ~ScopedStatementTracer();
  ScopedStatementTracer(const ScopedStatementTracer&) = delete;
  ScopedStatementTracer& operator=(const ScopedStatementTracer&) = delete;
};

// True while a sampled statement span is open on this thread (lets the
// stage timers skip the clock otherwise).
bool StatementOpen();

// Statement span lifecycle, called from the fuzzer execution loops.
// `statement_index` is the per-shard executed ordinal (1-based).
void BeginStatement(int statement_index, std::string_view pattern);
void AnnotateStatement(std::string_view key, std::string value);
void EndStatement(std::string_view outcome);

// Records a completed pipeline-stage child span of the open statement span.
// `start_abs_ns` is a MonotonicNowNs() reading (rebased internally).
void RecordStageSpan(Stage stage, uint64_t start_abs_ns, uint64_t dur_ns);

// Suppresses stage-span recording for the scope lifetime. The logic oracles
// re-execute statements (EET variants, NoREC/TLP rewrites, differential
// siblings) while the flagged statement's span is still open — those runs
// are oracle machinery, not pipeline stages of the traced statement, and
// recording them would duplicate the deterministic per-ordinal span IDs.
// AnnotateStatement/EndStatement work again once the scope closes.
class ScopedOracleExecution {
 public:
  ScopedOracleExecution();
  ~ScopedOracleExecution();
  ScopedOracleExecution(const ScopedOracleExecution&) = delete;
  ScopedOracleExecution& operator=(const ScopedOracleExecution&) = delete;

 private:
  bool was_open_ = false;
};

// Installs the calling thread's flight ring for the scope lifetime (no ring
// is installed when `enabled` is false — sim campaigns don't pay for it).
class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(bool enabled);
  ~ScopedFlightRecorder();
  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;
};

bool FlightInstalled();

// Flight ring lifecycle: Begin pushes the statement (evicting the oldest
// beyond kFlightRingCapacity), NoteStage advances its deepest-stage marker
// from inside the stage timers, End stamps the outcome. A statement that
// dies mid-execute keeps "execute" as stage_reached with no End — exactly
// the state the crash announcement flushes.
void FlightBeginStatement(int statement_index, std::string_view pattern,
                          std::string_view sql);
void FlightNoteStage(Stage stage);
void FlightEndStatement(std::string_view outcome);

// Snapshot of the ring, oldest first. Empty without an installed ring.
std::vector<FlightEntry> FlightSnapshot();

#else  // !SOFT_TELEMETRY_ENABLED — the whole hook surface folds to nothing.

class ScopedStatementTracer {
 public:
  ScopedStatementTracer(TraceData*, std::string, int, int) {}
  ScopedStatementTracer(const ScopedStatementTracer&) = delete;
  ScopedStatementTracer& operator=(const ScopedStatementTracer&) = delete;
};

inline bool StatementOpen() { return false; }
inline void BeginStatement(int, std::string_view) {}
inline void AnnotateStatement(std::string_view, std::string) {}
inline void EndStatement(std::string_view) {}
inline void RecordStageSpan(Stage, uint64_t, uint64_t) {}

class ScopedOracleExecution {
 public:
  ScopedOracleExecution() {}
  ScopedOracleExecution(const ScopedOracleExecution&) = delete;
  ScopedOracleExecution& operator=(const ScopedOracleExecution&) = delete;
};

class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(bool) {}
  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;
};

inline bool FlightInstalled() { return false; }
inline void FlightBeginStatement(int, std::string_view, std::string_view) {}
inline void FlightNoteStage(Stage) {}
inline void FlightEndStatement(std::string_view) {}
inline std::vector<FlightEntry> FlightSnapshot() { return {}; }

#endif  // SOFT_TELEMETRY_ENABLED

}  // namespace trace
}  // namespace soft

#endif  // SRC_TELEMETRY_TRACE_H_
