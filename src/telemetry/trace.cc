#include "src/telemetry/trace.h"

#include <array>

#include "src/failpoint/failpoint.h"
#include "src/telemetry/telemetry.h"
#include "src/util/fnv.h"

namespace soft {
namespace trace {

// ---------------------------------------------------------------------------
// Data-model helpers.
// ---------------------------------------------------------------------------

std::string_view SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCampaign:
      return "campaign";
    case SpanKind::kShard:
      return "shard";
    case SpanKind::kWorkerRun:
      return "worker-run";
    case SpanKind::kStatement:
      return "statement";
    case SpanKind::kParse:
      return "parse";
    case SpanKind::kOptimize:
      return "optimize";
    case SpanKind::kExecute:
      return "execute";
  }
  return "unknown";
}

SpanKind StageSpanKind(Stage stage) {
  switch (stage) {
    case Stage::kParse:
      return SpanKind::kParse;
    case Stage::kOptimize:
      return SpanKind::kOptimize;
    case Stage::kExecute:
      return SpanKind::kExecute;
  }
  return SpanKind::kExecute;
}

namespace {

// Integers enter span identity as their 8 little-endian bytes.
uint64_t FnvMixInt(uint64_t h, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h = FnvMixByte(h, static_cast<unsigned char>(v >> shift));
  }
  return h;
}

}  // namespace

uint64_t SpanId(std::string_view dialect, int shard, SpanKind kind, int ordinal) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvMix(h, dialect);
  h = FnvMixInt(h, static_cast<uint64_t>(static_cast<int64_t>(shard)));
  h = FnvMixInt(h, static_cast<uint64_t>(kind));
  h = FnvMixInt(h, static_cast<uint64_t>(static_cast<int64_t>(ordinal)));
  // Reserve 0 as "no parent".
  return h == 0 ? 1 : h;
}

// ---------------------------------------------------------------------------
// Recording hooks (thread-local).
// ---------------------------------------------------------------------------

namespace {

struct TracerState {
  TraceData* sink = nullptr;
  std::string dialect;
  int shard = 0;
  int sample_every = 1;
  uint64_t base_ns = 0;  // MonotonicNowNs() at install — spans are relative
  bool open = false;
  int statement_index = 0;             // ordinal of the open statement
  TraceSpan current;                   // open statement span
  std::vector<TraceSpan> stage_spans;  // children of the open statement
  uint64_t fires_before = 0;           // failpoint fire total at Begin
};

thread_local TracerState* t_tracer = nullptr;

struct FlightState {
  std::array<FlightEntry, kFlightRingCapacity> ring;
  size_t next = 0;   // slot the next Begin writes
  size_t count = 0;  // entries populated (≤ capacity)

  FlightEntry* Current() {
    if (count == 0) {
      return nullptr;
    }
    return &ring[(next + kFlightRingCapacity - 1) % kFlightRingCapacity];
  }
};

thread_local FlightState* t_flight = nullptr;

// Sum of fires across the inventory — cheap enough for the armed-chaos case
// only (22 registry lookups); never touched when nothing is armed.
uint64_t TotalFailpointFires() {
  uint64_t total = 0;
  for (const failpoint::SiteInfo& site : failpoint::kInventory) {
    total += failpoint::Stats(site.name).fires;
  }
  return total;
}

}  // namespace

ScopedStatementTracer::ScopedStatementTracer(TraceData* sink, std::string dialect,
                                             int shard, int sample_every) {
  if (sink == nullptr) {
    return;
  }
  auto* state = new TracerState;
  state->sink = sink;
  state->dialect = std::move(dialect);
  state->shard = shard;
  state->sample_every = sample_every < 1 ? 1 : sample_every;
  state->base_ns = telemetry::MonotonicNowNs();
  t_tracer = state;
}

ScopedStatementTracer::~ScopedStatementTracer() {
  delete t_tracer;
  t_tracer = nullptr;
}

bool StatementOpen() { return t_tracer != nullptr && t_tracer->open; }

void BeginStatement(int statement_index, std::string_view pattern) {
  TracerState* state = t_tracer;
  if (state == nullptr) {
    return;
  }
  // Sample 1st, (1+N)th, ... so a campaign always traces its first statement.
  if ((statement_index - 1) % state->sample_every != 0) {
    state->open = false;
    return;
  }
  state->open = true;
  state->statement_index = statement_index;
  state->stage_spans.clear();
  state->current = TraceSpan{};
  state->current.id =
      SpanId(state->dialect, state->shard, SpanKind::kStatement, statement_index);
  state->current.kind = SpanKind::kStatement;
  state->current.shard = state->shard;
  state->current.start_ns = telemetry::MonotonicNowNs() - state->base_ns;
  state->current.args.emplace_back("index", std::to_string(statement_index));
  state->current.args.emplace_back("pattern", std::string(pattern));
  state->fires_before =
      failpoint::AnyArmed() ? TotalFailpointFires() : uint64_t{0};
}

void AnnotateStatement(std::string_view key, std::string value) {
  TracerState* state = t_tracer;
  if (state == nullptr || !state->open) {
    return;
  }
  state->current.args.emplace_back(std::string(key), std::move(value));
}

void EndStatement(std::string_view outcome) {
  TracerState* state = t_tracer;
  if (state == nullptr || !state->open) {
    return;
  }
  state->open = false;
  state->current.dur_ns =
      telemetry::MonotonicNowNs() - state->base_ns - state->current.start_ns;
  state->current.args.emplace_back("outcome", std::string(outcome));
  if (failpoint::AnyArmed()) {
    const uint64_t delta = TotalFailpointFires() - state->fires_before;
    if (delta > 0) {
      state->current.args.emplace_back("failpoint_fires", std::to_string(delta));
    }
  }
  // Statement span first, then its stage children — a deterministic order
  // regardless of stage count (parse errors have one child, full pipelines
  // three).
  state->sink->spans.push_back(state->current);
  for (TraceSpan& stage : state->stage_spans) {
    state->sink->spans.push_back(std::move(stage));
  }
  state->stage_spans.clear();
}

void RecordStageSpan(Stage stage, uint64_t start_abs_ns, uint64_t dur_ns) {
  TracerState* state = t_tracer;
  if (state == nullptr || !state->open) {
    return;
  }
  TraceSpan span;
  // Stage ordinal folds the stage into the statement ordinal so IDs stay
  // unique across the whole shard: statement i, stage s → i*4+s+1.
  span.id = SpanId(state->dialect, state->shard, StageSpanKind(stage),
                   state->statement_index * 4 + static_cast<int>(stage) + 1);
  span.parent_id = state->current.id;
  span.kind = StageSpanKind(stage);
  span.shard = state->shard;
  span.start_ns = start_abs_ns - state->base_ns;
  span.dur_ns = dur_ns;
  state->stage_spans.push_back(std::move(span));
}

ScopedOracleExecution::ScopedOracleExecution() {
  TracerState* state = t_tracer;
  if (state != nullptr && state->open) {
    was_open_ = true;
    state->open = false;
  }
}

ScopedOracleExecution::~ScopedOracleExecution() {
  TracerState* state = t_tracer;
  if (was_open_ && state != nullptr) {
    state->open = true;
  }
}

ScopedFlightRecorder::ScopedFlightRecorder(bool enabled) {
  if (enabled) {
    t_flight = new FlightState;
  }
}

ScopedFlightRecorder::~ScopedFlightRecorder() {
  delete t_flight;
  t_flight = nullptr;
}

bool FlightInstalled() { return t_flight != nullptr; }

void FlightBeginStatement(int statement_index, std::string_view pattern,
                          std::string_view sql) {
  FlightState* state = t_flight;
  if (state == nullptr) {
    return;
  }
  FlightEntry& slot = state->ring[state->next];
  slot.statement_index = statement_index;
  slot.pattern.assign(pattern);
  slot.sql.assign(sql);
  slot.stage_reached = "parse";  // deepest stage entered so far
  slot.outcome = "in-flight";
  state->next = (state->next + 1) % kFlightRingCapacity;
  if (state->count < kFlightRingCapacity) {
    ++state->count;
  }
}

void FlightNoteStage(Stage stage) {
  FlightState* state = t_flight;
  if (state == nullptr) {
    return;
  }
  if (FlightEntry* current = state->Current()) {
    current->stage_reached = StageName(stage);
  }
}

void FlightEndStatement(std::string_view outcome) {
  FlightState* state = t_flight;
  if (state == nullptr) {
    return;
  }
  if (FlightEntry* current = state->Current()) {
    current->outcome.assign(outcome);
  }
}

std::vector<FlightEntry> FlightSnapshot() {
  FlightState* state = t_flight;
  std::vector<FlightEntry> out;
  if (state == nullptr || state->count == 0) {
    return out;
  }
  out.reserve(state->count);
  const size_t oldest =
      (state->next + kFlightRingCapacity - state->count) % kFlightRingCapacity;
  for (size_t i = 0; i < state->count; ++i) {
    out.push_back(state->ring[(oldest + i) % kFlightRingCapacity]);
  }
  return out;
}

}  // namespace trace
}  // namespace soft
