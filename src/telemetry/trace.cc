#include "src/telemetry/trace.h"

#include "src/util/fnv.h"

namespace soft {
namespace trace {

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

}  // namespace trace
}  // namespace soft
