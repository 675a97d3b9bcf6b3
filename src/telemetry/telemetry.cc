// The thread-local collector the engine's stage timers record into.
#include "src/telemetry/telemetry.h"

#include <atomic>

namespace soft {
namespace telemetry {

namespace {

std::atomic<bool> g_runtime_enabled{true};

// The calling thread's active collector. One campaign == one collector; the
// parallel runner's shard threads each install their own, so recording is
// contention-free on the statement path.
thread_local CampaignTelemetry* t_sink = nullptr;

}  // namespace

bool RuntimeEnabled() { return g_runtime_enabled.load(std::memory_order_relaxed); }

void SetRuntimeEnabled(bool enabled) {
  g_runtime_enabled.store(enabled, std::memory_order_relaxed);
}

bool CollectorInstalled() { return t_sink != nullptr; }

ScopedCollector::ScopedCollector(CampaignTelemetry* sink)
    : previous_sink_(t_sink), installed_(sink != nullptr && RuntimeEnabled()) {
  if (installed_) {
    t_sink = sink;
  }
}

ScopedCollector::~ScopedCollector() {
  if (installed_) {
    t_sink = previous_sink_;
  }
}

void RecordStageLatency(Stage stage, uint64_t ns) {
  if (t_sink != nullptr) {
    t_sink->stage_latency[static_cast<size_t>(stage)].Record(ns);
  }
}

}  // namespace telemetry
}  // namespace soft
