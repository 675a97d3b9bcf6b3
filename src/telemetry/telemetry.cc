// Recording hooks: the thread-local collector. Compiled only when
// SOFT_TELEMETRY=ON (the default); the OFF configuration gets the inline
// no-ops from telemetry.h and this file is excluded from the build, so any
// stray hook reference would fail to link.
#include "src/telemetry/telemetry.h"

#ifdef SOFT_TELEMETRY_ENABLED

#include <atomic>

namespace soft {
namespace telemetry {

namespace {

std::atomic<bool> g_runtime_enabled{true};

// The calling thread's active collector. One campaign == one collector; the
// parallel runner's shard threads each install their own, so recording is
// contention-free on the statement path.
thread_local CampaignTelemetry* t_sink = nullptr;
thread_local uint64_t t_start_ns = 0;

}  // namespace

bool RuntimeEnabled() { return g_runtime_enabled.load(std::memory_order_relaxed); }

void SetRuntimeEnabled(bool enabled) {
  g_runtime_enabled.store(enabled, std::memory_order_relaxed);
}

bool CollectorInstalled() { return t_sink != nullptr; }

ScopedCollector::ScopedCollector(CampaignTelemetry* sink)
    : previous_sink_(t_sink),
      previous_start_ns_(t_start_ns),
      installed_(sink != nullptr && RuntimeEnabled()) {
  if (installed_) {
    t_sink = sink;
    t_start_ns = MonotonicNowNs();
  }
}

ScopedCollector::~ScopedCollector() {
  if (installed_) {
    t_sink = previous_sink_;
    t_start_ns = previous_start_ns_;
  }
}

uint64_t WallSinceCollectorStartNs() {
  return t_sink == nullptr ? 0 : MonotonicNowNs() - t_start_ns;
}

void RecordStageLatency(Stage stage, uint64_t ns) {
  if (t_sink != nullptr) {
    t_sink->stage_latency[static_cast<size_t>(stage)].Record(ns);
  }
}

void CountGenerated(const std::string& pattern, uint64_t n) {
  if (t_sink != nullptr) {
    t_sink->patterns[pattern].generated += n;
  }
}

void CountExecuted(const std::string& pattern) {
  if (t_sink != nullptr) {
    ++t_sink->patterns[pattern].executed;
  }
}

void CountCrash(const std::string& pattern) {
  if (t_sink != nullptr) {
    ++t_sink->patterns[pattern].crashes;
  }
}

void CountBugDeduped(const std::string& pattern) {
  if (t_sink != nullptr) {
    ++t_sink->patterns[pattern].bugs_deduped;
  }
}

void CountSqlError(const std::string& pattern) {
  if (t_sink != nullptr) {
    ++t_sink->patterns[pattern].sql_errors;
  }
}

void CountFalsePositive(const std::string& pattern) {
  if (t_sink != nullptr) {
    ++t_sink->patterns[pattern].false_positives;
  }
}

void CountTimeout(const std::string& pattern) {
  if (t_sink != nullptr) {
    ++t_sink->patterns[pattern].timeouts;
  }
}

void CountLogicCheck(const std::string& pattern) {
  if (t_sink != nullptr) {
    ++t_sink->patterns[pattern].logic_checks;
  }
}

void CountLogicBug(const std::string& pattern) {
  if (t_sink != nullptr) {
    ++t_sink->patterns[pattern].logic_bugs;
  }
}

}  // namespace telemetry
}  // namespace soft

#endif  // SOFT_TELEMETRY_ENABLED
