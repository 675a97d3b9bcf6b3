#include "src/fleet/doctor.h"

#include <algorithm>
#include <cstdio>

namespace soft {
namespace fleet {

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk:
      return "ok";
    case HealthState::kWarn:
      return "warn";
    case HealthState::kStall:
      return "stall";
  }
  return "unknown";
}

HealthDoctor::HealthDoctor(const DoctorOptions& options, uint64_t lease_ns,
                           uint64_t start_ns)
    : options_(options), lease_ns_(lease_ns), last_completion_ns_(start_ns) {}

HealthVerdict HealthDoctor::Observe(const HealthSample& sample) {
  if (sample.units_completed > last_units_completed_) {
    last_units_completed_ = sample.units_completed;
    last_completion_ns_ = sample.now_ns;
  }

  window_.push_back(sample);
  while (window_.size() > 1 &&
         window_.front().now_ns + options_.window_ns < sample.now_ns) {
    window_.pop_front();
  }

  const HealthSample& oldest = window_.front();
  const double dt_s =
      static_cast<double>(sample.now_ns - oldest.now_ns) / 1e9;
  rates_ = telemetry::HealthRates{};
  if (dt_s > 0.0) {
    const auto rate = [&](uint64_t newer, uint64_t older) {
      return static_cast<double>(newer - older) / dt_s;
    };
    rates_.statements_per_s = rate(sample.statements, oldest.statements);
    rates_.units_per_s = rate(sample.units_completed, oldest.units_completed);
    rates_.bugs_per_s = rate(sample.bugs, oldest.bugs);
    rates_.reclaims_per_s = rate(sample.reclaims, oldest.reclaims);
    rates_.redeliveries_per_s = rate(sample.redeliveries, oldest.redeliveries);
  }

  HealthState next = HealthState::kOk;
  std::string reason = "ok";
  const uint64_t stall_after =
      lease_ns_ * static_cast<uint64_t>(std::max(options_.stall_lease_periods, 1));
  const uint64_t window_reclaims = sample.reclaims - oldest.reclaims;
  if (!sample.all_done &&
      sample.now_ns - last_completion_ns_ >= stall_after) {
    next = HealthState::kStall;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "no unit completion in %d lease periods",
                  std::max(options_.stall_lease_periods, 1));
    reason = buf;
  } else if (sample.journal_degraded) {
    next = HealthState::kWarn;
    reason = "journal degraded";
  } else if (options_.reclaim_spike > 0 &&
             window_reclaims >= options_.reclaim_spike) {
    next = HealthState::kWarn;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "reclaim spike: %llu reclaims in window",
                  static_cast<unsigned long long>(window_reclaims));
    reason = buf;
  } else if (!sample.all_done && peak_statements_per_s_ > 0.0 && dt_s > 0.0 &&
             rates_.statements_per_s <
                 options_.collapse_fraction * peak_statements_per_s_) {
    next = HealthState::kWarn;
    reason = "throughput collapse vs rolling baseline";
  }

  // The peak baseline updates after the collapse check, so the sample that
  // sets a new peak can never be judged against itself.
  peak_statements_per_s_ =
      std::max(peak_statements_per_s_, rates_.statements_per_s);

  HealthVerdict verdict;
  verdict.changed = next != state_;
  verdict.state = next;
  verdict.reason = reason;
  verdict.rates = rates_;
  state_ = next;
  reason_ = std::move(reason);
  return verdict;
}

}  // namespace fleet
}  // namespace soft
