// Campaign-health doctor: rolling-window rate derivation + SLO rules for
// the fleet coordinator (docs/OBSERVABILITY.md, "Doctor").
//
// The doctor is a pure state machine over explicit timestamps — the same
// injectable-clock discipline as LeaseTable (src/fleet/lease.h): it never
// reads a clock, the caller stamps every sample with now_ns, and tests walk
// stalls and recoveries with a fake clock. The coordinator samples it once
// per poll-loop iteration with cumulative counters; the doctor keeps a
// rolling window, derives per-second rates (telemetry::HealthRates), and
// applies the SLO rules:
//
//   stall  no unit completion within stall_lease_periods lease periods
//          while units remain — the campaign is wedged (silent workers,
//          dead pool, live-locked leases).
//   warn   the journal sink degraded mid-run; or >= reclaim_spike lease
//          reclaims landed inside one rolling window (workers are dying or
//          being partitioned faster than they finish units); or the
//          statements/s rate collapsed below collapse_fraction of the
//          rolling peak while work remains.
//   ok     none of the above (also the terminal state once all units are
//          done — a finished campaign cannot stall).
//
// Verdicts carry `changed` so the caller journals transitions, not every
// sample: a healthy week-long campaign journals one `health` line.
#ifndef SRC_FLEET_DOCTOR_H_
#define SRC_FLEET_DOCTOR_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "src/telemetry/telemetry.h"

namespace soft {
namespace fleet {

enum class HealthState { kOk = 0, kWarn = 1, kStall = 2 };

std::string_view HealthStateName(HealthState state);

struct DoctorOptions {
  // Rolling window the rates are derived over.
  uint64_t window_ns = 10ull * 1000 * 1000 * 1000;
  // Stall SLO: lease periods without any unit completion.
  int stall_lease_periods = 3;
  // Warn SLO: lease reclaims inside one window.
  uint64_t reclaim_spike = 3;
  // Warn SLO: statements/s below this fraction of the rolling peak.
  double collapse_fraction = 0.25;
};

// One observation of the coordinator's cumulative counters.
struct HealthSample {
  uint64_t now_ns = 0;
  uint64_t statements = 0;       // cumulative merged statements
  uint64_t units_completed = 0;  // cumulative accepted unit results
  uint64_t bugs = 0;             // cumulative unique bugs merged
  uint64_t reclaims = 0;         // cumulative lease reclaims
  uint64_t redeliveries = 0;     // cumulative GRANT redeliveries
  bool journal_degraded = false;
  bool all_done = false;
};

struct HealthVerdict {
  HealthState state = HealthState::kOk;
  bool changed = false;  // state differs from the previous verdict
  std::string reason;    // the rule that fired; "ok" when healthy
  telemetry::HealthRates rates;
};

class HealthDoctor {
 public:
  // `lease_ns` scales the stall SLO; `start_ns` seeds the no-completion
  // timer so a campaign that never completes anything still stalls.
  HealthDoctor(const DoctorOptions& options, uint64_t lease_ns,
               uint64_t start_ns);

  // Samples must arrive in non-decreasing now_ns order with non-decreasing
  // cumulative counters (both hold by construction in the coordinator).
  HealthVerdict Observe(const HealthSample& sample);

  HealthState state() const { return state_; }
  const std::string& reason() const { return reason_; }
  const telemetry::HealthRates& rates() const { return rates_; }

 private:
  DoctorOptions options_;
  uint64_t lease_ns_;
  uint64_t last_completion_ns_;
  uint64_t last_units_completed_ = 0;
  double peak_statements_per_s_ = 0.0;
  std::deque<HealthSample> window_;
  HealthState state_ = HealthState::kOk;
  std::string reason_ = "ok";
  telemetry::HealthRates rates_;
};

}  // namespace fleet
}  // namespace soft

#endif  // SRC_FLEET_DOCTOR_H_
