// Shared helpers for the baseline fuzzers. Internal to src/baselines.
#ifndef SRC_BASELINES_BASELINE_UTIL_H_
#define SRC_BASELINES_BASELINE_UTIL_H_

#include <set>
#include <string>

#include "src/soft/campaign.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace soft {

// Executes one statement and folds the outcome into the campaign result.
// Telemetry: the baselines generate statements on the fly, so `found_by`
// (the tool name) is the counter key and generated == executed.
inline void ExecuteAndRecord(Database& db, const std::string& sql,
                             const std::string& found_by, CampaignResult& result,
                             std::set<int>& found_ids) {
  ++result.statements_executed;
  telemetry::CountGenerated(found_by, 1);
  telemetry::CountExecuted(found_by);
  trace::FlightBeginStatement(result.statements_executed, found_by, sql);
  trace::BeginStatement(result.statements_executed, found_by);
  const StatementResult r = db.Execute(sql);
  if (r.crashed()) {
    ++result.crashes_observed;
    telemetry::CountCrash(found_by);
    trace::AnnotateStatement("bug_id", std::to_string(r.crash->bug_id));
    if (found_ids.insert(r.crash->bug_id).second) {
      telemetry::CountBugDeduped(found_by);
      trace::AnnotateStatement("first_witness", "1");
      FoundBug bug;
      bug.crash = *r.crash;
      bug.poc_sql = sql;
      bug.found_by = found_by;
      bug.statements_until_found = result.statements_executed;
      bug.found_wall_ns = static_cast<int64_t>(telemetry::WallSinceCollectorStartNs());
      bug.wall_recorded = telemetry::CollectorInstalled();
      result.unique_bugs.push_back(std::move(bug));
    }
    trace::EndStatement("crash");
    trace::FlightEndStatement("crash");
    return;
  }
  if (r.status.code() == StatusCode::kTimeout) {
    ++result.watchdog_timeouts;
    telemetry::CountTimeout(found_by);
    trace::EndStatement("timeout");
    trace::FlightEndStatement("timeout");
    return;
  }
  if (r.status.code() == StatusCode::kResourceExhausted) {
    ++result.false_positives;
    telemetry::CountFalsePositive(found_by);
    trace::EndStatement("resource_exhausted");
    trace::FlightEndStatement("resource_exhausted");
    return;
  }
  if (!r.ok()) {
    ++result.sql_errors;
    telemetry::CountSqlError(found_by);
    trace::EndStatement("sql_error");
    trace::FlightEndStatement("sql_error");
    return;
  }
  trace::EndStatement("ok");
  trace::FlightEndStatement("ok");
}

// Installs the span tracer and flight recorder for a baseline campaign —
// the counterpart of the install block at the top of SoftFuzzer::Run.
// Declare one of these right after the ScopedCollector in a baseline's Run.
struct ScopedBaselineRecorders {
  trace::ScopedStatementTracer tracer;
  trace::ScopedFlightRecorder flight;

  ScopedBaselineRecorders(CampaignResult& result, const CampaignOptions& options)
      : tracer(options.trace_sample > 0 ? &result.trace : nullptr, result.dialect,
               options.shard_index, options.trace_sample),
        flight(options.crash_realism == CrashRealism::kReal) {}
};

// Campaign-start housekeeping shared by the baseline Run()s: applies the
// watchdog budgets to the campaign database.
inline void ApplyCampaignLimits(Database& db, const CampaignOptions& options) {
  db.set_statement_limits(options.statement_limits);
}

// Benign literal generators shared by the baselines: small integers, short
// alphabetic strings, exponent-tagged doubles (so the parser types them as
// DOUBLE, not exact DECIMAL — matching how the real tools bind parameters).
inline std::string BenignInt(Rng& rng) { return std::to_string(rng.NextBelow(10)); }

inline std::string BenignDouble(Rng& rng) {
  return std::to_string(rng.NextBelow(10)) + "." + std::to_string(rng.NextBelow(10)) +
         "e0";
}

inline std::string BenignString(Rng& rng) {
  return "'" + rng.NextIdentifier(1 + rng.NextBelow(8)) + "'";
}

}  // namespace soft

#endif  // SRC_BASELINES_BASELINE_UTIL_H_
