#include "src/soft/campaign.h"

namespace soft {

CampaignRecorder::CampaignRecorder(std::string tool, Database& db,
                                   const CampaignOptions& options, bool on_the_fly)
    : db_(db),
      options_(options),
      on_the_fly_(on_the_fly),
      collector_(&result_.telemetry),
      tracer_(options.trace_sample > 0 ? &result_.trace : nullptr, db.config().name,
              options.shard_index, options.trace_sample),
      flight_(options.crash_realism == CrashRealism::kReal),
      start_ns_(telemetry::MonotonicNowNs()) {
  result_.tool = std::move(tool);
  result_.dialect = db.config().name;
  db.set_statement_limits(options.statement_limits);
  db.set_crash_realism(options.crash_realism);
}

void CampaignRecorder::CountGenerated(const std::string& pattern, uint64_t n) {
  if (recording()) {
    result_.telemetry.patterns[pattern].generated += n;
  }
}

StatementResult CampaignRecorder::Execute(const std::string& sql,
                                          const std::string& pattern) {
  const int ordinal = ++result_.statements_executed;
  counters_ = recording() ? &result_.telemetry.patterns[pattern] : nullptr;
  Count(&telemetry::PatternCounters::executed);
  if (on_the_fly_) {
    Count(&telemetry::PatternCounters::generated);
  }
  trace::FlightBeginStatement(ordinal, pattern, sql);
  trace::BeginStatement(ordinal, pattern);
  StatementResult r = db_.Execute(sql);
  if (options_.crash_realism == CrashRealism::kReal) {
    RecordRealizedCrashes();
  }
  if (r.crashed()) {
    outcome_ = "crash";
    ++result_.crashes_observed;
    Count(&telemetry::PatternCounters::crashes);
    trace::AnnotateStatement("bug_id", std::to_string(r.crash->bug_id));
    if (found_ids_.insert(r.crash->bug_id).second) {
      Count(&telemetry::PatternCounters::bugs_deduped);
      trace::AnnotateStatement("first_witness", "1");
      FoundBug bug;
      bug.crash = *r.crash;
      bug.poc_sql = sql;
      bug.found_by = pattern;
      bug.statements_until_found = ordinal;
      bug.wall_recorded = recording();
      bug.found_wall_ns =
          bug.wall_recorded ? static_cast<int64_t>(telemetry::MonotonicNowNs() - start_ns_)
                            : 0;
      result_.unique_bugs.push_back(std::move(bug));
    }
  } else if (r.status.code() == StatusCode::kTimeout) {
    // The statement watchdog killed the query at its deadline: a clean
    // termination, counted separately from crashes and false positives.
    outcome_ = "timeout";
    ++result_.watchdog_timeouts;
    Count(&telemetry::PatternCounters::timeouts);
  } else if (r.status.code() == StatusCode::kResourceExhausted) {
    // The server killed the query on a resource limit: initially flagged as
    // a crash by the detector, later triaged as a false positive (Section
    // 7.3's REPEAT('a', 9999999999) class).
    outcome_ = "resource_exhausted";
    ++result_.false_positives;
    Count(&telemetry::PatternCounters::false_positives);
  } else if (!r.ok()) {
    outcome_ = "sql_error";
    ++result_.sql_errors;
    Count(&telemetry::PatternCounters::sql_errors);
  } else {
    outcome_ = "ok";
  }
  return r;
}

void CampaignRecorder::RecordRealizedCrashes() {
  for (const RealizedCrash& realized : db_.TakeRealizedCrashes()) {
    trace::CrashFlightRecord flight;
    flight.shard = options_.shard_index;
    flight.worker_run = static_cast<int>(result_.crash_flights.size());
    flight.announced = realized.died_by_expected_signal;
    flight.bug_id = realized.crash.bug_id;
    flight.entries = trace::FlightSnapshot();
    if (!flight.entries.empty()) {
      flight.entries.back().stage_reached = std::string(StageName(realized.crash.stage));
      flight.entries.back().outcome = "crash";
    }
    result_.crash_flights.push_back(std::move(flight));
  }
}

void CampaignRecorder::CountLogicCheck(bool divergence, bool attributed) {
  ++result_.logic_checks;
  Count(&telemetry::PatternCounters::logic_checks);
  if (!divergence) {
    return;
  }
  ++result_.logic_divergences;
  if (attributed) {
    Count(&telemetry::PatternCounters::logic_bugs);
  } else {
    ++result_.logic_false_positives;
  }
}

void CampaignRecorder::Close() {
  trace::EndStatement(outcome_);
  trace::FlightEndStatement(outcome_);
  if (options_.progress) {
    options_.progress(result_.statements_executed);
  }
}

CampaignResult CampaignRecorder::Finish() {
  result_.functions_triggered = db_.coverage().TriggeredFunctionCount();
  result_.branches_covered = db_.coverage().CoveredBranchCount();
  return std::move(result_);
}

}  // namespace soft
