#include "src/soft/campaign.h"

#include <algorithm>

#include "src/failpoint/failpoint.h"

namespace soft {
namespace {

// Sum of fires across the inventory — read only while something is armed
// (the armed-chaos case: 22 registry lookups).
uint64_t TotalFailpointFires() {
  uint64_t total = 0;
  for (const failpoint::SiteInfo& site : failpoint::kInventory) {
    total += failpoint::Stats(site.name).fires;
  }
  return total;
}

}  // namespace

CampaignRecorder::CampaignRecorder(std::string tool, Database& db,
                                   const CampaignOptions& options, bool on_the_fly)
    : db_(db),
      options_(options),
      on_the_fly_(on_the_fly),
      collector_(&result_.telemetry),
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
  const bool real = options_.crash_realism == CrashRealism::kReal;
  if (real) {
    if (flight_ring_.size() < trace::kFlightRingCapacity) {
      flight_ring_.emplace_back();
    }
    trace::FlightEntry& entry = FlightSlot(ordinal);
    entry.statement_index = ordinal;
    entry.pattern.assign(pattern);
    entry.sql.assign(sql);
    entry.outcome = "in-flight";
  }
  OpenSpan(ordinal, pattern);
  StatementResult r = db_.Execute(sql);
  span_stages_ = r.timings;
  if (real) {
    FlightSlot(ordinal).stage_reached = StageName(r.DeepestStage());
    RecordRealizedCrashes();
  }
  if (r.crashed()) {
    outcome_ = "crash";
    ++result_.crashes_observed;
    Count(&telemetry::PatternCounters::crashes);
    Annotate("bug_id", std::to_string(r.crash->bug_id));
    if (found_ids_.insert(r.crash->bug_id).second) {
      Count(&telemetry::PatternCounters::bugs_deduped);
      Annotate("first_witness", "1");
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

void CampaignRecorder::OpenSpan(int ordinal, const std::string& pattern) {
  // Sample the 1st, (1+N)th, ... statement, so a trace always has the first.
  span_open_ = options_.trace_sample > 0 && (ordinal - 1) % options_.trace_sample == 0;
  if (!span_open_) {
    return;
  }
  span_ = trace::TraceSpan{};
  span_.id =
      trace::SpanId(result_.dialect, options_.shard_index, trace::SpanKind::kStatement, ordinal);
  span_.kind = trace::SpanKind::kStatement;
  span_.shard = options_.shard_index;
  span_.start_ns = telemetry::MonotonicNowNs() - start_ns_;
  span_.args.emplace_back("index", std::to_string(ordinal));
  span_.args.emplace_back("pattern", pattern);
  fires_before_ = failpoint::AnyArmed() ? TotalFailpointFires() : 0;
}

void CampaignRecorder::Annotate(std::string key, std::string value) {
  if (span_open_) {
    span_.args.emplace_back(std::move(key), std::move(value));
  }
}

void CampaignRecorder::CloseSpan() {
  span_open_ = false;
  span_.dur_ns = telemetry::MonotonicNowNs() - start_ns_ - span_.start_ns;
  span_.args.emplace_back("outcome", std::string(outcome_));
  if (failpoint::AnyArmed()) {
    const uint64_t delta = TotalFailpointFires() - fires_before_;
    if (delta > 0) {
      span_.args.emplace_back("failpoint_fires", std::to_string(delta));
    }
  }
  const uint64_t parent_id = span_.id;
  std::vector<trace::TraceSpan>& spans = result_.trace.spans;
  spans.push_back(std::move(span_));
  for (size_t s = 0; s < span_stages_.size(); ++s) {
    const StageTiming& timing = span_stages_[s];
    if (!timing.entered()) {
      continue;  // a parse error has one child, a full pipeline three
    }
    const trace::SpanKind kind = trace::StageSpanKind(static_cast<Stage>(s));
    trace::TraceSpan& stage = spans.emplace_back();
    // The stage folds into the statement ordinal so IDs stay unique across
    // the whole shard: statement i, stage s → i*4+s+1.
    stage.id = trace::SpanId(result_.dialect, options_.shard_index, kind,
                             result_.statements_executed * 4 + static_cast<int>(s) + 1);
    stage.parent_id = parent_id;
    stage.kind = kind;
    stage.shard = options_.shard_index;
    stage.start_ns = timing.start_ns - start_ns_;
    stage.dur_ns = timing.dur_ns;
  }
}

void CampaignRecorder::RecordRealizedCrashes() {
  const int newest = result_.statements_executed;
  const int oldest = std::max(1, newest - static_cast<int>(trace::kFlightRingCapacity) + 1);
  for (const RealizedCrash& realized : db_.TakeRealizedCrashes()) {
    trace::CrashFlightRecord flight;
    flight.shard = options_.shard_index;
    flight.worker_run = static_cast<int>(result_.crash_flights.size());
    flight.announced = realized.died_by_expected_signal;
    flight.bug_id = realized.crash.bug_id;
    for (int ordinal = oldest; ordinal <= newest; ++ordinal) {
      flight.entries.push_back(FlightSlot(ordinal));
    }
    flight.entries.back().stage_reached = std::string(StageName(realized.crash.stage));
    flight.entries.back().outcome = "crash";
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
  if (span_open_) {
    CloseSpan();
  }
  if (!flight_ring_.empty()) {
    FlightSlot(result_.statements_executed).outcome.assign(outcome_);
  }
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
