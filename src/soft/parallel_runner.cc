#include "src/soft/parallel_runner.h"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

#include "src/soft/unit_spool.h"

namespace soft {

std::vector<ShardPlan> PlanShards(const CampaignOptions& options, int shards) {
  const int count = std::max(shards, 1);
  std::vector<ShardPlan> plans(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    ShardPlan& plan = plans[static_cast<size_t>(i)];
    plan.shard = i;
    // Base seed and full budget: the fuzzer itself restricts execution to
    // global case indices ≡ i (mod count) below the budget (campaign.h).
    plan.options = options;
    plan.options.shard_index = i;
    plan.options.shard_count = count;
  }
  return plans;
}

ParallelCampaignRunner::ParallelCampaignRunner(FuzzerFactory make_fuzzer,
                                               DatabaseFactory make_database)
    : make_fuzzer_(std::move(make_fuzzer)), make_database_(std::move(make_database)) {}

namespace {

// Builds the shard's structural spans (campaign → shard → worker-run) and
// rebases the shard-local spans already in `result.trace` onto the campaign
// clock. The worker-run span is the one in-process run covering the whole
// shard; statement spans (recorded with parent 0 — the fuzzer cannot know
// its run) hang off it. Observational only.
void AttachShardSpans(CampaignResult& result, int shard, uint64_t shard_start_ns,
                      uint64_t shard_end_ns, CrashRealism realism) {
  const std::string& dialect = result.dialect;
  const uint64_t campaign_id =
      trace::SpanId(dialect, -1, trace::SpanKind::kCampaign, 0);
  const uint64_t shard_id = trace::SpanId(dialect, shard, trace::SpanKind::kShard, 0);
  const uint64_t run_id = trace::SpanId(dialect, shard, trace::SpanKind::kWorkerRun, 0);
  for (trace::TraceSpan& span : result.trace.spans) {
    if (span.kind == trace::SpanKind::kStatement && span.parent_id == 0) {
      span.parent_id = run_id;
    }
    span.start_ns += shard_start_ns;  // shard clock → campaign clock
  }
  trace::TraceSpan shard_span;
  shard_span.id = shard_id;
  shard_span.parent_id = campaign_id;
  shard_span.kind = trace::SpanKind::kShard;
  shard_span.shard = shard;
  shard_span.start_ns = shard_start_ns;
  shard_span.dur_ns = shard_end_ns - shard_start_ns;
  shard_span.args.emplace_back("statements",
                               std::to_string(result.statements_executed));
  shard_span.args.emplace_back("mode",
                               realism == CrashRealism::kReal ? "real" : "sim");
  trace::TraceSpan run;
  run.id = run_id;
  run.parent_id = shard_id;
  run.kind = trace::SpanKind::kWorkerRun;
  run.shard = shard;
  run.start_ns = shard_start_ns;
  run.dur_ns = shard_span.dur_ns;
  run.args.emplace_back("run", "0");
  run.args.emplace_back("verdict", "in-process");
  result.trace.spans.insert(result.trace.spans.begin(), std::move(run));
  result.trace.spans.insert(result.trace.spans.begin(), std::move(shard_span));
}

}  // namespace

ShardResult ExecuteShardPlan(const FuzzerFactory& make_fuzzer,
                             const DatabaseFactory& make_database,
                             const ShardPlan& plan, uint64_t campaign_base_ns) {
  ShardResult outcome;
  const bool tracing = plan.options.trace_sample > 0;
  const uint64_t shard_start_ns =
      tracing ? telemetry::MonotonicNowNs() - campaign_base_ns : 0;
  std::unique_ptr<Database> db = make_database();
  std::unique_ptr<Fuzzer> fuzzer = make_fuzzer();
  if (db == nullptr || fuzzer == nullptr) {
    return outcome;
  }
  outcome.result = fuzzer->Run(*db, plan.options);
  for (FoundBug& bug : outcome.result.unique_bugs) {
    bug.shard = plan.shard;
  }
  for (FoundLogicBug& bug : outcome.result.logic_bugs) {
    bug.shard = plan.shard;
  }
  outcome.coverage = db->coverage();
  if (tracing) {
    AttachShardSpans(outcome.result, plan.shard, shard_start_ns,
                     telemetry::MonotonicNowNs() - campaign_base_ns,
                     plan.options.crash_realism);
  }
  return outcome;
}

CampaignResult MergeShardResults(std::vector<ShardResult> outcomes) {
  CampaignResult merged;
  if (outcomes.empty()) {
    return merged;
  }
  merged.tool = outcomes.front().result.tool;
  merged.dialect = outcomes.front().result.dialect;
  merged.shards = static_cast<int>(outcomes.size());

  CoverageTracker coverage;
  std::vector<FoundBug> witnesses;
  std::vector<FoundLogicBug> logic_witnesses;
  for (const ShardResult& outcome : outcomes) {
    const CampaignResult& r = outcome.result;
    merged.statements_executed += r.statements_executed;
    merged.sql_errors += r.sql_errors;
    merged.crashes_observed += r.crashes_observed;
    merged.false_positives += r.false_positives;
    merged.watchdog_timeouts += r.watchdog_timeouts;
    merged.logic_checks += r.logic_checks;
    merged.logic_divergences += r.logic_divergences;
    merged.logic_false_positives += r.logic_false_positives;
    merged.journal_degraded |= r.journal_degraded;
    merged.shard_statements.push_back(r.statements_executed);
    // Telemetry merges by per-bucket / per-counter sum, walking shards in
    // index order; the merged snapshot is a pure function of the shard
    // results, never of thread scheduling.
    merged.telemetry.MergeFrom(r.telemetry);
    coverage.MergeFrom(outcome.coverage);
    witnesses.insert(witnesses.end(), r.unique_bugs.begin(), r.unique_bugs.end());
    logic_witnesses.insert(logic_witnesses.end(), r.logic_bugs.begin(),
                           r.logic_bugs.end());
    // Trace spans and flight records concatenate in shard index order — the
    // merged trace is a pure function of the shard outcomes, like telemetry.
    merged.trace.Append(r.trace);
    merged.crash_flights.insert(merged.crash_flights.end(), r.crash_flights.begin(),
                                r.crash_flights.end());
  }
  if (!merged.trace.empty()) {
    // Campaign root span: starts at the campaign clock origin and covers the
    // latest shard end. Prepended so exports list the root first.
    trace::TraceSpan root;
    root.id = trace::SpanId(merged.dialect, -1, trace::SpanKind::kCampaign, 0);
    root.kind = trace::SpanKind::kCampaign;
    root.shard = -1;
    for (const trace::TraceSpan& span : merged.trace.spans) {
      if (span.kind == trace::SpanKind::kShard) {
        root.dur_ns = std::max(root.dur_ns, span.start_ns + span.dur_ns);
      }
    }
    root.args.emplace_back("tool", merged.tool);
    root.args.emplace_back("dialect", merged.dialect);
    root.args.emplace_back("shards", std::to_string(merged.shards));
    merged.trace.spans.insert(merged.trace.spans.begin(), std::move(root));
  }

  // Dedupe by crash identity, keeping the lowest (shard,
  // statements_until_found) witness. Walking shards in index order means the
  // first witness seen per bug id is already the winner on `shard`; the
  // comparison settles ties inside one shard (cannot occur — a shard reports
  // each bug once) and keeps the rule explicit.
  std::map<int, FoundBug> best;
  for (FoundBug& bug : witnesses) {
    const auto [it, inserted] = best.try_emplace(bug.crash.bug_id, bug);
    if (!inserted &&
        std::make_pair(bug.shard, bug.statements_until_found) <
            std::make_pair(it->second.shard, it->second.statements_until_found)) {
      it->second = std::move(bug);
    }
  }
  // Report in global discovery order (shard-major, then statement index),
  // mirroring a serial campaign's discovery-ordered list.
  merged.unique_bugs.reserve(best.size());
  for (auto& [id, bug] : best) {
    merged.unique_bugs.push_back(std::move(bug));
  }
  std::sort(merged.unique_bugs.begin(), merged.unique_bugs.end(),
            [](const FoundBug& a, const FoundBug& b) {
              return std::make_tuple(a.shard, a.statements_until_found, a.crash.bug_id) <
                     std::make_tuple(b.shard, b.statements_until_found, b.crash.bug_id);
            });

  // Logic bugs dedupe by bug id on the lowest global case index — the same
  // case flags the same bug in whichever shard executes it, so the winner
  // (and the merged order below) is shard-count-invariant.
  std::map<int, FoundLogicBug> best_logic;
  for (FoundLogicBug& bug : logic_witnesses) {
    const auto [it, inserted] = best_logic.try_emplace(bug.info.bug_id, bug);
    if (!inserted && bug.case_index < it->second.case_index) {
      it->second = std::move(bug);
    }
  }
  merged.logic_bugs.reserve(best_logic.size());
  for (auto& [id, bug] : best_logic) {
    merged.logic_bugs.push_back(std::move(bug));
  }
  std::sort(merged.logic_bugs.begin(), merged.logic_bugs.end(),
            [](const FoundLogicBug& a, const FoundLogicBug& b) {
              return a.case_index != b.case_index ? a.case_index < b.case_index
                                                  : a.info.bug_id < b.info.bug_id;
            });

  merged.functions_triggered = coverage.TriggeredFunctionCount();
  merged.branches_covered = coverage.CoveredBranchCount();
  return merged;
}

ShardResult ParallelCampaignRunner::RunPlan(const ShardPlan& plan,
                                            uint64_t campaign_base_ns) const {
  if (spool_ != nullptr) {
    if (std::optional<ShardResult> admitted = spool_->TakeAdmitted(plan.shard)) {
      return std::move(*admitted);
    }
  }
  ShardResult outcome =
      ExecuteShardPlan(make_fuzzer_, make_database_, plan, campaign_base_ns);
  if (spool_ != nullptr) {
    // A failed commit latches journal_degraded on the outcome; the campaign
    // carries on — only a resume pays, by re-running this shard.
    static_cast<void>(spool_->Commit(plan.shard, /*worker=*/-1, outcome));
  }
  return outcome;
}

CampaignResult ParallelCampaignRunner::Run(const CampaignOptions& options,
                                           int shards) const {
  const std::vector<ShardPlan> plans = PlanShards(options, shards);
  const uint64_t campaign_base_ns = telemetry::MonotonicNowNs();
  std::vector<ShardResult> outcomes(plans.size());
  if (plans.size() == 1) {
    outcomes[0] = RunPlan(plans[0], campaign_base_ns);
    return MergeShardResults(std::move(outcomes));
  }
  std::vector<std::thread> workers;
  workers.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    workers.emplace_back([this, &plans, &outcomes, campaign_base_ns, i] {
      outcomes[i] = RunPlan(plans[i], campaign_base_ns);
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  return MergeShardResults(std::move(outcomes));
}

CampaignResult ParallelCampaignRunner::RunSerial(const CampaignOptions& options,
                                                 int shards) const {
  const std::vector<ShardPlan> plans = PlanShards(options, shards);
  const uint64_t campaign_base_ns = telemetry::MonotonicNowNs();
  std::vector<ShardResult> outcomes(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    outcomes[i] = RunPlan(plans[i], campaign_base_ns);
  }
  return MergeShardResults(std::move(outcomes));
}

}  // namespace soft
