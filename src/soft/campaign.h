// Shared campaign types: what a fuzzing run (SOFT or a baseline) reports.
#ifndef SRC_SOFT_CAMPAIGN_H_
#define SRC_SOFT_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/database.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace soft {

struct CampaignOptions {
  uint64_t seed = 1;
  // Statement budget standing in for the paper's wall-clock budgets (all
  // tools are compared under identical budgets).
  int max_statements = 20000;
  // Stop early once every injected bug of the dialect has been found
  // (benches turn this off to measure coverage at full budget).
  bool stop_when_all_bugs_found = false;

  // Case-partitioned sharding (PlanShards in src/soft/parallel_runner.h):
  // when shard_count > 1, a fuzzer with a finite generated case pool
  // executes only the global case indices below max_statements with
  // index % shard_count == shard_index, all derived from the same base seed.
  // The shards together execute exactly the serial campaign's cases, but
  // each shard runs them against its own database, so a statement that
  // reads session state (LASTVAL, sequences) can see a different history
  // than in the serial run: outcomes, and occasionally the bug set, can
  // differ from serial. The exact reference for a K-shard run is a K-shard
  // run. Fuzzers that generate statements as they run (the baselines)
  // ignore these fields and are never sharded.
  int shard_index = 0;
  int shard_count = 1;

  // Crash realization (src/fault/fault.h), applied to the campaign database
  // at Run start. Under kReal each fired fault is also realized in a forked
  // copy that dies by the real signal; the campaign itself carries on, so
  // its outcome is the simulated one and crash_flights records each copy.
  CrashRealism crash_realism = CrashRealism::kSimulated;

  // Statement-watchdog budgets, applied to the campaign database at Run
  // start. Statements killed by the deadline count as watchdog_timeouts;
  // fuel/row kills surface as kResourceExhausted (false positives).
  StatementLimits statement_limits;

  // Per-statement progress callback: every fuzzer's Run calls it (through
  // CampaignRecorder::Close) after each executed statement with the
  // statements executed so far. Strictly observational — it has no way to
  // stop or degrade the campaign. Fleet workers throttle it into
  // heartbeats.
  std::function<void(int statements_executed)> progress;

  // Span tracing (src/telemetry/trace.h): 0 disables tracing (the default —
  // campaigns carry an empty trace); N ≥ 1 records a statement span with
  // stage children for every N-th executed statement (1 = all). Strictly
  // observational — bug sets, coverage, and outcome digests are identical at
  // every setting. Exposed as find_bugs --trace-sample=N.
  int trace_sample = 0;

  // Logic-bug oracles ("eet", "diff", "norec", "tlp", "all" — see
  // src/soft/logic_oracle.h). Non-empty switches the campaign into
  // wrong-result mode: the database arms its seeded LogicBugSpec corpus
  // after prerequisites, every seeded bug's PoC is queued ahead of the
  // generated pool, and each successfully executed SELECT is examined by
  // every listed oracle. Under CrashRealism::kReal only campaign statements
  // are realized: oracle re-executions run simulated, so a run's checks,
  // logic bugs and digests are the simulated run's.
  std::vector<std::string> logic_oracles;
};

struct FoundBug {
  CrashInfo crash;
  std::string poc_sql;
  // SOFT: the boundary-value-generation pattern that produced the PoC
  // ("P1.2", ...); baselines: the tool name.
  std::string found_by;
  int statements_until_found = 0;
  // Shard that found this witness (0 for serial campaigns). Sharded merges
  // keep the lowest (shard, statements_until_found) witness per bug so
  // attribution is independent of thread scheduling.
  int shard = 0;
  // Wall-clock nanoseconds from campaign start to this first witness,
  // stamped when telemetry is recording. Observational only — exported to
  // the NDJSON journal, never part of the determinism contract and never
  // compared by the bit-identical-merge tests. `wall_recorded` says whether
  // a collector was actually recording: a 0 with wall_recorded == true is a
  // genuine sub-nanosecond-resolution hit, a 0 with wall_recorded == false
  // means "no telemetry" (journal `first_witness` events carry this as the
  // `recorded` field so the two are distinguishable offline).
  int64_t found_wall_ns = 0;
  bool wall_recorded = false;
};

// One detected wrong-result bug (campaign logic-oracle mode). The verdict
// came from result comparison alone; `info` is the ground-truth spec the
// engine recorded when it perturbed the value, attached afterwards so tests
// can assert detection completeness.
struct FoundLogicBug {
  LogicBugInfo info;
  std::string oracle;   // first oracle that flagged it ("eet", "diff", ...)
  std::string poc_sql;  // the campaign statement whose result diverged
  std::string witness;  // variant SQL / sibling dialect / reference predicate
  std::string detail;
  // Global case index of the flagging statement — shard-invariant under
  // partition sharding, unlike statements_until_found (shard-local).
  int case_index = 0;
  int statements_until_found = 0;
  int shard = 0;
};

struct CampaignResult {
  std::string tool;
  std::string dialect;
  int statements_executed = 0;
  int sql_errors = 0;
  int crashes_observed = 0;        // crash events incl. duplicates
  int false_positives = 0;         // resource-limit kills (REPEAT(...,1e10) class)
  int watchdog_timeouts = 0;       // statement-deadline kills (kTimeout)
  std::vector<FoundBug> unique_bugs;

  // Wrong-result detection (CampaignOptions::logic_oracles). Counters and
  // bug set are shard-invariant: each case is examined exactly once, in
  // whichever shard executes it, against a database (and differential
  // siblings) that replayed exactly that shard's side effects.
  std::vector<FoundLogicBug> logic_bugs;  // sorted by (case_index, bug_id)
  int logic_checks = 0;           // oracle examinations that were in scope
  int logic_divergences = 0;      // examinations that flagged a divergence
  int logic_false_positives = 0;  // divergences with no recorded fault hit

  // Coverage snapshot after the campaign (Table 5 / Table 6 quantities).
  size_t functions_triggered = 0;
  size_t branches_covered = 0;

  // Sharding record (see src/soft/parallel_runner.h). Serial campaigns keep
  // shards == 1 and an empty per-shard breakdown; merged sharded campaigns
  // report the shard count and each shard's statements_executed.
  int shards = 1;
  std::vector<int> shard_statements;

  // True when a finished shard's result could not be committed to the unit
  // spool (src/soft/unit_spool.h): the campaign outcome is complete and
  // deterministic, but a resume of its journal re-runs that shard. Sharded
  // merges OR the per-shard flags. Exported as `journal_degraded` on the
  // journal's campaign_finish event.
  bool journal_degraded = false;

  // Observability snapshot (src/telemetry): stage-latency histograms and
  // per-pattern counters recorded during this campaign. Merged sharded
  // campaigns carry the deterministic shard-index-ordered sum. Empty under
  // telemetry::SetRuntimeEnabled(false).
  telemetry::CampaignTelemetry telemetry;

  // Causal span trace (src/telemetry/trace.h). Empty unless
  // CampaignOptions::trace_sample > 0. Serial in-process runs carry their
  // statement spans; the sharded runner adds shard/worker-run structure and
  // the campaign root at merge (shard-index order, deterministic). Strictly
  // observational — excluded from the outcome digest and the bit-identity
  // comparisons.
  trace::TraceData trace;

  // Flight records for every crash realized in a kReal campaign, shard-index
  // ordered (src/telemetry/trace.h). Exported as `crash_flight` journal
  // events. Empty for simulated campaigns.
  std::vector<trace::CrashFlightRecord> crash_flights;
};

// The one statement recorder of every fuzzer, SOFT and the baselines.
// Constructed at the top of a Run, it owns the campaign's result, applies
// the statement limits and crash realism to the database, and installs the
// telemetry collector (for the engine's stage timers) for the campaign's
// lifetime. Each campaign statement goes through Execute, which runs it and
// folds its outcome into the result totals, the per-pattern counters, the
// first-witness dedup, its span (every trace_sample-th statement, with
// stage children built from the stage timings the engine returns), the
// kReal flight ring and one flight record per realized crash, then Close,
// which ends its span and flight entry. A caller may examine and annotate
// the open statement in between (SOFT's logic oracles); what it executes
// itself, like an oracle's re-executions, reaches the collector but never
// the recorder. Per-pattern counters and wall stamps are written only while
// the collector is installed, so telemetry::SetRuntimeEnabled(false) leaves
// the result's telemetry empty.
class CampaignRecorder {
 public:
  // `on_the_fly`: the fuzzer generates each statement as it runs it, so
  // every executed statement also counts as generated (the baselines). A
  // pool-driven fuzzer reports its pool through CountGenerated instead.
  CampaignRecorder(std::string tool, Database& db, const CampaignOptions& options,
                   bool on_the_fly);

  CampaignResult& result() { return result_; }
  // True when per-pattern counters are being written.
  bool recording() const { return collector_.installed(); }

  // Adds `n` cases to `pattern`'s generation census.
  void CountGenerated(const std::string& pattern, uint64_t n);

  // Runs `sql` as the campaign's next statement, attributed to `pattern`
  // (the SOFT pattern or the baseline's tool name), and folds its outcome
  // in. The statement stays open until Close.
  StatementResult Execute(const std::string& sql, const std::string& pattern);

  // Adds `key` = `value` to the open statement's span, if it is sampled.
  void Annotate(std::string key, std::string value);

  // Folds one in-scope logic-oracle examination of the open statement. A
  // divergence is `attributed` when the statement hit a recorded fault (a
  // logic bug); otherwise it is a false positive.
  void CountLogicCheck(bool divergence, bool attributed);

  // Ends the open statement's span and flight entry and reports progress.
  void Close();

  // Snapshots the database's coverage into the result and hands it over.
  CampaignResult Finish();

 private:
  // Starts the span of statement `ordinal` when it is sampled.
  void OpenSpan(int ordinal, const std::string& pattern);
  // Appends the open span, then its stage children in pipeline order.
  void CloseSpan();

  // The flight ring's slot of statement `ordinal` (kReal only).
  trace::FlightEntry& FlightSlot(int ordinal) {
    return flight_ring_[static_cast<size_t>(ordinal - 1) % trace::kFlightRingCapacity];
  }
  // Appends a flight record for each crash the database realized during the
  // open statement: the ring as it stands, the statement itself newest.
  void RecordRealizedCrashes();

  void Count(uint64_t telemetry::PatternCounters::*member) {
    if (counters_ != nullptr) {
      ++(counters_->*member);
    }
  }

  Database& db_;
  const CampaignOptions& options_;
  const bool on_the_fly_;
  CampaignResult result_;
  const telemetry::ScopedCollector collector_;
  const uint64_t start_ns_;  // spans are placed relative to it
  std::set<int> found_ids_;
  // The open statement's pattern counters; null while not recording.
  telemetry::PatternCounters* counters_ = nullptr;
  std::string_view outcome_ = "ok";
  // The open statement's span while it is sampled, the stage timings its
  // children are built from, and the failpoint fire total it opened at.
  bool span_open_ = false;
  trace::TraceSpan span_;
  StageTimings span_stages_{};
  uint64_t fires_before_ = 0;
  // kReal: the last kFlightRingCapacity statements, the one of ordinal n in
  // slot (n - 1) % kFlightRingCapacity.
  std::vector<trace::FlightEntry> flight_ring_;
};

// Common interface so the comparison benches can run the four tools
// uniformly.
class Fuzzer {
 public:
  virtual ~Fuzzer() = default;
  virtual std::string name() const = 0;
  // Runs one campaign against `db`. The fuzzer owns nothing: the database's
  // coverage tracker accumulates, and its tables may be created/dropped.
  virtual CampaignResult Run(Database& db, const CampaignOptions& options) = 0;
};

}  // namespace soft

#endif  // SRC_SOFT_CAMPAIGN_H_
