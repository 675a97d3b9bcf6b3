// Shared campaign types: what a fuzzing run (SOFT or a baseline) reports.
#ifndef SRC_SOFT_CAMPAIGN_H_
#define SRC_SOFT_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <string>
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

  // Case-partitioned sharding (ShardMode::kPartitionCases in
  // src/soft/parallel_runner.h): when shard_count > 1, a fuzzer with a
  // finite generated case pool executes only the global case indices below
  // max_statements with index % shard_count == shard_index, all derived
  // from the same base seed. The shards together execute exactly the serial
  // campaign's cases, but each shard runs them against its own database, so
  // a statement that reads session state (LASTVAL, sequences) can see a
  // different history than in the serial run: outcomes, and occasionally
  // the bug set, can differ from serial. The exact reference for a K-shard
  // run is a K-shard run. Fuzzers that generate statements on the fly (the
  // baselines) ignore these fields and are sharded by budget split instead.
  int shard_index = 0;
  int shard_count = 1;

  // Crash realization (src/fault/fault.h). kReal is honoured by the sharded
  // runner, which dispatches each shard to a forked worker whose supervisor
  // decodes the death; calling Fuzzer::Run directly under kReal would kill
  // the calling process at the first triggered bug.
  CrashRealism crash_realism = CrashRealism::kSimulated;

  // Statement-watchdog budgets, applied to the campaign database at Run
  // start. Statements killed by the deadline count as watchdog_timeouts;
  // fuel/row kills surface as kResourceExhausted (false positives).
  StatementLimits statement_limits;

  // Per-statement progress callback: SoftFuzzer::Run calls it after every
  // executed statement with the statements executed so far. Strictly
  // observational — it has no way to stop or degrade the campaign. Fleet
  // workers throttle it into heartbeats. A kReal shard runs its campaign in
  // forked children, which do not forward it.
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
  // every listed oracle. Requires CrashRealism::kSimulated — a forked kReal
  // worker cannot host the differential siblings.
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
  // campaigns carry the deterministic shard-index-ordered sum. Empty in
  // -DSOFT_TELEMETRY=OFF builds or under telemetry::SetRuntimeEnabled(false).
  telemetry::CampaignTelemetry telemetry;

  // Causal span trace (src/telemetry/trace.h). Empty unless
  // CampaignOptions::trace_sample > 0. Serial in-process runs carry their
  // statement spans; the sharded runner adds shard/worker-run structure and
  // the campaign root at merge (shard-index order, deterministic). Strictly
  // observational — excluded from the outcome digest and the bit-identity
  // comparisons.
  trace::TraceData trace;

  // Flight records for every worker death in a kReal campaign, shard-index
  // ordered (src/telemetry/trace.h). Exported as `crash_flight` journal
  // events. Empty for simulated campaigns.
  std::vector<trace::CrashFlightRecord> crash_flights;
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
