#include "src/soft/chaos.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/failpoint/failpoint.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/unit_spool.h"
#include "src/util/fnv.h"
#include "src/util/io.h"

namespace soft {
namespace {

constexpr int kDefaultBudget = 600;

// Integers enter the outcome digests as their decimal text.
uint64_t FnvMixInt(uint64_t digest, int64_t v) {
  return FnvMix(digest, std::to_string(v));
}

// The last statement of a site's driver script is the one expected to take
// the injected fault; everything before it is setup that must succeed.
std::vector<std::string> EngineDriverScript(const std::string& site) {
  if (site == "parse.enter" || site == "optimize.enter" || site == "exec.select") {
    return {"SELECT 1"};
  }
  if (site == "parse.expr" || site == "optimize.expr" || site == "eval.enter") {
    return {"SELECT 1 + 1"};
  }
  if (site == "eval.function") {
    return {"SELECT ABS(-1)"};
  }
  if (site == "eval.subquery") {
    return {"SELECT (SELECT 1)"};
  }
  if (site == "catalog.create") {
    return {"CREATE TABLE chaos_t (a INT)"};
  }
  if (site == "catalog.drop") {
    return {"CREATE TABLE chaos_t (a INT)", "DROP TABLE chaos_t"};
  }
  if (site == "catalog.insert") {
    return {"CREATE TABLE chaos_t (a INT)", "INSERT INTO chaos_t VALUES (1)"};
  }
  return {};
}

// Runs `script` against a fresh builtin-catalog database; the final
// statement's result lands in `last`. Setup statements must succeed.
bool RunDriverScript(const std::vector<std::string>& script, StatementResult& last,
                     std::string& error) {
  Database db;
  for (size_t i = 0; i < script.size(); ++i) {
    last = db.Execute(script[i]);
    if (i + 1 < script.size() && !last.ok()) {
      error = "setup statement '" + script[i] + "' failed: " + last.status.ToString();
      return false;
    }
  }
  return true;
}

CampaignOptions SmokeOptions(int budget) {
  CampaignOptions options;
  options.seed = 20260807;
  options.max_statements = budget;
  return options;
}

// The campaign's pool census: cases generated, summed over patterns.
uint64_t GeneratedCensus(const CampaignResult& result) {
  uint64_t total = 0;
  for (const auto& [pattern, counters] : result.telemetry.patterns) {
    total += counters.generated;
  }
  return total;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- per-class oracles ------------------------------------------------------

ChaosSiteOutcome CheckEngineSite(const failpoint::SiteInfo& site,
                                 const std::string& dialect, int budget) {
  ChaosSiteOutcome outcome;
  outcome.failpoint = std::string(site.name);
  outcome.site_class = std::string(failpoint::SiteClassName(site.site_class));
  outcome.spec = std::string(site.name) + "=error";
  outcome.ran = true;

  const std::vector<std::string> script = EngineDriverScript(outcome.failpoint);
  if (script.empty()) {
    outcome.detail = "no driver script registered for this engine site";
    return outcome;
  }

  // (1) error mode: the driver statement surfaces a clean kResourceExhausted.
  failpoint::DisarmAll();
  if (Status armed = failpoint::ArmFromSpec(outcome.spec); !armed.ok()) {
    outcome.detail = "arm failed: " + armed.ToString();
    return outcome;
  }
  StatementResult last;
  std::string setup_error;
  if (!RunDriverScript(script, last, setup_error)) {
    failpoint::DisarmAll();
    outcome.detail = setup_error;
    return outcome;
  }
  const failpoint::SiteStats stats = failpoint::Stats(site.name);
  failpoint::DisarmAll();
  if (stats.fires == 0) {
    outcome.detail = "driver statement never evaluated the site (inventory drift?)";
    return outcome;
  }
  if (last.ok() || last.status.code() != StatusCode::kResourceExhausted ||
      last.crashed()) {
    outcome.detail = "expected clean kResourceExhausted, got " + last.status.ToString();
    return outcome;
  }

  // (2) oom mode: the thrown bad_alloc is caught at the Execute boundary.
  if (Status armed = failpoint::ArmFromSpec(std::string(site.name) + "=oom");
      !armed.ok()) {
    outcome.detail = "oom arm failed: " + armed.ToString();
    return outcome;
  }
  StatementResult oom_last;
  const bool oom_setup_ok = RunDriverScript(script, oom_last, setup_error);
  failpoint::DisarmAll();
  if (!oom_setup_ok) {
    outcome.detail = "oom: " + setup_error;
    return outcome;
  }
  if (oom_last.status.code() != StatusCode::kResourceExhausted ||
      oom_last.status.message().find("allocation failure") == std::string::npos) {
    outcome.detail = "oom: expected caught bad_alloc → kResourceExhausted, got " +
                     oom_last.status.ToString();
    return outcome;
  }

  // (3) a campaign with the site armed runs the baseline's cases, completes
  // its budget and is run-to-run deterministic under the identical armed
  // spec. The pool is built once, unarmed, so the armed site acts on the
  // campaign alone and not on the cases it is given.
  const CampaignOptions options = SmokeOptions(budget);
  const std::shared_ptr<const CasePool> pool = BuildCasePool(dialect, options);
  if (pool == nullptr) {
    outcome.detail = "unknown dialect '" + dialect + "'";
    return outcome;
  }
  const auto run_campaign = [&] {
    return SoftFuzzer(SoftOptions(), pool).Run(*MakeDialect(dialect), options);
  };
  const CampaignResult baseline = run_campaign();
  const std::string campaign_spec = std::string(site.name) + "=after:50";
  uint64_t digests[2] = {0, 0};
  int statements[2] = {0, 0};
  uint64_t census = 0;
  uint64_t campaign_fires = 0;
  for (int run = 0; run < 2; ++run) {
    failpoint::DisarmAll();  // resets counters so both runs fire identically
    if (Status armed = failpoint::ArmFromSpec(campaign_spec); !armed.ok()) {
      outcome.detail = "campaign arm failed: " + armed.ToString();
      return outcome;
    }
    const CampaignResult injected = run_campaign();
    campaign_fires = failpoint::Stats(site.name).fires;
    failpoint::DisarmAll();
    digests[run] = DigestCampaignResult(injected);
    statements[run] = injected.statements_executed;
    census = GeneratedCensus(injected);
  }
  if (census != GeneratedCensus(baseline)) {
    outcome.detail = "injected campaign ran a different pool: " + std::to_string(census) +
                     " vs baseline " + std::to_string(GeneratedCensus(baseline)) +
                     " generated cases";
    return outcome;
  }
  if (statements[0] != baseline.statements_executed) {
    outcome.detail = "injected campaign stopped early: " +
                     std::to_string(statements[0]) + " vs baseline " +
                     std::to_string(baseline.statements_executed) + " statements";
    return outcome;
  }
  if (digests[0] != digests[1]) {
    outcome.detail = "injected campaign not run-to-run deterministic";
    return outcome;
  }
  outcome.ok = true;
  outcome.detail = "error+oom surfaced cleanly after " +
                   std::to_string(stats.fires) + " fire(s); armed campaign ran " +
                   std::to_string(statements[0]) + " statements of the baseline's " +
                   std::to_string(census) + "-case pool with " +
                   std::to_string(campaign_fires) + " fire(s), deterministic";
  return outcome;
}

ChaosSiteOutcome CheckIoRetrySite(const failpoint::SiteInfo& site,
                                  const std::string& dialect, int budget,
                                  bool include_worker_sites) {
  ChaosSiteOutcome outcome;
  outcome.failpoint = std::string(site.name);
  outcome.site_class = std::string(failpoint::SiteClassName(site.site_class));

  const bool fork_site = outcome.failpoint == "worker.fork";
  if (fork_site && !include_worker_sites) {
    outcome.spec = "(skipped)";
    outcome.ok = true;
    outcome.detail = "fork site disabled (no forking in this lane)";
    return outcome;
  }
  outcome.ran = true;

  if (!fork_site) {
    // io.eintr / io.short_write / worker.pipe_read: a payload written
    // through RetryingWriter and read back through ReadRetrying over a pipe
    // arrives bit-identical despite the injected transient faults.
    outcome.spec = outcome.failpoint + "=after:0:5";
    int fds[2];
    if (::pipe(fds) != 0) {
      outcome.detail = "pipe() failed";
      return outcome;
    }
    std::string payload;
    for (int i = 0; i < 64; ++i) {
      payload += "chaos-retry-record-" + std::to_string(i) + "\n";
    }
    failpoint::DisarmAll();
    if (Status armed = failpoint::ArmFromSpec(outcome.spec); !armed.ok()) {
      ::close(fds[0]);
      ::close(fds[1]);
      outcome.detail = "arm failed: " + armed.ToString();
      return outcome;
    }
    io::RetryingWriter writer(fds[1]);
    const Status write_status = writer.WriteAll(payload);
    ::close(fds[1]);
    std::string received;
    char chunk[4096];
    for (;;) {
      const int64_t n = io::ReadRetrying(fds[0], chunk, sizeof(chunk));
      if (n <= 0) {
        break;
      }
      received.append(chunk, static_cast<size_t>(n));
    }
    ::close(fds[0]);
    const failpoint::SiteStats stats = failpoint::Stats(site.name);
    failpoint::DisarmAll();
    if (!write_status.ok()) {
      outcome.detail = "retrying write failed: " + write_status.ToString();
      return outcome;
    }
    if (stats.fires == 0) {
      outcome.detail = "site never fired (inventory drift?)";
      return outcome;
    }
    if (received != payload) {
      outcome.detail = "payload corrupted across injected transient faults";
      return outcome;
    }
    outcome.ok = true;
    outcome.detail = "payload bit-identical across " + std::to_string(stats.fires) +
                     " injected fault(s)";
    return outcome;
  }

  // worker.fork: a realization whose fork fails leaves its crash simulated.
  // A real-crash campaign with the fault armed merges bit-identical to the
  // uninjected simulated reference, and exactly the crashes whose fork
  // failed carry unannounced flight records.
  outcome.spec = outcome.failpoint + "=after:0:2";
  const CampaignResult reference =
      RunShardedSoftCampaign(dialect, SmokeOptions(budget), 1);

  failpoint::DisarmAll();
  if (Status armed = failpoint::ArmFromSpec(outcome.spec); !armed.ok()) {
    outcome.detail = "arm failed: " + armed.ToString();
    return outcome;
  }
  CampaignOptions real_options = SmokeOptions(budget);
  real_options.crash_realism = CrashRealism::kReal;
  const CampaignResult injected = RunShardedSoftCampaign(dialect, real_options, 1);
  const failpoint::SiteStats stats = failpoint::Stats(site.name);
  failpoint::DisarmAll();

  if (DigestCampaignResult(injected) != DigestCampaignResult(reference)) {
    outcome.detail = "real-crash campaign diverged from simulated reference "
                     "under injected fault";
    return outcome;
  }
  const auto unannounced = static_cast<uint64_t>(std::count_if(
      injected.crash_flights.begin(), injected.crash_flights.end(),
      [](const trace::CrashFlightRecord& flight) { return !flight.announced; }));
  if (static_cast<int>(injected.crash_flights.size()) != injected.crashes_observed ||
      stats.fires != std::min<uint64_t>(2, injected.crash_flights.size()) ||
      unannounced != stats.fires) {
    outcome.detail = "expected one flight record per crash and one unannounced record "
                     "per failed fork; got " +
                     std::to_string(injected.crash_flights.size()) + " records for " +
                     std::to_string(injected.crashes_observed) + " crashes, " +
                     std::to_string(unannounced) + " unannounced for " +
                     std::to_string(stats.fires) + " failed fork(s)";
    return outcome;
  }
  outcome.ok = true;
  outcome.detail = "real-crash campaign bit-identical to simulated reference (" +
                   std::to_string(injected.crash_flights.size()) +
                   " crash(es) realized, " + std::to_string(stats.fires) +
                   " left simulated by a failed fork)";
  return outcome;
}

ChaosSiteOutcome CheckIoErrorSite(const failpoint::SiteInfo& site) {
  ChaosSiteOutcome outcome;
  outcome.failpoint = std::string(site.name);
  outcome.site_class = std::string(failpoint::SiteClassName(site.site_class));
  outcome.spec = outcome.failpoint + "=error";
  outcome.ran = true;

  const std::string path =
      "chaos_artifact_" + std::to_string(static_cast<long>(::getpid())) + ".txt";
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  struct Cleanup {
    const std::string& p;
    const std::string& t;
    ~Cleanup() {
      ::unlink(p.c_str());
      ::unlink(t.c_str());
    }
  } cleanup{path, tmp_path};

  failpoint::DisarmAll();
  if (Status baseline = io::WriteFileAtomic(path, "baseline contents\n");
      !baseline.ok()) {
    outcome.detail = "uninjected baseline write failed: " + baseline.ToString();
    return outcome;
  }

  if (Status armed = failpoint::ArmFromSpec(outcome.spec); !armed.ok()) {
    outcome.detail = "arm failed: " + armed.ToString();
    return outcome;
  }
  const Status injected = io::WriteFileAtomic(path, "updated contents\n");
  const failpoint::SiteStats stats = failpoint::Stats(site.name);
  failpoint::DisarmAll();

  if (injected.ok() || injected.code() != StatusCode::kIoError) {
    outcome.detail = "expected kIoError, got " + injected.ToString();
    return outcome;
  }
  if (stats.fires == 0) {
    outcome.detail = "site never fired (inventory drift?)";
    return outcome;
  }
  if (injected.message().find(path) == std::string::npos) {
    outcome.detail = "error does not name the artifact path: " + injected.ToString();
    return outcome;
  }
  if (ReadFileOrEmpty(path) != "baseline contents\n") {
    outcome.detail = "destination no longer holds its previous contents "
                     "(atomicity violated)";
    return outcome;
  }
  if (::access(tmp_path.c_str(), F_OK) == 0) {
    outcome.detail = "tmp file left behind after failed write";
    return outcome;
  }

  // Disarmed retry produces the artifact the failed attempt was writing.
  if (Status retry = io::WriteFileAtomic(path, "updated contents\n"); !retry.ok()) {
    outcome.detail = "disarmed retry failed: " + retry.ToString();
    return outcome;
  }
  if (ReadFileOrEmpty(path) != "updated contents\n") {
    outcome.detail = "disarmed retry produced wrong contents";
    return outcome;
  }
  outcome.ok = true;
  outcome.detail = "clean kIoError naming the path; destination atomic; retry "
                   "after disarm identical";
  return outcome;
}

ChaosSiteOutcome CheckDegradeSite(const failpoint::SiteInfo& site,
                                  const std::string& dialect, int budget) {
  ChaosSiteOutcome outcome;
  outcome.failpoint = std::string(site.name);
  outcome.site_class = std::string(failpoint::SiteClassName(site.site_class));
  outcome.spec = outcome.failpoint + "=after:0:1";
  outcome.ran = true;

  // A two-unit journaled campaign whose first unit commit fails: the run
  // must finish degraded with the reference outcome, and a resume of its
  // journal must re-run exactly the uncommitted unit.
  constexpr int kUnits = 2;
  const std::string journal =
      "chaos_spool_" + std::to_string(static_cast<long>(::getpid())) + ".ndjson";
  struct Cleanup {
    const std::string& path;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove(path, ignored);
      std::filesystem::remove_all(SpoolDirFor(path), ignored);
    }
  } cleanup{journal};

  failpoint::DisarmAll();
  const uint64_t reference = DigestCampaignResult(
      RunShardedSoftCampaign(dialect, SmokeOptions(budget), kUnits));
  if (Status armed = failpoint::ArmFromSpec(outcome.spec); !armed.ok()) {
    outcome.detail = "arm failed: " + armed.ToString();
    return outcome;
  }
  const Result<SpooledRun> injected =
      RunSpooledSoftCampaign(journal, dialect, SmokeOptions(budget), kUnits);
  failpoint::DisarmAll();
  if (!injected.ok() || !injected->result.journal_degraded ||
      injected->spool_failures.size() != 1 ||
      DigestCampaignResult(injected->result) != reference) {
    outcome.detail = injected.ok() ? "expected one uncommitted unit, journal_degraded "
                                     "and the reference outcome"
                                   : injected.status().ToString();
    return outcome;
  }
  const Result<UnitResume> resume = LoadUnitResume(journal);
  const Result<SpooledRun> resumed =
      resume.ok() ? ResumeSpooledSoftCampaign(journal, *resume, CampaignOptions())
                  : Result<SpooledRun>(resume.status());
  if (!resumed.ok() || resumed->units_resumed != kUnits - 1 ||
      DigestCampaignResult(resumed->result) != reference) {
    outcome.detail = "resume did not re-run exactly the uncommitted unit to the "
                     "reference outcome";
    return outcome;
  }
  outcome.ok = true;
  outcome.detail = "campaign continued degraded (" + injected->spool_failures.front() +
                   "), outcome bit-identical; resume re-ran only that unit";
  return outcome;
}

}  // namespace

uint64_t DigestCampaignResult(const CampaignResult& result) {
  // Deterministic fields only: wall-clock quantities (found_wall_ns, stage
  // latencies) and journal_degraded (which is exactly what degrade-class
  // injections change) are excluded, mirroring the bit-identical-merge
  // tests' comparison set.
  uint64_t d = kFnvOffsetBasis;
  d = FnvMix(d, result.tool);
  d = FnvMix(d, result.dialect);
  d = FnvMixInt(d, result.statements_executed);
  d = FnvMixInt(d, result.sql_errors);
  d = FnvMixInt(d, result.crashes_observed);
  d = FnvMixInt(d, result.false_positives);
  d = FnvMixInt(d, result.watchdog_timeouts);
  d = FnvMixInt(d, static_cast<int64_t>(result.functions_triggered));
  d = FnvMixInt(d, static_cast<int64_t>(result.branches_covered));
  d = FnvMixInt(d, result.shards);
  for (const int n : result.shard_statements) {
    d = FnvMixInt(d, n);
  }
  for (const FoundBug& bug : result.unique_bugs) {
    d = FnvMixInt(d, bug.crash.bug_id);
    d = FnvMix(d, bug.found_by);
    d = FnvMix(d, bug.poc_sql);
    d = FnvMixInt(d, bug.statements_until_found);
    d = FnvMixInt(d, bug.shard);
  }
  // Wrong-result outcome: counters plus shard-invariant bug identity, so a
  // logic campaign's digest also moves when an oracle regresses.
  d = FnvMixInt(d, result.logic_checks);
  d = FnvMixInt(d, result.logic_divergences);
  d = FnvMixInt(d, result.logic_false_positives);
  for (const FoundLogicBug& bug : result.logic_bugs) {
    d = FnvMixInt(d, bug.info.bug_id);
    d = FnvMix(d, bug.oracle);
    d = FnvMix(d, bug.poc_sql);
    d = FnvMixInt(d, bug.case_index);
  }
  return d;
}

uint64_t DigestBugInventory(const CampaignResult& result) {
  std::vector<int64_t> crash_ids;
  crash_ids.reserve(result.unique_bugs.size());
  for (const FoundBug& bug : result.unique_bugs) {
    crash_ids.push_back(bug.crash.bug_id);
  }
  std::sort(crash_ids.begin(), crash_ids.end());
  std::vector<int64_t> logic_ids;
  logic_ids.reserve(result.logic_bugs.size());
  for (const FoundLogicBug& bug : result.logic_bugs) {
    logic_ids.push_back(bug.info.bug_id);
  }
  std::sort(logic_ids.begin(), logic_ids.end());
  uint64_t d = kFnvOffsetBasis;
  d = FnvMix(d, result.dialect);
  d = FnvMixInt(d, static_cast<int64_t>(crash_ids.size()));
  for (const int64_t id : crash_ids) {
    d = FnvMixInt(d, id);
  }
  d = FnvMixInt(d, static_cast<int64_t>(logic_ids.size()));
  for (const int64_t id : logic_ids) {
    d = FnvMixInt(d, id);
  }
  return d;
}

uint64_t DigestLogicOutcome(const CampaignResult& result) {
  uint64_t d = kFnvOffsetBasis;
  d = FnvMix(d, result.dialect);
  d = FnvMixInt(d, result.logic_checks);
  d = FnvMixInt(d, result.logic_divergences);
  d = FnvMixInt(d, result.logic_false_positives);
  for (const FoundLogicBug& bug : result.logic_bugs) {
    d = FnvMixInt(d, bug.info.bug_id);
    d = FnvMix(d, bug.oracle);
    d = FnvMix(d, bug.poc_sql);
    d = FnvMixInt(d, bug.case_index);
  }
  return d;
}

ChaosReport RunChaosEnumeration(const std::string& dialect, int budget,
                                bool include_worker_sites) {
  ChaosReport report;
  report.dialect = dialect;
  report.budget = budget > 0 ? budget : kDefaultBudget;
  for (const failpoint::SiteInfo& site : failpoint::kInventory) {
    // fleet.* and net.* sites need a live coordinator/worker topology to
    // exercise; their oracles live in the fleet library's own enumerators
    // (soft_core cannot link it). Report them as delegated, not failed.
    const bool fleet_site = std::string_view(site.name).rfind("fleet.", 0) == 0;
    const bool net_site = std::string_view(site.name).rfind("net.", 0) == 0;
    if (fleet_site || net_site) {
      ChaosSiteOutcome delegated;
      delegated.failpoint = std::string(site.name);
      delegated.site_class = std::string(failpoint::SiteClassName(site.site_class));
      delegated.spec = "(delegated)";
      delegated.ok = true;
      delegated.detail =
          fleet_site ? "fleet site: oracle runs in soft::fleet::RunFleetChaosEnumeration "
                       "(find_bugs --chaos=fleet)"
                     : "net site: oracle runs in soft::fleet::RunNetChaosEnumeration "
                       "(find_bugs --chaos=net)";
      report.outcomes.push_back(delegated);
      continue;
    }
    switch (site.site_class) {
      case failpoint::SiteClass::kEngine:
        report.outcomes.push_back(CheckEngineSite(site, dialect, report.budget));
        break;
      case failpoint::SiteClass::kIoRetry:
        report.outcomes.push_back(
            CheckIoRetrySite(site, dialect, report.budget, include_worker_sites));
        break;
      case failpoint::SiteClass::kIoError:
        report.outcomes.push_back(CheckIoErrorSite(site));
        break;
      case failpoint::SiteClass::kDegrade:
        report.outcomes.push_back(CheckDegradeSite(site, dialect, report.budget));
        break;
      case failpoint::SiteClass::kNet:
        break;  // unreachable: every kNet site matched the delegation above
    }
  }
  failpoint::DisarmAll();
  return report;
}

}  // namespace soft
