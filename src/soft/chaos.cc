#include "src/soft/chaos.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/failpoint/failpoint.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/unit_spool.h"
#include "src/util/io.h"

namespace soft {
namespace {

constexpr int kDefaultBudget = 600;

// FNV-1a over a byte string.
uint64_t FnvFold(uint64_t digest, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    digest ^= c;
    digest *= 0x100000001B3ull;
  }
  return digest;
}

uint64_t FnvFoldInt(uint64_t digest, int64_t v) {
  return FnvFold(digest, std::to_string(v));
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

  // (3) a campaign with the site armed completes its budget and is
  // run-to-run deterministic under the identical armed spec.
  const CampaignResult baseline =
      RunShardedSoftCampaign(dialect, SmokeOptions(budget), /*shards=*/1);
  const std::string campaign_spec = std::string(site.name) + "=after:50";
  uint64_t digests[2] = {0, 0};
  int statements[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    failpoint::DisarmAll();  // resets counters so both runs fire identically
    if (Status armed = failpoint::ArmFromSpec(campaign_spec); !armed.ok()) {
      outcome.detail = "campaign arm failed: " + armed.ToString();
      return outcome;
    }
    const CampaignResult injected =
        RunShardedSoftCampaign(dialect, SmokeOptions(budget), /*shards=*/1);
    failpoint::DisarmAll();
    digests[run] = DigestCampaignResult(injected);
    statements[run] = injected.statements_executed;
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
                   std::to_string(statements[0]) + " statements, deterministic";
  return outcome;
}

ChaosSiteOutcome CheckIoRetrySite(const failpoint::SiteInfo& site,
                                  const std::string& dialect, int budget,
                                  bool include_worker_sites) {
  ChaosSiteOutcome outcome;
  outcome.failpoint = std::string(site.name);
  outcome.site_class = std::string(failpoint::SiteClassName(site.site_class));

  const bool worker_site = outcome.failpoint.rfind("worker.", 0) == 0;
  if (worker_site && !include_worker_sites) {
    outcome.spec = "(skipped)";
    outcome.ok = true;
    outcome.detail = "worker sites disabled (no forking in this lane)";
    return outcome;
  }
  outcome.ran = true;

  if (!worker_site) {
    // io.eintr / io.short_write: a payload written through RetryingWriter
    // over a pipe arrives bit-identical despite the injected transient
    // faults.
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
    const failpoint::SiteStats stats = failpoint::Stats(site.name);
    failpoint::DisarmAll();
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

  // worker.fork / worker.pipe_write / worker.pipe_read: a real-crash
  // campaign with the transient fault armed merges bit-identical to the
  // uninjected simulated reference (PR3's sim/real identity, preserved
  // under injection because the fault is retried or absorbed by the
  // supervisor's restart/backoff ladder).
  outcome.spec = outcome.failpoint + "=after:0:2";
  CampaignOptions sim_options = SmokeOptions(budget);
  const CampaignResult reference = RunShardedSoftCampaign(dialect, sim_options, 1);

  failpoint::DisarmAll();
  if (Status armed = failpoint::ArmFromSpec(outcome.spec); !armed.ok()) {
    outcome.detail = "arm failed: " + armed.ToString();
    return outcome;
  }
  CampaignOptions real_options = SmokeOptions(budget);
  real_options.crash_realism = CrashRealism::kReal;
  const CampaignResult injected = RunShardedSoftCampaign(dialect, real_options, 1);
  failpoint::DisarmAll();

  if (DigestCampaignResult(injected) != DigestCampaignResult(reference)) {
    outcome.detail = "real-crash campaign diverged from simulated reference "
                     "under injected fault";
    return outcome;
  }
  outcome.ok = true;
  outcome.detail = "real-crash campaign bit-identical to simulated reference (" +
                   std::to_string(injected.unique_bugs.size()) + " bugs)";
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
  uint64_t d = 0xCBF29CE484222325ull;
  d = FnvFold(d, result.tool);
  d = FnvFold(d, result.dialect);
  d = FnvFoldInt(d, result.statements_executed);
  d = FnvFoldInt(d, result.sql_errors);
  d = FnvFoldInt(d, result.crashes_observed);
  d = FnvFoldInt(d, result.false_positives);
  d = FnvFoldInt(d, result.watchdog_timeouts);
  d = FnvFoldInt(d, static_cast<int64_t>(result.functions_triggered));
  d = FnvFoldInt(d, static_cast<int64_t>(result.branches_covered));
  d = FnvFoldInt(d, result.shards);
  for (const int n : result.shard_statements) {
    d = FnvFoldInt(d, n);
  }
  for (const FoundBug& bug : result.unique_bugs) {
    d = FnvFoldInt(d, bug.crash.bug_id);
    d = FnvFold(d, bug.found_by);
    d = FnvFold(d, bug.poc_sql);
    d = FnvFoldInt(d, bug.statements_until_found);
    d = FnvFoldInt(d, bug.shard);
  }
  // Wrong-result outcome: counters plus shard-invariant bug identity, so a
  // logic campaign's digest also moves when an oracle regresses.
  d = FnvFoldInt(d, result.logic_checks);
  d = FnvFoldInt(d, result.logic_divergences);
  d = FnvFoldInt(d, result.logic_false_positives);
  for (const FoundLogicBug& bug : result.logic_bugs) {
    d = FnvFoldInt(d, bug.info.bug_id);
    d = FnvFold(d, bug.oracle);
    d = FnvFold(d, bug.poc_sql);
    d = FnvFoldInt(d, bug.case_index);
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
  uint64_t d = 0xCBF29CE484222325ull;
  d = FnvFold(d, result.dialect);
  d = FnvFoldInt(d, static_cast<int64_t>(crash_ids.size()));
  for (const int64_t id : crash_ids) {
    d = FnvFoldInt(d, id);
  }
  d = FnvFoldInt(d, static_cast<int64_t>(logic_ids.size()));
  for (const int64_t id : logic_ids) {
    d = FnvFoldInt(d, id);
  }
  return d;
}

uint64_t DigestLogicOutcome(const CampaignResult& result) {
  uint64_t d = 0xCBF29CE484222325ull;
  d = FnvFold(d, result.dialect);
  d = FnvFoldInt(d, result.logic_checks);
  d = FnvFoldInt(d, result.logic_divergences);
  d = FnvFoldInt(d, result.logic_false_positives);
  for (const FoundLogicBug& bug : result.logic_bugs) {
    d = FnvFoldInt(d, bug.info.bug_id);
    d = FnvFold(d, bug.oracle);
    d = FnvFold(d, bug.poc_sql);
    d = FnvFoldInt(d, bug.case_index);
  }
  return d;
}

ChaosReport RunChaosEnumeration(const std::string& dialect, int budget,
                                bool include_worker_sites) {
  ChaosReport report;
  report.compiled_in = failpoint::kCompiledIn;
  report.dialect = dialect;
  report.budget = budget > 0 ? budget : kDefaultBudget;
  if (!report.compiled_in) {
    return report;  // nothing to inject; vacuously ok
  }
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
