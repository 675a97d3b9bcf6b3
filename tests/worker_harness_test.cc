// Crash-realistic execution (docs/ROBUSTNESS.md): real crashes realized in
// forked copies, the statement watchdog, and kill -9 resume through the
// unit spool.
//
//  * Every CrashType is realized as a real signal that kills a forked copy
//    of the campaign, while the campaign records the exact CrashInfo the
//    simulated path reports.
//  * Real-crash campaigns are bit-identical to simulated campaigns for every
//    dialect, serial and sharded (the determinism contract excludes only
//    wall-clock quantities: found_wall_ns and the stage-latency histograms).
//  * The cooperative watchdog kills pathological statements within its
//    deadline; fuel and row budgets kill deterministically.
//  * A campaign killed with SIGKILL mid-run — serial, --shards, simulated
//    or real crashes — resumes from its journal and unit spool to the
//    bit-identical result of the uninterrupted run with the same shard
//    count.
//
// NOTE: these tests fork. Keep them out of the TSan lane (`ctest -R
// 'Parallel|GoldenPoc|Telemetry'`); the ASan CI job runs them instead.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/soft/chaos.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/unit_spool.h"

namespace soft {
namespace {

// All eight Table 4 crash types.
const std::vector<CrashType> kAllCrashTypes = {
    CrashType::kNullPointerDereference, CrashType::kSegmentationViolation,
    CrashType::kUseAfterFree,           CrashType::kHeapBufferOverflow,
    CrashType::kGlobalBufferOverflow,   CrashType::kAssertionFailure,
    CrashType::kStackOverflow,          CrashType::kDivideByZero,
};

// A Database whose fault corpus has exactly one bug per CrashType, each
// triggered by a distinct marker string reaching UPPER.
std::unique_ptr<Database> MakeCrashMatrixDb() {
  EngineConfig config;
  config.name = "crashmatrix";
  auto db = std::make_unique<Database>(config);
  for (size_t i = 0; i < kAllCrashTypes.size(); ++i) {
    BugSpec spec;
    spec.id = 100 + static_cast<int>(i);
    spec.dbms = "crashmatrix";
    spec.function = "UPPER";
    spec.function_type = "string";
    spec.crash = kAllCrashTypes[i];
    spec.pattern = "P1.1";
    spec.stage = Stage::kExecute;
    spec.trigger = TriggerKind::kStringContains;
    spec.param_text = "marker" + std::to_string(i);
    spec.description = "crash matrix bug " + std::to_string(i);
    db->faults().AddBug(spec);
  }
  return db;
}

std::vector<std::string> CrashMatrixScript() {
  std::vector<std::string> script;
  for (size_t i = 0; i < kAllCrashTypes.size(); ++i) {
    script.push_back("SELECT UPPER('marker" + std::to_string(i) + "')");
  }
  script.push_back("SELECT UPPER('harmless')");
  return script;
}

// Minimal deterministic Fuzzer executing a fixed statement list through the
// campaign recorder every real fuzzer uses.
class ScriptedFuzzer : public Fuzzer {
 public:
  explicit ScriptedFuzzer(std::vector<std::string> script) : script_(std::move(script)) {}
  std::string name() const override { return "scripted"; }

  CampaignResult Run(Database& db, const CampaignOptions& options) override {
    CampaignRecorder recorder(name(), db, options, /*on_the_fly=*/true);
    for (const std::string& sql : script_) {
      if (recorder.result().statements_executed >= options.max_statements) {
        break;
      }
      recorder.Execute(sql, name());
      recorder.Close();
    }
    return recorder.Finish();
  }

 private:
  std::vector<std::string> script_;
};

// Bit-identical comparison under the determinism contract: everything except
// found_wall_ns and the (wall-clock) stage-latency histograms.
void ExpectSameCampaign(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.tool, b.tool);
  EXPECT_EQ(a.dialect, b.dialect);
  EXPECT_EQ(a.statements_executed, b.statements_executed);
  EXPECT_EQ(a.sql_errors, b.sql_errors);
  EXPECT_EQ(a.crashes_observed, b.crashes_observed);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.watchdog_timeouts, b.watchdog_timeouts);
  EXPECT_EQ(a.functions_triggered, b.functions_triggered);
  EXPECT_EQ(a.branches_covered, b.branches_covered);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.shard_statements, b.shard_statements);
  EXPECT_EQ(a.telemetry.patterns, b.telemetry.patterns);
  ASSERT_EQ(a.unique_bugs.size(), b.unique_bugs.size());
  for (size_t i = 0; i < a.unique_bugs.size(); ++i) {
    const FoundBug& x = a.unique_bugs[i];
    const FoundBug& y = b.unique_bugs[i];
    EXPECT_TRUE(x.crash == y.crash) << "bug " << i << ": " << x.crash.Summary()
                                    << " vs " << y.crash.Summary();
    EXPECT_EQ(x.poc_sql, y.poc_sql);
    EXPECT_EQ(x.found_by, y.found_by);
    EXPECT_EQ(x.statements_until_found, y.statements_until_found);
    EXPECT_EQ(x.shard, y.shard);
  }
}

// ---------------------------------------------------------------------------
// Crash round-trip through real signals
// ---------------------------------------------------------------------------

TEST(WorkerHarness, AllCrashTypesRoundTripToIdenticalCrashInfo) {
  const std::vector<std::string> script = CrashMatrixScript();
  CampaignOptions options;
  options.max_statements = 100;

  // Simulated reference.
  ScriptedFuzzer reference_fuzzer(script);
  auto reference_db = MakeCrashMatrixDb();
  const CampaignResult reference = reference_fuzzer.Run(*reference_db, options);
  ASSERT_EQ(reference.unique_bugs.size(), kAllCrashTypes.size());
  EXPECT_TRUE(reference.crash_flights.empty());

  // Real crashes: each one kills a forked copy of this process, and the
  // campaign carries on down the simulated path.
  CampaignOptions real = options;
  real.crash_realism = CrashRealism::kReal;
  ScriptedFuzzer real_fuzzer(script);
  auto real_db = MakeCrashMatrixDb();
  const CampaignResult result = real_fuzzer.Run(*real_db, real);
  ExpectSameCampaign(reference, result);

  // One flight record per crash type, in order; `announced` says the copy
  // died by ExpectedSignalFor of that type.
  ASSERT_EQ(result.crash_flights.size(), kAllCrashTypes.size());
  for (size_t i = 0; i < kAllCrashTypes.size(); ++i) {
    const trace::CrashFlightRecord& flight = result.crash_flights[i];
    EXPECT_TRUE(flight.announced)
        << CrashTypeName(kAllCrashTypes[i]) << ": the copy did not die by signal "
        << ExpectedSignalFor(kAllCrashTypes[i]);
    EXPECT_EQ(flight.worker_run, static_cast<int>(i));
    EXPECT_EQ(flight.bug_id, 100 + static_cast<int>(i));
    ASSERT_FALSE(flight.entries.empty());
    EXPECT_EQ(flight.entries.back().sql, script[i]);
    EXPECT_EQ(flight.entries.back().outcome, "crash");
  }
}

TEST(WorkerHarness, ExpectedSignalCoversEveryCrashType) {
  for (const CrashType type : kAllCrashTypes) {
    const int sig = ExpectedSignalFor(type);
    EXPECT_TRUE(sig == SIGSEGV || sig == SIGABRT || sig == SIGFPE)
        << "unexpected signal " << sig << " for " << CrashTypeName(type);
  }
  EXPECT_EQ(ExpectedSignalFor(CrashType::kAssertionFailure), SIGABRT);
  EXPECT_EQ(ExpectedSignalFor(CrashType::kDivideByZero), SIGFPE);
  EXPECT_EQ(ExpectedSignalFor(CrashType::kStackOverflow), SIGSEGV);
  EXPECT_EQ(ExpectedSignalFor(CrashType::kNullPointerDereference), SIGSEGV);
}

// ---------------------------------------------------------------------------
// Sim/real bit-identity for full SOFT campaigns
// ---------------------------------------------------------------------------

class SimRealIdentityTest : public testing::TestWithParam<std::string> {};

TEST_P(SimRealIdentityTest, RealCrashCampaignMatchesSimulated) {
  const std::string& dialect = GetParam();
  CampaignOptions options;
  options.seed = 7;
  options.max_statements = 600;

  const CampaignResult sim1 = RunShardedSoftCampaign(dialect, options, 1);
  const CampaignResult sim3 = RunShardedSoftCampaign(dialect, options, 3);

  CampaignOptions real = options;
  real.crash_realism = CrashRealism::kReal;
  const CampaignResult real1 = RunShardedSoftCampaign(dialect, real, 1);
  const CampaignResult real3 = RunShardedSoftCampaign(dialect, real, 3);

  ExpectSameCampaign(sim1, real1);
  ExpectSameCampaign(sim3, real3);
  // Some dialects need bigger budgets before their first bug; the prolific
  // ones must actually exercise the real-signal path here (every CrashType's
  // real signal is separately covered by the crash-matrix round-trip test).
  if (dialect == "mariadb" || dialect == "monetdb" || dialect == "duckdb") {
    EXPECT_FALSE(real1.unique_bugs.empty()) << "campaign found nothing to realize";
  }
}

INSTANTIATE_TEST_SUITE_P(AllDialects, SimRealIdentityTest,
                         testing::ValuesIn(AllDialectNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Oracle re-executions run simulated under kReal, so a real-crash campaign
// with every logic oracle armed reports the simulated run's oracle checks,
// logic bugs and digests, while its own crashes are still realized.
TEST(SimRealIdentity, RealCrashCampaignRunsTheOracles) {
  CampaignOptions options;
  options.seed = 1;
  options.max_statements = 2000;
  options.logic_oracles = {"all"};
  const CampaignResult sim = RunShardedSoftCampaign("mysql", options, 1);
  CampaignOptions real = options;
  real.crash_realism = CrashRealism::kReal;
  const CampaignResult result = RunShardedSoftCampaign("mysql", real, 1);

  EXPECT_EQ(sim.logic_checks, 2790);
  EXPECT_EQ(sim.logic_bugs.size(), 3u);
  EXPECT_EQ(result.logic_checks, sim.logic_checks);
  EXPECT_EQ(result.logic_bugs.size(), sim.logic_bugs.size());
  EXPECT_EQ(DigestLogicOutcome(result), DigestLogicOutcome(sim));
  EXPECT_EQ(DigestCampaignResult(result), DigestCampaignResult(sim));
  ASSERT_FALSE(result.crash_flights.empty()) << "no crash was realized";
  EXPECT_EQ(result.crash_flights.size(), static_cast<size_t>(result.crashes_observed));
}

// ---------------------------------------------------------------------------
// Statement watchdog
// ---------------------------------------------------------------------------

std::unique_ptr<Database> MakeRowTable(int rows) {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < rows; ++i) {
    if (i > 0) {
      insert += ",";
    }
    insert += "(" + std::to_string(i) + ")";
  }
  EXPECT_TRUE(db->Execute(insert).ok());
  return db;
}

TEST(StatementWatchdog, DeadlineKillsPathologicalStatementWithinBudget) {
  auto db = MakeRowTable(2000);
  StatementLimits limits;
  limits.deadline_ms = 100;
  db->set_statement_limits(limits);

  // Quadratic: the scalar subquery re-runs its full scan for every outer row
  // (4M row steps) — far past the deadline without the watchdog.
  const auto start = std::chrono::steady_clock::now();
  const StatementResult r = db->Execute("SELECT (SELECT COUNT(*) FROM t) FROM t");
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(r.status.code(), StatusCode::kTimeout) << r.status.ToString();
  EXPECT_FALSE(r.crashed());
  // Cooperative checks run every 256 watchdog ticks; generous slack for slow
  // (sanitizer) builds, but orders of magnitude under the unbounded runtime.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            5000);

  // The engine stays usable after a timeout.
  limits.deadline_ms = 0;
  db->set_statement_limits(limits);
  EXPECT_TRUE(db->Execute("SELECT COUNT(*) FROM t").ok());
}

TEST(StatementWatchdog, EvalFuelKillsDeterministically) {
  auto db = MakeRowTable(100);
  StatementLimits limits;
  limits.eval_fuel = 500;
  db->set_statement_limits(limits);

  const StatementResult r = db->Execute("SELECT (SELECT COUNT(*) FROM t) FROM t");
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted) << r.status.ToString();

  // Pure count budget: the same statement dies identically every time.
  const StatementResult again = db->Execute("SELECT (SELECT COUNT(*) FROM t) FROM t");
  EXPECT_EQ(again.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status.message(), again.status.message());

  // A statement within budget still succeeds.
  limits.eval_fuel = -1;
  db->set_statement_limits(limits);
  EXPECT_TRUE(db->Execute("SELECT COUNT(*) FROM t").ok());
}

TEST(StatementWatchdog, RowBudgetKillsWideMaterialization) {
  auto db = MakeRowTable(1000);
  StatementLimits limits;
  limits.max_rows = 100;
  db->set_statement_limits(limits);
  const StatementResult r = db->Execute("SELECT a FROM t");
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted) << r.status.ToString();

  limits.max_rows = 2000;
  db->set_statement_limits(limits);
  EXPECT_TRUE(db->Execute("SELECT a FROM t").ok());
}

TEST(StatementWatchdog, LikeBacktrackingBudgetIsBounded) {
  auto db = std::make_unique<Database>();
  // Exponential-backtracking shape: many '%'s that can never match the tail.
  std::string pattern(40, 'a');
  std::string like;
  for (int i = 0; i < 20; ++i) {
    like += "%a";
  }
  like += "b";
  const auto start = std::chrono::steady_clock::now();
  const StatementResult r =
      db->Execute("SELECT '" + pattern + "' LIKE '" + like + "'");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Either the matcher finishes within its step budget (false) or reports
  // exhaustion — it must never hang.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 30);
  if (!r.ok()) {
    EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted) << r.status.ToString();
  }
}

TEST(StatementWatchdog, CampaignCountsTimeoutsSeparately) {
  // A scripted campaign where one statement times out: it must surface in
  // watchdog_timeouts, not sql_errors or false_positives.
  auto make_db = [] { return MakeRowTable(2000); };
  std::vector<std::string> script = {
      "SELECT COUNT(*) FROM t",
      "SELECT (SELECT COUNT(*) FROM t) FROM t",
      "SELECT COUNT(*) FROM t",
  };
  ScriptedFuzzer fuzzer(script);
  CampaignOptions options;
  options.max_statements = 10;
  options.statement_limits.deadline_ms = 100;
  auto db = make_db();
  const CampaignResult result = fuzzer.Run(*db, options);
  EXPECT_EQ(result.statements_executed, 3);
  EXPECT_EQ(result.watchdog_timeouts, 1);
  EXPECT_EQ(result.sql_errors, 0);
  EXPECT_EQ(result.false_positives, 0);
}

// ---------------------------------------------------------------------------
// Kill -9 resume through the unit spool
// ---------------------------------------------------------------------------

constexpr char kResumeDialect[] = "duckdb";

CampaignOptions ResumeCampaign() {
  CampaignOptions options;
  options.seed = 11;
  options.max_statements = 12000;
  return options;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Runs a journaled campaign in a forked process (its own process group, so
// one kill also takes a copy forked to realize a crash). `hold_at` > 0 installs a
// progress callback that lets the first shard reaching that statement run
// on and parks every later one there, so exactly one unit commits before
// the kill (shards == 1: none does).
pid_t ForkJournaledCampaign(const std::string& journal_path,
                            const CampaignOptions& options, int shards, int hold_at,
                            int ready_fd = -1) {
  const pid_t pid = fork();
  if (pid != 0) {
    return pid;
  }
  ::setpgid(0, 0);
  CampaignOptions child = options;
  auto first = std::make_shared<std::atomic<bool>>(shards > 1);
  if (hold_at > 0) {
    child.progress = [first, hold_at, ready_fd](int statements) {
      if (statements != hold_at || first->exchange(false)) {
        return;
      }
      if (ready_fd >= 0) {
        static_cast<void>(::write(ready_fd, "x", 1));
      }
      for (;;) {
        ::pause();
      }
    };
  }
  RunSpooledSoftCampaign(journal_path, kResumeDialect, child, shards);
  ::_exit(0);
}

// SIGKILLs the campaign's process group once its journal holds a `lease
// complete` record. False when the campaign finished first.
bool KillOnceAUnitCommits(pid_t pid, const std::string& journal_path) {
  bool killed = false;
  for (int i = 0; i < 6000 && !killed; ++i) {
    if (ReadFileOrEmpty(journal_path).find("\"action\":\"complete\"") !=
        std::string::npos) {
      killed = ::kill(-pid, SIGKILL) == 0;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return killed && WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

Result<SpooledRun> ResumeJournal(const std::string& journal_path,
                                 const CampaignOptions& local = CampaignOptions()) {
  const Result<UnitResume> resume = LoadUnitResume(journal_path);
  if (!resume.ok()) {
    return resume.status();
  }
  return ResumeSpooledSoftCampaign(journal_path, *resume, local);
}

void RemoveJournal(const std::string& journal_path) {
  std::filesystem::remove(journal_path);
  std::filesystem::remove_all(SpoolDirFor(journal_path));
}

TEST(SpoolResume, SerialKill9ResumesBitIdentical) {
  const std::string journal_path = testing::TempDir() + "/soft_kill9_serial.ndjson";
  RemoveJournal(journal_path);
  const CampaignResult reference =
      RunShardedSoftCampaign(kResumeDialect, ResumeCampaign(), 1);

  // The serial run is one unit: killed at statement 300, it has committed
  // nothing, and the resume re-runs the whole unit.
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t pid =
      ForkJournaledCampaign(journal_path, ResumeCampaign(), 1, 300, ready[1]);
  ASSERT_GE(pid, 0);
  ::close(ready[1]);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1) << "campaign never reached statement 300";
  ::close(ready[0]);
  ::kill(-pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  const Result<SpooledRun> resumed = ResumeJournal(journal_path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->units_resumed, 0);
  ExpectSameCampaign(reference, resumed->result);
  EXPECT_EQ(DigestCampaignResult(resumed->result), DigestCampaignResult(reference));
  RemoveJournal(journal_path);
}

TEST(SpoolResume, ShardedKill9ResumesSpooledUnits) {
  const std::string journal_path = testing::TempDir() + "/soft_kill9_shards.ndjson";
  RemoveJournal(journal_path);
  const CampaignResult reference =
      RunShardedSoftCampaign(kResumeDialect, ResumeCampaign(), 4);

  // Three shards park at statement 200; the fourth finishes and commits.
  const pid_t pid = ForkJournaledCampaign(journal_path, ResumeCampaign(), 4, 200);
  ASSERT_GE(pid, 0);
  ASSERT_TRUE(KillOnceAUnitCommits(pid, journal_path));

  const Result<SpooledRun> resumed = ResumeJournal(journal_path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->units_resumed, 1);
  EXPECT_EQ(resumed->units_spool_diverged, 0);
  ExpectSameCampaign(reference, resumed->result);
  EXPECT_EQ(DigestCampaignResult(resumed->result), DigestCampaignResult(reference));
  RemoveJournal(journal_path);
}

TEST(SpoolResume, RealCrashShardedKill9ResumesBitIdentical) {
  const std::string journal_path = testing::TempDir() + "/soft_kill9_real.ndjson";
  RemoveJournal(journal_path);
  // Real crashes reproduce the simulated campaign bit for bit.
  const CampaignResult reference =
      RunShardedSoftCampaign(kResumeDialect, ResumeCampaign(), 2);

  // One shard parks at statement 200; the other finishes and commits.
  CampaignOptions real = ResumeCampaign();
  real.crash_realism = CrashRealism::kReal;
  const pid_t pid = ForkJournaledCampaign(journal_path, real, 2, 200);
  ASSERT_GE(pid, 0);
  ASSERT_TRUE(KillOnceAUnitCommits(pid, journal_path));

  const Result<SpooledRun> resumed = ResumeJournal(journal_path, real);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->units_resumed, 1);
  EXPECT_EQ(resumed->units_spool_diverged, 0);
  ExpectSameCampaign(reference, resumed->result);
  EXPECT_EQ(DigestCampaignResult(resumed->result), DigestCampaignResult(reference));
  RemoveJournal(journal_path);
}

TEST(SpoolResume, CorruptSpooledUnitIsDistrustedAndRerun) {
  const std::string journal_path = testing::TempDir() + "/soft_spool_corrupt.ndjson";
  RemoveJournal(journal_path);
  const Result<SpooledRun> run =
      RunSpooledSoftCampaign(journal_path, kResumeDialect, ResumeCampaign(), 3);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::ofstream(SpoolDirFor(journal_path) + "/unit_1.wire", std::ios::trunc)
      << "RES not what the digest promised\n";

  const Result<UnitResume> resume = LoadUnitResume(journal_path);
  ASSERT_TRUE(resume.ok()) << resume.status().ToString();
  EXPECT_TRUE(resume->finished);
  const Result<SpooledRun> resumed =
      ResumeSpooledSoftCampaign(journal_path, *resume, CampaignOptions());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->units_resumed, 2);
  EXPECT_EQ(resumed->units_spool_diverged, 1);
  EXPECT_EQ(DigestCampaignResult(resumed->result), DigestCampaignResult(run->result));
  RemoveJournal(journal_path);
}

// ---------------------------------------------------------------------------
// Vanilla twin under real-crash mode
// ---------------------------------------------------------------------------

TEST(WorkerHarness, VanillaTwinSurvivesRealCrashModeWithZeroSignals) {
  // A database with no fault corpus cannot raise: no crash, no fork, and the
  // real-mode result equals the simulated one trivially.
  CampaignOptions options;
  options.seed = 17;
  options.max_statements = 400;

  auto make_db = [] {
    EngineConfig config;
    config.name = "duckdb";  // duckdb's seed suite against a vanilla engine
    return std::make_unique<Database>(config);
  };
  auto make_fuzzer = [] { return std::make_unique<SoftFuzzer>(); };

  CampaignOptions real = options;
  real.crash_realism = CrashRealism::kReal;
  auto real_db = make_db();
  const CampaignResult result = make_fuzzer()->Run(*real_db, real);

  EXPECT_EQ(result.crashes_observed, 0);
  EXPECT_TRUE(result.unique_bugs.empty());
  EXPECT_TRUE(result.crash_flights.empty());

  auto db = make_db();
  SoftFuzzer fuzzer;
  const CampaignResult reference = fuzzer.Run(*db, options);
  ExpectSameCampaign(reference, result);
}

}  // namespace
}  // namespace soft
