// Fleet campaign service (src/fleet/, docs/ROBUSTNESS.md): lease-table
// state machine under a fake clock, wire result-block round-trips, and real
// forked-worker socket campaigns — digest parity with the sharded/serial
// reference at any worker count, with attached (not forked) workers, across
// chaos-killed and hung workers, through the degrade-to-local ladder, and
// across a coordinator kill -9 followed by --resume.
//
// These tests fork and bind Unix sockets — keep the suite names out of the
// TSan lane regex
// ('Parallel|GoldenPoc|Telemetry|LogicOracle|GoldenLogic|CasePool'); the
// asan-fleet CI lane runs `ctest -R 'Fleet'`.
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

#include "src/failpoint/failpoint.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/lease.h"
#include "src/fleet/worker_client.h"
#include "src/soft/chaos.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/unit_spool.h"
#include "src/soft/wire.h"
#include "src/telemetry/journal.h"

namespace soft {
namespace fleet {
namespace {

constexpr char kDialect[] = "virtuoso";
constexpr int kBudget = 2000;
constexpr int kUnits = 4;

// Unique short socket path per test (sun_path caps at ~107 bytes, so
// testing::TempDir() paths are risky — /tmp is not).
std::string SocketPath(const char* tag) {
  return "/tmp/soft_fleet_" + std::to_string(static_cast<long>(::getpid())) +
         "_" + tag + ".sock";
}

CampaignOptions SmallCampaign() {
  CampaignOptions options;
  options.seed = 20260809;
  options.max_statements = kBudget;
  return options;
}

CampaignResult ShardedReference() {
  return RunShardedSoftCampaign(kDialect, SmallCampaign(), kUnits);
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int CountSubstring(const std::string& haystack, const std::string& needle) {
  int count = 0;
  size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

// ---------------------------------------------------------------------------
// Lease table (fake clock — no time reads inside the table)
// ---------------------------------------------------------------------------

TEST(FleetLease, GrantsLowestPendingUnitAndTracksCounters) {
  LeaseTable table(3);
  EXPECT_EQ(table.units(), 3);
  EXPECT_EQ(table.Grant(/*worker=*/7, /*now_ns=*/100, /*lease_ns=*/50), 0);
  EXPECT_EQ(table.Grant(8, 100, 50), 1);
  EXPECT_EQ(table.Grant(9, 100, 50), 2);
  EXPECT_EQ(table.Grant(9, 100, 50), -1) << "no pending units left";
  EXPECT_EQ(table.counters().granted, 3);
  EXPECT_EQ(table.pending(), 0);
  EXPECT_EQ(table.leased(), 3);
  EXPECT_FALSE(table.AllDone());
}

TEST(FleetLease, HeartbeatExtendsTheDeadlineStaleHeartbeatDoesNot) {
  LeaseTable table(1);
  ASSERT_EQ(table.Grant(1, 100, 50), 0);
  EXPECT_EQ(table.NextDeadlineNs(), 150u);
  EXPECT_TRUE(table.Heartbeat(0, 1, /*cases=*/10, /*now_ns=*/140, 50));
  EXPECT_EQ(table.NextDeadlineNs(), 190u);
  EXPECT_FALSE(table.Heartbeat(0, 2, 10, 160, 50)) << "wrong worker";
  EXPECT_FALSE(table.Heartbeat(1, 1, 10, 160, 50)) << "unit out of range";
  EXPECT_EQ(table.counters().heartbeats, 1);
}

TEST(FleetLease, ExpiredLeaseIsReclaimedAndItsRegrantCountsAsStolen) {
  LeaseTable table(2);
  ASSERT_EQ(table.Grant(1, 100, 50), 0);
  EXPECT_TRUE(table.ReclaimExpired(149).empty()) << "deadline not reached";
  const std::vector<int> reclaimed = table.ReclaimExpired(150);
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], 0);
  EXPECT_EQ(table.counters().reclaimed, 1);
  EXPECT_EQ(table.counters().stolen, 0);
  // The reclaimed unit is pending again and is the lowest — the next grant
  // steals it.
  EXPECT_EQ(table.Grant(2, 200, 50), 0);
  EXPECT_EQ(table.counters().stolen, 1);
  EXPECT_FALSE(table.Heartbeat(0, 1, 5, 210, 50))
      << "the evicted worker's heartbeat must not refresh the thief's lease";
  EXPECT_TRUE(table.Heartbeat(0, 2, 5, 210, 50));
}

TEST(FleetLease, ReclaimWorkerReturnsEveryUnitItHeld) {
  LeaseTable table(3);
  ASSERT_EQ(table.Grant(1, 100, 50), 0);
  ASSERT_EQ(table.Grant(2, 100, 50), 1);
  ASSERT_EQ(table.Grant(1, 100, 50), 2);
  const std::vector<int> reclaimed = table.ReclaimWorker(1);
  EXPECT_EQ(reclaimed, (std::vector<int>{0, 2}));
  EXPECT_EQ(table.pending(), 2);
  EXPECT_EQ(table.leased(), 1);
}

TEST(FleetLease, CompleteRequiresTheLeaseHolderAndDrivesAllDone) {
  LeaseTable table(2);
  ASSERT_EQ(table.Grant(1, 100, 50), 0);
  ASSERT_EQ(table.Grant(2, 100, 50), 1);
  EXPECT_FALSE(table.Complete(0, 2)) << "not the holder";
  EXPECT_TRUE(table.Complete(0, 1));
  EXPECT_FALSE(table.Complete(0, 1)) << "already done";
  EXPECT_FALSE(table.AllDone());
  EXPECT_TRUE(table.Complete(1, 2));
  EXPECT_TRUE(table.AllDone());
  EXPECT_EQ(table.done(), 2);
  // Done units never expire or reclaim.
  EXPECT_TRUE(table.ReclaimExpired(10000).empty());
  EXPECT_TRUE(table.ReclaimWorker(1).empty());
}

TEST(FleetLease, ForceCompleteAdmitsResumedUnitsIdempotently) {
  LeaseTable table(2);
  table.ForceComplete(0, -1);
  table.ForceComplete(0, -1);
  EXPECT_EQ(table.done(), 1);
  EXPECT_EQ(table.counters().completed, 1);
  EXPECT_EQ(table.Grant(1, 100, 50), 1) << "unit 0 is done, grant skips it";
}

// ---------------------------------------------------------------------------
// Wire result blocks (the spool format and the socket payload)
// ---------------------------------------------------------------------------

TEST(FleetWire, ResultBlockRoundTripsACampaignBitIdentically) {
  CampaignOptions options = SmallCampaign();
  options.logic_oracles = {"eet"};
  options.stop_when_all_bugs_found = false;
  const CampaignResult original = RunShardedSoftCampaign(kDialect, options, 1);
  ASSERT_FALSE(original.unique_bugs.empty());

  std::vector<std::string> records;
  ASSERT_TRUE(wire::WriteResultBlock(
      [&records](const std::string& record) {
        records.push_back(record);
        return true;
      },
      original, CoverageTracker()));

  wire::ResultBlock block;
  for (const std::string& record : records) {
    ASSERT_TRUE(wire::ConsumeResultLine(record, block)) << record;
  }
  ASSERT_TRUE(block.complete);
  EXPECT_EQ(DigestCampaignResult(block.result), DigestCampaignResult(original));
  EXPECT_EQ(DigestBugInventory(block.result), DigestBugInventory(original));
  EXPECT_EQ(DigestLogicOutcome(block.result), DigestLogicOutcome(original));
}

TEST(FleetWire, TornBlockNeverParsesAsComplete) {
  const CampaignResult original =
      RunShardedSoftCampaign(kDialect, SmallCampaign(), 1);
  std::vector<std::string> records;
  wire::WriteResultBlock(
      [&records](const std::string& record) {
        records.push_back(record);
        return true;
      },
      original, CoverageTracker());
  ASSERT_GT(records.size(), 2u);
  wire::ResultBlock block;
  for (size_t i = 0; i + 1 < records.size(); ++i) {  // drop END
    ASSERT_TRUE(wire::ConsumeResultLine(records[i], block));
  }
  EXPECT_FALSE(block.complete);
}

// ---------------------------------------------------------------------------
// Socket campaigns: digest parity, chaos, degrade, resume
// ---------------------------------------------------------------------------

TEST(FleetCampaign, DigestMatchesShardedReferenceAtAnyWorkerCount) {
  const CampaignResult reference = ShardedReference();
  const CampaignResult serial =
      RunShardedSoftCampaign(kDialect, SmallCampaign(), 1);
  const auto generated = [](const CampaignResult& result) {
    uint64_t total = 0;
    for (const auto& [pattern, counters] : result.telemetry.patterns) {
      total += counters.generated;
    }
    return total;
  };
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    FleetOptions fleet;
    fleet.socket_path = SocketPath(("par" + std::to_string(workers)).c_str());
    fleet.workers = workers;
    fleet.units = kUnits;
    const Result<FleetOutcome> outcome =
        RunFleetCampaign(kDialect, SmallCampaign(), fleet);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(DigestCampaignResult(outcome->result),
              DigestCampaignResult(reference));
    // The bug inventory is additionally invariant against the *serial* run —
    // the partition changes witnesses, never which bugs exist.
    EXPECT_EQ(DigestBugInventory(outcome->result), DigestBugInventory(serial));
    // The units share one pool and unit 0 alone counts its census.
    EXPECT_EQ(generated(outcome->result), generated(serial));
    EXPECT_EQ(outcome->stats.units_completed, kUnits);
    EXPECT_GE(outcome->stats.heartbeats, kUnits)
        << "every unit must at least acknowledge its grant";
  }
}

TEST(FleetCampaign, ChaosKilledWorkerLosesItsLeaseToAThief) {
  const CampaignResult reference = ShardedReference();
  FleetOptions fleet;
  fleet.socket_path = SocketPath("kill");
  fleet.workers = 2;
  fleet.units = kUnits;
  fleet.lease_deadline_ms = 3000;
  fleet.test_kill_worker_at_unit = 0;  // first worker SIGKILLs at its first unit
  const Result<FleetOutcome> outcome =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GE(outcome->stats.worker_deaths, 1);
  EXPECT_GE(outcome->stats.leases_reclaimed, 1);
  EXPECT_GE(outcome->stats.leases_stolen, 1);
  EXPECT_EQ(DigestCampaignResult(outcome->result),
            DigestCampaignResult(reference))
      << "a murdered worker must not change the campaign outcome";
}

TEST(FleetCampaign, HungWorkerLeaseExpiresAndTheUnitIsRerun) {
  const CampaignResult reference = ShardedReference();
  FleetOptions fleet;
  fleet.socket_path = SocketPath("hang");
  fleet.workers = 2;
  fleet.units = kUnits;
  fleet.heartbeat_every = 50;
  fleet.lease_deadline_ms = 1000;  // short: the hung lease must expire fast
  fleet.test_hang_worker_at_unit = 0;  // first worker stops heartbeating
  const Result<FleetOutcome> outcome =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GE(outcome->stats.leases_reclaimed, 1)
      << "the hung worker's lease must expire via missed heartbeats";
  EXPECT_EQ(DigestCampaignResult(outcome->result),
            DigestCampaignResult(reference));
}

TEST(FleetCampaign, DegradesToLocalExecutionWhenThePoolNeverForms) {
  const CampaignResult reference = ShardedReference();
  FleetOptions fleet;
  fleet.socket_path = SocketPath("local");
  fleet.workers = 0;              // external attachers only — and none come
  fleet.units = kUnits;
  fleet.lease_deadline_ms = 300;  // the attach grace period
  const Result<FleetOutcome> outcome =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->stats.degraded_to_local);
  EXPECT_EQ(outcome->stats.units_run_locally, kUnits);
  EXPECT_EQ(outcome->stats.workers_spawned, 0);
  EXPECT_EQ(DigestCampaignResult(outcome->result),
            DigestCampaignResult(reference))
      << "the degrade ladder runs the identical unit plans in-process";
}

TEST(FleetCampaign, AttachedWorkersMatchTheShardedDigest) {
  // The coordinator forks nothing. Two workers it did not fork attach, so
  // each builds its own case pool at its first GRANT and checks its digest.
  const CampaignResult reference = ShardedReference();
  FleetOptions fleet;
  fleet.socket_path = SocketPath("attach");
  fleet.workers = 0;
  fleet.units = kUnits;
  std::vector<pid_t> attached;
  for (int i = 0; i < 2; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      FleetWorkerOptions worker;
      worker.socket_path = fleet.socket_path;
      worker.connect_attempts = 400;  // the coordinator binds after its pool build
      worker.backoff_max_ms = 25;
      ::_exit(RunFleetWorker(worker));
    }
    attached.push_back(pid);
  }
  const Result<FleetOutcome> outcome =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  for (const pid_t pid : attached) {
    int wstatus = 0;
    EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
    EXPECT_TRUE(WIFEXITED(wstatus)) << "attached worker died: " << wstatus;
  }
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->stats.workers_spawned, 0u);
  EXPECT_EQ(outcome->stats.units_run_locally, 0u);
  EXPECT_FALSE(outcome->stats.degraded_to_local);
  EXPECT_EQ(DigestCampaignResult(outcome->result), DigestCampaignResult(reference));
}

TEST(FleetCampaign, RejectsRealCrashModeAndUnknownDialects) {
  FleetOptions fleet;
  fleet.socket_path = SocketPath("bad");
  CampaignOptions options = SmallCampaign();
  options.crash_realism = CrashRealism::kReal;
  EXPECT_FALSE(RunFleetCampaign(kDialect, options, fleet).ok());
  EXPECT_FALSE(RunFleetCampaign("no-such-dbms", SmallCampaign(), fleet).ok());
  FleetOptions no_socket;
  EXPECT_FALSE(RunFleetCampaign(kDialect, SmallCampaign(), no_socket).ok());
}

TEST(FleetCampaign, MetricsSnapshotsAreObservationalAndJournaled) {
  const CampaignResult reference = ShardedReference();
  const std::string metrics_path =
      testing::TempDir() + "/soft_fleet_metrics.prom";
  const std::string journal_path =
      testing::TempDir() + "/soft_fleet_metrics.ndjson";
  std::remove(metrics_path.c_str());
  std::remove(journal_path.c_str());

  FleetOptions fleet;
  fleet.socket_path = SocketPath("metrics");
  fleet.workers = 2;
  fleet.units = kUnits;
  fleet.journal_path = journal_path;
  fleet.metrics_out = metrics_path;
  fleet.metrics_every_ms = 50;
  const Result<FleetOutcome> outcome =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // Strictly observational: the exposition machinery must not perturb the
  // merged outcome in any way the digest can see.
  EXPECT_EQ(DigestCampaignResult(outcome->result),
            DigestCampaignResult(reference));
  EXPECT_GE(outcome->stats.metrics_snapshots, 1u)
      << "the shutdown path forces a final snapshot";
  EXPECT_EQ(outcome->stats.health, "ok");
  EXPECT_FALSE(outcome->stats.health_stall_unacked);

  // The final snapshot file is a Prometheus exposition with the fleet
  // gauges, labeled campaign counters, and histogram suffix series.
  const std::string exposition = ReadFileOrEmpty(metrics_path);
  EXPECT_NE(exposition.find("# TYPE soft_fleet_units gauge"),
            std::string::npos);
  EXPECT_NE(exposition.find("soft_fleet_units{state=\"done\"} 4"),
            std::string::npos);
  EXPECT_NE(exposition.find("# TYPE soft_statements_total counter"),
            std::string::npos);
  EXPECT_NE(exposition.find("dialect=\"" + std::string(kDialect) + "\""),
            std::string::npos);
  EXPECT_NE(exposition.find("soft_fleet_units_completed_total 4"),
            std::string::npos);
#ifdef SOFT_TELEMETRY_ENABLED
  EXPECT_NE(exposition.find("soft_stage_latency_us_bucket"),
            std::string::npos)
      << "merged worker telemetry must surface as histogram series";
#endif

  // Every snapshot write is journaled, and the journal replays cleanly.
  std::ifstream journal(journal_path);
  const Result<telemetry::JournalReplay> replayed =
      telemetry::ReplayJournal(journal);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_EQ(replayed->metrics_snapshots.size(),
            outcome->stats.metrics_snapshots);
  ASSERT_FALSE(replayed->metrics_snapshots.empty());
  EXPECT_EQ(replayed->metrics_snapshots.back().units_done,
            outcome->stats.units_completed);
  EXPECT_GT(replayed->metrics_snapshots.back().series, 0u);
}

TEST(FleetCampaign, StallIsJournaledAndStaysUnackedThroughDegrade) {
  const CampaignResult reference = ShardedReference();
  const std::string journal_path =
      testing::TempDir() + "/soft_fleet_stall.ndjson";
  std::remove(journal_path.c_str());

  // No workers ever form a pool and the stall SLO is one lease period, so
  // the doctor flags a stall before the degrade ladder completes units
  // in-process. Those local completions (worker -1) must NOT acknowledge
  // the stall — only a worker-driven completion can.
  FleetOptions fleet;
  fleet.socket_path = SocketPath("stall");
  fleet.workers = 0;
  fleet.units = kUnits;
  fleet.lease_deadline_ms = 300;
  fleet.doctor_stall_leases = 1;
  fleet.journal_path = journal_path;
  fleet.metrics_out = journal_path + ".prom";
  const Result<FleetOutcome> outcome =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  EXPECT_TRUE(outcome->stats.degraded_to_local);
  // The coordinator counts its own doctor transitions by resulting state.
  EXPECT_NE(ReadFileOrEmpty(fleet.metrics_out)
                .find("soft_health_transitions_by_state_total{state=\"stall\"} "),
            std::string::npos);
  EXPECT_GE(outcome->stats.health_stalls, 1u);
  EXPECT_TRUE(outcome->stats.health_stall_unacked)
      << "degrade-to-local completions must not acknowledge the stall";
  EXPECT_GE(outcome->stats.health_transitions, 1u);
  // The stall is observational: the degraded campaign still merges the
  // bit-identical result.
  EXPECT_EQ(DigestCampaignResult(outcome->result),
            DigestCampaignResult(reference));

  std::ifstream journal(journal_path);
  const Result<telemetry::JournalReplay> replayed =
      telemetry::ReplayJournal(journal);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  bool saw_stall = false;
  for (const telemetry::JournalHealthEvent& event : replayed->health_events) {
    if (event.state == "stall") {
      saw_stall = true;
      EXPECT_NE(event.reason.find("lease period"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_stall) << "the stall transition must be journaled";
}

TEST(FleetCampaign, WorkerCompletionAcknowledgesAStall) {
  // One worker hangs at its first unit with a short lease and a one-period
  // stall SLO: the doctor stalls while the lease sits silent, then the
  // second worker steals the unit and completes it — a worker-driven
  // completion, which acknowledges the stall.
  FleetOptions fleet;
  fleet.socket_path = SocketPath("ackstall");
  fleet.workers = 2;
  fleet.units = kUnits;
  fleet.heartbeat_every = 50;
  fleet.lease_deadline_ms = 1000;
  fleet.doctor_stall_leases = 1;
  fleet.test_hang_worker_at_unit = 0;
  const Result<FleetOutcome> outcome =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->stats.units_completed, static_cast<uint64_t>(kUnits));
  EXPECT_FALSE(outcome->stats.health_stall_unacked)
      << "a worker-driven completion after the stall must acknowledge it";
}

TEST(FleetStatus, MetricsVerbServesALintablePrometheusExposition) {
  FleetOptions fleet;
  fleet.socket_path = SocketPath("promverb");
  fleet.workers = 1;
  fleet.units = kUnits;

  // A child queries the METRICS verb mid-campaign: the reply must be one
  // complete exposition (HELP/TYPE headers, fleet gauges) and then a clean
  // connection close.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    FleetStatusRequest request;
    request.endpoint.socket_path = fleet.socket_path;
    request.metrics = true;
    int type_lines = 0, gauge_units = 0, health_line = 0;
    Status streamed = IoError("never connected");
    for (int attempt = 0; attempt < 400; ++attempt) {
      type_lines = gauge_units = health_line = 0;
      streamed = StreamFleetStatus(request, [&](const std::string& line) {
        type_lines += line.rfind("# TYPE ", 0) == 0 ? 1 : 0;
        gauge_units += line.rfind("soft_fleet_units{", 0) == 0 ? 1 : 0;
        health_line += line.rfind("soft_fleet_health ", 0) == 0 ? 1 : 0;
        return true;
      });
      if (streamed.ok()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!streamed.ok()) {
      ::_exit(90);
    }
    if (type_lines < 5) {
      ::_exit(91);
    }
    if (gauge_units != 3) {  // pending | leased | done
      ::_exit(92);
    }
    if (health_line != 1) {
      ::_exit(93);
    }
    ::_exit(0);
  }

  const Result<FleetOutcome> outcome =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "metrics-verb child exit code";
}

TEST(FleetStatus, QueryFailsCleanlyWithNoCoordinatorListening) {
  const Result<std::string> payload = QueryFleetStatus(SocketPath("nobody"));
  ASSERT_FALSE(payload.ok());
  EXPECT_NE(payload.status().message().find("no fleet coordinator"),
            std::string::npos)
      << payload.status().ToString();
}

// ---------------------------------------------------------------------------
// Coordinator crash + resume (the tentpole's crash-survivability oracle)
// ---------------------------------------------------------------------------

TEST(FleetResume, CoordinatorKill9MidCampaignResumesBitIdentical) {
  const std::string journal_path =
      testing::TempDir() + "/soft_fleet_kill9.ndjson";
  std::remove(journal_path.c_str());

  const CampaignResult reference = ShardedReference();

  // A real coordinator process, killed once at least one unit result is
  // journaled complete (its spool write is already durable by then).
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    FleetOptions fleet;
    fleet.socket_path = SocketPath("k9serve");
    fleet.workers = 2;
    fleet.units = kUnits;
    fleet.journal_path = journal_path;
    RunFleetCampaign(kDialect, SmallCampaign(), fleet);
    ::_exit(0);
  }
  bool killed = false;
  for (int i = 0; i < 4000; ++i) {
    const std::string journal = ReadFileOrEmpty(journal_path);
    if (CountSubstring(journal, "\"action\":\"complete\"") >= 1) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!killed) {
    // The campaign finished before the kill landed — the journal then holds
    // every unit and resume degenerates to the pure re-admission path, which
    // is still worth asserting below.
    ASSERT_TRUE(WIFEXITED(status));
  } else {
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  }

  // Resume on a fresh socket (orphaned workers of the killed coordinator may
  // still be retrying the old path; they drain and exit on their own).
  FleetOptions fleet;
  fleet.socket_path = SocketPath("k9resume");
  fleet.workers = 2;
  fleet.units = kUnits;
  fleet.journal_path = journal_path;
  fleet.resume = true;
  const Result<FleetOutcome> resumed =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GE(resumed->stats.units_resumed, 1)
      << "at least the journaled-complete unit must be re-admitted";
  EXPECT_EQ(resumed->stats.units_completed, kUnits);
  EXPECT_EQ(DigestCampaignResult(resumed->result),
            DigestCampaignResult(reference))
      << "kill -9 + resume must be invisible in the merged outcome";

  // The resumed journal replays: resume marker, lease stream, fleet tail.
  const Result<telemetry::JournalReplay> replay =
      telemetry::ReplayJournalFile(journal_path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->fleet_finished);
  EXPECT_EQ(replay->fleet.units, kUnits);
  EXPECT_TRUE(replay->finished);
  std::remove(journal_path.c_str());
}

TEST(FleetResume, DivergedSpoolUnitIsDistrustedAndRerun) {
  const std::string journal_path =
      testing::TempDir() + "/soft_fleet_spool.ndjson";
  std::remove(journal_path.c_str());
  const CampaignResult reference = ShardedReference();

  FleetOptions fleet;
  fleet.socket_path = SocketPath("spool1");
  fleet.workers = 1;
  fleet.units = kUnits;
  fleet.journal_path = journal_path;
  ASSERT_TRUE(RunFleetCampaign(kDialect, SmallCampaign(), fleet).ok());

  // Corrupt one spooled unit behind the journal's back.
  {
    std::ofstream out(journal_path + ".units/unit_1.wire", std::ios::trunc);
    out << "RES not what the digest promised\n";
  }
  fleet.socket_path = SocketPath("spool2");
  fleet.resume = true;
  const Result<FleetOutcome> resumed =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->stats.units_spool_diverged, 1);
  EXPECT_EQ(resumed->stats.units_resumed, kUnits - 1);
  EXPECT_EQ(DigestCampaignResult(resumed->result),
            DigestCampaignResult(reference))
      << "a corrupt spool entry re-runs; it must never merge";
  std::remove(journal_path.c_str());
}

TEST(FleetResume, RejectsAJournalFromADifferentCampaign) {
  const std::string journal_path =
      testing::TempDir() + "/soft_fleet_foreign.ndjson";
  std::remove(journal_path.c_str());
  FleetOptions fleet;
  fleet.socket_path = SocketPath("foreign1");
  fleet.workers = 1;
  fleet.units = kUnits;
  fleet.journal_path = journal_path;
  ASSERT_TRUE(RunFleetCampaign(kDialect, SmallCampaign(), fleet).ok());

  CampaignOptions different = SmallCampaign();
  different.seed += 1;
  fleet.socket_path = SocketPath("foreign2");
  fleet.resume = true;
  const Result<FleetOutcome> resumed =
      RunFleetCampaign(kDialect, different, fleet);
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.status().message().find("does not match"), std::string::npos)
      << resumed.status().ToString();
  std::remove(journal_path.c_str());
}

TEST(FleetResume, ResumesAKilledShardedLocalJournal) {
  const std::string journal_path =
      testing::TempDir() + "/soft_fleet_local.ndjson";
  std::remove(journal_path.c_str());
  const CampaignResult reference = ShardedReference();

  // A local --shards=kUnits campaign (the same unit spool a fleet writes),
  // killed once a unit is spooled: three shards park at statement 100
  // while the fourth finishes and commits.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CampaignOptions options = SmallCampaign();
    auto first = std::make_shared<std::atomic<bool>>(true);
    options.progress = [first](int statements) {
      if (statements == 100 && !first->exchange(false)) {
        for (;;) {
          ::pause();
        }
      }
    };
    RunSpooledSoftCampaign(journal_path, kDialect, options, kUnits);
    ::_exit(0);
  }
  bool killed = false;
  for (int i = 0; i < 4000 && !killed; ++i) {
    if (CountSubstring(ReadFileOrEmpty(journal_path), "\"action\":\"complete\"") >= 1) {
      killed = ::kill(pid, SIGKILL) == 0;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(killed && WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  FleetOptions fleet;
  fleet.socket_path = SocketPath("localresume");
  fleet.workers = 2;
  fleet.units = kUnits;
  fleet.journal_path = journal_path;
  fleet.resume = true;
  const Result<FleetOutcome> resumed =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->stats.units_resumed, 1u);
  EXPECT_EQ(DigestCampaignResult(resumed->result), DigestCampaignResult(reference))
      << "a fleet resume of a local journal must merge the uninterrupted result";
  std::remove(journal_path.c_str());
  std::filesystem::remove_all(SpoolDirFor(journal_path));
}

TEST(FleetResume, FailedSpoolWriteIsReportedNotJournaledAsCommitted) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const std::string journal_path =
      testing::TempDir() + "/soft_fleet_spoolfail.ndjson";
  std::remove(journal_path.c_str());
  std::filesystem::remove_all(SpoolDirFor(journal_path));
  const CampaignResult reference = ShardedReference();

  // The first unit's spool rename fails: that unit must not be journaled
  // complete, and the run must say so instead of exiting clean.
  FleetOptions fleet;
  fleet.socket_path = SocketPath("spoolfail1");
  fleet.workers = 2;
  fleet.units = kUnits;
  fleet.journal_path = journal_path;
  ASSERT_TRUE(failpoint::ArmFromSpec("io.rename=after:0:1").ok());
  const Result<FleetOutcome> outcome =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  failpoint::DisarmAll();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->result.journal_degraded);
  ASSERT_EQ(outcome->stats.spool_failures.size(), 1u);
  EXPECT_NE(outcome->stats.spool_failures[0].find("unit "), std::string::npos);
  EXPECT_EQ(DigestCampaignResult(outcome->result), DigestCampaignResult(reference));
  EXPECT_EQ(CountSubstring(ReadFileOrEmpty(journal_path), "\"action\":\"complete\""),
            kUnits - 1);

  // A resume re-runs exactly the uncommitted unit.
  fleet.socket_path = SocketPath("spoolfail2");
  fleet.resume = true;
  const Result<FleetOutcome> resumed =
      RunFleetCampaign(kDialect, SmallCampaign(), fleet);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->stats.units_resumed, static_cast<uint64_t>(kUnits - 1));
  EXPECT_EQ(DigestCampaignResult(resumed->result), DigestCampaignResult(reference));
  std::remove(journal_path.c_str());
  std::filesystem::remove_all(SpoolDirFor(journal_path));
}

// ---------------------------------------------------------------------------
// Fleet chaos oracle (the five fleet.* failpoint sites)
// ---------------------------------------------------------------------------

TEST(FleetChaos, EverySiteOracleHoldsUnderInjection) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const ChaosReport report = RunFleetChaosEnumeration(kDialect, /*budget=*/800);
  EXPECT_EQ(report.outcomes.size(), 5u)
      << "one outcome per fleet.* site in failpoint::kInventory";
  for (const ChaosSiteOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.failpoint << ": " << outcome.detail;
    EXPECT_TRUE(outcome.ran) << outcome.failpoint;
  }
}

}  // namespace
}  // namespace fleet
}  // namespace soft
