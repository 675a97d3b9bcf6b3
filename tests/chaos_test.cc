// Chaos campaign oracles (src/soft/chaos.h): every registered failpoint,
// when armed, degrades the harness exactly the way its SiteClass promises —
// clean Status, no crash, campaign outcomes bit-identical wherever the fault
// is retried or absorbed.
//
// These tests fork (worker sites, kReal campaigns): keep them out of the
// TSan lane like the worker harness tests (tests/CMakeLists.txt). The ASan
// chaos CI lane runs them plus `find_bugs --chaos=enumerate`.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "src/failpoint/failpoint.h"
#include "src/soft/chaos.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/unit_spool.h"
#include "src/telemetry/telemetry.h"

namespace soft {
namespace {

constexpr char kDialect[] = "mariadb";
constexpr int kBudget = 300;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

CampaignOptions ChaosOptions(int budget) {
  CampaignOptions options;
  options.seed = 42;
  options.max_statements = budget;
  return options;
}

TEST_F(ChaosTest, DigestIsStableAndSensitive) {
  const CampaignResult a = RunShardedSoftCampaign(kDialect, ChaosOptions(kBudget), 1);
  const CampaignResult b = RunShardedSoftCampaign(kDialect, ChaosOptions(kBudget), 1);
  EXPECT_EQ(DigestCampaignResult(a), DigestCampaignResult(b));

  CampaignOptions other = ChaosOptions(kBudget);
  other.seed = 43;
  const CampaignResult c = RunShardedSoftCampaign(kDialect, other, 1);
  EXPECT_NE(DigestCampaignResult(a), DigestCampaignResult(c));

  // journal_degraded is deliberately outside the digest: it is the one field
  // degrade-class injections are allowed to change.
  CampaignResult degraded = a;
  degraded.journal_degraded = true;
  EXPECT_EQ(DigestCampaignResult(a), DigestCampaignResult(degraded));
}

TEST_F(ChaosTest, EnumerationOracleHoldsForInProcessSites) {
  const ChaosReport report =
      RunChaosEnumeration(kDialect, kBudget, /*include_worker_sites=*/false);
  if (!report.compiled_in) {
    EXPECT_TRUE(report.outcomes.empty());
    EXPECT_TRUE(report.ok());
    GTEST_SKIP() << "failpoints compiled out";
  }
  EXPECT_EQ(report.outcomes.size(), failpoint::kInventory.size());
  for (const ChaosSiteOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.failpoint << " [" << outcome.site_class
                            << "]: " << outcome.detail;
  }
  // Worker sites were skipped and fleet/net sites delegated (their oracles
  // run in soft::fleet::RunFleetChaosEnumeration and RunNetChaosEnumeration
  // — they need a live socket topology soft_core cannot link); everything
  // else actually ran.
  for (const ChaosSiteOutcome& outcome : report.outcomes) {
    const bool worker_site = outcome.failpoint.rfind("worker.", 0) == 0;
    const bool fleet_site = outcome.failpoint.rfind("fleet.", 0) == 0;
    const bool net_site = outcome.failpoint.rfind("net.", 0) == 0;
    EXPECT_EQ(outcome.ran, !worker_site && !fleet_site && !net_site)
        << outcome.failpoint;
    if (fleet_site) {
      EXPECT_NE(outcome.detail.find("RunFleetChaosEnumeration"), std::string::npos)
          << outcome.failpoint;
    }
    if (net_site) {
      EXPECT_NE(outcome.detail.find("RunNetChaosEnumeration"), std::string::npos)
          << outcome.failpoint;
    }
  }
}

TEST_F(ChaosTest, WorkerSitesHoldUnderForkedCampaigns) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  // The worker.* slice of the enumeration, exercised through real forked
  // campaigns (the part EnumerationOracleHoldsForInProcessSites skips).
  const ChaosReport report =
      RunChaosEnumeration(kDialect, kBudget, /*include_worker_sites=*/true);
  for (const ChaosSiteOutcome& outcome : report.outcomes) {
    if (outcome.failpoint.rfind("worker.", 0) != 0) {
      continue;
    }
    EXPECT_TRUE(outcome.ran) << outcome.failpoint;
    EXPECT_TRUE(outcome.ok) << outcome.failpoint << ": " << outcome.detail;
  }
}

TEST_F(ChaosTest, ShardedCampaignBitIdenticalUnderInjectedWorkerFaults) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  // K=2 real-crash campaign with transient worker faults armed vs the K=2
  // uninjected simulated reference: retried/absorbed faults must leave the
  // merged result bit-identical — regardless of which shard drew the fault.
  telemetry::SetRuntimeEnabled(false);
  const CampaignResult reference =
      RunShardedSoftCampaign(kDialect, ChaosOptions(600), /*shards=*/2);

  ASSERT_TRUE(failpoint::ArmFromSpec(
                  "worker.fork=after:0:2,worker.pipe_write=after:0:3,"
                  "worker.pipe_read=after:0:3")
                  .ok());
  CampaignOptions real = ChaosOptions(600);
  real.crash_realism = CrashRealism::kReal;
  const CampaignResult injected =
      RunShardedSoftCampaign(kDialect, real, /*shards=*/2);
  failpoint::DisarmAll();
  telemetry::SetRuntimeEnabled(true);

  EXPECT_EQ(DigestCampaignResult(injected), DigestCampaignResult(reference));
  EXPECT_FALSE(injected.journal_degraded);
}

TEST_F(ChaosTest, SinkLossLatchesDegradedWithoutChangingTheOutcome) {
  // No failpoint involved: a spool directory that cannot exist (a regular
  // file sits at its path) makes every unit commit fail, so this holds in
  // -DSOFT_FAILPOINTS=OFF builds too.
  const std::string journal =
      testing::TempDir() + "/soft_chaos_sink_loss.ndjson";
  const std::string spool = SpoolDirFor(journal);
  std::filesystem::remove_all(spool);
  std::ofstream(spool) << "not a directory\n";

  const CampaignResult reference =
      RunShardedSoftCampaign(kDialect, ChaosOptions(kBudget), 2);
  const Result<SpooledRun> lossy =
      RunSpooledSoftCampaign(journal, kDialect, ChaosOptions(kBudget), 2);
  ASSERT_TRUE(lossy.ok()) << lossy.status().ToString();
  EXPECT_TRUE(lossy->result.journal_degraded);
  ASSERT_EQ(lossy->spool_failures.size(), 2u);
  EXPECT_NE(lossy->spool_failures[0].find("unit "), std::string::npos);
  EXPECT_EQ(DigestCampaignResult(lossy->result), DigestCampaignResult(reference));

  // Nothing was committed, so the journal vouches for no unit.
  const Result<UnitResume> resume = LoadUnitResume(journal);
  ASSERT_TRUE(resume.ok()) << resume.status().ToString();
  EXPECT_TRUE(resume->completed.empty());
  std::filesystem::remove(spool);
  std::filesystem::remove(journal);
}

}  // namespace
}  // namespace soft
