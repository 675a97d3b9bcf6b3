// End-to-end SOFT campaigns: the fuzzer must rediscover the injected Table 4
// bug corpus of every dialect from its seeds and patterns alone, without
// false crash classifications, and deterministically per seed.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/soft/chaos.h"
#include "src/soft/soft_fuzzer.h"

namespace soft {
namespace {

CampaignResult RunCampaign(const std::string& dialect, uint64_t seed = 1,
                           int budget = 200000) {
  auto db = MakeDialect(dialect);
  SoftFuzzer fuzzer;
  CampaignOptions options;
  options.seed = seed;
  options.max_statements = budget;
  options.stop_when_all_bugs_found = true;
  return fuzzer.Run(*db, options);
}

class SoftCampaignTest : public testing::TestWithParam<std::string> {};

TEST_P(SoftCampaignTest, FindsEveryInjectedBug) {
  auto db = MakeDialect(GetParam());
  const size_t expected = db->faults().bug_count();
  const CampaignResult result = RunCampaign(GetParam());
  std::set<int> missing;
  for (const BugSpec& spec : db->faults().AllBugs()) {
    missing.insert(spec.id);
  }
  for (const FoundBug& bug : result.unique_bugs) {
    missing.erase(bug.crash.bug_id);
  }
  EXPECT_EQ(result.unique_bugs.size(), expected)
      << GetParam() << ": missing bug ids: " << [&] {
           std::string out;
           for (int id : missing) {
             out += std::to_string(id) + " ";
           }
           return out;
         }();
}

TEST_P(SoftCampaignTest, EveryFoundBugHasAReExecutablePoc) {
  const CampaignResult result = RunCampaign(GetParam());
  auto db = MakeDialect(GetParam());
  // Re-create suite prerequisites so table-backed PoCs re-execute.
  for (const FoundBug& bug : result.unique_bugs) {
    const StatementResult r = db->Execute(bug.poc_sql);
    ASSERT_TRUE(r.crashed()) << GetParam() << ": logged PoC no longer crashes: "
                             << bug.poc_sql;
    EXPECT_EQ(r.crash->bug_id, bug.crash.bug_id);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDialects, SoftCampaignTest,
                         testing::ValuesIn(AllDialectNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(SoftCampaign, DeterministicPerSeed) {
  const CampaignResult a = RunCampaign("mariadb", 7, 5000);
  const CampaignResult b = RunCampaign("mariadb", 7, 5000);
  ASSERT_EQ(a.unique_bugs.size(), b.unique_bugs.size());
  for (size_t i = 0; i < a.unique_bugs.size(); ++i) {
    EXPECT_EQ(a.unique_bugs[i].crash.bug_id, b.unique_bugs[i].crash.bug_id);
    EXPECT_EQ(a.unique_bugs[i].poc_sql, b.unique_bugs[i].poc_sql);
  }
  EXPECT_EQ(a.statements_executed, b.statements_executed);
  EXPECT_EQ(a.branches_covered, b.branches_covered);
}

TEST(SoftCampaign, ReportsFalsePositivesSeparately) {
  // Resource-limit kills must be triaged as false positives, never as bugs.
  const CampaignResult result = RunCampaign("mariadb");
  for (const FoundBug& bug : result.unique_bugs) {
    EXPECT_NE(bug.crash.bug_id, 0);
  }
  EXPECT_GT(result.false_positives, 0)
      << "the P3.1 length sweep should trip at least one engine limit";
}

TEST(SoftCampaign, ProgressCallbackSeesEveryStatementAndChangesNothing) {
  CampaignOptions options;
  options.seed = 3;
  options.max_statements = 900;
  auto plain_db = MakeDialect("mariadb");
  const CampaignResult plain = SoftFuzzer().Run(*plain_db, options);

  std::vector<int> seen;
  options.progress = [&seen](int statements) { seen.push_back(statements); };
  auto db = MakeDialect("mariadb");
  const CampaignResult observed = SoftFuzzer().Run(*db, options);
  ASSERT_EQ(seen.size(), static_cast<size_t>(observed.statements_executed));
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int>(i) + 1);
  }
  EXPECT_EQ(DigestCampaignResult(observed), DigestCampaignResult(plain));
}

// One pool read concurrently by every shard thread (this suite runs in the
// TSan lane) merges bit-identically to shards that each build their own, and
// a pool whose key does not match the campaign is ignored.
TEST(CasePool, ShardThreadsShareOnePoolBitIdentically) {
  CampaignOptions options;
  options.seed = 7;
  options.max_statements = 3000;
  const std::shared_ptr<const CasePool> pool = BuildCasePool("duckdb", options);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(BuildCasePool("duckdb", options)->digest, pool->digest);
  EXPECT_EQ(BuildCasePool("no-such-dbms", options), nullptr);
  CampaignOptions other_seed = options;
  other_seed.seed = 8;
  const std::shared_ptr<const CasePool> stale = BuildCasePool("duckdb", other_seed);
  EXPECT_NE(stale->digest, pool->digest);
  EXPECT_FALSE(stale->Matches("duckdb", options, SoftOptions()));
  CampaignOptions logic = options;
  logic.logic_oracles = {"eet"};
  EXPECT_FALSE(pool->Matches("duckdb", logic, SoftOptions()));
  SoftOptions only_p12;
  only_p12.only_patterns = {"P1.2"};
  EXPECT_FALSE(pool->Matches("duckdb", options, only_p12));

  const auto make_db = [] { return MakeDialect("duckdb"); };
  const CampaignResult own =
      ParallelCampaignRunner([] { return std::make_unique<SoftFuzzer>(); }, make_db)
          .RunSerial(options, 4, ShardMode::kPartitionCases);
  for (const std::shared_ptr<const CasePool>& given : {pool, stale}) {
    const CampaignResult shared =
        ParallelCampaignRunner(
            [given] { return std::make_unique<SoftFuzzer>(SoftOptions(), given); },
            make_db)
            .Run(options, 4, ShardMode::kPartitionCases);
    EXPECT_EQ(DigestCampaignResult(shared), DigestCampaignResult(own));
  }
}

}  // namespace
}  // namespace soft
