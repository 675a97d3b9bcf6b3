// Determinism contract of the sharded campaign runner: a K-shard parallel
// SOFT campaign must be bit-identical to the serial sum of the same K
// case-partition shards run sequentially (thread scheduling must never leak
// into results), two parallel runs of the same plan must be bit-identical to
// each other, and a 1-shard run must reproduce the plain serial campaign
// exactly. Run these under ThreadSanitizer (-DSOFT_SANITIZE=thread) to
// validate the per-thread-instance model; see README "Parallel campaigns".
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/dialects/dialects.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/soft_fuzzer.h"

namespace soft {
namespace {

ParallelCampaignRunner SoftRunner(const std::string& dialect) {
  return ParallelCampaignRunner([] { return std::make_unique<SoftFuzzer>(); },
                                [dialect] { return MakeDialect(dialect); });
}

void ExpectBitIdentical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.tool, b.tool);
  EXPECT_EQ(a.dialect, b.dialect);
  EXPECT_EQ(a.statements_executed, b.statements_executed);
  EXPECT_EQ(a.sql_errors, b.sql_errors);
  EXPECT_EQ(a.crashes_observed, b.crashes_observed);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.functions_triggered, b.functions_triggered);
  EXPECT_EQ(a.branches_covered, b.branches_covered);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.shard_statements, b.shard_statements);
  ASSERT_EQ(a.unique_bugs.size(), b.unique_bugs.size());
  for (size_t i = 0; i < a.unique_bugs.size(); ++i) {
    EXPECT_EQ(a.unique_bugs[i].crash.bug_id, b.unique_bugs[i].crash.bug_id);
    EXPECT_EQ(a.unique_bugs[i].poc_sql, b.unique_bugs[i].poc_sql);
    EXPECT_EQ(a.unique_bugs[i].found_by, b.unique_bugs[i].found_by);
    EXPECT_EQ(a.unique_bugs[i].statements_until_found,
              b.unique_bugs[i].statements_until_found);
    EXPECT_EQ(a.unique_bugs[i].shard, b.unique_bugs[i].shard);
  }
}

class ParallelCampaignTest : public testing::TestWithParam<std::string> {};

// The load-bearing property: parallel execution of the shard plan yields the
// same unique-bug set, coverage counts, and per-shard statement counts as
// running the K shards sequentially and merging.
TEST_P(ParallelCampaignTest, ParallelRunMatchesSerialShardSum) {
  const ParallelCampaignRunner runner = SoftRunner(GetParam());
  CampaignOptions options;
  options.seed = 11;
  options.max_statements = 4000;
  const CampaignResult parallel = runner.Run(options, 4);
  const CampaignResult serial = runner.RunSerial(options, 4);
  ExpectBitIdentical(parallel, serial);
  EXPECT_EQ(parallel.shards, 4);
  EXPECT_EQ(parallel.statements_executed, options.max_statements);
}

INSTANTIATE_TEST_SUITE_P(AllDialects, ParallelCampaignTest,
                         testing::ValuesIn(AllDialectNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(ParallelCampaign, TwoEightShardRunsAreBitIdentical) {
  const ParallelCampaignRunner runner = SoftRunner("mariadb");
  CampaignOptions options;
  options.seed = 5;
  options.max_statements = 8000;
  const CampaignResult first = runner.Run(options, 8);
  const CampaignResult second = runner.Run(options, 8);
  ExpectBitIdentical(first, second);
  ASSERT_EQ(first.shard_statements.size(), 8u);
}

// shards == 1 must reproduce the plain serial campaign bit-for-bit (the
// runner is a drop-in replacement, not a different campaign).
TEST(ParallelCampaign, OneShardMatchesPlainSerialCampaign) {
  CampaignOptions options;
  options.seed = 7;
  options.max_statements = 5000;

  auto db = MakeDialect("duckdb");
  SoftFuzzer fuzzer;
  const CampaignResult plain = fuzzer.Run(*db, options);

  const CampaignResult sharded = RunShardedSoftCampaign("duckdb", options, 1);
  EXPECT_EQ(sharded.shards, 1);
  EXPECT_EQ(plain.statements_executed, sharded.statements_executed);
  EXPECT_EQ(plain.sql_errors, sharded.sql_errors);
  EXPECT_EQ(plain.crashes_observed, sharded.crashes_observed);
  EXPECT_EQ(plain.false_positives, sharded.false_positives);
  EXPECT_EQ(plain.functions_triggered, sharded.functions_triggered);
  EXPECT_EQ(plain.branches_covered, sharded.branches_covered);
  ASSERT_EQ(plain.unique_bugs.size(), sharded.unique_bugs.size());
  for (size_t i = 0; i < plain.unique_bugs.size(); ++i) {
    EXPECT_EQ(plain.unique_bugs[i].crash.bug_id, sharded.unique_bugs[i].crash.bug_id);
    EXPECT_EQ(plain.unique_bugs[i].poc_sql, sharded.unique_bugs[i].poc_sql);
    EXPECT_EQ(plain.unique_bugs[i].found_by, sharded.unique_bugs[i].found_by);
  }
}

// Shard plans keep the base seed and the full budget and instead stripe the
// global case order across shards.
TEST(ParallelCampaign, PartitionPlanCarriesBaseSeedAndFullBudget) {
  CampaignOptions options;
  options.seed = 42;
  options.max_statements = 10007;
  const std::vector<ShardPlan> plans = PlanShards(options, 8);
  ASSERT_EQ(plans.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const ShardPlan& plan = plans[static_cast<size_t>(i)];
    EXPECT_EQ(plan.options.seed, options.seed);
    EXPECT_EQ(plan.options.max_statements, options.max_statements);
    EXPECT_EQ(plan.options.shard_index, i);
    EXPECT_EQ(plan.options.shard_count, 8);
  }
}

// Partitioning's defining property: because the K shards execute the
// exact interleave of the serial campaign's case order, the merged run
// reproduces the serial campaign's bug set, coverage, and statement totals
// at ANY budget — work is divided, not resampled.
TEST(ParallelCampaign, PartitionModeReproducesSerialCampaignExactly) {
  CampaignOptions options;
  options.seed = 1;
  options.max_statements = 9000;

  auto db = MakeDialect("virtuoso");
  SoftFuzzer fuzzer;
  const CampaignResult serial = fuzzer.Run(*db, options);

  const CampaignResult merged = RunShardedSoftCampaign("virtuoso", options, 8);
  EXPECT_EQ(merged.shards, 8);
  EXPECT_EQ(merged.statements_executed, serial.statements_executed);
  EXPECT_EQ(merged.sql_errors, serial.sql_errors);
  EXPECT_EQ(merged.crashes_observed, serial.crashes_observed);
  EXPECT_EQ(merged.false_positives, serial.false_positives);
  EXPECT_EQ(merged.functions_triggered, serial.functions_triggered);
  EXPECT_EQ(merged.branches_covered, serial.branches_covered);

  std::set<int> serial_ids, merged_ids;
  for (const FoundBug& bug : serial.unique_bugs) {
    serial_ids.insert(bug.crash.bug_id);
  }
  for (const FoundBug& bug : merged.unique_bugs) {
    merged_ids.insert(bug.crash.bug_id);
  }
  EXPECT_EQ(merged_ids, serial_ids);
}

// The merged witness for each bug must carry the lowest
// (shard, statements_until_found) pair among all shard witnesses, making
// found_by attribution independent of which thread finished first.
TEST(ParallelCampaign, MergeKeepsLowestWitnessPerBug) {
  const ParallelCampaignRunner runner = SoftRunner("mysql");
  CampaignOptions options;
  options.seed = 3;
  options.max_statements = 6000;
  const CampaignResult merged = runner.Run(options, 4);

  std::set<int> merged_ids;
  for (const FoundBug& bug : merged.unique_bugs) {
    merged_ids.insert(bug.crash.bug_id);
  }
  const std::vector<ShardPlan> plans = PlanShards(options, 4);
  std::set<int> union_ids;
  for (const ShardPlan& plan : plans) {
    auto db = MakeDialect("mysql");
    SoftFuzzer fuzzer;
    const CampaignResult shard = fuzzer.Run(*db, plan.options);
    for (const FoundBug& bug : shard.unique_bugs) {
      union_ids.insert(bug.crash.bug_id);
      // A merged witness for this bug can never be later than this shard's.
      for (const FoundBug& kept : merged.unique_bugs) {
        if (kept.crash.bug_id == bug.crash.bug_id && kept.shard == plan.shard) {
          EXPECT_LE(kept.statements_until_found, bug.statements_until_found);
        }
      }
    }
  }
  EXPECT_EQ(merged_ids, union_ids);
}

}  // namespace
}  // namespace soft
