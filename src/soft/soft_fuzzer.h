// SOFT: the pattern-based SQL-function fuzzer (Section 7).
//
// Pipeline per campaign: (1) collect function expressions from the dialect's
// documentation and regression suite, (2) generate test cases with the 10
// boundary-value-generation patterns, (3) execute them and watch for
// crashes, deduplicating bugs and logging PoCs. Resource-limit kills
// (REPEAT('a', 9999999999)-style) are counted as false positives, matching
// Section 7.3.
#ifndef SRC_SOFT_SOFT_FUZZER_H_
#define SRC_SOFT_SOFT_FUZZER_H_

#include "src/soft/campaign.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/patterns.h"

namespace soft {

struct SoftOptions {
  PatternOptions patterns;
  // Restrict generation to a subset of patterns (empty = all ten families).
  // Used by the ablation benches.
  std::vector<std::string> only_patterns;
  // Use the extremes-only literal pool instead of the digit sweep (the
  // strategy Section 6 calls insufficient); ablation knob.
  bool extremes_only_pool = false;
};

class SoftFuzzer : public Fuzzer {
 public:
  explicit SoftFuzzer(SoftOptions options = SoftOptions());

  std::string name() const override { return "SOFT"; }
  CampaignResult Run(Database& db, const CampaignOptions& options) override;

 private:
  SoftOptions soft_options_;
};

// Runs one SOFT campaign split across `shards` parallel threads, each shard
// against a fresh instance of `dialect` (see src/soft/parallel_runner.h for
// the shard/merge semantics). SOFT generates a finite case pool, so the
// default mode partitions the serial campaign's case order across shards:
// the shards execute the serial campaign's cases, though a statement that
// reads session state can make a shard's outcome differ from serial. Pass
// ShardMode::kSplitBudget to get the decorrelated per-shard-seed sampling
// used for the baselines instead. shards == 1 is bit-identical to
// SoftFuzzer::Run against MakeDialect(dialect) in either mode.
CampaignResult RunShardedSoftCampaign(const std::string& dialect,
                                      const CampaignOptions& options, int shards,
                                      SoftOptions soft_options = SoftOptions(),
                                      ShardMode mode = ShardMode::kPartitionCases);

}  // namespace soft

#endif  // SRC_SOFT_SOFT_FUZZER_H_
