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

#include <memory>

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

  bool operator==(const SoftOptions&) const = default;
};

// Steps 1 and 2 of a campaign, done once: the suite prerequisites and the
// deduplicated, shuffled case order. A pure function of its key (collection
// and generation read only the dialect's registry and fault corpus), so
// shard threads and fleet workers share one, const.
struct CasePool {
  // The key.
  std::string dialect;
  uint64_t seed = 0;
  bool logic_mode = false;  // seeded logic PoCs lead the cases
  SoftOptions options;

  std::vector<std::string> prerequisites;  // run before any case (Finding 4)
  std::vector<GeneratedCase> cases;        // the global case order
  uint64_t digest = 0;  // FNV-1a over prerequisites and cases; ships in GRANT

  // Whether this pool is the one a campaign with this key would build.
  bool Matches(const std::string& dialect, const CampaignOptions& campaign,
               const SoftOptions& options) const;
};

// Builds the pool of a SOFT campaign over `db`'s dialect (its tables and
// session are not read). The overload by name returns null for an unknown
// dialect.
std::shared_ptr<const CasePool> BuildCasePool(const Database& db,
                                              const CampaignOptions& campaign,
                                              const SoftOptions& options = SoftOptions());
std::shared_ptr<const CasePool> BuildCasePool(const std::string& dialect,
                                              const CampaignOptions& campaign,
                                              const SoftOptions& options = SoftOptions());

class SoftFuzzer : public Fuzzer {
 public:
  // `pool` is used only by campaigns it Matches; any other campaign (a
  // different seed or dialect) builds its own.
  explicit SoftFuzzer(SoftOptions options = SoftOptions(),
                      std::shared_ptr<const CasePool> pool = nullptr);

  std::string name() const override { return "SOFT"; }
  CampaignResult Run(Database& db, const CampaignOptions& options) override;

 private:
  SoftOptions soft_options_;
  std::shared_ptr<const CasePool> pool_;
};

// Runs one SOFT campaign partitioned across `shards` parallel threads, each
// shard against a fresh instance of `dialect` (see src/soft/parallel_runner.h
// for the shard/merge semantics). The case pool is built once and shared by
// every shard: the shards execute the serial campaign's cases, though a
// statement that reads session state can make a shard's outcome differ from
// serial. shards == 1 is bit-identical to SoftFuzzer::Run against
// MakeDialect(dialect).
CampaignResult RunShardedSoftCampaign(const std::string& dialect,
                                      const CampaignOptions& options, int shards,
                                      SoftOptions soft_options = SoftOptions());

}  // namespace soft

#endif  // SRC_SOFT_SOFT_FUZZER_H_
