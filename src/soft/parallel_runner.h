// Parallel sharded campaign execution.
//
// The paper's campaigns are 24-hour wall-clock runs against seven DBMSs in
// parallel; the serial reproduction replays them one statement at a time on
// one core. This runner partitions a campaign's global case order into K
// deterministic shards: shard i runs the same tool with the base seed, the
// full statement budget and (shard_index, shard_count) = (i, K) in its
// CampaignOptions, so it executes the global case indices below the budget
// that are congruent to i mod K (campaign.h). Each shard runs against a
// *fresh* Database instance (dialects are cheap to construct), one shard per
// thread. The fuzzer must honour shard_index/shard_count: SOFT does; the
// baselines generate statements as they run, ignore them, and always run
// serially.
//
// Determinism contract: the merged result is a pure function of
// (options, shards) and never of thread scheduling —
//   * shard plans come from PlanShards alone;
//   * every shard owns its Database (catalog, coverage, session, fault
//     engine are all per-instance; the builtin catalog prototype is
//     call_once-guarded, see src/sqlfunc/function.cc);
//   * merging walks shards in index order: scalar counters sum, coverage
//     unions via CoverageTracker::MergeFrom, and unique bugs dedupe by
//     crash identity keeping the lowest (shard, statements_until_found)
//     witness, so found_by attribution is order-independent.
// Consequently Run(options, K) is bit-identical to RunSerial(options, K)
// (the same shard plan executed sequentially), which is what
// tests/parallel_runner_test.cc asserts per dialect, and a 1-shard run is
// bit-identical to the plain serial Fuzzer::Run it replaces. The shards
// together execute the serial campaign's set of cases, but each has its own
// database, so a statement that reads session state (LASTVAL) can see a
// different history than in the serial run: counters, digests and even the
// bug set can differ from serial. The exact reference for a K-shard run is a
// K-shard run. With a unit spool (src/soft/unit_spool.h), re-admitted shards
// merge unexecuted — the same merge, so a resumed run is bit-identical to
// the uninterrupted one.
#ifndef SRC_SOFT_PARALLEL_RUNNER_H_
#define SRC_SOFT_PARALLEL_RUNNER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/soft/campaign.h"

namespace soft {

// Both factories are called once per shard, possibly concurrently; they
// must be safe to invoke from multiple threads (the dialect factories and
// fuzzer constructors are).
using FuzzerFactory = std::function<std::unique_ptr<Fuzzer>()>;
using DatabaseFactory = std::function<std::unique_ptr<Database>()>;

// One shard's campaign parameters: the base options with the shard's
// (shard_index, shard_count) set.
struct ShardPlan {
  int shard = 0;
  CampaignOptions options;
};

// Partitions `options` into `shards` plans. shards < 1 is treated as 1.
std::vector<ShardPlan> PlanShards(const CampaignOptions& options, int shards);

// One executed shard: the campaign result plus the artifacts the merge
// needs alongside it.
struct ShardResult {
  CampaignResult result;
  // Snapshot of the shard database's tracker, merged across shards so the
  // campaign-level coverage counts are a true union (not a sum).
  CoverageTracker coverage;
};

// Executes one shard plan on the calling thread against a fresh database,
// stamps FoundBug/FoundLogicBug::shard, and — when tracing — attaches the
// shard/worker-run structural spans rebased onto `campaign_base_ns` (the
// absolute MonotonicNowNs() reading at campaign start). Crash realism needs
// nothing here: the campaign applies options.crash_realism to its database.
// This is the one shard-execution path: ParallelCampaignRunner threads call
// it per shard, and fleet workers (src/fleet/) call it per leased work unit,
// which is what makes a fleet merge bit-identical to a sharded run by
// construction.
ShardResult ExecuteShardPlan(const FuzzerFactory& make_fuzzer,
                             const DatabaseFactory& make_database,
                             const ShardPlan& plan, uint64_t campaign_base_ns = 0);

// The deterministic shard merge (see the contract above): walks `outcomes`
// in index order — counters sum, coverage unions, crash bugs dedupe by
// identity keeping the lowest (shard, statements_until_found) witness,
// logic bugs dedupe on the lowest global case index, traces/flights
// concatenate and gain the campaign root span. A pure function of the
// outcome vector: any executor that produces the same per-shard results
// (threads, fleet workers, a resume loading spooled units) merges to the
// bit-identical campaign.
CampaignResult MergeShardResults(std::vector<ShardResult> outcomes);

class UnitSpool;

class ParallelCampaignRunner {
 public:
  ParallelCampaignRunner(FuzzerFactory make_fuzzer, DatabaseFactory make_database);

  // Runs the shard plan with one thread per shard and merges. A single-shard
  // plan runs on the calling thread.
  CampaignResult Run(const CampaignOptions& options, int shards) const;

  // The same shard plan executed sequentially on the calling thread — the
  // oracle the determinism tests compare Run() against.
  CampaignResult RunSerial(const CampaignOptions& options, int shards) const;

  // Crash-survivable execution: shard i is unit i of `spool`. A shard the
  // spool re-admitted (UnitSpool::TakeAdmitted) merges without executing;
  // every executed shard is committed to it. Null (the default) = no spool.
  void set_unit_spool(UnitSpool* spool) { spool_ = spool; }

 private:
  // One shard through the spool: admitted, or executed and committed.
  ShardResult RunPlan(const ShardPlan& plan, uint64_t campaign_base_ns) const;

  FuzzerFactory make_fuzzer_;
  DatabaseFactory make_database_;
  UnitSpool* spool_ = nullptr;
};

}  // namespace soft

#endif  // SRC_SOFT_PARALLEL_RUNNER_H_
