// Chaos campaigns: systematically inject a fault at every registered
// failpoint and verify the harness degrades the way docs/ROBUSTNESS.md
// promises. This is the acceptance oracle for the failpoint subsystem, run
// as the `Chaos*` ctest suites and the CI asan-chaos lane
// (`find_bugs --chaos=enumerate`).
//
// Per SiteClass oracle (failpoint.h documents the classes):
//
//   kEngine    a fixed driver statement through the site surfaces a clean
//              kResourceExhausted (error mode) — and under oom mode the
//              thrown bad_alloc is caught at the Execute boundary; a small
//              campaign with the site armed runs the uninjected baseline's
//              case pool (built once, unarmed), completes its full budget
//              and is run-to-run deterministic under the same armed spec.
//   kIoRetry   the fault is absorbed by a retry loop: payloads are
//              bit-identical to the uninjected run. worker.fork makes crash
//              realization fail, so the crash stays simulated and the
//              campaign result is bit-identical to the simulated run; it
//              forks real copies, so it is gated behind include_worker_sites
//              for sanitizer lanes that must not fork with threads.
//   kIoError   the artifact write fails with kIoError naming the path, the
//              destination keeps its previous contents, no tmp file is left
//              behind; after disarming, the identical artifact is produced.
//   kDegrade   a journaled campaign whose unit commit fails continues,
//              latches CampaignResult::journal_degraded, and its outcome
//              digest is bit-identical to the uninjected run; a resume of
//              its journal re-runs exactly the uncommitted unit.
#ifndef SRC_SOFT_CHAOS_H_
#define SRC_SOFT_CHAOS_H_

#include <string>
#include <vector>

#include "src/soft/campaign.h"

namespace soft {

struct ChaosSiteOutcome {
  std::string failpoint;  // site name from failpoint::kInventory
  std::string site_class; // SiteClassName of the site
  std::string spec;       // the chaos spec the smoke run armed
  bool ran = false;       // false when skipped (e.g. worker sites disabled)
  bool ok = false;        // oracle verdict (true for skipped sites)
  std::string detail;     // human-readable oracle evidence / failure reason
};

struct ChaosReport {
  std::string dialect;
  int budget = 0;
  std::vector<ChaosSiteOutcome> outcomes;

  // True when every site's oracle held.
  bool ok() const {
    for (const ChaosSiteOutcome& outcome : outcomes) {
      if (!outcome.ok) {
        return false;
      }
    }
    return true;
  }
};

// Stable digest over a campaign result's deterministic fields (counters,
// bug set with witnesses, coverage, per-shard statement breakdown).
// Wall-clock quantities (found_wall_ns, telemetry latencies) are excluded,
// matching the parallel runner's bit-identity contract; journal_degraded is
// excluded too, so a degraded campaign can be compared against its intact
// reference. Exposed for the chaos tests' sharded-identity assertions.
uint64_t DigestCampaignResult(const CampaignResult& result);

// Stable digest over the campaign's *bug inventory* alone: the dialect plus
// the sorted crash-bug ids and sorted logic-bug ids. Unlike
// DigestCampaignResult it folds no shard structure, witnesses, or counters,
// so it equals the serial run's digest whenever a --shards=K run or a fleet
// campaign finds the same bugs — which is typical but not guaranteed: a
// statement that reads session state can change what a partition shard
// finds. The asan-fleet CI lane greps it (`find_bugs` prints it as
// `bug digest`).
uint64_t DigestBugInventory(const CampaignResult& result);

// Stable digest over a campaign's wrong-result outcome: the logic counters
// and, per logic bug, only shard-invariant identity (bug id, flagging
// oracle, PoC statement, global case index). statements_until_found and
// shard are shard-LOCAL attribution detail and are deliberately excluded —
// this digest is bit-identical between a serial campaign and any
// partition-sharded run of the same options (find_bugs prints it as
// `logic digest`).
uint64_t DigestLogicOutcome(const CampaignResult& result);

// Runs the smoke oracle once per inventory site. `budget` bounds each smoke
// campaign's statement count (<= 0 selects the default, 600).
// `include_worker_sites` = false skips the fork-based worker.fork site
// (required under TSan, where fork-with-threads is undefined).
ChaosReport RunChaosEnumeration(const std::string& dialect, int budget,
                                bool include_worker_sites);

}  // namespace soft

#endif  // SRC_SOFT_CHAOS_H_
