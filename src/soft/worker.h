// Process-isolated real-crash shard execution (docs/ROBUSTNESS.md).
//
// Under CrashRealism::kReal a triggered BugSpec raises the actual signal for
// its CrashType, killing the process executing the statement. This is the
// fork+pipe harness that makes such campaigns survivable:
//
//   * The supervisor forks one worker child per attempt. The child runs the
//     shard campaign with a real-crash policy whose announce callback writes
//     the crash identity to the pipe — written and flushed *before* the
//     signal is raised, so the pipe line is the primary crash identity and
//     WTERMSIG only a cross-check (sanitizer runtimes can distort exit
//     signals; the pipe cannot lie).
//   * On an announced death the supervisor restarts the child with
//     simulate_first = number of confirmed crashes: the deterministic replay
//     re-runs the campaign from case 0, takes the simulated path through
//     every already-confirmed fault firing, and realizes the next one for
//     real. The child that finally completes serializes its entire
//     CampaignResult (bugs, counters, coverage, telemetry) over the pipe, so
//     the supervisor's result is bit-identical to the simulated campaign by
//     construction.
//   * A death *without* an announcement (startup crash, SIGALRM backstop,
//     SIGKILL) triggers bounded exponential backoff; after
//     max_consecutive_deaths such deaths in a row the shard degrades to
//     in-process simulated execution instead of aborting the campaign.
#ifndef SRC_SOFT_WORKER_H_
#define SRC_SOFT_WORKER_H_

#include <functional>
#include <memory>

#include "src/coverage/coverage.h"
#include "src/soft/campaign.h"

namespace soft {

struct WorkerOptions {
  // Unannounced deaths in a row before the shard degrades to in-process
  // simulated execution.
  int max_consecutive_deaths = 3;
  // Bounded exponential backoff between restarts after unannounced deaths
  // (announced crashes restart immediately — they are the expected path).
  int backoff_initial_ms = 5;
  int backoff_max_ms = 200;

  // --- Test hooks (tests/worker_harness_test.cc); all fire inside the
  // forked child, never in degraded in-process execution. Ordinals count the
  // child's *real* (announcing) crash events, 0-based per child life.
  int test_hang_at_crash = -1;   // hang instead of announcing (SIGALRM backstop)
  int test_kill9_at_crash = -1;  // SIGKILL self without announcing
  int test_silent_deaths = 0;    // first N forks _exit immediately
};

struct WorkerRunStats {
  int forks = 0;
  int real_crashes = 0;        // announced crashes confirmed by child death
  int matched_signals = 0;     // WTERMSIG matched ExpectedSignalFor(crash)
  int mismatched_signals = 0;  // child died but by a different signal/exit
  int unexpected_deaths = 0;   // deaths without an announcement
  int alarm_kills = 0;         // unexpected deaths that were SIGALRM (backstop)
  bool degraded_to_simulated = false;
};

struct WorkerShardOutcome {
  CampaignResult result;
  CoverageTracker coverage;  // rebuilt from the child's pipe serialization
  WorkerRunStats stats;
};

using WorkerFuzzerFactory = std::function<std::unique_ptr<Fuzzer>()>;
using WorkerDatabaseFactory = std::function<std::unique_ptr<Database>()>;

// Runs one campaign shard under real-crash execution, supervising forked
// workers as described above. `options` is the shard's CampaignOptions; its
// progress callback runs only on the degraded in-process path (children do
// not forward it). Blocks until the shard completes (possibly degraded).
// The returned result has FoundBug::shard left as the fuzzer produced it;
// callers stamp shard ids exactly as they do for in-process shards.
WorkerShardOutcome RunShardInWorkerProcess(const WorkerFuzzerFactory& make_fuzzer,
                                           const WorkerDatabaseFactory& make_database,
                                           CampaignOptions options,
                                           const WorkerOptions& worker_options = {});

}  // namespace soft

#endif  // SRC_SOFT_WORKER_H_
