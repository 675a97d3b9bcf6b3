// One resume mechanism for every SOFT campaign executor (docs/ROBUSTNESS.md,
// "Resume"): serial runs, --shards runs and fleet coordinators all commit
// finished work units through a UnitSpool and resume through LoadUnitResume.
//
// A campaign is partitioned into units: the shards of a
// ShardMode::kPartitionCases plan, one unit for a serial run. A finished
// unit commits in two steps, in this order:
//
//   1. its wire result block (src/soft/wire.h) is written to
//      <spool>/unit_<i>.wire through io::WriteFileAtomic;
//   2. only then a `lease complete` journal record carries the unit's
//      DigestCampaignResult.
//
// The journal record is the commit point: it vouches only for bytes that are
// already durable. A failed spool write journals nothing; the unit is not
// committed and CampaignResult::journal_degraded is latched. A resume
// re-admits a unit only when its spool block decodes to the journaled
// digest and re-runs every other unit, so it reproduces the uninterrupted
// run with the same unit count — not the serial run (see
// CampaignOptions::shard_count).
#ifndef SRC_SOFT_UNIT_SPOOL_H_
#define SRC_SOFT_UNIT_SPOOL_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/soft/campaign.h"
#include "src/soft/parallel_runner.h"
#include "src/util/status.h"

namespace soft {

// The spool directory that belongs to a journal: <journal>.units.
std::string SpoolDirFor(const std::string& journal_path);

// What a resume reads back from a journal: the campaign_start knobs
// (`options` carries seed, budget, stop rule, watchdog deadline and
// oracles) and the units that committed.
struct UnitResume {
  std::string dialect;
  CampaignOptions options;
  int units = 1;
  bool finished = false;  // the journal already holds campaign_finish
  // unit → digest of its last `lease complete`/`resume` record.
  std::map<int, uint64_t> completed;
};

// Parses `journal_path`. Refuses non-SOFT journals and journals whose
// campaign_start lacks an outcome knob (written before the header carried
// them), naming every missing field.
Result<UnitResume> LoadUnitResume(const std::string& journal_path);

// Fails, naming the journal's campaign, unless (dialect, options, units)
// is the campaign `resume` describes.
Status CheckResumeMatches(const UnitResume& resume, const std::string& dialect,
                          const CampaignOptions& options, int units);

// Opens `journal_path` for a resumed run's records, first truncating a torn
// final record (a producer killed mid-write) so appended records start on a
// line of their own.
Status OpenJournalForResume(const std::string& journal_path, std::ofstream& journal);

class UnitSpool {
 public:
  // Receives one journal line; returns false when it could not be written.
  using JournalSink = std::function<bool(const std::string&)>;

  // Creates `dir` if needed. An empty `dir` keeps no spool files: commits
  // only journal, and nothing can be re-admitted.
  UnitSpool(std::string dir, JournalSink journal);

  // Re-admits every unit `resume` vouches for whose spool block decodes to
  // the journaled digest, then journals a campaign_resume marker and one
  // `lease resume` record per admitted unit. Returns how many were admitted;
  // `diverged` counts the vouched units that failed the check.
  int Admit(const UnitResume& resume, int* diverged);

  // Moves an admitted unit's result out (nullopt: the unit must run).
  std::optional<ShardResult> TakeAdmitted(int unit);

  // Commits one finished unit (steps 1 and 2 above). Concurrent commits
  // serialize, journal record included. When the spool write or the
  // journal record fails, or the spool.commit failpoint fires, nothing is
  // journaled, outcome.result.journal_degraded is latched, and the returned
  // status (kept in failures()) names the unit.
  Status Commit(int unit, int worker, ShardResult& outcome);

  std::vector<std::string> failures() const;

 private:
  const std::string dir_;
  const JournalSink journal_;
  mutable std::mutex mu_;
  std::vector<std::optional<ShardResult>> admitted_;
  std::vector<std::string> failures_;
};

// A journaled serial or --shards campaign.
struct SpooledRun {
  CampaignResult result;
  int units_resumed = 0;         // re-admitted from the spool
  int units_spool_diverged = 0;  // vouched for, failed the digest check, re-ran
  std::vector<std::string> spool_failures;  // UnitSpool::failures()
};

// Runs a SOFT campaign of `shards` partition shards (1 = serial) with a
// resumable journal: truncates `journal_path`, writes campaign_start (and a
// chaos marker when `chaos_spec` is set), commits every finished shard
// through a UnitSpool at SpoolDirFor(journal_path), appends the tail.
Result<SpooledRun> RunSpooledSoftCampaign(const std::string& journal_path,
                                          const std::string& dialect,
                                          const CampaignOptions& options, int shards,
                                          const std::string& chaos_spec = "");

// Continues the campaign `resume` was loaded from — a serial, --shards or
// fleet journal at `journal_path` — in-process, appending to the journal.
// Everything that decides the outcome comes from `resume`; `local` supplies
// only crash realism, trace sampling and the progress callback.
Result<SpooledRun> ResumeSpooledSoftCampaign(const std::string& journal_path,
                                             const UnitResume& resume,
                                             const CampaignOptions& local,
                                             const std::string& chaos_spec = "");

}  // namespace soft

#endif  // SRC_SOFT_UNIT_SPOOL_H_
