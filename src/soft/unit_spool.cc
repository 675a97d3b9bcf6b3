#include "src/soft/unit_spool.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>
#include <utility>

#include "src/dialects/dialects.h"
#include "src/failpoint/failpoint.h"
#include "src/soft/chaos.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/wire.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/telemetry.h"
#include "src/util/io.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

std::string SpoolPath(const std::string& dir, int unit) {
  return dir + "/unit_" + std::to_string(unit) + ".wire";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The spool format is the wire result block the fleet socket carries,
// '\n'-framed. A torn or damaged file never decodes as complete.
bool ReadSpoolFile(const std::string& path, ShardResult& outcome) {
  const std::string content = ReadFile(path);
  wire::LineBuffer lines;
  lines.Append(content.data(), content.size());
  wire::ResultBlock block;
  std::string line;
  while (lines.Next(line)) {
    if (!wire::ConsumeResultLine(line, block)) {
      return false;
    }
  }
  outcome.result = std::move(block.result);
  outcome.coverage = std::move(block.coverage);
  return block.complete;
}

std::string LeaseLine(const std::string& action, int unit, int worker,
                      const CampaignResult& result) {
  std::ostringstream line;
  telemetry::WriteLeaseEvent(line, {action, unit, worker, result.statements_executed,
                                    DigestCampaignResult(result)});
  return line.str();
}

std::string DescribeCampaign(const std::string& dialect, const CampaignOptions& options,
                             int units) {
  return dialect + ", seed " + std::to_string(options.seed) + ", budget " +
         std::to_string(options.max_statements) + ", units " + std::to_string(units) +
         ", stop_when_all_bugs_found " +
         std::to_string(options.stop_when_all_bugs_found ? 1 : 0) + ", deadline_ms " +
         std::to_string(options.statement_limits.deadline_ms) + ", oracles '" +
         Join(options.logic_oracles, ",") + "'";
}

// Runs the units of a journaled campaign: re-admits what `resume` vouches
// for, executes the rest through the sharded runner with every finished unit
// committed to the spool, and appends the tail.
Result<SpooledRun> RunUnits(std::ofstream& journal, const std::string& journal_path,
                            const std::string& dialect, const CampaignOptions& options,
                            int units, const UnitResume* resume) {
  journal.flush();  // the header must survive a kill before the first commit
  const telemetry::WallTimer timer;
  // Built once: every unit's thread (and its kReal children) runs this pool.
  std::shared_ptr<const CasePool> pool = BuildCasePool(dialect, options);
  if (pool == nullptr) {
    return InvalidArgument("unknown dialect '" + dialect + "'");
  }
  UnitSpool spool(SpoolDirFor(journal_path), [&journal](const std::string& line) {
    journal << line << std::flush;
    const bool written = journal.good();
    journal.clear();  // later records, the tail included, are still tried
    return written;
  });
  SpooledRun run;
  if (resume != nullptr) {
    run.units_resumed = spool.Admit(*resume, &run.units_spool_diverged);
  }
  ParallelCampaignRunner runner(
      [pool] { return std::make_unique<SoftFuzzer>(SoftOptions(), pool); },
      [&dialect] { return MakeDialect(dialect); });
  runner.set_unit_spool(&spool);
  run.result = runner.Run(options, units, ShardMode::kPartitionCases);
  run.spool_failures = spool.failures();
  telemetry::WriteCampaignTail(journal, run.result, timer.ElapsedNs());
  if (!journal.flush()) {
    return IoError("writing journal '" + journal_path + "' failed");
  }
  return run;
}

}  // namespace

std::string SpoolDirFor(const std::string& journal_path) {
  return journal_path + ".units";
}

Result<UnitResume> LoadUnitResume(const std::string& journal_path) {
  SOFT_ASSIGN_OR_RETURN(telemetry::JournalReplay replay,
                        telemetry::ReplayJournalFile(journal_path));
  if (replay.tool != "SOFT") {
    return InvalidArgument("--resume only replays SOFT journals (journal tool: '" +
                           replay.tool + "')");
  }
  if (!replay.missing_knobs.empty()) {
    return InvalidArgument("journal '" + journal_path +
                           "' predates the unit spool and cannot be resumed: its "
                           "campaign_start lacks " +
                           Join(replay.missing_knobs, ", "));
  }
  UnitResume resume;
  resume.dialect = replay.dialect;
  resume.options.seed = replay.seed;
  resume.options.max_statements = replay.budget;
  resume.options.stop_when_all_bugs_found = replay.stop_when_all_bugs_found;
  resume.options.statement_limits.deadline_ms = replay.deadline_ms;
  resume.options.logic_oracles = replay.oracles;
  resume.units = std::max(replay.shards, 1);
  resume.finished = replay.finished;
  for (const telemetry::JournalLeaseEvent& event : replay.lease_events) {
    if (event.action == "complete" || event.action == "resume") {
      resume.completed[event.unit] = event.unit_digest;
    }
  }
  return resume;
}

Status CheckResumeMatches(const UnitResume& resume, const std::string& dialect,
                          const CampaignOptions& options, int units) {
  const std::string journal =
      DescribeCampaign(resume.dialect, resume.options, resume.units);
  if (journal != DescribeCampaign(dialect, options, units)) {
    return InvalidArgument("resume rejected: journal campaign (" + journal +
                           ") does not match this invocation");
  }
  return OkStatus();
}

Status OpenJournalForResume(const std::string& journal_path, std::ofstream& journal) {
  const std::string content = ReadFile(journal_path);
  const size_t intact = content.rfind('\n') + 1;  // npos + 1 == 0
  if (intact < content.size() &&
      ::truncate(journal_path.c_str(), static_cast<off_t>(intact)) != 0) {
    return IoError("cannot drop the torn tail of journal '" + journal_path + "'");
  }
  journal.open(journal_path, std::ios::app);
  if (!journal) {
    return IoError("cannot open journal '" + journal_path + "'");
  }
  return OkStatus();
}

UnitSpool::UnitSpool(std::string dir, JournalSink journal)
    : dir_(std::move(dir)), journal_(std::move(journal)) {
  if (!dir_.empty()) {
    ::mkdir(dir_.c_str(), 0755);  // EEXIST is fine; other errors fail commits
  }
}

int UnitSpool::Admit(const UnitResume& resume, int* diverged) {
  const std::lock_guard<std::mutex> lock(mu_);
  admitted_.assign(static_cast<size_t>(resume.units), std::nullopt);
  int admitted = 0;
  int resumed_cases = 0;
  for (const auto& [unit, digest] : resume.completed) {
    ShardResult outcome;
    if (unit < 0 || unit >= resume.units) {
      continue;
    }
    if (dir_.empty() || !ReadSpoolFile(SpoolPath(dir_, unit), outcome) ||
        DigestCampaignResult(outcome.result) != digest) {
      ++*diverged;  // distrust the spool; the unit re-runs deterministically
      continue;
    }
    ++admitted;
    resumed_cases += outcome.result.statements_executed;
    admitted_[static_cast<size_t>(unit)] = std::move(outcome);
  }
  std::ostringstream marker;
  telemetry::WriteResumeMarker(marker, resumed_cases);
  journal_(marker.str());
  for (size_t unit = 0; unit < admitted_.size(); ++unit) {
    if (admitted_[unit].has_value()) {
      journal_(LeaseLine("resume", static_cast<int>(unit), -1, admitted_[unit]->result));
    }
  }
  return admitted;
}

std::optional<ShardResult> UnitSpool::TakeAdmitted(int unit) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (unit < 0 || static_cast<size_t>(unit) >= admitted_.size()) {
    return std::nullopt;
  }
  return std::exchange(admitted_[static_cast<size_t>(unit)], std::nullopt);
}

Status UnitSpool::Commit(int unit, int worker, ShardResult& outcome) {
  std::string block;
  if (!dir_.empty()) {
    wire::WriteResultBlock(
        [&block](const std::string& record) {
          block += record + '\n';
          return true;
        },
        outcome.result, outcome.coverage);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  // spool.commit (chaos): the spool write fails before it starts — the path
  // a full disk or a failed rename takes.
  Status status = OkStatus();
  if (SOFT_FAILPOINT_HIT("spool.commit")) {
    status = failpoint::InjectedStatus("spool.commit");
  } else if (!dir_.empty()) {
    status = io::WriteFileAtomic(SpoolPath(dir_, unit), block);
  }
  if (status.ok() && !journal_(LeaseLine("complete", unit, worker, outcome.result))) {
    status = IoError("the journal rejected its `lease complete` record");
  }
  if (status.ok()) {
    return status;
  }
  failures_.push_back("unit " + std::to_string(unit) +
                      " was not committed: " + status.message());
  outcome.result.journal_degraded = true;
  return IoError(failures_.back());
}

std::vector<std::string> UnitSpool::failures() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

Result<SpooledRun> RunSpooledSoftCampaign(const std::string& journal_path,
                                          const std::string& dialect,
                                          const CampaignOptions& options, int shards,
                                          const std::string& chaos_spec) {
  std::ofstream journal(journal_path, std::ios::trunc);
  if (!journal) {
    return IoError("cannot open journal '" + journal_path + "'");
  }
  const int units = std::max(shards, 1);
  telemetry::WriteCampaignStart(journal, options, "SOFT", dialect, units);
  if (!chaos_spec.empty()) {
    telemetry::WriteChaosMarker(journal, chaos_spec);
  }
  return RunUnits(journal, journal_path, dialect, options, units, nullptr);
}

Result<SpooledRun> ResumeSpooledSoftCampaign(const std::string& journal_path,
                                             const UnitResume& resume,
                                             const CampaignOptions& local,
                                             const std::string& chaos_spec) {
  std::ofstream journal;
  SOFT_RETURN_IF_ERROR(OpenJournalForResume(journal_path, journal));
  if (!chaos_spec.empty()) {
    telemetry::WriteChaosMarker(journal, chaos_spec);
  }
  CampaignOptions options = resume.options;
  options.crash_realism = local.crash_realism;
  options.trace_sample = local.trace_sample;
  options.progress = local.progress;
  return RunUnits(journal, journal_path, resume.dialect, options, resume.units, &resume);
}

}  // namespace soft
