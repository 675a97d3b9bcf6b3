// Fork+pipe worker harness for real-crash shard execution. Protocol and
// supervision semantics are documented in worker.h and docs/ROBUSTNESS.md.
//
// Pipe records (child → supervisor) use the shared wire codec
// (src/soft/wire.h): '\n'-terminated lines of space-separated tokens,
// strings hex-encoded, "-" for empty. Transport-specific records:
//
//   F  <index> <pattern> <sql> <stage> <outcome>
//        one crash-flight ring entry (oldest first), flushed as a block
//        right before a crash announcement — the last F line is the
//        crashing statement itself
//   C  <bug_id> <dbms> <function> <crash> <stage> <pattern> <description>
//        crash announcement, flushed before the signal is raised
//
// A child that finishes its campaign writes the wire result block
// (RES/SST/BUG/LBG/CVB/TLS/TLP/TRS/FLR/END — see wire.h).
#include "src/soft/worker.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/failpoint/failpoint.h"
#include "src/soft/wire.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "src/util/io.h"

namespace soft {
namespace {

// Writes the whole line (append '\n') to fd through the shared retrying
// writer (bounded backoff over EINTR/short writes — src/util/io.h). Only
// write(2) + usleep(2) — safe to call right before raising a fatal signal.
// Returns false when the writer gave up (supervisor gone / pipe dead).
// The worker.pipe_write failpoint forces the first byte through alone so
// chaos campaigns exercise the record-reassembly path on every record.
bool WriteLine(int fd, const std::string& line) {
  io::RetryingWriter writer(fd);
  if (SOFT_FAILPOINT_HIT("worker.pipe_write") && !line.empty()) {
    if (!writer.WriteAll(line.substr(0, 1)).ok()) {
      return false;
    }
    return writer.WriteLine(line.substr(1)).ok();
  }
  return writer.WriteLine(line).ok();
}

// --- child -----------------------------------------------------------------

[[noreturn]] void RunWorkerChild(int fd, const WorkerFuzzerFactory& make_fuzzer,
                                 const WorkerDatabaseFactory& make_database,
                                 CampaignOptions options,
                                 const WorkerOptions& worker_options,
                                 int simulate_first, bool die_silently) {
  if (die_silently) {
    ::_exit(86);  // test hook: unannounced startup death
  }
  // A supervisor killed mid-read must not SIGPIPE-kill the child mid-frame:
  // writes then fail with EPIPE, which RetryingWriter surfaces as a clean
  // kIoError.
  io::IgnoreSigpipe();
  std::unique_ptr<Database> db = make_database();
  std::unique_ptr<Fuzzer> fuzzer = make_fuzzer();
  if (db == nullptr || fuzzer == nullptr) {
    ::_exit(87);
  }

  int announce_ordinal = 0;
  CrashRealismPolicy policy;
  policy.mode = CrashRealism::kReal;
  policy.simulate_first = simulate_first;
  policy.alarm_backstop = options.statement_limits.deadline_ms > 0;
  policy.announce = [fd, &announce_ordinal, &worker_options](const CrashInfo& info) {
    const int ordinal = announce_ordinal++;
    if (ordinal == worker_options.test_kill9_at_crash) {
      ::raise(SIGKILL);
    }
    if (ordinal == worker_options.test_hang_at_crash) {
      for (;;) {
        ::pause();  // the SIGALRM backstop (or the supervisor) ends this
      }
    }
    // Flush the crash flight ring (oldest first) ahead of the announcement:
    // the statement that is crashing right now is the ring's newest entry,
    // still marked in-flight — stamp it with the crash verdict so the
    // supervisor-side record is self-describing.
    std::vector<trace::FlightEntry> entries = trace::FlightSnapshot();
    if (!entries.empty()) {
      entries.back().stage_reached = std::string(StageName(info.stage));
      entries.back().outcome = "crash";
      for (const trace::FlightEntry& entry : entries) {
        WriteLine(fd, "F " + wire::EncodeFlightEntry(entry));
      }
    }
    WriteLine(fd, "C " + wire::EncodeCrash(info));
  };
  db->set_crash_realism(std::move(policy));

  // Progress stays in the supervisor's process; a replaying child would
  // report every restart's prefix again.
  options.progress = nullptr;

  const CampaignResult result = fuzzer->Run(*db, options);
  wire::WriteResultBlock([fd](const std::string& line) { return WriteLine(fd, line); },
                         result, db->coverage());
  ::_exit(0);  // skip atexit/leak machinery; the pipe already holds the result
}

// --- supervisor-side stream parsing ---------------------------------------

struct ChildStream {
  bool announced = false;
  CrashInfo crash;  // last (only) announcement of this child life
  // Crash-flight entries flushed ahead of the announcement (oldest first).
  std::vector<trace::FlightEntry> flight;
  // The completed result block (block.complete once END arrived).
  wire::ResultBlock block;
};

void ParseChildLine(const std::string& line, ChildStream& stream) {
  if (line.empty()) {
    return;
  }
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  if (tag == "C") {
    CrashInfo info;
    if (wire::DecodeCrash(in, info)) {
      stream.crash = std::move(info);
      stream.announced = true;
    }
  } else if (tag == "F") {
    trace::FlightEntry entry;
    if (wire::DecodeFlightEntry(in, entry)) {
      stream.flight.push_back(std::move(entry));
    }
  } else {
    // Result-block records go through the shared parser. Unknown tags are
    // ignored: a child killed mid-write leaves a torn last line, which must
    // not poison the supervision loop.
    wire::ConsumeResultLine(line, stream.block);
  }
}

ChildStream ReadChildStream(int fd) {
  ChildStream stream;
  wire::LineBuffer buffer;
  std::string line;
  char chunk[4096];
  for (;;) {
    // EINTR-retrying read: a SIGCHLD-interrupted read must not be mistaken
    // for end-of-stream and drop the tail of a live child's result block.
    const int64_t n = io::ReadRetrying(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      break;  // EOF (child exited) or real error — either way the stream is over
    }
    buffer.Append(chunk, static_cast<size_t>(n));
    while (buffer.Next(line)) {
      ParseChildLine(line, stream);
    }
  }
  return stream;
}

}  // namespace

WorkerShardOutcome RunShardInWorkerProcess(const WorkerFuzzerFactory& make_fuzzer,
                                           const WorkerDatabaseFactory& make_database,
                                           CampaignOptions options,
                                           const WorkerOptions& worker_options) {
  WorkerShardOutcome outcome;
  io::IgnoreSigpipe();

  // Wall base for worker-run span placement: every child life is recorded
  // as [fork, waitpid] on this shard-local clock, and a completing child's
  // statement spans (relative to its own campaign start) are shifted onto
  // it. Observational only.
  const telemetry::WallTimer shard_timer;
  struct RunRec {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    std::string verdict;  // completed|crashed|unannounced-death|fork-failed|...
    int bug_id = 0;       // announced crashes only
  };
  std::vector<RunRec> runs;
  std::vector<trace::CrashFlightRecord> flights;

  // Attaches the supervision-side observability to the shard's final result:
  // the collected crash-flight records always, and — when tracing — one
  // worker-run span per child life (parented under the shard span) with the
  // completing run's statement spans shifted onto the shard clock and
  // re-parented under it (the child cannot know its own fork ordinal).
  const auto attach_observability = [&](CampaignResult& result,
                                        uint64_t final_run_start_ns) {
    result.crash_flights = flights;
    if (options.trace_sample <= 0 || runs.empty()) {
      return;
    }
    const std::string& dialect = result.dialect;
    const uint64_t shard_span_id =
        trace::SpanId(dialect, options.shard_index, trace::SpanKind::kShard, 0);
    const uint64_t final_run_id =
        trace::SpanId(dialect, options.shard_index, trace::SpanKind::kWorkerRun,
                      static_cast<int>(runs.size()) - 1);
    for (trace::TraceSpan& span : result.trace.spans) {
      span.start_ns += final_run_start_ns;
      if (span.kind == trace::SpanKind::kStatement && span.parent_id == 0) {
        span.parent_id = final_run_id;
      }
    }
    std::vector<trace::TraceSpan> run_spans;
    run_spans.reserve(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      trace::TraceSpan span;
      span.id = trace::SpanId(dialect, options.shard_index,
                              trace::SpanKind::kWorkerRun, static_cast<int>(i));
      span.parent_id = shard_span_id;
      span.kind = trace::SpanKind::kWorkerRun;
      span.shard = options.shard_index;
      span.start_ns = runs[i].start_ns;
      span.dur_ns = runs[i].end_ns - runs[i].start_ns;
      span.args.emplace_back("run", std::to_string(i));
      span.args.emplace_back("verdict", runs[i].verdict);
      if (runs[i].bug_id != 0) {
        span.args.emplace_back("bug_id", std::to_string(runs[i].bug_id));
      }
      run_spans.push_back(std::move(span));
    }
    result.trace.spans.insert(result.trace.spans.begin(), run_spans.begin(),
                              run_spans.end());
  };

  int confirmed_crashes = 0;
  int consecutive_unannounced = 0;
  int backoff_ms = worker_options.backoff_initial_ms;

  for (;;) {
    if (consecutive_unannounced >= worker_options.max_consecutive_deaths) {
      // Degradation ladder's last rung: finish the shard in-process with
      // simulated crashes. Deterministic replay makes this produce the same
      // campaign the real-crash path would have.
      outcome.stats.degraded_to_simulated = true;
      std::unique_ptr<Database> db = make_database();
      std::unique_ptr<Fuzzer> fuzzer = make_fuzzer();
      if (db == nullptr || fuzzer == nullptr) {
        return outcome;
      }
      CampaignOptions degraded = options;
      degraded.crash_realism = CrashRealism::kSimulated;
      RunRec rec;
      rec.start_ns = shard_timer.ElapsedNs();
      outcome.result = fuzzer->Run(*db, degraded);
      rec.end_ns = shard_timer.ElapsedNs();
      rec.verdict = "degraded-simulated";
      runs.push_back(rec);
      outcome.coverage = db->coverage();
      attach_observability(outcome.result, rec.start_ns);
      return outcome;
    }

    int fds[2];
    if (::pipe(fds) != 0) {
      ++consecutive_unannounced;
      continue;
    }
    ++outcome.stats.forks;
    const bool die_silently = outcome.stats.forks <= worker_options.test_silent_deaths;
    RunRec rec;
    rec.start_ns = shard_timer.ElapsedNs();
    // worker.fork simulates transient fork failure (EAGAIN class); it takes
    // the same backoff/degradation ladder a real fork failure would.
    const pid_t pid = SOFT_FAILPOINT_HIT("worker.fork") ? -1 : ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      rec.end_ns = shard_timer.ElapsedNs();
      rec.verdict = "fork-failed";
      runs.push_back(rec);
      ++outcome.stats.unexpected_deaths;
      ++consecutive_unannounced;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, worker_options.backoff_max_ms);
      continue;
    }
    if (pid == 0) {
      ::close(fds[0]);
      RunWorkerChild(fds[1], make_fuzzer, make_database, options, worker_options,
                     confirmed_crashes, die_silently);
    }
    ::close(fds[1]);
    ChildStream stream = ReadChildStream(fds[0]);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    rec.end_ns = shard_timer.ElapsedNs();

    if (stream.block.complete) {
      rec.verdict = "completed";
      runs.push_back(rec);
      outcome.result = std::move(stream.block.result);
      outcome.coverage = std::move(stream.block.coverage);
      attach_observability(outcome.result, rec.start_ns);
      return outcome;
    }
    if (stream.announced) {
      // The expected real-crash path: the pipe identity is authoritative;
      // the exit signal is recorded as a cross-check.
      trace::CrashFlightRecord flight;
      flight.shard = options.shard_index;
      flight.worker_run = static_cast<int>(runs.size());
      flight.announced = true;
      flight.bug_id = stream.crash.bug_id;
      flight.entries = std::move(stream.flight);
      flights.push_back(std::move(flight));
      rec.verdict = "crashed";
      rec.bug_id = stream.crash.bug_id;
      runs.push_back(rec);
      ++confirmed_crashes;
      ++outcome.stats.real_crashes;
      consecutive_unannounced = 0;
      backoff_ms = worker_options.backoff_initial_ms;
      if (WIFSIGNALED(status) &&
          WTERMSIG(status) == ExpectedSignalFor(stream.crash.crash)) {
        ++outcome.stats.matched_signals;
      } else {
        ++outcome.stats.mismatched_signals;
      }
      continue;
    }
    // Unannounced death: no flight ring made it out — the record says only
    // that this child life died.
    {
      trace::CrashFlightRecord flight;
      flight.shard = options.shard_index;
      flight.worker_run = static_cast<int>(runs.size());
      flight.announced = false;
      flights.push_back(std::move(flight));
    }
    rec.verdict = "unannounced-death";
    runs.push_back(rec);
    ++outcome.stats.unexpected_deaths;
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGALRM) {
      ++outcome.stats.alarm_kills;
    }
    ++consecutive_unannounced;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, worker_options.backoff_max_ms);
  }
}

}  // namespace soft
