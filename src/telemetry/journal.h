// NDJSON campaign journal: one JSON object per line, serializing a
// campaign's event stream so bug-discovery-vs-budget curves can be replotted
// offline (docs/OBSERVABILITY.md documents the schema with worked examples).
//
// The journal is derived from the finished CampaignResult, not streamed from
// inside the campaign loop — that keeps the event order a pure function of
// the (deterministic) result and never of thread scheduling, preserving the
// parallel runner's bit-identical-merge guarantee. Event types:
//
//   campaign_start   tool, dialect, seed, budget, shards (the unit count a
//                    resume re-partitions by), and the other knobs that
//                    decide the outcome: stop_when_all_bugs_found,
//                    deadline_ms, oracles (comma list) — a resume takes all
//                    of them from here (docs/ROBUSTNESS.md, "Resume")
//   campaign_resume  marker a resumed run writes before continuing: the
//                    statements its re-admitted units already executed
//   shard_merge      one per shard of a sharded run: shard, statements
//   first_witness    one per unique bug, discovery order: bug_id, pattern,
//                    statement index, shard, wall_ms, recorded (false when
//                    telemetry was not collecting — a wall_ms of 0 with
//                    recorded=true is a genuine sub-millisecond hit)
//   logic_bug        one per seeded wrong-result bug an oracle caught, in
//                    case order: bug_id, oracle ("eet"/"diff"/"norec"/"tlp"),
//                    function, effect, scope, case_index (shard-invariant),
//                    statement_index + shard (shard-local attribution), poc,
//                    witness (the diverging rewrite / sibling dialect)
//   crash_flight     one per worker death in a real-crash campaign: shard,
//                    worker_run, announced, bug_id, and the flushed
//                    flight-ring entries (the last entry of an announced
//                    crash is the crashing statement itself)
//   lease            unit transition (streamed live): action
//                    (grant|complete|reclaim|steal|local|resume), unit,
//                    worker, cases, unit_digest. Fleet coordinators write
//                    every action; serial and --shards runs write complete
//                    and resume. `complete` is the record --resume trusts
//                    when re-admitting a spooled unit result
//   worker_death     fleet worker connection lost or process reaped dead:
//                    worker, pid, units_completed, reason
//   net_session      fleet transport session lifecycle: detail (open|resume),
//                    session token, worker
//   net_disconnect   fleet connection lost without killing its session:
//                    detail (reason), session, worker
//   net_redeliver    coordinator re-sent a GRANT to a resumed session whose
//                    FIN it never saw: session, worker, unit
//   net_dup_result   a double-delivered unit result was deduplicated at
//                    merge: detail (match|stale), session, worker, unit
//   fleet_finish     fleet campaign totals: units, workers_spawned,
//                    worker_deaths, leases granted/reclaimed/stolen,
//                    heartbeats, units completed/local/resumed/diverged,
//                    degraded_to_local
//   health           campaign-health doctor transition (streamed live):
//                    state (ok|warn|stall), reason, rolling-window rates
//                    (statements/units/bugs/reclaims/redeliveries per
//                    second), wall_ms since campaign start
//   metrics_snapshot marker for a --metrics-out Prometheus snapshot write:
//                    series count, cumulative statements, units_done,
//                    health state at the snapshot, wall_ms
//   campaign_finish  totals, coverage, wall_ms
//
// ReplayJournal parses the stream back; a replayed journal reconstructs the
// exact bug set and per-bug first witnesses (tests/telemetry_test.cc).
//
// This header is always available: journal writing/replay has no runtime
// cost inside campaigns, so it is not gated by SOFT_TELEMETRY.
#ifndef SRC_TELEMETRY_JOURNAL_H_
#define SRC_TELEMETRY_JOURNAL_H_

#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "src/soft/campaign.h"

namespace soft {
namespace telemetry {

// JSON string escaping shared by every NDJSON writer in the tree.
std::string EscapeJson(const std::string& s);

// Appends the campaign's NDJSON event stream to `out`. `wall_ns` is the
// campaign's measured wall time (0 when unknown). Equivalent to
// WriteCampaignStart + WriteCampaignTail (the post-hoc form).
void WriteCampaignJournal(std::ostream& out, const CampaignOptions& options,
                          const CampaignResult& result, uint64_t wall_ns);

// Streaming writers for live (resumable) campaigns. The header takes
// tool/dialect/shards explicitly because the CampaignResult does not exist
// yet when a streamed journal opens.
void WriteCampaignStart(std::ostream& out, const CampaignOptions& options,
                        const std::string& tool, const std::string& dialect, int shards);
void WriteResumeMarker(std::ostream& out, int from_cases);
// Marker a chaos campaign writes after arming its failpoint spec, so the
// journal records that its stream was produced under fault injection.
void WriteChaosMarker(std::ostream& out, const std::string& spec);
// The derived tail: shard_merge, first_witness, campaign_finish.
void WriteCampaignTail(std::ostream& out, const CampaignResult& result, uint64_t wall_ns);

// One unit lease transition (written live by the unit spool's commit and
// the fleet coordinator, replayed on --resume). The structs below are plain
// data mirrors of the fleet subsystem's state — journal.h cannot depend on
// src/fleet/ (fleet links telemetry, not the reverse).
struct JournalLeaseEvent {
  std::string action;  // grant | complete | reclaim | steal | local | resume
  int unit = 0;
  int worker = -1;     // -1 for coordinator-local actions (local/resume)
  int cases = 0;       // last heartbeat progress at the transition
  // DigestCampaignResult of the spooled unit result (complete/resume
  // actions); 0 otherwise. Resume re-admits a spooled unit only when its
  // recomputed digest matches this journaled value.
  uint64_t unit_digest = 0;
};

// One fleet worker_death event: the coordinator lost the worker's connection
// or reaped its process dead.
struct JournalWorkerDeath {
  int worker = 0;
  int64_t pid = 0;
  int units_completed = 0;
  std::string reason;  // e.g. "eof", "signal 9", "lease expired"
};

// The fleet_finish event's counter snapshot. uint64_t throughout: a
// week-long campaign's heartbeat counter alone overflows int32 in days.
struct JournalFleetFinish {
  uint64_t units = 0;
  uint64_t workers_spawned = 0;
  uint64_t worker_deaths = 0;
  uint64_t leases_granted = 0;
  uint64_t leases_reclaimed = 0;
  uint64_t leases_stolen = 0;
  uint64_t heartbeats = 0;
  uint64_t units_completed = 0;
  uint64_t units_run_locally = 0;
  uint64_t units_resumed = 0;
  uint64_t units_spool_diverged = 0;
  bool degraded_to_local = false;
};

// One campaign-health doctor transition (docs/OBSERVABILITY.md, "Doctor").
// Written only when the doctor's state *changes*, so a healthy week-long
// journal carries one `health` line, not millions.
struct JournalHealthEvent {
  std::string state;   // ok | warn | stall
  std::string reason;  // human-readable rule that fired, "ok" on recovery
  double statements_per_s = 0.0;
  double units_per_s = 0.0;
  double bugs_per_s = 0.0;
  double reclaims_per_s = 0.0;
  double redeliveries_per_s = 0.0;
  double wall_ms = 0.0;  // since campaign start
};

// One metrics_snapshot marker: the coordinator wrote a --metrics-out
// Prometheus file. Records enough to correlate the snapshot with campaign
// progress without re-parsing the exposition text.
struct JournalMetricsSnapshot {
  uint64_t series = 0;      // series count in the rendered registry
  uint64_t statements = 0;  // cumulative statements merged so far
  uint64_t units_done = 0;
  std::string health;       // doctor state at the snapshot (ok|warn|stall)
  double wall_ms = 0.0;
};

// One fleet transport event (the framed multi-host wire): session open or
// resume, a connection lost without its session, a GRANT redelivery, or a
// deduplicated double-delivered unit result. The event name on the wire is
// "net_" + kind.
struct JournalNetEvent {
  std::string kind;    // session | disconnect | redeliver | dup_result
  std::string detail;  // session: open|resume; disconnect: reason;
                       // redeliver: "grant"; dup_result: match|stale
  std::string session; // session token
  int worker = -1;
  int unit = -1;       // -1 when the event is not unit-scoped
};

// Streaming writers for the fleet coordinator's journal.
void WriteLeaseEvent(std::ostream& out, const JournalLeaseEvent& event);
void WriteWorkerDeathEvent(std::ostream& out, const JournalWorkerDeath& event);
void WriteFleetFinishEvent(std::ostream& out, const JournalFleetFinish& event);
void WriteNetEvent(std::ostream& out, const JournalNetEvent& event);
void WriteHealthEvent(std::ostream& out, const JournalHealthEvent& event);
void WriteMetricsSnapshotEvent(std::ostream& out,
                               const JournalMetricsSnapshot& event);

// One first_witness event read back from a journal.
struct JournalWitness {
  int bug_id = 0;
  std::string pattern;
  int statement_index = 0;
  int shard = 0;
  double wall_ms = 0.0;
  // False when the producer's telemetry was not collecting (wall_ms is then
  // meaningless, not "instant"). Journals written before this field existed
  // replay with the old inference: recorded = (wall_ms != 0).
  bool recorded = false;
};

// One logic_bug event read back from a journal.
struct JournalLogicBug {
  int bug_id = 0;
  std::string oracle;     // which oracle flagged it first
  std::string function;
  std::string effect;     // LogicEffectName string, e.g. "off_by_one"
  std::string scope;      // LogicScopeName string, e.g. "const_args"
  int case_index = 0;     // global case index — identical serial vs. sharded
  int statement_index = 0;
  int shard = 0;
  std::string poc;        // the flagged statement
  std::string witness;    // diverging EET variant SQL / sibling dialect name
};

// A parsed journal: campaign metadata plus the witness stream.
struct JournalReplay {
  std::string tool;
  std::string dialect;
  uint64_t seed = 0;
  int budget = 0;
  int shards = 0;
  // The remaining outcome knobs of campaign_start. Journals written before
  // the header carried them lack them; `missing_knobs` names each absent
  // one, and a resume refuses such a journal.
  bool stop_when_all_bugs_found = false;
  int deadline_ms = 0;
  std::vector<std::string> oracles;
  std::vector<std::string> missing_knobs;
  std::vector<int> shard_statements;       // from shard_merge events
  std::vector<JournalWitness> witnesses;   // journal order == discovery order
  int resume_markers = 0;                  // campaign_resume events seen
  std::vector<std::string> chaos_specs;    // chaos markers (fault-injected runs)
  std::vector<trace::CrashFlightRecord> crash_flights;  // journal order
  std::vector<JournalLogicBug> logic_bugs;  // case order (== journal order)
  std::vector<JournalLeaseEvent> lease_events;   // fleet journals, stream order
  std::vector<JournalWorkerDeath> worker_deaths; // fleet journals, stream order
  std::vector<JournalNetEvent> net_events;       // fleet journals, stream order
  std::vector<JournalHealthEvent> health_events; // doctor transitions, stream order
  std::vector<JournalMetricsSnapshot> metrics_snapshots;  // stream order
  bool fleet_finished = false;              // fleet_finish event present
  JournalFleetFinish fleet;                 // valid when fleet_finished
  int statements_executed = 0;
  // Wrong-result oracle totals from campaign_finish (absent — and zero — in
  // journals written before the logic oracles existed).
  int logic_checks = 0;
  int logic_divergences = 0;
  int logic_false_positives = 0;
  int watchdog_timeouts = 0;               // absent in pre-watchdog journals
  uint64_t functions_triggered = 0;
  uint64_t branches_covered = 0;
  double wall_ms = 0.0;
  bool finished = false;                   // campaign_finish event present
  // The final line hit EOF without its terminating '\n': the producer died
  // mid-record (kill -9). The torn record is dropped; everything before it
  // replayed normally, so --resume trusts only the intact records.
  bool torn_tail = false;
  // campaign_finish reported that a unit result could not be spooled
  // (CampaignResult::journal_degraded).
  bool journal_degraded = false;

  std::set<int> BugIds() const;
  std::set<int> LogicBugIds() const;
};

// Parses an NDJSON journal stream. Fails on unknown event types, missing
// required fields, or a stream without a campaign_start line. `checkpoint`
// lines, which journals written before the unit spool carried, are skipped.
// Every record
// is '\n'-terminated by construction, so a final line without one is a torn
// tail: it is dropped and flagged (torn_tail), not an error — the kill -9
// recovery path depends on replaying the intact prefix.
Result<JournalReplay> ReplayJournal(std::istream& in);

// Convenience: file-path variants used by the CLI flags.
Status WriteCampaignJournalFile(const std::string& path,
                                const CampaignOptions& options,
                                const CampaignResult& result, uint64_t wall_ns);
Result<JournalReplay> ReplayJournalFile(const std::string& path);

// Exports the campaign's span trace (CampaignResult::trace) as Chrome
// trace-event JSON — loadable in Perfetto / chrome://tracing — written
// crash-atomically (io::WriteFileAtomic). Timeline layout: the campaign
// root span lives on pid 0, shard i's spans on pid i+1, all on tid 0;
// ts/dur are microseconds with nanosecond precision (three decimals).
// Always available: with tracing off (or compiled out) the file still
// contains the campaign/shard/worker-run structural spans the runner built,
// or only process metadata when the trace is empty. Schema details and a
// loading recipe: docs/OBSERVABILITY.md. Validated by
// tools/check_trace_json.py.
Status WriteChromeTraceFile(const std::string& path, const CampaignResult& result);

}  // namespace telemetry
}  // namespace soft

#endif  // SRC_TELEMETRY_JOURNAL_H_
