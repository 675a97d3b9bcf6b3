// NDJSON journal writing/replay and the telemetry JSON serialization. This
// translation unit is compiled in every configuration (it has no campaign
// runtime cost); only the recording hooks in telemetry.cc are gated by
// SOFT_TELEMETRY.
#include "src/telemetry/journal.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "src/telemetry/telemetry.h"
#include "src/util/io.h"
#include "src/util/str_util.h"

namespace soft {
namespace telemetry {

uint64_t MonotonicNowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

void AppendHistogramJson(std::string& out, const LatencyHistogram& h) {
  out += "{\"samples\":" + std::to_string(h.samples);
  out += ",\"total_ns\":" + std::to_string(h.total_ns);
  out += ",\"max_ns\":" + std::to_string(h.max_ns);
  out += ",\"buckets\":[";
  for (size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    if (i != 0) {
      out += ',';
    }
    out += std::to_string(h.buckets[i]);
  }
  out += "]}";
}

// --- Minimal parser for the journal's own flat JSON lines -----------------
//
// Handles exactly what WriteCampaignJournal emits: one flat object per line,
// string values with \-escapes, integer/double number values. Not a general
// JSON parser.

// Locates the value of `key` in `line` starting after the "key": prefix.
// Returns npos when absent.
size_t ValueStart(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) {
    return std::string::npos;
  }
  size_t pos = at + needle.size();
  while (pos < line.size() && line[pos] == ' ') {
    ++pos;
  }
  return pos;
}

bool ExtractString(const std::string& line, const std::string& key, std::string& out) {
  size_t pos = ValueStart(line, key);
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '"') {
    return false;
  }
  ++pos;
  out.clear();
  while (pos < line.size() && line[pos] != '"') {
    if (line[pos] == '\\' && pos + 1 < line.size()) {
      ++pos;
      switch (line[pos]) {
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        default:
          out += line[pos];
      }
    } else {
      out += line[pos];
    }
    ++pos;
  }
  return pos < line.size();
}

bool ExtractNumberToken(const std::string& line, const std::string& key,
                        std::string& out) {
  const size_t pos = ValueStart(line, key);
  if (pos == std::string::npos) {
    return false;
  }
  size_t end = pos;
  while (end < line.size() && line[end] != ',' && line[end] != '}') {
    ++end;
  }
  out = line.substr(pos, end - pos);
  return !out.empty();
}

bool ExtractInt(const std::string& line, const std::string& key, int64_t& out) {
  std::string token;
  if (!ExtractNumberToken(line, key, token)) {
    return false;
  }
  out = std::strtoll(token.c_str(), nullptr, 10);
  return true;
}

bool ExtractUint(const std::string& line, const std::string& key, uint64_t& out) {
  std::string token;
  if (!ExtractNumberToken(line, key, token)) {
    return false;
  }
  out = std::strtoull(token.c_str(), nullptr, 10);
  return true;
}

bool ExtractDouble(const std::string& line, const std::string& key, double& out) {
  std::string token;
  if (!ExtractNumberToken(line, key, token)) {
    return false;
  }
  out = std::strtod(token.c_str(), nullptr);
  return true;
}

bool ExtractBool(const std::string& line, const std::string& key, bool& out) {
  std::string token;
  if (!ExtractNumberToken(line, key, token)) {
    return false;
  }
  out = (token == "true" || token == "1");
  return true;
}

// Parses the crash_flight event's "entries":[{...},...] array — the one
// place the journal nests objects, so the flat extractors cannot be applied
// to the whole line. Each entry object is located with a string-aware brace
// scan (the sql text may contain braces), then field-extracted flat.
bool ParseFlightEntries(const std::string& line,
                        std::vector<trace::FlightEntry>& out) {
  const std::string needle = "\"entries\":[";
  const size_t at = line.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  size_t pos = at + needle.size();
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ',' || line[pos] == ' ')) {
      ++pos;
    }
    if (pos >= line.size()) {
      return false;
    }
    if (line[pos] == ']') {
      return true;
    }
    if (line[pos] != '{') {
      return false;
    }
    size_t end = pos;
    int depth = 0;
    bool in_string = false;
    for (; end < line.size(); ++end) {
      const char c = line[end];
      if (in_string) {
        if (c == '\\') {
          ++end;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) {
          ++end;
          break;
        }
      }
    }
    if (depth != 0) {
      return false;
    }
    const std::string obj = line.substr(pos, end - pos);
    trace::FlightEntry entry;
    int64_t index = 0;
    if (!ExtractInt(obj, "index", index) ||
        !ExtractString(obj, "pattern", entry.pattern) ||
        !ExtractString(obj, "stage", entry.stage_reached) ||
        !ExtractString(obj, "outcome", entry.outcome) ||
        !ExtractString(obj, "sql", entry.sql)) {
      return false;
    }
    entry.statement_index = static_cast<int>(index);
    out.push_back(std::move(entry));
    pos = end;
  }
  return false;  // unterminated array
}

}  // namespace

std::string CampaignTelemetry::ToJson() const {
  std::string out = "{\"stages\":{";
  for (size_t i = 0; i < kStageCount; ++i) {
    if (i != 0) {
      out += ',';
    }
    out += "\"";
    out += kStageKeys[i];
    out += "\":";
    AppendHistogramJson(out, stage_latency[i]);
  }
  out += "},\"patterns\":{";
  bool first = true;
  for (const auto& [pattern, counters] : patterns) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "\"" + EscapeJson(pattern) + "\":{";
    out += "\"generated\":" + std::to_string(counters.generated);
    out += ",\"executed\":" + std::to_string(counters.executed);
    out += ",\"crashes\":" + std::to_string(counters.crashes);
    out += ",\"bugs_deduped\":" + std::to_string(counters.bugs_deduped);
    out += ",\"sql_errors\":" + std::to_string(counters.sql_errors);
    out += ",\"false_positives\":" + std::to_string(counters.false_positives);
    out += ",\"timeouts\":" + std::to_string(counters.timeouts);
    out += ",\"logic_checks\":" + std::to_string(counters.logic_checks);
    out += ",\"logic_bugs\":" + std::to_string(counters.logic_bugs);
    out += "}";
  }
  out += "}}";
  return out;
}

void WriteCampaignStart(std::ostream& out, const CampaignOptions& options,
                        const std::string& tool, const std::string& dialect,
                        int shards) {
  out << "{\"event\":\"campaign_start\",\"tool\":\"" << EscapeJson(tool)
      << "\",\"dialect\":\"" << EscapeJson(dialect)
      << "\",\"seed\":" << options.seed << ",\"budget\":" << options.max_statements
      << ",\"shards\":" << shards << ",\"stop_when_all_bugs_found\":"
      << (options.stop_when_all_bugs_found ? 1 : 0)
      << ",\"deadline_ms\":" << options.statement_limits.deadline_ms
      << ",\"oracles\":\"" << EscapeJson(Join(options.logic_oracles, ",")) << "\"}\n";
}

void WriteResumeMarker(std::ostream& out, int from_cases) {
  out << "{\"event\":\"campaign_resume\",\"from_cases\":" << from_cases << "}\n";
}

void WriteChaosMarker(std::ostream& out, const std::string& spec) {
  out << "{\"event\":\"chaos\",\"spec\":\"" << EscapeJson(spec) << "\"}\n";
}

void WriteLeaseEvent(std::ostream& out, const JournalLeaseEvent& event) {
  out << "{\"event\":\"lease\",\"action\":\"" << EscapeJson(event.action)
      << "\",\"unit\":" << event.unit << ",\"worker\":" << event.worker
      << ",\"cases\":" << event.cases << ",\"unit_digest\":" << event.unit_digest
      << "}\n";
}

void WriteWorkerDeathEvent(std::ostream& out, const JournalWorkerDeath& event) {
  out << "{\"event\":\"worker_death\",\"worker\":" << event.worker
      << ",\"pid\":" << event.pid
      << ",\"units_completed\":" << event.units_completed << ",\"reason\":\""
      << EscapeJson(event.reason) << "\"}\n";
}

void WriteFleetFinishEvent(std::ostream& out, const JournalFleetFinish& event) {
  out << "{\"event\":\"fleet_finish\",\"units\":" << event.units
      << ",\"workers_spawned\":" << event.workers_spawned
      << ",\"worker_deaths\":" << event.worker_deaths
      << ",\"leases_granted\":" << event.leases_granted
      << ",\"leases_reclaimed\":" << event.leases_reclaimed
      << ",\"leases_stolen\":" << event.leases_stolen
      << ",\"heartbeats\":" << event.heartbeats
      << ",\"units_completed\":" << event.units_completed
      << ",\"units_run_locally\":" << event.units_run_locally
      << ",\"units_resumed\":" << event.units_resumed
      << ",\"units_spool_diverged\":" << event.units_spool_diverged
      << ",\"degraded_to_local\":" << (event.degraded_to_local ? 1 : 0) << "}\n";
}

void WriteNetEvent(std::ostream& out, const JournalNetEvent& event) {
  out << "{\"event\":\"net_" << EscapeJson(event.kind) << "\",\"detail\":\""
      << EscapeJson(event.detail) << "\",\"session\":\"" << EscapeJson(event.session)
      << "\",\"worker\":" << event.worker << ",\"unit\":" << event.unit << "}\n";
}

namespace {
std::string FormatRate(double per_s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", per_s);
  return buf;
}
}  // namespace

void WriteHealthEvent(std::ostream& out, const JournalHealthEvent& event) {
  out << "{\"event\":\"health\",\"state\":\"" << EscapeJson(event.state)
      << "\",\"reason\":\"" << EscapeJson(event.reason)
      << "\",\"statements_per_s\":" << FormatRate(event.statements_per_s)
      << ",\"units_per_s\":" << FormatRate(event.units_per_s)
      << ",\"bugs_per_s\":" << FormatRate(event.bugs_per_s)
      << ",\"reclaims_per_s\":" << FormatRate(event.reclaims_per_s)
      << ",\"redeliveries_per_s\":" << FormatRate(event.redeliveries_per_s)
      << ",\"wall_ms\":" << FormatRate(event.wall_ms) << "}\n";
}

void WriteMetricsSnapshotEvent(std::ostream& out,
                               const JournalMetricsSnapshot& event) {
  out << "{\"event\":\"metrics_snapshot\",\"series\":" << event.series
      << ",\"statements\":" << event.statements
      << ",\"units_done\":" << event.units_done << ",\"health\":\""
      << EscapeJson(event.health) << "\",\"wall_ms\":"
      << FormatRate(event.wall_ms) << "}\n";
}

void WriteCampaignTail(std::ostream& out, const CampaignResult& result,
                       uint64_t wall_ns) {
  for (size_t i = 0; i < result.shard_statements.size(); ++i) {
    out << "{\"event\":\"shard_merge\",\"shard\":" << i
        << ",\"statements\":" << result.shard_statements[i] << "}\n";
  }
  for (const FoundBug& bug : result.unique_bugs) {
    out << "{\"event\":\"first_witness\",\"bug_id\":" << bug.crash.bug_id
        << ",\"pattern\":\"" << EscapeJson(bug.found_by)
        << "\",\"statement_index\":" << bug.statements_until_found
        << ",\"shard\":" << bug.shard << ",\"wall_ms\":"
        << FormatMs(static_cast<uint64_t>(bug.found_wall_ns))
        << ",\"recorded\":" << (bug.wall_recorded ? "true" : "false") << "}\n";
  }
  for (const FoundLogicBug& bug : result.logic_bugs) {
    out << "{\"event\":\"logic_bug\",\"bug_id\":" << bug.info.bug_id
        << ",\"oracle\":\"" << EscapeJson(bug.oracle) << "\",\"function\":\""
        << EscapeJson(bug.info.function) << "\",\"effect\":\""
        << LogicEffectName(bug.info.effect) << "\",\"scope\":\""
        << LogicScopeName(bug.info.scope) << "\",\"case_index\":" << bug.case_index
        << ",\"statement_index\":" << bug.statements_until_found
        << ",\"shard\":" << bug.shard << ",\"poc\":\"" << EscapeJson(bug.poc_sql)
        << "\",\"witness\":\"" << EscapeJson(bug.witness) << "\"}\n";
  }
  for (const trace::CrashFlightRecord& flight : result.crash_flights) {
    // Top-level fields precede "entries" so the flat extractors find them
    // first on replay (the entry objects reuse none of these keys anyway).
    out << "{\"event\":\"crash_flight\",\"shard\":" << flight.shard
        << ",\"worker_run\":" << flight.worker_run
        << ",\"announced\":" << (flight.announced ? "true" : "false")
        << ",\"bug_id\":" << flight.bug_id << ",\"entries\":[";
    for (size_t i = 0; i < flight.entries.size(); ++i) {
      const trace::FlightEntry& entry = flight.entries[i];
      if (i != 0) {
        out << ',';
      }
      out << "{\"index\":" << entry.statement_index << ",\"pattern\":\""
          << EscapeJson(entry.pattern) << "\",\"stage\":\""
          << EscapeJson(entry.stage_reached) << "\",\"outcome\":\""
          << EscapeJson(entry.outcome) << "\",\"sql\":\"" << EscapeJson(entry.sql)
          << "\"}";
    }
    out << "]}\n";
  }
  out << "{\"event\":\"campaign_finish\",\"statements\":" << result.statements_executed
      << ",\"sql_errors\":" << result.sql_errors
      << ",\"crashes_observed\":" << result.crashes_observed
      << ",\"false_positives\":" << result.false_positives
      << ",\"watchdog_timeouts\":" << result.watchdog_timeouts
      << ",\"unique_bugs\":" << result.unique_bugs.size()
      << ",\"logic_checks\":" << result.logic_checks
      << ",\"logic_divergences\":" << result.logic_divergences
      << ",\"logic_false_positives\":" << result.logic_false_positives
      << ",\"logic_bugs\":" << result.logic_bugs.size()
      << ",\"functions_triggered\":" << result.functions_triggered
      << ",\"branches_covered\":" << result.branches_covered
      << ",\"journal_degraded\":" << (result.journal_degraded ? 1 : 0)
      << ",\"wall_ms\":" << FormatMs(wall_ns) << "}\n";
}

void WriteCampaignJournal(std::ostream& out, const CampaignOptions& options,
                          const CampaignResult& result, uint64_t wall_ns) {
  WriteCampaignStart(out, options, result.tool, result.dialect, result.shards);
  WriteCampaignTail(out, result, wall_ns);
}

std::set<int> JournalReplay::BugIds() const {
  std::set<int> ids;
  for (const JournalWitness& witness : witnesses) {
    ids.insert(witness.bug_id);
  }
  return ids;
}

std::set<int> JournalReplay::LogicBugIds() const {
  std::set<int> ids;
  for (const JournalLogicBug& bug : logic_bugs) {
    ids.insert(bug.bug_id);
  }
  return ids;
}

Result<JournalReplay> ReplayJournal(std::istream& in) {
  JournalReplay replay;
  bool started = false;
  std::string line;
  int line_no = 0;
  const auto malformed = [&line_no](const std::string& what) {
    return InvalidArgument("journal line " + std::to_string(line_no) + ": malformed " +
                           what);
  };
  while (std::getline(in, line)) {
    ++line_no;
    // Torn-tail rule: every writer emits the terminating '\n' as the last
    // byte of a record, so a final line that hits EOF without one is a
    // record the producer died inside (the kill -9 case). It is dropped —
    // the journal replays up to the last intact record — and flagged so
    // --resume knows the file was truncated. A '\n'-terminated line that
    // fails to parse is still a hard error: that is corruption, not tearing.
    if (in.eof()) {
      if (!line.empty()) {
        replay.torn_tail = true;
      }
      break;
    }
    if (line.empty()) {
      continue;
    }
    std::string event;
    if (!ExtractString(line, "event", event)) {
      return InvalidArgument("journal line " + std::to_string(line_no) +
                             ": missing \"event\" field");
    }
    if (event == "campaign_start") {
      int64_t budget = 0, shards = 0;
      if (!ExtractString(line, "tool", replay.tool) ||
          !ExtractString(line, "dialect", replay.dialect) ||
          !ExtractUint(line, "seed", replay.seed) ||
          !ExtractInt(line, "budget", budget) || !ExtractInt(line, "shards", shards)) {
        return malformed("campaign_start");
      }
      replay.budget = static_cast<int>(budget);
      replay.shards = static_cast<int>(shards);
      int64_t stop_all = 0, deadline_ms = 0;
      std::string oracles;
      const auto knob = [&replay](const char* name, bool present) {
        if (!present) {
          replay.missing_knobs.push_back(name);
        }
      };
      knob("stop_when_all_bugs_found",
           ExtractInt(line, "stop_when_all_bugs_found", stop_all));
      knob("deadline_ms", ExtractInt(line, "deadline_ms", deadline_ms));
      knob("oracles", ExtractString(line, "oracles", oracles));
      replay.stop_when_all_bugs_found = stop_all != 0;
      replay.deadline_ms = static_cast<int>(deadline_ms);
      if (!oracles.empty()) {
        replay.oracles = Split(oracles, ',');
      }
      started = true;
    } else if (event == "shard_merge") {
      int64_t statements = 0;
      if (!ExtractInt(line, "statements", statements)) {
        return malformed("shard_merge");
      }
      replay.shard_statements.push_back(static_cast<int>(statements));
    } else if (event == "first_witness") {
      JournalWitness witness;
      int64_t bug_id = 0, statement_index = 0, shard = 0;
      if (!ExtractInt(line, "bug_id", bug_id) ||
          !ExtractString(line, "pattern", witness.pattern) ||
          !ExtractInt(line, "statement_index", statement_index) ||
          !ExtractInt(line, "shard", shard) ||
          !ExtractDouble(line, "wall_ms", witness.wall_ms)) {
        return malformed("first_witness");
      }
      witness.bug_id = static_cast<int>(bug_id);
      witness.statement_index = static_cast<int>(statement_index);
      witness.shard = static_cast<int>(shard);
      // Absent in journals written before the recorded flag existed: fall
      // back to the old (ambiguous) inference — nonzero wall means recorded.
      if (!ExtractBool(line, "recorded", witness.recorded)) {
        witness.recorded = witness.wall_ms != 0.0;
      }
      replay.witnesses.push_back(std::move(witness));
    } else if (event == "logic_bug") {
      JournalLogicBug bug;
      int64_t bug_id = 0, case_index = 0, statement_index = 0, shard = 0;
      if (!ExtractInt(line, "bug_id", bug_id) ||
          !ExtractString(line, "oracle", bug.oracle) ||
          !ExtractString(line, "function", bug.function) ||
          !ExtractString(line, "effect", bug.effect) ||
          !ExtractString(line, "scope", bug.scope) ||
          !ExtractInt(line, "case_index", case_index) ||
          !ExtractInt(line, "statement_index", statement_index) ||
          !ExtractInt(line, "shard", shard) ||
          !ExtractString(line, "poc", bug.poc) ||
          !ExtractString(line, "witness", bug.witness)) {
        return malformed("logic_bug");
      }
      bug.bug_id = static_cast<int>(bug_id);
      bug.case_index = static_cast<int>(case_index);
      bug.statement_index = static_cast<int>(statement_index);
      bug.shard = static_cast<int>(shard);
      replay.logic_bugs.push_back(std::move(bug));
    } else if (event == "crash_flight") {
      trace::CrashFlightRecord flight;
      int64_t shard = 0, worker_run = 0, bug_id = 0;
      if (!ExtractInt(line, "shard", shard) ||
          !ExtractInt(line, "worker_run", worker_run) ||
          !ExtractBool(line, "announced", flight.announced) ||
          !ExtractInt(line, "bug_id", bug_id) ||
          !ParseFlightEntries(line, flight.entries)) {
        return malformed("crash_flight");
      }
      flight.shard = static_cast<int>(shard);
      flight.worker_run = static_cast<int>(worker_run);
      flight.bug_id = static_cast<int>(bug_id);
      replay.crash_flights.push_back(std::move(flight));
    } else if (event == "checkpoint") {
      // Statement checkpoints of journals written before the unit spool:
      // nothing reads them any more.
    } else if (event == "lease") {
      JournalLeaseEvent lease;
      int64_t unit = 0, worker = 0, cases = 0;
      if (!ExtractString(line, "action", lease.action) ||
          !ExtractInt(line, "unit", unit) || !ExtractInt(line, "worker", worker) ||
          !ExtractInt(line, "cases", cases) ||
          !ExtractUint(line, "unit_digest", lease.unit_digest)) {
        return malformed("lease");
      }
      lease.unit = static_cast<int>(unit);
      lease.worker = static_cast<int>(worker);
      lease.cases = static_cast<int>(cases);
      replay.lease_events.push_back(std::move(lease));
    } else if (event == "worker_death") {
      JournalWorkerDeath death;
      int64_t worker = 0, units_completed = 0;
      if (!ExtractInt(line, "worker", worker) || !ExtractInt(line, "pid", death.pid) ||
          !ExtractInt(line, "units_completed", units_completed) ||
          !ExtractString(line, "reason", death.reason)) {
        return malformed("worker_death");
      }
      death.worker = static_cast<int>(worker);
      death.units_completed = static_cast<int>(units_completed);
      replay.worker_deaths.push_back(std::move(death));
    } else if (event == "fleet_finish") {
      JournalFleetFinish& fin = replay.fleet;
      bool degraded = false;
      if (!ExtractUint(line, "units", fin.units) ||
          !ExtractUint(line, "workers_spawned", fin.workers_spawned) ||
          !ExtractUint(line, "worker_deaths", fin.worker_deaths) ||
          !ExtractUint(line, "leases_granted", fin.leases_granted) ||
          !ExtractUint(line, "leases_reclaimed", fin.leases_reclaimed) ||
          !ExtractUint(line, "leases_stolen", fin.leases_stolen) ||
          !ExtractUint(line, "heartbeats", fin.heartbeats) ||
          !ExtractUint(line, "units_completed", fin.units_completed) ||
          !ExtractUint(line, "units_run_locally", fin.units_run_locally) ||
          !ExtractUint(line, "units_resumed", fin.units_resumed) ||
          !ExtractUint(line, "units_spool_diverged", fin.units_spool_diverged) ||
          !ExtractBool(line, "degraded_to_local", degraded)) {
        return malformed("fleet_finish");
      }
      fin.degraded_to_local = degraded;
      replay.fleet_finished = true;
    } else if (event == "health") {
      JournalHealthEvent health;
      if (!ExtractString(line, "state", health.state) ||
          !ExtractString(line, "reason", health.reason) ||
          !ExtractDouble(line, "statements_per_s", health.statements_per_s) ||
          !ExtractDouble(line, "units_per_s", health.units_per_s) ||
          !ExtractDouble(line, "bugs_per_s", health.bugs_per_s) ||
          !ExtractDouble(line, "reclaims_per_s", health.reclaims_per_s) ||
          !ExtractDouble(line, "redeliveries_per_s", health.redeliveries_per_s) ||
          !ExtractDouble(line, "wall_ms", health.wall_ms)) {
        return malformed("health");
      }
      replay.health_events.push_back(std::move(health));
    } else if (event == "metrics_snapshot") {
      JournalMetricsSnapshot snap;
      if (!ExtractUint(line, "series", snap.series) ||
          !ExtractUint(line, "statements", snap.statements) ||
          !ExtractUint(line, "units_done", snap.units_done) ||
          !ExtractString(line, "health", snap.health) ||
          !ExtractDouble(line, "wall_ms", snap.wall_ms)) {
        return malformed("metrics_snapshot");
      }
      replay.metrics_snapshots.push_back(std::move(snap));
    } else if (event == "net_session" || event == "net_disconnect" ||
               event == "net_redeliver" || event == "net_dup_result") {
      JournalNetEvent net;
      net.kind = event.substr(4);
      int64_t worker = -1, unit = -1;
      if (!ExtractString(line, "detail", net.detail) ||
          !ExtractString(line, "session", net.session) ||
          !ExtractInt(line, "worker", worker) || !ExtractInt(line, "unit", unit)) {
        return malformed(event);
      }
      net.worker = static_cast<int>(worker);
      net.unit = static_cast<int>(unit);
      replay.net_events.push_back(std::move(net));
    } else if (event == "campaign_resume") {
      int64_t from_cases = 0;
      if (!ExtractInt(line, "from_cases", from_cases)) {
        return malformed("campaign_resume");
      }
      ++replay.resume_markers;
    } else if (event == "chaos") {
      std::string spec;
      if (!ExtractString(line, "spec", spec)) {
        return malformed("chaos marker");
      }
      replay.chaos_specs.push_back(std::move(spec));
    } else if (event == "campaign_finish") {
      int64_t statements = 0;
      if (!ExtractInt(line, "statements", statements) ||
          !ExtractUint(line, "functions_triggered", replay.functions_triggered) ||
          !ExtractUint(line, "branches_covered", replay.branches_covered) ||
          !ExtractDouble(line, "wall_ms", replay.wall_ms)) {
        return malformed("campaign_finish");
      }
      // Optional in journals written before the statement watchdog existed.
      int64_t timeouts = 0;
      if (ExtractInt(line, "watchdog_timeouts", timeouts)) {
        replay.watchdog_timeouts = static_cast<int>(timeouts);
      }
      // Optional in journals written before sink degradation was recorded.
      int64_t degraded = 0;
      if (ExtractInt(line, "journal_degraded", degraded)) {
        replay.journal_degraded = degraded != 0;
      }
      // Optional in journals written before the wrong-result oracles existed.
      int64_t logic = 0;
      if (ExtractInt(line, "logic_checks", logic)) {
        replay.logic_checks = static_cast<int>(logic);
      }
      if (ExtractInt(line, "logic_divergences", logic)) {
        replay.logic_divergences = static_cast<int>(logic);
      }
      if (ExtractInt(line, "logic_false_positives", logic)) {
        replay.logic_false_positives = static_cast<int>(logic);
      }
      replay.statements_executed = static_cast<int>(statements);
      replay.finished = true;
    } else {
      return InvalidArgument("journal line " + std::to_string(line_no) +
                             ": unknown event '" + event + "'");
    }
  }
  if (!started) {
    return InvalidArgument("journal has no campaign_start event");
  }
  return replay;
}

Status WriteCampaignJournalFile(const std::string& path, const CampaignOptions& options,
                                const CampaignResult& result, uint64_t wall_ns) {
  // Serialize in memory, then write tmp+fsync+rename: the journal path
  // either keeps its previous contents or gets the complete new stream —
  // never a silent prefix (the pre-existing bug: write errors after a
  // successful open were never checked).
  std::ostringstream out;
  WriteCampaignJournal(out, options, result, wall_ns);
  if (!out) {
    return IoError("serializing journal for '" + path + "' failed");
  }
  return io::WriteFileAtomic(path, out.str());
}

Result<JournalReplay> ReplayJournalFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return InvalidArgument("cannot open journal file '" + path + "'");
  }
  return ReplayJournal(in);
}

// --- Chrome trace-event export ---------------------------------------------

namespace {

// Microseconds with nanosecond precision: Chrome's ts/dur unit is µs, and
// three decimals keep the exported numbers exact (ns / 1000, remainder as
// the fraction), so parent/child nesting survives the unit conversion.
std::string FormatTraceUs(uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

std::string FormatSpanId(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(id));
  return buf;
}

// Timeline process for a span: campaign root on pid 0, shard i on pid i+1 —
// each (pid, tid 0) lane then holds a properly nested interval tree, which
// is what tools/check_trace_json.py asserts.
int TracePid(const trace::TraceSpan& span) {
  return span.kind == trace::SpanKind::kCampaign ? 0 : span.shard + 1;
}

void AppendProcessName(std::string& out, int pid, const std::string& name) {
  out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":0,\"ts\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
         EscapeJson(name) + "\"}}";
}

}  // namespace

Status WriteChromeTraceFile(const std::string& path, const CampaignResult& result) {
  std::string out = "{\"traceEvents\":[";
  AppendProcessName(out, 0,
                    "campaign " + result.tool + "/" + result.dialect);
  const int shards = std::max(result.shards, 1);
  for (int shard = 0; shard < shards; ++shard) {
    out += ',';
    AppendProcessName(out, shard + 1, "shard " + std::to_string(shard));
  }
  for (const trace::TraceSpan& span : result.trace.spans) {
    out += ",{\"ph\":\"X\",\"pid\":" + std::to_string(TracePid(span)) +
           ",\"tid\":0,\"ts\":" + FormatTraceUs(span.start_ns) +
           ",\"dur\":" + FormatTraceUs(span.dur_ns) + ",\"name\":\"" +
           std::string(trace::SpanKindName(span.kind)) + "\",\"cat\":\"" +
           std::string(trace::SpanKindName(span.kind)) +
           "\",\"args\":{\"span_id\":\"" + FormatSpanId(span.id) + "\"";
    if (span.parent_id != 0) {
      out += ",\"parent_id\":\"" + FormatSpanId(span.parent_id) + "\"";
    }
    for (const auto& [key, value] : span.args) {
      out += ",\"" + EscapeJson(key) + "\":\"" + EscapeJson(value) + "\"";
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return io::WriteFileAtomic(path, out);
}

}  // namespace telemetry
}  // namespace soft
