#include "src/soft/report.h"

#include <cstdio>

#include "src/telemetry/telemetry.h"

namespace soft {
namespace {

std::string FormatUs(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us);
  return buf;
}

// Renders the recorded stage latencies and per-pattern counters. All timing
// in reports flows through the telemetry histograms — there is no second,
// ad-hoc chrono code path.
std::string RenderTelemetrySection(const telemetry::CampaignTelemetry& telemetry) {
  std::string out;
  out += "## Telemetry\n\n";
  out += "| stage | samples | mean µs | p50 µs | p95 µs | p99 µs | max µs |\n"
         "|---|---|---|---|---|---|---|\n";
  for (size_t i = 0; i < telemetry::kStageCount; ++i) {
    const telemetry::LatencyHistogram& h = telemetry.stage_latency[i];
    out += "| " + std::string(telemetry::kStageKeys[i]) + " | " +
           std::to_string(h.samples) + " | " + FormatUs(h.MeanUs()) + " | " +
           FormatUs(h.QuantileUs(0.5)) + " | " + FormatUs(h.QuantileUs(0.95)) +
           " | " + FormatUs(h.QuantileUs(0.99)) + " | " +
           FormatUs(static_cast<double>(h.max_ns) / 1000.0) + " |\n";
  }
  out += "\n| pattern |";
  std::string rule = "\n|---|";
  for (const telemetry::PatternCounterField& field : telemetry::kPatternCounterFields) {
    out.append(" ").append(field.key).append(" |");
    rule += "---|";
  }
  out += rule + "\n";
  for (const auto& [pattern, c] : telemetry.patterns) {
    out += "| " + pattern + " |";
    for (const telemetry::PatternCounterField& field : telemetry::kPatternCounterFields) {
      out += " " + std::to_string(c.*field.member) + " |";
    }
    out += "\n";
  }
  out += "\n";
  return out;
}

}  // namespace

std::string RenderBugReport(const Database& db, const FoundBug& bug) {
  std::string out;
  out += "## BUG-" + bug.crash.dbms + "-" + std::to_string(bug.crash.bug_id) + ": " +
         std::string(CrashTypeLongName(bug.crash.crash)) + " in " + bug.crash.function +
         "\n\n";
  out += "* **Target:** " + db.config().name + " (simulated dialect)\n";
  out += "* **Crash type:** " + std::string(CrashTypeName(bug.crash.crash)) + " (" +
         std::string(CrashTypeLongName(bug.crash.crash)) + ")\n";
  out += "* **Processing stage:** " + std::string(StageName(bug.crash.stage)) + "\n";
  out += "* **Found by pattern:** " + bug.found_by + " after " +
         std::to_string(bug.statements_until_found) + " statements\n\n";
  out += "### Reproduction\n\n```sql\n" + bug.poc_sql + ";\n```\n\n";
  out += "### Analysis\n\n" + bug.crash.description + "\n";
  return out;
}

std::string RenderCampaignReport(const Database& db, const CampaignResult& result) {
  std::string out;
  out += "# SOFT campaign report — " + result.dialect + "\n\n";
  out += "| metric | value |\n|---|---|\n";
  out += "| tool | " + result.tool + " |\n";
  out += "| statements executed | " + std::to_string(result.statements_executed) + " |\n";
  out += "| SQL errors | " + std::to_string(result.sql_errors) + " |\n";
  out += "| crash events | " + std::to_string(result.crashes_observed) + " |\n";
  out += "| unique bugs | " + std::to_string(result.unique_bugs.size()) + " |\n";
  out += "| false positives (resource limits) | " +
         std::to_string(result.false_positives) + " |\n";
  out += "| functions triggered | " + std::to_string(result.functions_triggered) + " |\n";
  out += "| branches covered | " + std::to_string(result.branches_covered) + " |\n\n";
  if (!result.telemetry.empty()) {
    out += RenderTelemetrySection(result.telemetry);
  }
  for (const FoundBug& bug : result.unique_bugs) {
    out += RenderBugReport(db, bug);
    out += "\n---\n\n";
  }
  return out;
}

}  // namespace soft
