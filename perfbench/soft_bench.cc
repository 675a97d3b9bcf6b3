// soft_bench: one iteration of one workload of the benchmark of record
// (perfbench/NOTES.md). perfbench/run.py starts a fresh process per
// iteration, so every iteration pays the one-time builtin-catalog build and
// its own peak RSS, as a user's run does.
//
//   soft_bench --workload fleet_units|logic_oracles|baseline_tools
//              --seed N [--mode full|setup|reference|layers]
//              [--trace] [--oracles eet,diff,...] [--spans FILE]
//              [--socket PATH]
//
// Modes: `full` runs the workload at its budget; `setup` runs it with one
// statement per campaign (per unit for fleet_units); `reference` runs the
// untimed in-process sharded campaign the fleet merge must equal; `layers`
// times the public calls a campaign's setup is made of (MakeDialect,
// SeedSuiteFor + CollectCorpus, PatternEngine) while building the
// workload's own case pool.
//
// The program drives the library only through its public calls. The seed
// reaches the library only as CampaignOptions::seed. The last stdout line
// is one JSON object: every campaign run with its correctness verdict, plus
// the benchmark's own timings. With --trace every statement is traced
// (trace_sample = 1) and, given --spans, the benchmark's spans around the
// public calls and the program's own spans are written to FILE as TSV:
//   source kind id parent start_ns dur_ns pattern outcome verdict
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/dialects/dialects.h"
#include "src/fleet/coordinator.h"
#include "src/soft/chaos.h"
#include "src/soft/expr_collection.h"
#include "src/soft/patterns.h"
#include "src/soft/seeds.h"
#include "src/soft/soft_fuzzer.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace {

using soft::CampaignOptions;
using soft::CampaignResult;
using soft::telemetry::MonotonicNowNs;

// Workload parameters (perfbench/NOTES.md explains each choice). The SOFT
// budgets exceed every case pool, so a campaign executes its whole pool and
// its cost does not depend on which cases the seed samples.
constexpr int kFleetBudget = 250000;
constexpr int kFleetUnits = 24;
constexpr int kFleetWorkers = 2;
constexpr int kLogicBudget = 250000;
constexpr int kBaselineBudget = 50000;

// Bug-inventory digest of virtuoso's full seeded crash set.
// DigestBugInventory folds only the dialect and the sorted bug ids, so it is
// the same at every seed once the full set is found.
constexpr uint64_t kVirtuosoFullSetDigest = 0x12ce3d5a08a97b5eull;

struct Args {
  std::string workload;
  std::string mode = "full";
  uint64_t seed = 1;
  bool trace = false;
  std::vector<std::string> oracles = {"all"};
  std::string spans_path;
  std::string socket_path;
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

// The benchmark's own spans around the public calls, plus the program's
// spans re-parented under them; written out once the iteration ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_ns_(MonotonicNowNs()) {}

  uint64_t Now() const { return MonotonicNowNs() - origin_ns_; }

  // Records a finished root benchmark span; returns its id.
  uint64_t Add(const std::string& source, const std::string& name, uint64_t start_ns,
               uint64_t end_ns) {
    const uint64_t id = ++next_id_;
    if (enabled_) {
      rows_.push_back(
          Row{source, "bench." + name, id, 0, start_ns, end_ns - start_ns, "-", "-", "-"});
    }
    return id;
  }

  // Appends the program's spans of one campaign. Span starts are relative
  // to the campaign's own clock origin, which is within microseconds of the
  // enclosing benchmark span's start, so they are shifted by that start;
  // root spans are re-parented under the benchmark span.
  void AddProgramTrace(const std::string& source, const soft::trace::TraceData& trace,
                       uint64_t parent, uint64_t offset_ns) {
    if (!enabled_) {
      return;
    }
    for (const soft::trace::TraceSpan& span : trace.spans) {
      Row row{source, std::string(soft::trace::SpanKindName(span.kind)), span.id,
              span.parent_id == 0 ? parent : span.parent_id, span.start_ns + offset_ns,
              span.dur_ns, "-", "-", "-"};
      for (const auto& [key, value] : span.args) {
        if (key == "pattern") {
          row.pattern = value;
        } else if (key == "outcome") {
          row.outcome = value;
        } else if (key == "oracle_verdict") {
          row.verdict = value;
        }
      }
      rows_.push_back(std::move(row));
    }
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const Row& r : rows_) {
      out << r.source << '\t' << r.kind << '\t' << r.id << '\t' << r.parent << '\t'
          << r.start_ns << '\t' << r.dur_ns << '\t' << r.pattern << '\t' << r.outcome
          << '\t' << r.verdict << '\n';
    }
    out.flush();
    return out.good();
  }

 private:
  struct Row {
    std::string source;
    std::string kind;
    uint64_t id;
    uint64_t parent;
    uint64_t start_ns;
    uint64_t dur_ns;
    std::string pattern;
    std::string outcome;
    std::string verdict;
  };

  bool enabled_;
  uint64_t origin_ns_;
  uint64_t next_id_ = 0;
  std::vector<Row> rows_;
};

// One campaign (a dialect run, a tool run or a fleet campaign) and its
// correctness verdict.
struct CampaignRecord {
  std::string name;
  CampaignResult result;
  double wall_s = 0;
  bool ok = false;
  std::string why;  // the failed check, empty when ok
};

std::string CampaignJson(const CampaignRecord& c) {
  const CampaignResult& r = c.result;
  std::map<std::string, int> bugs_by_pattern;
  for (const soft::FoundBug& bug : r.unique_bugs) {
    ++bugs_by_pattern[bug.found_by];
  }
  std::ostringstream out;
  out << "{\"name\":" << Quote(c.name) << ",\"tool\":" << Quote(r.tool)
      << ",\"dialect\":" << Quote(r.dialect) << ",\"statements\":" << r.statements_executed
      << ",\"sql_errors\":" << r.sql_errors << ",\"bugs\":" << r.unique_bugs.size()
      << ",\"logic_bugs\":" << r.logic_bugs.size() << ",\"logic_checks\":" << r.logic_checks
      << ",\"logic_false_positives\":" << r.logic_false_positives
      << ",\"bug_digest\":" << Quote(Hex(soft::DigestBugInventory(r)))
      << ",\"wall_s\":" << Num(c.wall_s) << ",\"ok\":" << (c.ok ? "true" : "false")
      << ",\"why\":" << Quote(c.why) << ",\"bugs_by_pattern\":{";
  bool first = true;
  for (const auto& [pattern, count] : bugs_by_pattern) {
    out << (first ? "" : ",") << Quote(pattern) << ":" << count;
    first = false;
  }
  out << "}}";
  return out.str();
}

CampaignOptions BaseOptions(const Args& args, int budget) {
  CampaignOptions options;
  options.seed = args.seed;
  options.max_statements = budget;
  options.trace_sample = args.trace ? 1 : 0;
  return options;
}

// Runs `fuzzer` against a fresh `dialect`, inside a benchmark span around
// Fuzzer::Run.
CampaignRecord RunCampaign(const std::string& name, const std::string& dialect,
                           soft::Fuzzer& fuzzer, const CampaignOptions& options,
                           SpanLog& spans, size_t* expected_bugs = nullptr) {
  CampaignRecord record;
  record.name = name;
  std::unique_ptr<soft::Database> db = soft::MakeDialect(dialect);
  if (db == nullptr) {
    record.why = "unknown dialect " + dialect;
    return record;
  }
  if (expected_bugs != nullptr) {
    *expected_bugs = db->faults().bug_count();
  }
  const uint64_t run_start = spans.Now();
  record.result = fuzzer.Run(*db, options);
  const uint64_t run_end = spans.Now();
  record.wall_s = static_cast<double>(run_end - run_start) / 1e9;
  const uint64_t run_id = spans.Add(name, "run", run_start, run_end);
  spans.AddProgramTrace(name, record.result.trace, run_id, run_start);
  record.ok = true;
  return record;
}

void Check(CampaignRecord& record, bool condition, const std::string& what) {
  if (!condition && record.ok) {
    record.ok = false;
    record.why = what;
  }
}

// The logic_oracles campaign's SOFT options: every pattern but P3.1. Over
// the whole pool its extreme-length cases, re-executed by every oracle,
// would take most of a run.
soft::SoftOptions LogicSoftOptions() {
  soft::SoftOptions soft_options;
  soft_options.only_patterns = {"P1.2", "P1.3", "P1.4", "P2.1",
                                "P2.2", "P2.3", "P3.2", "P3.3"};
  return soft_options;
}

std::vector<CampaignRecord> RunLogicOracles(const Args& args, SpanLog& spans) {
  const bool setup = args.mode == "setup";
  CampaignOptions options = BaseOptions(args, setup ? 1 : kLogicBudget);
  options.logic_oracles = args.oracles;
  soft::SoftFuzzer fuzzer(LogicSoftOptions());
  CampaignRecord record = RunCampaign("mariadb", "mariadb", fuzzer, options, spans);
  if (setup) {
    Check(record, record.result.statements_executed == 1, "setup ran != 1 statement");
  } else if (args.oracles == std::vector<std::string>{"all"}) {
    // A single oracle need not catch every seeded scope (TLP catches none).
    const size_t expected = static_cast<size_t>(soft::ExpectedLogicBugCount("mariadb"));
    Check(record, record.result.logic_bugs.size() == expected,
          "found " + std::to_string(record.result.logic_bugs.size()) + " of " +
              std::to_string(expected) + " seeded logic bugs");
  }
  if (!setup) {
    Check(record, record.result.logic_false_positives == 0,
          std::to_string(record.result.logic_false_positives) + " logic false positives");
  }
  std::vector<CampaignRecord> records;
  records.push_back(std::move(record));
  return records;
}

std::vector<CampaignRecord> RunBaselineTools(const Args& args, SpanLog& spans) {
  const int budget = args.mode == "setup" ? 1 : kBaselineBudget;
  std::vector<std::unique_ptr<soft::Fuzzer>> tools;
  tools.push_back(std::make_unique<soft::RandSmith>());
  tools.push_back(std::make_unique<soft::PqsGen>());
  tools.push_back(std::make_unique<soft::MutSquirrel>());
  std::vector<CampaignRecord> records;
  for (const std::unique_ptr<soft::Fuzzer>& tool : tools) {
    CampaignRecord record = RunCampaign(tool->name(), "postgresql", *tool,
                                        BaseOptions(args, budget), spans);
    Check(record, record.result.statements_executed == budget,
          "executed " + std::to_string(record.result.statements_executed) + " of " +
              std::to_string(budget) + " statements");
    records.push_back(std::move(record));
  }
  return records;
}

// The fleet campaign: coordinator in this process, workers forked.
std::vector<CampaignRecord> RunFleetUnits(const Args& args, SpanLog& spans,
                                          std::string& fleet_json) {
  const bool setup = args.mode == "setup";
  // One statement per unit in setup mode: unit u executes global case u.
  const CampaignOptions options = BaseOptions(args, setup ? kFleetUnits : kFleetBudget);
  soft::fleet::FleetOptions fleet;
  fleet.socket_path = args.socket_path;
  fleet.workers = kFleetWorkers;
  fleet.units = kFleetUnits;
  CampaignRecord record;
  record.name = "fleet";
  const double cpu_before = SelfCpuSeconds();
  const uint64_t start = spans.Now();
  soft::Result<soft::fleet::FleetOutcome> outcome =
      soft::fleet::RunFleetCampaign("virtuoso", options, fleet);
  const uint64_t end = spans.Now();
  const double coordinator_cpu_s = SelfCpuSeconds() - cpu_before;
  record.wall_s = static_cast<double>(end - start) / 1e9;
  std::vector<CampaignRecord> records;
  if (!outcome.ok()) {
    record.why = "fleet campaign failed: " + outcome.status().message();
    records.push_back(std::move(record));
    return records;
  }
  const uint64_t run_id = spans.Add("fleet", "run", start, end);
  spans.AddProgramTrace("fleet", outcome->result.trace, run_id, start);
  const soft::fleet::FleetStats& stats = outcome->stats;
  record.result = std::move(outcome->result);
  record.ok = true;
  if (setup) {
    Check(record, record.result.statements_executed == kFleetUnits,
          "setup ran " + std::to_string(record.result.statements_executed) +
              " statements, not one per unit");
  } else {
    // The whole pool finds the full seeded crash set, as the serial run does.
    Check(record, soft::DigestBugInventory(record.result) == kVirtuosoFullSetDigest,
          "found " + std::to_string(record.result.unique_bugs.size()) +
              " bugs, bug digest " + Hex(soft::DigestBugInventory(record.result)) +
              " != full set " + Hex(kVirtuosoFullSetDigest));
  }
  Check(record, stats.units_completed == kFleetUnits, "not every unit completed");
  Check(record, stats.worker_deaths == 0, "worker deaths");
  Check(record, stats.leases_reclaimed == 0, "leases reclaimed");
  Check(record, !stats.degraded_to_local && stats.units_run_locally == 0,
        "degraded to local execution");
  std::ostringstream out;
  out << "{\"coordinator_cpu_s\":" << Num(coordinator_cpu_s)
      << ",\"workers_spawned\":" << stats.workers_spawned
      << ",\"worker_deaths\":" << stats.worker_deaths
      << ",\"leases_granted\":" << stats.leases_granted
      << ",\"leases_reclaimed\":" << stats.leases_reclaimed
      << ",\"grants_redelivered\":" << stats.grants_redelivered
      << ",\"units_completed\":" << stats.units_completed << "}";
  fleet_json = out.str();
  records.push_back(std::move(record));
  return records;
}

// The untimed reference the fleet merge must equal: the same units as
// in-process partition shards. Not the serial run — partition shards are
// not serial-identical when a statement reads session state (NOTES.md).
std::vector<CampaignRecord> RunFleetReference(const Args& args) {
  CampaignRecord record;
  record.name = "fleet-reference";
  const uint64_t start = MonotonicNowNs();
  record.result =
      soft::RunShardedSoftCampaign("virtuoso", BaseOptions(args, kFleetBudget), kFleetUnits);
  record.wall_s = static_cast<double>(MonotonicNowNs() - start) / 1e9;
  record.ok = record.result.statements_executed > 0;
  if (!record.ok) {
    record.why = "reference executed nothing";
  }
  std::vector<CampaignRecord> records;
  records.push_back(std::move(record));
  return records;
}

// Times the public calls a SOFT campaign's setup is made of, and builds the
// workload's case pool from them as SoftFuzzer::Run does: the seeded logic
// PoCs (logic mode), the suite and corpus replay, then the generated cases,
// deduplicated together by statement text.
std::string RunLayers(const Args& args) {
  std::vector<std::string> constructed;  // the workload's MakeDialect calls
  std::vector<std::string> soft_dialects;
  const bool logic = args.workload == "logic_oracles";
  if (args.workload == "fleet_units") {
    constructed = soft_dialects = {"virtuoso"};
  } else if (logic) {
    // The campaign dialect plus the differential oracle's six siblings.
    constructed = {"mariadb"};
    for (const std::string& name : soft::AllDialectNames()) {
      if (name != "mariadb") {
        constructed.push_back(name);
      }
    }
    soft_dialects = {"mariadb"};
  } else {
    constructed = {"postgresql", "postgresql", "postgresql"};  // one per tool
  }
  std::vector<double> construct_ms;
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& name : constructed) {
      const uint64_t start = MonotonicNowNs();
      std::unique_ptr<soft::Database> db = soft::MakeDialect(name);
      construct_ms.push_back(Ms(MonotonicNowNs() - start));
    }
  }
  const soft::SoftOptions soft_options = logic ? LogicSoftOptions() : soft::SoftOptions();
  double collect_ms = 0;
  double generate_ms = 0;
  size_t corpus_exprs = 0;
  size_t pool_cases = 0;
  size_t pool_unique = 0;
  for (const std::string& name : soft_dialects) {
    std::unique_ptr<soft::Database> db = soft::MakeDialect(name);
    uint64_t start = MonotonicNowNs();
    const std::vector<std::string> suite = soft::SeedSuiteFor(name);
    const soft::FunctionCorpus corpus = soft::CollectCorpus(*db, suite);
    collect_ms += Ms(MonotonicNowNs() - start);
    corpus_exprs += corpus.expressions.size();
    std::vector<soft::GeneratedCase> cases;
    if (logic) {
      for (const soft::LogicBugSpec& spec : db->faults().AllLogicBugs()) {
        soft::Result<std::string> poc = soft::BuildLogicPocSql(*db, spec);
        if (poc.ok()) {
          cases.push_back(soft::GeneratedCase{std::move(poc).value(), "logic-seed"});
        }
      }
    }
    for (const std::string& seed : suite) {
      cases.push_back(soft::GeneratedCase{seed, "seed"});
    }
    for (const std::string& expr : corpus.expressions) {
      cases.push_back(soft::GeneratedCase{"SELECT " + expr, "seed"});
    }
    start = MonotonicNowNs();
    soft::PatternEngine engine(*db, args.seed, soft_options.patterns);
    for (const std::string& expr : corpus.expressions) {
      if (soft_options.only_patterns.empty()) {
        engine.GenerateAll(expr, corpus.expressions, cases);
      } else {
        for (const std::string& pattern : soft_options.only_patterns) {
          engine.GenerateOne(pattern, expr, corpus.expressions, cases);
        }
      }
    }
    generate_ms += Ms(MonotonicNowNs() - start);
    pool_cases += cases.size();
    std::unordered_set<std::string> unique;
    for (const soft::GeneratedCase& c : cases) {
      unique.insert(c.sql);
    }
    pool_unique += unique.size();
  }
  std::ostringstream out;
  out << "{\"construct_ms\":[";
  for (size_t i = 0; i < construct_ms.size(); ++i) {
    out << (i == 0 ? "" : ",") << Num(construct_ms[i]);
  }
  out << "],\"collect_ms\":" << Num(collect_ms) << ",\"generate_ms\":" << Num(generate_ms)
      << ",\"corpus_exprs\":" << corpus_exprs << ",\"pool_cases\":" << pool_cases
      << ",\"pool_unique\":" << pool_unique << "}";
  return out.str();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "soft_bench: %s\nusage: soft_bench --workload NAME --seed N "
               "[--mode full|setup|reference|layers] [--trace] [--oracles a,b] "
               "[--spans FILE] [--socket PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      args.trace = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage("missing flag value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--mode") {
      args.mode = value;
    } else if (flag == "--oracles") {
      args.oracles.clear();
      std::stringstream list(value);
      for (std::string name; std::getline(list, name, ',');) {
        args.oracles.push_back(name);
      }
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--socket") {
      args.socket_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool known_mode = args.mode == "full" || args.mode == "setup" ||
                          args.mode == "reference" || args.mode == "layers";
  if (!known_mode) {
    return Usage("unknown mode");
  }

  SpanLog spans(args.trace && !args.spans_path.empty());
  std::vector<CampaignRecord> records;
  std::string fleet_json = "null";
  std::string layers_json = "null";
  if (args.mode == "layers") {
    layers_json = RunLayers(args);
  } else if (args.workload == "logic_oracles") {
    records = RunLogicOracles(args, spans);
  } else if (args.workload == "baseline_tools") {
    records = RunBaselineTools(args, spans);
  } else if (args.workload == "fleet_units") {
    if (args.mode == "reference") {
      records = RunFleetReference(args);
    } else {
      if (args.socket_path.empty()) {
        return Usage("fleet_units needs --socket");
      }
      records = RunFleetUnits(args, spans, fleet_json);
    }
  } else {
    return Usage("unknown workload");
  }
  if (!args.spans_path.empty() && !spans.Write(args.spans_path)) {
    std::fprintf(stderr, "soft_bench: cannot write %s\n", args.spans_path.c_str());
    return 1;
  }

  std::ostringstream out;
  out << "{\"workload\":" << Quote(args.workload) << ",\"mode\":" << Quote(args.mode)
      << ",\"seed\":" << args.seed << ",\"build_type\":" << Quote(SOFT_BENCH_BUILD_TYPE)
      << ",\"compiler\":" << Quote(SOFT_BENCH_COMPILER) << ",\"campaigns\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    out << (i == 0 ? "" : ",") << CampaignJson(records[i]);
  }
  out << "],\"fleet\":" << fleet_json << ",\"layers\":" << layers_json << "}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
