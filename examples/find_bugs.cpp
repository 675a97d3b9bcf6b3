// Full bug-hunting campaign over one dialect (the Section 7 workflow):
// collect expressions, generate boundary arguments with all ten patterns,
// execute, and print a bug report per finding.
//
//   $ ./examples/find_bugs [dialect] [budget] [flags]
//   $ ./examples/find_bugs virtuoso 100000
//   $ ./examples/find_bugs duckdb 50000 --crash-mode=real --timeout-ms=200 \
//         --telemetry=journal.ndjson
//   $ ./examples/find_bugs --resume=journal.ndjson
//
// Flags:
//   --telemetry=<path>        stream the campaign's NDJSON event journal
//                             (docs/OBSERVABILITY.md) and spool every
//                             finished shard to <path>.units/, so an
//                             interrupted run leaves a resumable journal
//   --timeout-ms=<n>          statement watchdog deadline (docs/ROBUSTNESS.md)
//   --crash-mode=sim|real     realize triggered bugs as simulated results
//                             (default) or as real signals inside forked
//                             workers
//   --resume=<journal>        resume an interrupted campaign from its journal:
//                             dialect, budget, seed, unit count, stop rule,
//                             watchdog deadline and oracles come from the
//                             journal, spooled units are re-admitted, and
//                             the journal is appended to
//   --chaos=<spec>            arm failpoints before the campaign, e.g.
//                             --chaos='io.write=error,eval.enter=after:500'
//                             (docs/ROBUSTNESS.md lists modes and sites)
//   --chaos=list              print the failpoint site inventory and exit
//   --chaos=enumerate         run the chaos smoke oracle once per failpoint
//                             (non-zero exit when any site's oracle fails)
//   --chaos=fleet             run the fleet chaos oracle: each fleet.* site
//                             armed once during a real socket campaign, the
//                             merged digest must stay bit-identical
//   --chaos=net               run the partition-tolerance chaos oracle: each
//                             net.* frame/connection fault armed once during
//                             a real framed-socket campaign, the merged
//                             digest must stay bit-identical
//   --fleet=serve             run the campaign as a fleet coordinator: fork
//                             --workers=<n> worker processes, lease
//                             --units=<k> case-partition work units over
//                             --socket=<path> or --listen=<host:port>, merge
//                             deterministically (docs/ROBUSTNESS.md). With
//                             --telemetry the coordinator streams the lease
//                             journal, and --resume=<journal> resumes a
//                             killed coordinator
//   --fleet=attach            attach to a serving coordinator as one extra
//                             worker process (needs --socket or --connect)
//   --fleet=status            print a serving coordinator's NDJSON status
//                             snapshot and exit (needs --socket or --connect)
//   --socket=<path>           fleet Unix-domain socket (serve default:
//                             /tmp/soft_fleet.sock)
//   --listen=<host:port>      serve over TCP instead of the Unix socket
//                             (port 0 = kernel-assigned; the coordinator
//                             prints the resolved address)
//   --connect=<host:port>     attach/status over TCP instead of the socket
//   --hb-timeout-ms=<n>       fleet connection heartbeat timeout (default
//                             5000), distinct from --lease-ms: a silent
//                             connection is dropped but its session survives
//                             and resumes; only the lease deadline gives the
//                             unit away
//   --trace-slices            with --fleet=status: keep the connection open
//                             and tail live fleet_unit_done events plus each
//                             committed unit's TRS trace-span frames
//   --metrics                 with --fleet=status: print the coordinator's
//                             Prometheus text exposition (metric inventory:
//                             docs/OBSERVABILITY.md, "Metrics") and exit
//   --metrics-out=<path>      with --fleet=serve: write periodic Prometheus
//                             snapshots of the coordinator's metrics registry
//                             to <path> (atomic replace; a final snapshot is
//                             forced at campaign end)
//   --metrics-every-ms=<n>    snapshot cadence for --metrics-out (default
//                             2000)
//   --doctor-stall-leases=<n> campaign-health doctor stall SLO: flag a stall
//                             after <n> lease periods without any unit
//                             completion (default 3)
//   --workers=<n>             fleet worker processes to fork (default 2;
//                             0 = external attach workers only)
//   --units=<k>               fleet work units (default 8); the merged
//                             outcome digest equals --shards=<k> at any
//                             worker count
//   --lease-ms=<n>            fleet lease deadline (default 10000): a unit
//                             whose worker misses heartbeats this long is
//                             reclaimed and re-granted
//   --shards=<k>              split the campaign across k shards (case
//                             partitioning: the shards execute the serial
//                             run's cases, but a statement that reads
//                             session state can change a shard's outcome —
//                             the exact reference is another --shards=k run)
//   --trace=<path>            export a Perfetto-loadable Chrome trace-event
//                             JSON file of the campaign's span tree
//                             (docs/OBSERVABILITY.md, tools/check_trace_json.py)
//   --trace-sample=<n>        trace every nth statement (default 1 when
//                             --trace is given: every statement)
//   --oracle=<names>          run the wrong-result (logic-bug) oracles:
//                             comma list of eet, diff, norec, tlp, or 'all'.
//                             Arms the seeded wrong-result corpus, checks
//                             every successful SELECT, and reports logic
//                             bugs + a shard-invariant `logic digest`.
//                             Requires --crash-mode=sim (the default).
//
// Exit codes: 0 success, 1 bad usage / hard failure, 2 chaos oracle failed,
// 3 campaign finished but a unit result could not be spooled (a resume of
// its journal re-runs that unit), 4 fleet campaign finished but the health
// doctor saw a stall no worker acknowledged.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/failpoint/failpoint.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/worker_client.h"
#include "src/soft/chaos.h"
#include "src/soft/logic_oracle.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/unit_spool.h"
#include "src/telemetry/journal.h"

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [dialect] [budget] [--telemetry=<path>]\n"
               "          [--timeout-ms=<n>]\n"
               "          [--crash-mode=sim|real] [--resume=<journal>]\n"
               "          [--chaos=<spec>|list|enumerate|fleet] [--shards=<k>]\n"
               "          [--trace=<path>] [--trace-sample=<n>]\n"
               "          [--oracle=eet|diff|norec|tlp|all[,...]]\n"
               "          [--fleet=serve|attach|status] [--socket=<path>]\n"
               "          [--listen=<host:port>] [--connect=<host:port>]\n"
               "          [--workers=<n>] [--units=<k>] [--lease-ms=<n>]\n"
               "          [--hb-timeout-ms=<n>] [--trace-slices] [--metrics]\n"
               "          [--metrics-out=<path>] [--metrics-every-ms=<n>]\n"
               "          [--doctor-stall-leases=<n>]\n",
               argv0);
}

int PrintFailpointInventory() {
  std::printf("%-28s %-8s %s\n", "failpoint", "class", "site");
  for (const soft::failpoint::SiteInfo& site : soft::failpoint::kInventory) {
    std::printf("%-28s %-8s %s\n", site.name.data(),
                soft::failpoint::SiteClassName(site.site_class).data(),
                site.where.data());
  }
  std::printf("\nmodes: off | error | prob:<p> | after:<n>[:<fires>] | oom[:<n>]\n");
  std::printf("failpoints compiled %s\n",
              soft::failpoint::kCompiledIn ? "in" : "out (-DSOFT_FAILPOINTS=OFF)");
  return 0;
}

int RunChaosEnumerate(const std::string& dialect, int budget) {
  std::printf("=== chaos enumeration: %s, budget %d per smoke campaign ===\n\n",
              dialect.c_str(), budget);
  const soft::ChaosReport report =
      soft::RunChaosEnumeration(dialect, budget, /*include_worker_sites=*/true);
  if (!report.compiled_in) {
    std::printf("failpoints compiled out; nothing to inject\n");
    return 0;
  }
  for (const soft::ChaosSiteOutcome& outcome : report.outcomes) {
    std::printf("[%s] %-28s %-8s %s\n", outcome.ok ? "ok" : "FAIL",
                outcome.failpoint.c_str(), outcome.site_class.c_str(),
                outcome.detail.c_str());
  }
  std::printf("\n%zu sites, %s\n", report.outcomes.size(),
              report.ok() ? "all oracles held" : "ORACLE FAILURES above");
  return report.ok() ? 0 : 2;
}

int RunFleetChaos(const std::string& dialect, int budget, bool net) {
  std::printf("=== %s chaos enumeration: %s, budget %d per socket campaign ===\n\n",
              net ? "net" : "fleet", dialect.c_str(), budget);
  const soft::ChaosReport report =
      net ? soft::fleet::RunNetChaosEnumeration(dialect, budget)
          : soft::fleet::RunFleetChaosEnumeration(dialect, budget);
  if (!report.compiled_in) {
    std::printf("failpoints compiled out; nothing to inject\n");
    return 0;
  }
  for (const soft::ChaosSiteOutcome& outcome : report.outcomes) {
    std::printf("[%s] %-28s %-8s %s\n", outcome.ok ? "ok" : "FAIL",
                outcome.failpoint.c_str(), outcome.site_class.c_str(),
                outcome.detail.c_str());
  }
  std::printf("\n%zu %s sites, %s\n", report.outcomes.size(),
              net ? "net" : "fleet",
              report.ok() ? "all oracles held" : "ORACLE FAILURES above");
  return report.ok() ? 0 : 2;
}

bool ParseIntFlag(const char* arg, const char* name, int* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return false;
  }
  *out = std::atoi(arg + len);
  return true;
}

// Splits a comma-separated --oracle= value; empty items are rejected by the
// IsKnownLogicOracle check in main (an empty token is never a known oracle).
std::vector<std::string> SplitCommaList(const std::string& value) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= value.size()) {
    const size_t comma = value.find(',', start);
    if (comma == std::string::npos) {
      items.push_back(value.substr(start));
      break;
    }
    items.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

}  // namespace

int main(int argc, char** argv) {
  std::string telemetry_path;
  std::string resume_path;
  std::string chaos_spec;
  std::string trace_path;
  std::string crash_mode = "sim";
  std::string oracle_value;
  std::string fleet_mode;
  std::string socket_path;
  std::string listen_addr;
  std::string connect_addr;
  bool trace_slices = false;
  bool metrics = false;
  std::string metrics_out;
  int metrics_every_ms = 2000;
  int doctor_stall_leases = 3;
  int hb_timeout_ms = 5000;
  int timeout_ms = 0;
  int trace_sample = 0;       // 0: default (1 when --trace is given, else off)
  int shards = 1;
  int workers = 2;
  int units = 0;
  int lease_ms = 10000;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
      telemetry_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--resume=", 9) == 0) {
      resume_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--chaos=", 8) == 0) {
      chaos_spec = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--crash-mode=", 13) == 0) {
      crash_mode = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--oracle=", 9) == 0) {
      oracle_value = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--fleet=", 8) == 0) {
      fleet_mode = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      socket_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--listen=", 9) == 0) {
      listen_addr = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      connect_addr = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--trace-slices") == 0) {
      trace_slices = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (ParseIntFlag(argv[i], "--metrics-every-ms=", &metrics_every_ms) ||
               ParseIntFlag(argv[i], "--doctor-stall-leases=", &doctor_stall_leases) ||
               ParseIntFlag(argv[i], "--hb-timeout-ms=", &hb_timeout_ms) ||
               ParseIntFlag(argv[i], "--timeout-ms=", &timeout_ms) ||
               ParseIntFlag(argv[i], "--trace-sample=", &trace_sample) ||
               ParseIntFlag(argv[i], "--shards=", &shards) ||
               ParseIntFlag(argv[i], "--workers=", &workers) ||
               ParseIntFlag(argv[i], "--units=", &units) ||
               ParseIntFlag(argv[i], "--lease-ms=", &lease_ms)) {
      // parsed
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      PrintUsage(argv[0]);
      return 1;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (crash_mode != "sim" && crash_mode != "real") {
    std::fprintf(stderr, "--crash-mode must be 'sim' or 'real' (got '%s')\n",
                 crash_mode.c_str());
    PrintUsage(argv[0]);
    return 1;
  }
  if (timeout_ms < 0) {
    std::fprintf(stderr, "--timeout-ms must be >= 0\n");
    return 1;
  }
  if (trace_sample < 0) {
    std::fprintf(stderr, "--trace-sample must be >= 0\n");
    return 1;
  }
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 1;
  }
  if (!fleet_mode.empty() && fleet_mode != "serve" && fleet_mode != "attach" &&
      fleet_mode != "status") {
    std::fprintf(stderr, "--fleet must be serve, attach, or status (got '%s')\n",
                 fleet_mode.c_str());
    return 1;
  }
  if ((fleet_mode == "attach" || fleet_mode == "status") && socket_path.empty() &&
      connect_addr.empty()) {
    std::fprintf(stderr, "--fleet=%s needs --socket=<path> or --connect=<host:port>\n",
                 fleet_mode.c_str());
    return 1;
  }
  if (!listen_addr.empty() && fleet_mode != "serve") {
    std::fprintf(stderr, "--listen only makes sense with --fleet=serve\n");
    return 1;
  }
  if (!connect_addr.empty() && fleet_mode != "attach" && fleet_mode != "status") {
    std::fprintf(stderr, "--connect only makes sense with --fleet=attach|status\n");
    return 1;
  }
  if (trace_slices && fleet_mode != "status") {
    std::fprintf(stderr, "--trace-slices only makes sense with --fleet=status\n");
    return 1;
  }
  if (metrics && fleet_mode != "status") {
    std::fprintf(stderr, "--metrics only makes sense with --fleet=status\n");
    return 1;
  }
  if (metrics && trace_slices) {
    std::fprintf(stderr, "--metrics and --trace-slices are mutually exclusive\n");
    return 1;
  }
  if (!metrics_out.empty() && fleet_mode != "serve") {
    std::fprintf(stderr, "--metrics-out only makes sense with --fleet=serve\n");
    return 1;
  }
  if (metrics_every_ms <= 0) {
    std::fprintf(stderr, "--metrics-every-ms must be > 0\n");
    return 1;
  }
  if (doctor_stall_leases < 1) {
    std::fprintf(stderr, "--doctor-stall-leases must be >= 1\n");
    return 1;
  }
  if (hb_timeout_ms <= 0) {
    std::fprintf(stderr, "--hb-timeout-ms must be > 0\n");
    return 1;
  }
  if (fleet_mode == "serve") {
    if (crash_mode == "real") {
      std::fprintf(stderr,
                   "--fleet=serve runs simulated crash realization (workers are "
                   "already process isolation); drop --crash-mode=real\n");
      return 1;
    }
    if (shards != 1) {
      std::fprintf(stderr,
                   "--fleet=serve partitions by --units, not --shards; drop "
                   "--shards\n");
      return 1;
    }
    if (workers < 0 || units < 0 || lease_ms <= 0) {
      std::fprintf(stderr, "--workers/--units must be >= 0, --lease-ms > 0\n");
      return 1;
    }
  }
  if (trace_path.empty() && trace_sample > 0) {
    std::fprintf(stderr, "--trace-sample needs --trace=<path>\n");
    return 1;
  }
  if (!resume_path.empty() &&
      (!positional.empty() || shards != 1 || timeout_ms != 0 ||
       !oracle_value.empty() || !telemetry_path.empty())) {
    std::fprintf(stderr,
                 "--resume takes the campaign (dialect, budget, units, oracles, "
                 "watchdog deadline) from the journal and appends to it; drop "
                 "the positional arguments, --shards, --oracle, --timeout-ms "
                 "and --telemetry\n");
    return 1;
  }
  std::vector<std::string> oracle_names;
  if (!oracle_value.empty()) {
    oracle_names = SplitCommaList(oracle_value);
    for (const std::string& name : oracle_names) {
      if (!soft::IsKnownLogicOracle(name)) {
        std::fprintf(stderr,
                     "--oracle: unknown oracle '%s' (options: eet, diff, "
                     "norec, tlp, all)\n",
                     name.c_str());
        return 1;
      }
    }
    if (crash_mode == "real") {
      std::fprintf(stderr,
                   "--oracle needs simulated crash realization; drop "
                   "--crash-mode=real\n");
      return 1;
    }
  }

  if (chaos_spec == "list") {
    return PrintFailpointInventory();
  }
  if (chaos_spec == "enumerate") {
    const std::string dialect = !positional.empty() ? positional[0] : "virtuoso";
    const int budget = positional.size() > 1 ? std::atoi(positional[1]) : 0;
    return RunChaosEnumerate(dialect, budget > 0 ? budget : 600);
  }
  if (chaos_spec == "fleet" || chaos_spec == "net") {
    const std::string dialect = !positional.empty() ? positional[0] : "virtuoso";
    const int budget = positional.size() > 1 ? std::atoi(positional[1]) : 0;
    return RunFleetChaos(dialect, budget > 0 ? budget : 400, chaos_spec == "net");
  }
  if (!chaos_spec.empty()) {
    const soft::Status armed = soft::failpoint::ArmFromSpec(chaos_spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "--chaos spec rejected: %s\n",
                   armed.message().c_str());
      return 1;
    }
    std::printf("chaos: armed '%s'\n", chaos_spec.c_str());
  }

  if (fleet_mode == "status") {
    soft::fleet::FleetStatusRequest request;
    if (!connect_addr.empty()) {
      request.endpoint.tcp = connect_addr;
    } else {
      request.endpoint.socket_path = socket_path;
    }
    request.trace_slices = trace_slices;  // implies watch: stream until FIN
    request.metrics = metrics;  // one Prometheus exposition, then FIN
    const soft::Status streamed = soft::fleet::StreamFleetStatus(
        request, [](const std::string& line) {
          std::fputs(line.c_str(), stdout);
          std::fputc('\n', stdout);
          std::fflush(stdout);
          return true;
        });
    if (!streamed.ok()) {
      std::fprintf(stderr, "fleet status failed: %s\n",
                   streamed.message().c_str());
      return 1;
    }
    return 0;
  }
  if (fleet_mode == "attach") {
    soft::fleet::FleetWorkerOptions worker;
    worker.socket_path = socket_path;
    worker.tcp_connect = connect_addr;
    std::printf("fleet: attaching to %s\n",
                !connect_addr.empty() ? connect_addr.c_str() : socket_path.c_str());
    return soft::fleet::RunFleetWorker(worker);
  }

  soft::CampaignOptions options;
  // Logic campaigns keep running after the crash-bug corpus is exhausted:
  // the wrong-result seeds are found by oracle checks, not crash dedup, and
  // the metamorphic sweep over clean statements is the point of the run.
  options.stop_when_all_bugs_found = oracle_names.empty();
  options.logic_oracles = oracle_names;
  options.crash_realism = crash_mode == "real" ? soft::CrashRealism::kReal
                                               : soft::CrashRealism::kSimulated;
  options.statement_limits.deadline_ms = timeout_ms;
  if (!trace_path.empty()) {
    options.trace_sample = trace_sample > 0 ? trace_sample : 1;
  }

  // A resume — local or fleet — runs the campaign its journal describes
  // (src/soft/unit_spool.h); only crash realism and tracing stay local.
  soft::UnitResume resume;
  std::string dialect = !positional.empty() ? positional[0] : "virtuoso";
  if (!resume_path.empty()) {
    soft::Result<soft::UnitResume> loaded = soft::LoadUnitResume(resume_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot resume: %s\n", loaded.status().message().c_str());
      return 1;
    }
    resume = std::move(loaded).value();
    dialect = resume.dialect;
    const soft::CrashRealism crash_realism = options.crash_realism;
    const int sample = options.trace_sample;
    options = resume.options;
    options.crash_realism = crash_realism;
    options.trace_sample = sample;
    std::printf("=== SOFT %s (resuming %s) ===\n",
                fleet_mode == "serve" ? "fleet campaign" : "bug-hunting campaign",
                resume_path.c_str());
    std::printf("target:  %s, budget %d, seed %llu, %zu of %d units journaled "
                "complete%s\n\n",
                dialect.c_str(), options.max_statements,
                static_cast<unsigned long long>(options.seed), resume.completed.size(),
                resume.units,
                resume.finished ? " (the journal already holds a finished campaign)"
                                : "");
  } else {
    options.max_statements = positional.size() > 1 ? std::atoi(positional[1]) : 150000;
    if (soft::MakeDialect(dialect) == nullptr) {
      std::fprintf(stderr, "unknown dialect '%s'; options:", dialect.c_str());
      for (const std::string& name : soft::AllDialectNames()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 1;
    }
  }

  soft::CampaignResult result;
  std::vector<std::string> spool_failures;
  const std::string journal_path = !resume_path.empty() ? resume_path : telemetry_path;
  bool fleet_stall_unacked = false;

  if (fleet_mode == "serve") {
    // --- fleet coordinator ---------------------------------------------------
    soft::fleet::FleetOptions fopts;
    fopts.socket_path = socket_path.empty() ? "/tmp/soft_fleet.sock" : socket_path;
    fopts.tcp_listen = listen_addr;
    fopts.workers = workers;
    fopts.units = resume_path.empty() ? units : resume.units;
    fopts.lease_deadline_ms = lease_ms;
    fopts.heartbeat_timeout_ms = hb_timeout_ms;
    fopts.journal_path = journal_path;
    fopts.resume = !resume_path.empty();
    fopts.metrics_out = metrics_out;
    fopts.metrics_every_ms = metrics_every_ms;
    fopts.doctor_stall_leases = doctor_stall_leases;
    if (!fopts.resume) {
      std::printf("=== SOFT fleet campaign ===\n");
      std::printf("target:  %s, budget %d statements  [%d workers, %d units, "
                  "%s %s]\n\n",
                  dialect.c_str(), options.max_statements, fopts.workers,
                  fopts.units > 0 ? fopts.units : soft::fleet::kDefaultUnits,
                  listen_addr.empty() ? "socket" : "tcp",
                  listen_addr.empty() ? fopts.socket_path.c_str()
                                      : listen_addr.c_str());
    }
    soft::Result<soft::fleet::FleetOutcome> outcome =
        soft::fleet::RunFleetCampaign(dialect, options, fopts);
    if (!outcome.ok()) {
      std::fprintf(stderr, "fleet campaign failed: %s\n",
                   outcome.status().message().c_str());
      return 1;
    }
    const soft::fleet::FleetStats& stats = outcome->stats;
    const auto u64 = [](uint64_t v) { return static_cast<unsigned long long>(v); };
    std::printf("fleet: %llu units over %llu spawned workers (%llu deaths), %llu "
                "leases granted (%llu stolen, %llu reclaimed), %llu heartbeats, "
                "%llu units resumed, %llu run locally%s\n",
                u64(stats.units), u64(stats.workers_spawned), u64(stats.worker_deaths),
                u64(stats.leases_granted), u64(stats.leases_stolen),
                u64(stats.leases_reclaimed), u64(stats.heartbeats),
                u64(stats.units_resumed), u64(stats.units_run_locally),
                stats.degraded_to_local ? "  [degraded to local execution]" : "");
    if (stats.sessions_resumed > 0 || stats.conns_dropped > 0 ||
        stats.dup_results_deduped > 0) {
      std::printf("fleet net: %llu conn(s) dropped, %llu session(s) resumed, "
                  "%llu grant(s) redelivered, %llu dup result(s) deduped\n",
                  u64(stats.conns_dropped), u64(stats.sessions_resumed),
                  u64(stats.grants_redelivered), u64(stats.dup_results_deduped));
    }
    std::printf("fleet health: %s (%s), %llu transition(s), %llu stall(s)%s\n",
                stats.health.c_str(), stats.health_reason.c_str(),
                u64(stats.health_transitions), u64(stats.health_stalls),
                stats.health_stall_unacked ? "  [STALL UNACKNOWLEDGED]" : "");
    if (!metrics_out.empty() && stats.metrics_snapshots > 0) {
      std::printf("fleet metrics: %llu snapshot(s) to %s\n",
                  u64(stats.metrics_snapshots), metrics_out.c_str());
    }
    fleet_stall_unacked = stats.health_stall_unacked;
    spool_failures = stats.spool_failures;
    if (!listen_addr.empty()) {
      std::printf("fleet bound: %s\n", stats.bound_address.c_str());
    }
    if (!fopts.journal_path.empty()) {
      std::printf("fleet journal: %s  (unit spool: %s)\n", fopts.journal_path.c_str(),
                  soft::SpoolDirFor(fopts.journal_path).c_str());
    }
    std::printf("\n");
    result = std::move(outcome->result);
  } else {
    // --- local campaign: serial or --shards, journaled and resumable -------
    if (resume_path.empty()) {
      std::unique_ptr<soft::Database> db = soft::MakeDialect(dialect);
      std::printf("=== SOFT bug-hunting campaign ===\n");
      std::printf("target:  %s (%zu functions, strict casts: %s)\n",
                  dialect.c_str(), db->registry().size(),
                  db->config().cast_options.strict ? "yes" : "no");
      std::printf("budget:  %d statements", options.max_statements);
      if (shards > 1) {
        std::printf("  [%d shards]", shards);
      }
      if (options.crash_realism == soft::CrashRealism::kReal) {
        std::printf("  [real-crash workers]");
      }
      if (timeout_ms > 0) {
        std::printf("  [watchdog %d ms]", timeout_ms);
      }
      if (!oracle_names.empty()) {
        std::printf("  [oracles:");
        for (const std::string& name : oracle_names) {
          std::printf(" %s", name.c_str());
        }
        std::printf("]");
      }
      std::printf("\n\n");
    }
    if (journal_path.empty()) {
      result = soft::RunShardedSoftCampaign(dialect, options, shards);
    } else {
      soft::Result<soft::SpooledRun> run =
          resume_path.empty()
              ? soft::RunSpooledSoftCampaign(journal_path, dialect, options, shards,
                                             chaos_spec)
              : soft::ResumeSpooledSoftCampaign(journal_path, resume, options,
                                                chaos_spec);
      if (!run.ok()) {
        std::fprintf(stderr, "campaign failed: %s\n", run.status().message().c_str());
        return 1;
      }
      if (!resume_path.empty()) {
        std::printf("resume: %d of %d units re-admitted from the spool (%d failed "
                    "the digest check and re-ran)\n\n",
                    run->units_resumed, resume.units, run->units_spool_diverged);
      }
      result = std::move(run->result);
      spool_failures = std::move(run->spool_failures);
    }
  }

  std::printf("campaign finished: %d statements (%d SQL errors, %d crashes observed, "
              "%d resource-limit false positives, %d watchdog timeouts)\n\n",
              result.statements_executed, result.sql_errors, result.crashes_observed,
              result.false_positives, result.watchdog_timeouts);
  std::printf("coverage: %zu functions triggered, %zu branches covered\n\n",
              result.functions_triggered, result.branches_covered);

  std::map<std::string, int> by_pattern;
  std::map<std::string, int> by_crash;
  std::printf("--- %zu unique bugs (expected for this dialect: %d) ---\n",
              result.unique_bugs.size(), soft::ExpectedBugCount(dialect));
  for (const soft::FoundBug& bug : result.unique_bugs) {
    by_pattern[bug.found_by] += 1;
    by_crash[std::string(soft::CrashTypeName(bug.crash.crash))] += 1;
    std::printf("\nBUG-%s-%d  [%s] in %s (%s stage)\n", dialect.c_str(),
                bug.crash.bug_id, soft::CrashTypeLongName(bug.crash.crash).data(),
                bug.crash.function.c_str(), soft::StageName(bug.crash.stage).data());
    std::printf("  found by pattern %s after %d statements\n", bug.found_by.c_str(),
                bug.statements_until_found);
    std::printf("  PoC: %s\n", bug.poc_sql.c_str());
    std::printf("  %s\n", bug.crash.description.c_str());
  }

  std::printf("\n--- summary ---\nby pattern: ");
  for (const auto& [pattern, count] : by_pattern) {
    std::printf("%s:%d  ", pattern.c_str(), count);
  }
  std::printf("\nby crash type: ");
  for (const auto& [crash, count] : by_crash) {
    std::printf("%s:%d  ", crash.c_str(), count);
  }
  std::printf("\n");

  if (!oracle_names.empty()) {
    std::printf("\n--- wrong-result oracles: %zu logic bugs "
                "(expected for this dialect: %d) ---\n",
                result.logic_bugs.size(), soft::ExpectedLogicBugCount(dialect));
    std::printf("%d oracle checks, %d divergences, %d false positives\n",
                result.logic_checks, result.logic_divergences,
                result.logic_false_positives);
    for (const soft::FoundLogicBug& bug : result.logic_bugs) {
      std::printf("\nLBUG-%s-%d  [%s/%s] in %s\n", dialect.c_str(),
                  bug.info.bug_id, soft::LogicEffectName(bug.info.effect).data(),
                  soft::LogicScopeName(bug.info.scope).data(),
                  bug.info.function.c_str());
      std::printf("  flagged by the %s oracle after %d statements (case %d)\n",
                  bug.oracle.c_str(), bug.statements_until_found, bug.case_index);
      std::printf("  PoC: %s\n", bug.poc_sql.c_str());
      std::printf("  witness: %s — %s\n", bug.witness.c_str(), bug.detail.c_str());
    }
    std::printf("\n");
  }

  // Stable digest over the result's deterministic fields — CI compares this
  // line across traced/untraced and sim/real runs to prove observability
  // never perturbs outcomes.
  std::printf("outcome digest: 0x%016llx\n",
              static_cast<unsigned long long>(soft::DigestCampaignResult(result)));
  // Bug-inventory digest: invariant across serial, --shards=k, and fleet
  // forms of the same campaign — the parity line the asan-fleet lane greps.
  std::printf("bug digest: 0x%016llx\n",
              static_cast<unsigned long long>(soft::DigestBugInventory(result)));
  if (!oracle_names.empty()) {
    // Shard-invariant digest over the logic outcome alone — CI compares this
    // line between the serial and --shards=k forms of the same campaign.
    std::printf("logic digest: 0x%016llx\n",
                static_cast<unsigned long long>(soft::DigestLogicOutcome(result)));
  }

  if (!trace_path.empty()) {
    const soft::Status wrote = soft::telemetry::WriteChromeTraceFile(trace_path, result);
    if (!wrote.ok()) {
      std::fprintf(stderr, "failed to write trace '%s': %s\n", trace_path.c_str(),
                   wrote.message().c_str());
      return 1;
    }
    std::printf("wrote Chrome trace (%zu spans) to %s\n", result.trace.spans.size(),
                trace_path.c_str());
  }

  if (!journal_path.empty() && fleet_mode.empty()) {
    std::printf("wrote NDJSON journal to %s  (unit spool: %s)\n", journal_path.c_str(),
                soft::SpoolDirFor(journal_path).c_str());
  }
  if (result.journal_degraded) {
    for (const std::string& failure : spool_failures) {
      std::fprintf(stderr, "warning: %s\n", failure.c_str());
    }
    std::fprintf(stderr,
                 "warning: journal '%s' degraded: the bug report above is "
                 "complete, but a resume re-runs the unit(s) named above\n",
                 journal_path.c_str());
    return 3;
  }
  if (fleet_stall_unacked) {
    std::fprintf(stderr,
                 "warning: the health doctor flagged a stall that no worker "
                 "acknowledged before shutdown; the merged report above is "
                 "complete but the fleet wedged mid-campaign\n");
    return 4;
  }
  return 0;
}
