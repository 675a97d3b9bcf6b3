// Failpoint fault injection for the harness's own error paths.
//
// The paper's core finding is that DBMS bugs hide in rarely-exercised
// boundary and error paths — and the same is true of the fuzzing harness
// itself: allocation failures, short or failed writes, torn journals and a
// failed spool commit are exactly the paths a long campaign exercises only
// when something is already going wrong. This registry lets tests and chaos
// campaigns (docs/ROBUSTNESS.md, "Failpoints and chaos campaigns") arm those
// paths deterministically and prove the campaign degrades gracefully instead
// of crashing or corrupting state.
//
// Usage at an instrumented site (Status- or Result<T>-returning function):
//
//   Status Database::CreateTable(...) {
//     SOFT_FAILPOINT("catalog.create");   // returns InjectedStatus when fired
//     ...
//   }
//
// or, where the site handles the fault itself (retry loops, degradation):
//
//   if (SOFT_FAILPOINT_HIT("io.eintr")) { /* simulate EINTR */ }
//
// Modes (armed via Arm or the --chaos spec syntax, see ArmFromSpec):
//
//   off          never fires
//   error        fires on every evaluation
//   prob:P       fires with probability P per evaluation (deterministic
//                generator, reseedable via SetProbabilitySeed)
//   after:N[:M]  passes the first N evaluations, then fires (at most M
//                times when M is given, forever otherwise)
//   oom[:N]      throws std::bad_alloc ([after N passes]); the engine's
//                statement pipeline catches it and surfaces
//                kResourceExhausted
//
// Zero overhead when disabled: with -DSOFT_FAILPOINTS=OFF every macro folds
// to nothing and the API below collapses to inline no-op stubs, so no object
// in the tree references a registry symbol (CI proves it with an nm guard,
// mirroring the telemetry guard). With failpoints compiled in but none
// armed, each site costs one relaxed atomic load.
//
// Determinism: every mode is a pure function of the site's evaluation
// counter (and the reseedable probability stream) — never of wall clock or
// address-space layout. Counters are process-global, so after-N firing in a
// *threaded* sharded campaign depends on shard interleaving; the chaos
// oracle therefore demands bit-identical campaign results only for sites
// whose faults are retried or absorbed (SiteClass kIoRetry / kDegrade),
// which hold regardless of which thread drew the injected failure.
#ifndef SRC_FAILPOINT_FAILPOINT_H_
#define SRC_FAILPOINT_FAILPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace soft {
namespace failpoint {

enum class Mode {
  kOff = 0,
  kError,        // fire every evaluation
  kProbability,  // fire with probability p
  kAfterN,       // pass N evaluations, then fire (optionally at most M times)
  kOomThrow,     // throw std::bad_alloc instead of returning an error
};

// What kind of failure a site injects — drives both the Status code the
// SOFT_FAILPOINT macro returns and the chaos enumerator's oracle for the
// site (src/soft/chaos.h).
enum class SiteClass {
  // Statement-pipeline site: the fault surfaces as kResourceExhausted on the
  // statement, which campaigns already classify (false positive / SQL
  // error). Oracle: campaign completes cleanly and is run-to-run
  // deterministic under the same armed spec.
  kEngine,
  // Transient I/O site inside a retry loop (EINTR, short write): the site
  // absorbs the fault. Oracle: campaign results and artifacts bit-identical
  // to the uninjected run.
  kIoRetry,
  // Persistent I/O site (open/write/fsync/rename of an artifact file): the
  // fault surfaces as kIoError naming the path, and no partial artifact is
  // left behind. Oracle: the caller reports the error; retrying after
  // disarm produces the identical artifact.
  kIoError,
  // Unit-spool site: a finished unit's result is not committed (no spool
  // file, no `lease complete` record); the campaign continues and records
  // CampaignResult::journal_degraded. Oracle: outcome digest identical to the
  // uninjected run, journal_degraded set, and a resume re-runs exactly the
  // uncommitted unit.
  kDegrade,
  // Network-transport site (the fleet's framed wire, src/soft/wire.cc): the
  // fault is a lost/corrupted/duplicated/torn frame or a dead connection.
  // Oracle: the frame CRC + sequence validation and the fleet's
  // session-resume ladder absorb it — the merged campaign digest stays
  // bit-identical to the uninjected sharded reference
  // (soft::fleet::RunNetChaosEnumeration, find_bugs --chaos=net).
  kNet,
};

inline std::string_view SiteClassName(SiteClass site_class) {
  switch (site_class) {
    case SiteClass::kEngine:
      return "engine";
    case SiteClass::kIoRetry:
      return "io-retry";
    case SiteClass::kIoError:
      return "io-error";
    case SiteClass::kDegrade:
      return "degrade";
    case SiteClass::kNet:
      return "net";
  }
  return "unknown";
}

struct SiteInfo {
  std::string_view name;
  SiteClass site_class;
  std::string_view where;  // instrumented location (docs/ROBUSTNESS.md table)
};

// Central inventory of every instrumented site. ChaosEnumerator iterates
// this table; Arm/ArmFromSpec reject names that are not in it, so the table
// cannot silently drift from the instrumentation (tests/failpoint_test.cc
// cross-checks the macro call sites against it).
inline constexpr std::array<SiteInfo, 32> kInventory = {{
    {"parse.enter", SiteClass::kEngine, "ParseStatement entry (src/sqlparser/parser.cc)"},
    {"parse.expr", SiteClass::kEngine, "expression parser (src/sqlparser/parser.cc)"},
    {"optimize.enter", SiteClass::kEngine, "OptimizeStatement entry (src/engine/optimizer.cc)"},
    {"optimize.expr", SiteClass::kEngine, "optimizer expression walk (src/engine/optimizer.cc)"},
    {"eval.enter", SiteClass::kEngine, "Evaluator::Eval entry (src/engine/evaluator.cc)"},
    {"eval.function", SiteClass::kEngine, "function-call evaluation (src/engine/evaluator.cc)"},
    {"eval.subquery", SiteClass::kEngine, "scalar subquery evaluation (src/engine/evaluator.cc)"},
    {"exec.select", SiteClass::kEngine, "RunSelect entry (src/engine/select_executor.cc)"},
    {"catalog.create", SiteClass::kEngine, "Database::CreateTable (src/engine/database.cc)"},
    {"catalog.drop", SiteClass::kEngine, "Database::DropTable (src/engine/database.cc)"},
    {"catalog.insert", SiteClass::kEngine, "Database::Insert (src/engine/database.cc)"},
    {"spool.commit", SiteClass::kDegrade,
     "UnitSpool::Commit, before the spool write (src/soft/unit_spool.cc)"},
    {"io.eintr", SiteClass::kIoRetry, "RetryingWriter::WriteAll (src/util/io.cc)"},
    {"io.short_write", SiteClass::kIoRetry, "RetryingWriter::WriteAll (src/util/io.cc)"},
    {"io.open", SiteClass::kIoError, "WriteFileAtomic open (src/util/io.cc)"},
    {"io.write", SiteClass::kIoError, "WriteFileAtomic write (src/util/io.cc)"},
    {"io.fsync", SiteClass::kIoError, "WriteFileAtomic fsync (src/util/io.cc)"},
    {"io.rename", SiteClass::kIoError, "WriteFileAtomic rename (src/util/io.cc)"},
    {"worker.fork", SiteClass::kIoRetry, "worker fork (src/soft/worker.cc)"},
    {"worker.pipe_write", SiteClass::kIoRetry, "worker pipe line write (src/soft/worker.cc)"},
    {"worker.pipe_read", SiteClass::kIoRetry, "supervisor pipe read (src/soft/worker.cc)"},
    // Fleet sites are kIoRetry: the coordinator absorbs each fault through
    // reconnect / lease-reclaim / work-stealing, and the merged campaign
    // stays bit-identical. Their oracles live in the fleet's own enumerator
    // (soft::fleet::RunFleetChaosEnumeration) because the core chaos library
    // cannot depend on the fleet library; RunChaosEnumeration reports them
    // as delegated.
    {"fleet.accept", SiteClass::kIoRetry, "coordinator accept (src/fleet/coordinator.cc)"},
    {"fleet.lease_grant", SiteClass::kIoRetry, "lease GRANT send (src/fleet/coordinator.cc)"},
    {"fleet.heartbeat_rx", SiteClass::kIoRetry, "heartbeat receive (src/fleet/coordinator.cc)"},
    {"fleet.result_rx", SiteClass::kIoRetry, "unit result receive (src/fleet/coordinator.cc)"},
    {"fleet.worker_spawn", SiteClass::kIoRetry, "worker spawn (src/fleet/coordinator.cc)"},
    // net.* sites instrument the fleet's framed transport. The five send-side
    // sites live in wire::FramedWriter::WriteLine; accept_storm in the
    // coordinator's accept path. Like fleet.*, their oracles are delegated
    // to soft::fleet::RunNetChaosEnumeration (find_bugs --chaos=net).
    {"net.frame_drop", SiteClass::kNet, "framed send: frame lost in transit (src/soft/wire.cc)"},
    {"net.frame_corrupt", SiteClass::kNet, "framed send: bit flip after checksum (src/soft/wire.cc)"},
    {"net.frame_dup", SiteClass::kNet, "framed send: frame delivered twice (src/soft/wire.cc)"},
    {"net.frame_delay", SiteClass::kNet, "framed send: tail bytes held until the next send (src/soft/wire.cc)"},
    {"net.conn_reset", SiteClass::kNet, "framed send: connection reset mid-frame (src/soft/wire.cc)"},
    {"net.accept_storm", SiteClass::kNet, "coordinator accept: junk bytes precede the handshake (src/fleet/coordinator.cc)"},
}};

// Inventory lookup; nullptr for unknown names. Header-inline so it exists in
// every build configuration without referencing the registry library.
inline const SiteInfo* FindSite(std::string_view name) {
  for (const SiteInfo& site : kInventory) {
    if (site.name == name) {
      return &site;
    }
  }
  return nullptr;
}

// True when the registry is compiled in (-DSOFT_FAILPOINTS=ON, the default).
#ifdef SOFT_FAILPOINTS_ENABLED
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

struct SiteStats {
  uint64_t evaluations = 0;  // times the armed site was evaluated
  uint64_t fires = 0;        // times it injected a fault
};

#ifdef SOFT_FAILPOINTS_ENABLED

// True when at least one failpoint is armed (one relaxed atomic load — the
// whole per-site cost of an idle registry).
bool AnyArmed();

// Evaluates the armed configuration for `name`; true means the site must
// inject its fault now. Throws std::bad_alloc when the site is armed in
// kOomThrow mode and elects to fire. Unarmed/unknown names never fire.
// Thread-safe; the evaluation counter orders concurrent calls arbitrarily
// (see the determinism note above).
bool Evaluate(std::string_view name);

// Arms `name` (resetting its counters). `skip` = evaluations to pass before
// the site becomes eligible; `fire_limit` = maximum fires (-1 unlimited);
// `probability` only read in kProbability mode. Mode kOff disarms. Fails on
// names missing from kInventory and on probabilities outside [0, 1].
Status Arm(std::string_view name, Mode mode, double probability = 0.0,
           uint64_t skip = 0, int64_t fire_limit = -1);

// Arms a comma-separated chaos spec: "name=mode[:a[:b]]{,name=...}", e.g.
//   --chaos=eval.enter=after:50,io.short_write=after:0:3
//   --chaos=spool.commit=after:1:1
//   --chaos=eval.function=prob:0.01
// Fails (arming nothing further) on the first malformed entry.
Status ArmFromSpec(std::string_view spec);

// Disarm one site / every site. DisarmAll also resets the probability
// stream so consecutive chaos runs are reproducible.
void Disarm(std::string_view name);
void DisarmAll();

// Reseeds the deterministic generator behind prob:P sites (default seed is
// fixed, so runs are reproducible without calling this).
void SetProbabilitySeed(uint64_t seed);

// Counters for an armed site (zeroes for unarmed/unknown names).
SiteStats Stats(std::string_view name);

// The Status the SOFT_FAILPOINT macro returns for a fired site, derived
// from the site's class: kEngine → kResourceExhausted, the I/O classes →
// kIoError. Deterministic (the message names only the site).
Status InjectedStatus(std::string_view name);

#else  // !SOFT_FAILPOINTS_ENABLED — the API folds to inline no-op stubs so
       // nothing in the tree references a registry symbol (nm-guarded in CI).

inline bool AnyArmed() { return false; }
inline bool Evaluate(std::string_view) { return false; }
inline Status Arm(std::string_view, Mode, double = 0.0, uint64_t = 0, int64_t = -1) {
  return Unsupported("failpoints compiled out (-DSOFT_FAILPOINTS=OFF)");
}
inline Status ArmFromSpec(std::string_view) {
  return Unsupported("failpoints compiled out (-DSOFT_FAILPOINTS=OFF)");
}
inline void Disarm(std::string_view) {}
inline void DisarmAll() {}
inline void SetProbabilitySeed(uint64_t) {}
inline SiteStats Stats(std::string_view) { return {}; }
inline Status InjectedStatus(std::string_view) { return OkStatus(); }

#endif  // SOFT_FAILPOINTS_ENABLED

// RAII arm/disarm for tests: arms in the constructor, disarms that site on
// destruction. No-op (status() reports Unsupported) when compiled out.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string_view name, Mode mode, double probability = 0.0,
                  uint64_t skip = 0, int64_t fire_limit = -1)
      : name_(name), status_(Arm(name, mode, probability, skip, fire_limit)) {}
  ~ScopedFailpoint() { Disarm(name_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  const Status& status() const { return status_; }

 private:
  std::string name_;
  Status status_;
};

}  // namespace failpoint
}  // namespace soft

// Site macros. SOFT_FAILPOINT returns InjectedStatus out of the enclosing
// Status-/Result<T>-returning function when the site fires; SOFT_FAILPOINT_HIT
// is the bare boolean for sites that absorb the fault themselves.
#ifdef SOFT_FAILPOINTS_ENABLED

#define SOFT_FAILPOINT_HIT(name) \
  (::soft::failpoint::AnyArmed() && ::soft::failpoint::Evaluate(name))

#define SOFT_FAILPOINT(name)                          \
  do {                                                \
    if (SOFT_FAILPOINT_HIT(name)) {                   \
      return ::soft::failpoint::InjectedStatus(name); \
    }                                                 \
  } while (false)

#else

#define SOFT_FAILPOINT_HIT(name) (false)
#define SOFT_FAILPOINT(name) \
  do {                       \
  } while (false)

#endif  // SOFT_FAILPOINTS_ENABLED

#endif  // SRC_FAILPOINT_FAILPOINT_H_
