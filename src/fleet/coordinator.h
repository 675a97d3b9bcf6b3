// Fleet coordinator: lease-based campaign distribution over a framed socket
// protocol — Unix-domain on one host, TCP across hosts (docs/ROBUSTNESS.md).
//
// RunFleetCampaign promotes one SOFT campaign into a coordinator process
// that partitions the case order into `units` fixed work units (shards of a
// PlanShards case-partition plan — the unit count, not the worker count,
// defines the partition), leases them to worker processes speaking the
// src/fleet/worker_client.h framed protocol, and merges the returned unit
// results with the deterministic shard merge. Every connection carries
// CRC32-checked, sequence-numbered frames (src/soft/wire.h), so the
// protocol survives a hostile network: corrupted frames are rejected
// structurally, duplicated frames are dropped by sequence, lost frames
// condemn only the connection — the worker's *session* survives and
// resumes over the next connection (the coordinator re-delivers any GRANT
// whose result it never saw, and deduplicates double-delivered unit
// results, so at-least-once delivery stays exactly-once at merge).
// Consequences, all by construction:
//
//   * the merged outcome digest is bit-identical to `--shards=units` at any
//     worker count. The units execute the serial campaign's cases, but a
//     statement that reads session state can make a unit's outcome — and
//     so the bug-inventory digest — differ from the serial run; the exact
//     reference for a fleet is `--shards=units`;
//   * a worker crash loses nothing: its leases expire (missed heartbeats)
//     or are reclaimed on disconnect, surviving workers steal the units,
//     and the re-executed unit produces the identical result;
//   * the coordinator journals every lease transition (NDJSON `lease`,
//     `worker_death`, `fleet_finish` events — docs/OBSERVABILITY.md) and
//     commits completed unit results through the unit spool
//     (src/soft/unit_spool.h) that serial and --shards runs use too, so
//     `resume = true` after a coordinator kill -9 re-admits spooled units
//     whose recomputed digest matches the journal and re-runs only the
//     rest — whichever executor wrote the journal.
//
// Degrade ladder when the worker pool collapses (respawn budget exhausted,
// or workers == 0 and nothing attached within the lease deadline): the
// coordinator runs the remaining units in-process via ExecuteShardPlan —
// the campaign always completes, merely slower.
//
// A read-only STATUS request on the same socket streams an NDJSON snapshot
// (campaign counters, per-pattern telemetry of merged-so-far units,
// worker/lease state, doctor health, recent journal events) and closes;
// "STATUS watch [trace]" keeps the connection open and streams unit
// completions (and, with trace, the unit's TRS trace-span frames) live as
// they commit. A METRICS request instead returns one Prometheus
// text-exposition snapshot of the unified metrics registry
// (docs/OBSERVABILITY.md, "Metrics") and closes. Status/metrics writes are
// nonblocking with a bounded per-client buffer — a stuck reader is
// disconnected, never allowed to stall the coordinator.
//
// A campaign-health doctor (src/fleet/doctor.h) rides the coordinator poll
// loop: rolling-window rates feed SLO rules (stall / reclaim spike /
// journal degraded / throughput collapse) whose transitions are journaled
// as `health` events, surfaced in STATUS and watch streams, and — for an
// unacknowledged stall — reported in FleetStats so the CLI can exit
// nonzero. Strictly observational: digests are bit-identical with the
// doctor and metrics on or off.
#ifndef SRC_FLEET_COORDINATOR_H_
#define SRC_FLEET_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/fleet/transport.h"
#include "src/soft/campaign.h"
#include "src/soft/chaos.h"
#include "src/telemetry/telemetry.h"
#include "src/util/status.h"

namespace soft {
namespace fleet {

inline constexpr int kDefaultUnits = 8;

struct FleetOptions {
  std::string socket_path;
  // TCP listen address "host:port" (port 0 = kernel picks; the resolved
  // address lands in FleetStats::bound_address). When set it replaces the
  // Unix-domain socket — the framed protocol is identical over both.
  std::string tcp_listen;
  // Local worker processes to fork (0 = serve external attach workers only;
  // the campaign degrades to local execution if none attach in time).
  int workers = 2;
  // Work units the campaign is partitioned into (0 → kDefaultUnits). The
  // unit count — not the worker count — defines the case partition, so the
  // merged result is invariant under the worker count.
  int units = 0;
  // Worker heartbeat cadence in executed cases (workers throttle the unit
  // campaign's progress callback to it).
  int heartbeat_every = 200;
  // Lease deadline: a leased unit whose worker misses heartbeats for this
  // long is reclaimed and re-granted (work stealing).
  int lease_deadline_ms = 10000;
  // Heartbeat timeout, distinct from (and typically shorter than) the lease
  // deadline: a connection silent for this long is dropped — but its
  // *session* survives, so a worker that was merely partitioned reconnects
  // and resumes where it was. Only the lease deadline gives work away.
  int heartbeat_timeout_ms = 5000;
  // Per-status-client send buffer bound. Status writes are nonblocking; a
  // reader that stops draining accumulates frames here and is disconnected
  // when the bound is hit — it can never stall the coordinator.
  int status_buffer_cap = 1 << 20;
  // Worker deaths the coordinator will answer with a respawn (exponential
  // backoff from 5 ms, doubling up to 200 ms) before giving up on the pool.
  int max_worker_respawns = 4;
  // NDJSON journal the coordinator streams lease state to (empty = none;
  // resume requires one). docs/OBSERVABILITY.md documents the events.
  // Completed unit results are spooled next to it, in SpoolDirFor(
  // journal_path) (wire blocks, written crash-atomically); with no journal
  // there is no spool.
  std::string journal_path;
  // Resume a coordinator killed mid-campaign from journal_path (a fleet's,
  // or a serial/--shards run's): spooled units whose digest matches the
  // journaled lease record are re-admitted, the rest re-run. The campaign
  // knobs must match the journal's campaign_start. The merged result is
  // bit-identical to an uninterrupted run either way.
  bool resume = false;

  // --- Campaign-health doctor (src/fleet/doctor.h; always on — it only
  // observes). Stall rule: no unit completion within doctor_stall_leases
  // lease periods while units remain. A stall is acknowledged only by a
  // subsequent worker-driven completion; degrade-to-local completions keep
  // the stall unacknowledged (FleetStats::health_stall_unacked). The
  // doctor's other rules keep their DoctorOptions defaults.
  int doctor_stall_leases = 3;

  // --- Metrics exposition. Non-empty metrics_out makes the coordinator
  // write the Prometheus registry snapshot there (crash-atomically) every
  // metrics_every_ms and once at campaign end, journaling a
  // metrics_snapshot event per write.
  std::string metrics_out;
  int metrics_every_ms = 2000;

  // --- Test hooks (tests/fleet_test.cc): the first spawned worker gets the
  // corresponding worker_client chaos knob, ordinal = the value.
  int test_kill_worker_at_unit = -1;
  int test_hang_worker_at_unit = -1;
  // Partition simulation: the worker goes silent (no heartbeats, no reads)
  // for test_partition_ms at the given unit's grant-ack, then resumes its
  // session — the full partition-tolerance ladder in one deterministic hook.
  int test_partition_worker_at_unit = -1;
  int test_partition_ms = 0;
};

// The listen endpoint the options describe (tcp_listen wins when both set).
inline Endpoint ListenEndpoint(const FleetOptions& fleet) {
  Endpoint endpoint;
  if (!fleet.tcp_listen.empty()) {
    endpoint.tcp = fleet.tcp_listen;
  } else {
    endpoint.socket_path = fleet.socket_path;
  }
  return endpoint;
}

// The campaign's counters — declared, with the table STATUS, METRICS and
// the journal iterate, as telemetry::FleetCounters — plus what a counter
// cannot say.
struct FleetStats : telemetry::FleetCounters {
  uint64_t units = 0;
  bool degraded_to_local = false;
  std::string bound_address;   // resolved listen address (TCP port-0 binds)
  // --- campaign-health doctor ---
  std::string health = "ok";        // final doctor state (ok|warn|stall)
  std::string health_reason = "ok"; // rule behind the final state
  // A stall happened and no worker-driven unit completion followed it —
  // the signal behind find_bugs --fleet=serve exit code 4.
  bool health_stall_unacked = false;
  // One message per unit result the spool could not commit (the journal is
  // then degraded: a resume re-runs those units).
  std::vector<std::string> spool_failures;
};

struct FleetOutcome {
  CampaignResult result;
  FleetStats stats;
};

// Runs one fleet campaign: SOFT against MakeDialect(`dialect`), coordinator
// in-process, workers forked (plus any external attachers). `options` is the
// campaign spec shipped to workers inside GRANT lines; its progress callback
// is ignored (workers install their own, for heartbeats) and crash_realism
// must be kSimulated (real crashes are not supported in a fleet). Blocks
// until the merged campaign completes.
Result<FleetOutcome> RunFleetCampaign(const std::string& dialect,
                                      const CampaignOptions& options,
                                      const FleetOptions& fleet);

// Chaos oracle for the five fleet.* failpoint sites (delegated to here by
// soft::RunChaosEnumeration — soft_core cannot link this library). Each site
// is armed to fire once during a small real socket campaign; the oracle is
// that the injected fault is absorbed by the lease/steal/respawn ladder and
// the merged digest stays bit-identical to the uninjected `--shards=units`
// reference. Exposed as `find_bugs --chaos=fleet`.
ChaosReport RunFleetChaosEnumeration(const std::string& dialect, int budget);

// Partition-tolerance chaos oracle for the six net.* failpoint sites: each
// is armed to fire once during a real framed-socket campaign; the oracle is
// that the frame CRC/sequence validation plus the session-resume ladder
// absorb the fault and the merged digest stays bit-identical to the
// uninjected sharded reference. Exposed as `find_bugs --chaos=net`.
ChaosReport RunNetChaosEnumeration(const std::string& dialect, int budget);

// Status client: connects to a serving coordinator (failing when nothing is
// listening) and sends STATUS. One-shot by default; with `watch` the
// connection stays open and unit completions stream live until the campaign
// finishes (`trace_slices` additionally tails each committed unit's TRS
// trace-span frames, and implies watch). Every received NDJSON/TRS line is
// handed to `on_line`; returning false detaches early.
struct FleetStatusRequest {
  Endpoint endpoint;
  bool watch = false;
  bool trace_slices = false;
  // Send METRICS instead of STATUS: the reply is one Prometheus
  // text-exposition snapshot (then the coordinator closes). Mutually
  // exclusive with watch/trace_slices.
  bool metrics = false;
};
Status StreamFleetStatus(const FleetStatusRequest& request,
                         const std::function<bool(const std::string&)>& on_line);

}  // namespace fleet
}  // namespace soft

#endif  // SRC_FLEET_COORDINATOR_H_
