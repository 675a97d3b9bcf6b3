// Fleet worker: the client half of the coordinator's framed socket protocol
// — Unix-domain on one host, TCP across hosts (docs/ROBUSTNESS.md).
//
// Every line below rides a CRC32-checked, sequence-numbered binary frame
// (src/soft/wire.h). A worker connects, performs the protocol-version
// handshake, and loops requesting work units:
//
//   worker → coord   HELLO <proto> <pid> <token|->
//   coord  → worker  WELCOME <proto> <token> <worker_id>
//            ... or  ERR <hex message>         (version refused — exit 4)
//   worker → coord   REQ
//   coord  → worker  GRANT <unit> <units> <seed> <budget> <dialect-hex>
//                          <stop_all> <timeout_ms> <trace_sample>
//                          <heartbeat_every> <campaign_base_ns> <oracles-hex>
//                          <pool_digest>
//            ... or  FIN                      (campaign done — exit 0)
//   worker → coord   HB <unit> <cases>        (every heartbeat_every cases,
//                                              throttled from the campaign's
//                                              progress callback; one HB with
//                                              cases=0 acknowledges the grant)
//   worker → coord   UNIT <unit>
//                    <wire result block>      (RES..END, src/soft/wire.h)
//   worker → coord   REQ                      (loop)
//
// Either side may send PING at any point; the peer answers PONG. The
// coordinator pings idle connections, so a worker silent past the heartbeat
// timeout is one that is genuinely unreachable, not merely between units.
//
// A GRANT line is a complete unit spec, so an external worker
// (`find_bugs --fleet=attach`) needs nothing but the endpoint. The unit
// executes as one case-partition shard via ExecuteShardPlan: shard_index =
// unit, shard_count = units, base seed, full budget — exactly the plan a
// `--shards=units` campaign would run, which is what makes the coordinator's
// merge bit-identical to that sharded run at any worker count. A worker
// keeps one case pool across units (a forked worker inherits the
// coordinator's, an attached one builds its own at its first GRANT) and
// refuses a GRANT whose `pool_digest` it cannot reproduce: it sends nothing,
// not even the grant acknowledgement, and exits 4.
//
// Surviving the network: the WELCOME token names a *session* that outlives
// any one connection. On socket loss the worker reconnects with bounded
// exponential backoff and replays its token; the coordinator re-delivers
// every GRANT whose result it never saw. The worker caches its last
// completed unit's result block, so a redelivered GRANT for that unit (or a
// delivery that died mid-block) is answered by resending the cached block —
// never by re-executing — and the coordinator deduplicates whatever arrives
// twice. A WELCOME carrying a *different* token than the one replayed means
// the coordinator has no memory of the session (it restarted); the worker
// adopts the new identity and starts clean. Outbound sequence numbers are
// per-session (they keep counting across reconnects); inbound acceptance is
// per-connection, which is exactly what lets a restarted coordinator's fresh
// counters be accepted.
//
// When the coordinator is gone for good the attempts run out and the worker
// exits nonzero.
#ifndef SRC_FLEET_WORKER_CLIENT_H_
#define SRC_FLEET_WORKER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/soft/parallel_runner.h"
#include "src/soft/soft_fuzzer.h"

namespace soft {
namespace fleet {

// The unit spec one GRANT line carries (the line format is above). `options`
// holds the determinism-relevant subset of CampaignOptions — the knobs the
// journal's campaign_start records, plus trace sampling; the progress
// callback is transport-local and fuel/row limits are not shipped.
struct Grant {
  int unit = 0;
  int units = 1;
  std::string dialect;
  CampaignOptions options;
  int heartbeat_every = 0;
  uint64_t campaign_base_ns = 0;
  uint64_t pool_digest = 0;  // CasePool::digest of the coordinator's pool

  std::string Encode() const;
  static bool Parse(const std::string& line, Grant& grant);
  // The unit's shard plan. Workers and the coordinator's degrade-to-local
  // path both build it here, so a unit executes bit-identically wherever it
  // lands.
  ShardPlan Plan() const;
};

struct FleetWorkerOptions {
  // Exactly one of these addresses the coordinator (tcp_connect wins).
  std::string socket_path;
  std::string tcp_connect;  // "host:port"
  // Bounded exponential backoff for connect/reconnect attempts: from 5 ms,
  // doubling up to backoff_max_ms. A connection with no inbound frame (not
  // even a PING) for 30 s is presumed dead and re-established — a generous
  // backstop, since the coordinator's pings arrive at a third of its
  // heartbeat timeout.
  int connect_attempts = 40;
  int backoff_max_ms = 200;

  // --- Test/chaos hooks (the coordinator's failpoint-driven worker chaos
  // and tests/fleet_test.cc). Ordinals count the units this worker process
  // has started, 0-based across reconnects.
  int kill9_at_unit = -1;  // SIGKILL self at the first heartbeat of unit ordinal N
  int hang_at_unit = -1;   // stop heartbeating at unit ordinal N (lease expires)
  // Simulated partition: at unit ordinal N's grant-ack, go silent (sleep,
  // no reads or heartbeats) for partition_ms, then continue executing the
  // unit against the (by then condemned) connection and resume the session.
  int partition_at_unit = -1;
  int partition_ms = 0;
};

// Runs the worker loop until FIN (returns 0), connect/reconnect attempts
// run out (returns 3), a malformed grant/WELCOME arrives (returns 1), or
// the coordinator refuses the protocol version or the worker a GRANT it
// cannot reproduce (returns 4). `pool` is the forking coordinator's case
// pool; null builds one at the first GRANT. Installs io::IgnoreSigpipe so
// a dying coordinator surfaces as clean write errors.
int RunFleetWorker(const FleetWorkerOptions& options,
                   std::shared_ptr<const CasePool> pool = nullptr);

}  // namespace fleet
}  // namespace soft

#endif  // SRC_FLEET_WORKER_CLIENT_H_
