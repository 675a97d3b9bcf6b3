#include "src/fleet/worker_client.h"

#include <poll.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/fleet/transport.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/wire.h"
#include "src/util/io.h"
#include "src/util/str_util.h"

namespace soft {
namespace fleet {
namespace {

constexpr int kBackoffInitialMs = 5;
// Read timeout: a connection silent for this long is presumed dead.
constexpr int kReadTimeoutMs = 30000;

void SleepMs(int ms) {
  timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  nanosleep(&ts, nullptr);
}

// Connects to the coordinator endpoint with bounded exponential backoff.
// Returns -1 when the attempts run out (coordinator gone for good).
int ConnectWithBackoff(const FleetWorkerOptions& options) {
  Endpoint endpoint;
  if (!options.tcp_connect.empty()) {
    endpoint.tcp = options.tcp_connect;
  } else {
    endpoint.socket_path = options.socket_path;
  }
  int backoff = kBackoffInitialMs;
  for (int attempt = 0; attempt < options.connect_attempts; ++attempt) {
    if (attempt != 0) {
      SleepMs(backoff);
      backoff = std::min(backoff * 2, options.backoff_max_ms);
    }
    Result<int> fd = ConnectOnce(endpoint);
    if (fd.ok()) {
      return *fd;
    }
  }
  return -1;
}

// One live connection to the coordinator: the framed read side with
// per-connection sequence acceptance (the write counter is per-session and
// lives in the caller). Inbound acceptance deliberately resets with each
// connection — a restarted coordinator arrives with fresh counters and must
// be believed; cross-connection continuity is the *session's* concern and
// is enforced coordinator-side.
struct WireConn {
  int fd = -1;
  std::string held;  // net.frame_delay parking buffer (outbound)
  wire::FrameDecoder decoder;
  bool seen = false;
  uint32_t last_in = 0;
  bool ok = true;
};

// Pulls the next accepted payload line off the connection, answering PINGs
// inline. False on read timeout, EOF, corruption, or a sequence gap — all of
// which condemn the connection (never the session).
bool NextLine(WireConn& conn, wire::FramedWriter& writer, std::string& line) {
  while (conn.ok) {
    wire::Frame frame;
    const wire::FrameStatus status = conn.decoder.Next(frame);
    if (status == wire::FrameStatus::kBad) {
      conn.ok = false;
      return false;
    }
    if (status == wire::FrameStatus::kFrame) {
      if (conn.seen) {
        if (frame.seq <= conn.last_in) {
          continue;  // duplicated frame — dropped silently
        }
        if (frame.seq != conn.last_in + 1) {
          conn.ok = false;  // a frame was lost; the stream is untrustworthy
          return false;
        }
      }
      conn.seen = true;
      conn.last_in = frame.seq;
      if (frame.payload == "PING") {
        if (!writer.WriteLine("PONG").ok()) {
          conn.ok = false;
          return false;
        }
        continue;
      }
      if (frame.payload == "PONG") {
        continue;
      }
      line = frame.payload;
      return true;
    }
    pollfd p{conn.fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, kReadTimeoutMs);
    if (ready == 0) {
      conn.ok = false;  // silent past the read timeout — presumed dead
      return false;
    }
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      conn.ok = false;
      return false;
    }
    char chunk[65536];
    const int64_t n = io::ReadRetrying(conn.fd, chunk, sizeof(chunk));
    if (n <= 0) {
      conn.ok = false;
      return false;
    }
    conn.decoder.Append(chunk, static_cast<size_t>(n));
  }
  return false;
}

}  // namespace

std::string Grant::Encode() const {
  return "GRANT " + std::to_string(unit) + " " + std::to_string(units) + " " +
         std::to_string(options.seed) + " " + std::to_string(options.max_statements) +
         " " + wire::HexEncode(dialect) + " " +
         std::to_string(options.stop_when_all_bugs_found ? 1 : 0) + " " +
         std::to_string(options.statement_limits.deadline_ms) + " " +
         std::to_string(options.trace_sample) + " " + std::to_string(heartbeat_every) +
         " " + std::to_string(campaign_base_ns) + " " +
         wire::HexEncode(Join(options.logic_oracles, ",")) + " " +
         std::to_string(pool_digest);
}

bool Grant::Parse(const std::string& line, Grant& grant) {
  std::istringstream in(line);
  std::string tag, dialect_hex, oracles_hex;
  int stop_all = 0;
  if (!(in >> tag >> grant.unit >> grant.units >> grant.options.seed >>
        grant.options.max_statements >> dialect_hex >> stop_all >>
        grant.options.statement_limits.deadline_ms >> grant.options.trace_sample >>
        grant.heartbeat_every >> grant.campaign_base_ns >> oracles_hex >>
        grant.pool_digest)) {
    return false;
  }
  grant.dialect = wire::HexDecode(dialect_hex);
  grant.options.stop_when_all_bugs_found = stop_all != 0;
  const std::string oracles = wire::HexDecode(oracles_hex);
  if (!oracles.empty()) {
    grant.options.logic_oracles = Split(oracles, ',');
  }
  return grant.units > 0 && grant.unit >= 0 && grant.unit < grant.units;
}

ShardPlan Grant::Plan() const {
  ShardPlan plan;
  plan.shard = unit;
  plan.options.seed = options.seed;
  plan.options.max_statements = options.max_statements;
  plan.options.shard_index = unit;
  plan.options.shard_count = units;
  plan.options.stop_when_all_bugs_found = options.stop_when_all_bugs_found;
  plan.options.statement_limits.deadline_ms = options.statement_limits.deadline_ms;
  plan.options.trace_sample = options.trace_sample;
  plan.options.logic_oracles = options.logic_oracles;
  return plan;
}

int RunFleetWorker(const FleetWorkerOptions& options,
                   std::shared_ptr<const CasePool> pool) {
  // A dying coordinator must surface as clean EPIPE write errors, never as
  // SIGPIPE process death — the reconnect ladder depends on it.
  io::IgnoreSigpipe();

  // --- session state: survives any number of condemned connections ---------
  std::string token = "-";       // "-" until the first WELCOME names us
  uint32_t seq_out = 0;          // outbound frame counter, per session
  int units_started = 0;         // execution ordinals for the chaos hooks
  bool partition_done = false;
  // The last completed unit's full delivery ("UNIT n" + result block), kept
  // so a redelivered GRANT or a delivery that died mid-block is answered by
  // resending — never by re-executing.
  int cached_unit = -1;
  std::vector<std::string> cached_lines;
  bool pending_resend = false;   // the cached delivery never fully went out

  // The cycle bound keeps a worker from reconnect-looping forever against a
  // coordinator that accepts and immediately drops (e.g. chaos-armed).
  for (int cycle = 0; cycle < options.connect_attempts; ++cycle) {
    const int fd = ConnectWithBackoff(options);
    if (fd < 0) {
      return 3;
    }
    WireConn conn;
    conn.fd = fd;
    wire::FramedWriter writer(fd, &seq_out, &conn.held);

    // --- handshake ---------------------------------------------------------
    conn.ok = writer
                  .WriteLine("HELLO " +
                             std::to_string(int{wire::kFrameProtocolVersion}) +
                             " " + std::to_string(::getpid()) + " " + token)
                  .ok();
    std::string line;
    if (conn.ok && NextLine(conn, writer, line)) {
      std::istringstream in(line);
      std::string tag;
      in >> tag;
      if (tag == "ERR") {
        ::close(fd);
        return 4;  // version refused — retrying cannot help
      }
      int proto = 0;
      int worker_id = 0;
      std::string granted_token;
      if (tag != "WELCOME" || !(in >> proto >> granted_token >> worker_id) ||
          granted_token.empty()) {
        ::close(fd);
        return 1;
      }
      // A different token than the one we replayed means the coordinator has
      // no memory of our session (it restarted): adopt the new identity. The
      // result cache survives — a re-granted cached unit still resends.
      token = granted_token;
    }

    // A resumed session resends the undelivered result before asking for
    // more; the coordinator deduplicates if it got through after all.
    if (conn.ok && pending_resend && cached_unit >= 0) {
      bool sent = true;
      for (const std::string& cached : cached_lines) {
        if (!writer.WriteLine(cached).ok()) {
          sent = false;
          break;
        }
      }
      conn.ok = sent;
      if (sent) {
        pending_resend = false;
      }
    }
    if (conn.ok) {
      conn.ok = writer.WriteLine("REQ").ok();
    }

    while (conn.ok) {
      if (!NextLine(conn, writer, line)) {
        break;
      }
      if (line.rfind("FIN", 0) == 0) {
        ::close(fd);
        return 0;
      }
      Grant grant;
      if (!Grant::Parse(line, grant)) {
        ::close(fd);
        return 1;
      }
      ShardPlan plan = grant.Plan();
      if (pool == nullptr || !pool->Matches(grant.dialect, plan.options, SoftOptions())) {
        pool = BuildCasePool(grant.dialect, plan.options);
      }
      if (pool == nullptr || pool->digest != grant.pool_digest) {
        // Executing another pool would merge a silently divergent unit.
        const std::string why =
            pool == nullptr ? " (no pool: unknown dialect '" + grant.dialect + "')" : "";
        std::fprintf(stderr,
                     "fleet worker: refusing unit %d: coordinator's case pool "
                     "digest 0x%016llx, ours 0x%016llx%s\n",
                     grant.unit, static_cast<unsigned long long>(grant.pool_digest),
                     static_cast<unsigned long long>(pool == nullptr ? 0 : pool->digest),
                     why.c_str());
        ::close(fd);
        return 4;
      }

      // A redelivered GRANT for the unit we already ran: the coordinator
      // never saw (or lost) the result. Resend the cached block verbatim —
      // re-executing would merely produce the identical bytes slower.
      if (grant.unit == cached_unit) {
        bool sent = true;
        for (const std::string& cached : cached_lines) {
          if (!writer.WriteLine(cached).ok()) {
            sent = false;
            break;
          }
        }
        if (!sent) {
          pending_resend = true;
          break;
        }
        conn.ok = writer.WriteLine("REQ").ok();
        continue;
      }

      const int ordinal = units_started++;
      const bool kill9_here = options.kill9_at_unit == ordinal;
      const bool hang_here = options.hang_at_unit == ordinal;
      const bool partition_here =
          options.partition_at_unit == ordinal && !partition_done;

      // Heartbeats: the grant acknowledgement, then every heartbeat_every
      // executed statements. A failed send only stops this unit's heartbeats
      // (the connection is gone); the finished result is delivered over the
      // *next* connection via the resume/resend ladder.
      bool partitioned_this_unit = false;
      bool heartbeats_ok = true;
      const auto heartbeat = [&](int cases) {
        if (kill9_here) {
          ::kill(::getpid(), SIGKILL);
        }
        if (hang_here) {
          // Stop heartbeating: the lease expires and the coordinator
          // SIGKILLs this pid. Sleep rather than spin.
          for (;;) {
            SleepMs(1000);
          }
        }
        if (partition_here && !partitioned_this_unit) {
          // Simulated partition: go silent across the coordinator's
          // heartbeat timeout AND the lease deadline, then carry on — the
          // connection is condemned, the lease is reclaimed, and this
          // worker must resume its session and win its unit back.
          partitioned_this_unit = true;
          partition_done = true;
          SleepMs(options.partition_ms);
        }
        heartbeats_ok =
            heartbeats_ok && writer
                                 .WriteLine("HB " + std::to_string(grant.unit) + " " +
                                            std::to_string(cases))
                                 .ok();
      };
      const int heartbeat_every = std::max(grant.heartbeat_every, 1);
      plan.options.progress = [&](int cases) {
        if (cases % heartbeat_every == 0) {
          heartbeat(cases);
        }
      };
      // Acknowledge the grant so a hung unit is distinguishable from a
      // never-started one; also the hook point for the chaos kill and the
      // simulated partition.
      heartbeat(0);
      if (!heartbeats_ok && !partitioned_this_unit) {
        break;  // conn died before the unit started — nothing to cache
      }

      const std::string dialect = grant.dialect;
      ShardResult outcome = ExecuteShardPlan(
          [pool] { return std::make_unique<SoftFuzzer>(SoftOptions(), pool); },
          [dialect] { return MakeDialect(dialect); }, plan, grant.campaign_base_ns);

      // Cache, then deliver. The cache is the at-least-once side of the
      // exactly-once contract: whatever the network does to this delivery,
      // the bytes can always be produced again without re-execution.
      cached_unit = grant.unit;
      cached_lines.clear();
      cached_lines.push_back("UNIT " + std::to_string(grant.unit));
      wire::WriteResultBlock(
          [&](const std::string& record) {
            cached_lines.push_back(record);
            return true;
          },
          outcome.result, outcome.coverage);
      bool sent = true;
      for (const std::string& cached : cached_lines) {
        if (!writer.WriteLine(cached).ok()) {
          sent = false;
          break;
        }
      }
      if (!sent) {
        pending_resend = true;
        break;
      }
      conn.ok = writer.WriteLine("REQ").ok();
    }
    ::close(fd);
    // Connection lost mid-campaign: reconnect with backoff and resume the
    // session by replaying the token. An in-flight unit's lease may expire
    // meanwhile; the finished result still gets delivered (and deduplicated
    // if the unit was stolen and re-run elsewhere).
  }
  return 3;
}

}  // namespace fleet
}  // namespace soft
