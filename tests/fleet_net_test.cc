// Hostile-network fleet transport (docs/ROBUSTNESS.md, "Multi-host fleet
// transport"): frame codec corruption fuzz, TCP digest parity with the
// sharded/serial reference, protocol-version refusal, partition-and-
// reconnect session resume with exactly-once merge, the nonblocking status
// endpoint under a stuck reader, lease-edge timing under an injectable
// clock, and the net.* partition-tolerance chaos oracle.
//
// These tests fork and bind sockets — keep them out of the TSan lane
// (`ctest -R 'Parallel|GoldenPoc|Telemetry|LogicOracle'`); the asan-fleet-net
// CI lane runs `ctest -R 'Fleet'`.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/failpoint/failpoint.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/lease.h"
#include "src/fleet/transport.h"
#include "src/fleet/worker_client.h"
#include "src/soft/chaos.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/wire.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/telemetry.h"

namespace soft {
namespace fleet {
namespace {

constexpr char kDialect[] = "virtuoso";
constexpr int kBudget = 2000;
constexpr int kUnits = 4;

CampaignOptions SmallCampaign() {
  CampaignOptions options;
  options.seed = 20260809;
  options.max_statements = kBudget;
  return options;
}

std::string SocketPath(const char* tag) {
  return "/tmp/soft_fnet_" + std::to_string(static_cast<long>(::getpid())) +
         "_" + tag + ".sock";
}

void SleepMs(int ms) {
  timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  nanosleep(&ts, nullptr);
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(FleetFrame, RoundTripsFramesAcrossArbitraryChunkBoundaries) {
  const std::vector<std::string> payloads = {
      "HELLO 1 1234 -", "REQ", "", "UNIT 3",
      std::string(100000, 'x'),  // a big result-block line
  };
  std::string stream;
  uint32_t seq = 0;
  for (const std::string& payload : payloads) {
    stream += wire::EncodeFrame(++seq, payload);
  }
  // Feed the concatenated stream in pathological chunk sizes; every frame
  // must come back intact and in order regardless of the read segmentation.
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{4096}, stream.size()}) {
    wire::FrameDecoder decoder;
    std::vector<wire::Frame> got;
    size_t off = 0;
    while (off < stream.size()) {
      const size_t n = std::min(chunk, stream.size() - off);
      decoder.Append(stream.data() + off, n);
      off += n;
      wire::Frame frame;
      while (decoder.Next(frame) == wire::FrameStatus::kFrame) {
        got.push_back(frame);
      }
    }
    ASSERT_EQ(got.size(), payloads.size()) << "chunk=" << chunk;
    for (size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(got[i].seq, i + 1);
      EXPECT_EQ(got[i].payload, payloads[i]);
    }
    EXPECT_FALSE(decoder.HasPartial());
  }
}

TEST(FleetFrame, TruncationAtEveryOffsetYieldsNoFrameAndNoError) {
  const std::string frame = wire::EncodeFrame(7, "GRANT 0 4 1 100 abcd 0 0 0 50 0 -");
  for (size_t len = 0; len < frame.size(); ++len) {
    wire::FrameDecoder decoder;
    decoder.Append(frame.data(), len);
    wire::Frame out;
    // A truncated frame is an incomplete frame, never a bogus one: the
    // decoder waits for the rest (torn-tail semantics), it does not guess.
    EXPECT_EQ(decoder.Next(out), wire::FrameStatus::kNeedMore) << "len=" << len;
  }
}

TEST(FleetFrame, BitFlipAtEveryByteOffsetIsRejectedNeverMisparsed) {
  const std::string original = wire::EncodeFrame(3, "UNIT 2");
  for (size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = original;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      wire::FrameDecoder decoder;
      decoder.Append(corrupt.data(), corrupt.size());
      wire::Frame out;
      const wire::FrameStatus status = decoder.Next(out);
      // CRC32 detects every single-bit error, so no flip may ever produce a
      // valid frame. kBad (structural/checksum rejection) is the expected
      // outcome; a flip that inflates the length field may instead leave the
      // decoder waiting for bytes that never come (kNeedMore) — also clean.
      EXPECT_NE(status, wire::FrameStatus::kFrame)
          << "byte=" << byte << " bit=" << bit;
      if (status == wire::FrameStatus::kBad) {
        EXPECT_FALSE(decoder.error().empty());
        // A condemned decoder stays condemned: framing is lost for good.
        decoder.Append(original.data(), original.size());
        EXPECT_EQ(decoder.Next(out), wire::FrameStatus::kBad);
      }
    }
  }
}

TEST(FleetFrame, CorruptionMidStreamCondemnsEverythingAfterIt) {
  std::string stream = wire::EncodeFrame(1, "REQ");
  std::string second = wire::EncodeFrame(2, "HB 0 100");
  second[wire::kFrameHeaderSize] ^= 0x40;  // flip a payload bit of frame 2
  stream += second;
  stream += wire::EncodeFrame(3, "REQ");

  wire::FrameDecoder decoder;
  decoder.Append(stream.data(), stream.size());
  wire::Frame out;
  ASSERT_EQ(decoder.Next(out), wire::FrameStatus::kFrame);
  EXPECT_EQ(out.payload, "REQ");
  EXPECT_EQ(decoder.Next(out), wire::FrameStatus::kBad);
  // Frame 3 is intact bytes-wise, but nothing after a framing loss can be
  // trusted — the decoder must not resynchronize heuristically.
  EXPECT_EQ(decoder.Next(out), wire::FrameStatus::kBad);
}

TEST(FleetFrame, OversizedLengthClaimIsCorruptionNotAnAllocation) {
  std::string frame = wire::EncodeFrame(1, "REQ");
  const uint32_t huge = wire::kMaxFramePayload + 1;
  std::memcpy(&frame[8], &huge, sizeof(huge));
  wire::FrameDecoder decoder;
  decoder.Append(frame.data(), frame.size());
  wire::Frame out;
  EXPECT_EQ(decoder.Next(out), wire::FrameStatus::kBad);
}

// ---------------------------------------------------------------------------
// Lease-edge timing (injectable clock — no real sleeps)
// ---------------------------------------------------------------------------

TEST(FleetLeaseEdge, HeartbeatExactlyAtTheDeadlineLosesToAnEarlierReclaim) {
  // The deadline is inclusive on the reclaim side: at now == deadline the
  // unit is reclaimable. Whichever of (reclaim, heartbeat) the coordinator
  // processes first at that instant wins — both orders must stay consistent.
  {
    LeaseTable table(1);
    ASSERT_EQ(table.Grant(/*worker=*/0, /*now_ns=*/0, /*lease_ns=*/100), 0);
    // Heartbeat processed first: the lease is refreshed, nothing to reclaim.
    EXPECT_TRUE(table.Heartbeat(0, 0, 10, /*now_ns=*/100, /*lease_ns=*/100));
    EXPECT_TRUE(table.ReclaimExpired(/*now_ns=*/100).empty());
    EXPECT_TRUE(table.Complete(0, 0));
  }
  {
    LeaseTable table(1);
    ASSERT_EQ(table.Grant(0, 0, 100), 0);
    // Reclaim processed first: the heartbeat arriving at the same instant is
    // stale — the worker no longer holds the lease.
    ASSERT_EQ(table.ReclaimExpired(/*now_ns=*/100).size(), 1u);
    EXPECT_FALSE(table.Heartbeat(0, 0, 10, /*now_ns=*/100, /*lease_ns=*/100));
    EXPECT_EQ(table.counters().reclaimed, 1);
  }
}

TEST(FleetLeaseEdge, LateFinAfterReclaimIsStaleUntilTheUnitIsReGranted) {
  LeaseTable table(1);
  ASSERT_EQ(table.Grant(/*worker=*/0, 0, 100), 0);
  ASSERT_EQ(table.ReclaimExpired(/*now_ns=*/150).size(), 1u);
  // The original holder finishes anyway (it was partitioned, not dead) and
  // its FIN races the re-grant. Before the steal: stale. After worker 1
  // steals it: worker 0's FIN is still stale, worker 1's commits.
  EXPECT_FALSE(table.Complete(0, 0));
  ASSERT_EQ(table.Grant(/*worker=*/1, 200, 100), 0);
  EXPECT_EQ(table.counters().stolen, 1);
  EXPECT_FALSE(table.Complete(0, 0));
  EXPECT_TRUE(table.Complete(0, 1));
  EXPECT_TRUE(table.AllDone());
}

TEST(FleetLeaseEdge, DoubleFinAfterAStealDedupesInsteadOfDoubleMerging) {
  LeaseTable table(2);
  ASSERT_EQ(table.Grant(/*worker=*/0, 0, 100), 0);
  ASSERT_EQ(table.ReclaimExpired(150).size(), 1u);
  ASSERT_EQ(table.Grant(/*worker=*/1, 200, 100), 0);
  ASSERT_TRUE(table.Complete(0, 1));
  const int done_after_first = table.done();
  // Worker 0 resumes its session and re-delivers the same unit's result:
  // Complete must refuse (unit already done) so the merge sees it once.
  EXPECT_FALSE(table.Complete(0, 0));
  EXPECT_FALSE(table.Complete(0, 1));
  EXPECT_EQ(table.done(), done_after_first);
  EXPECT_EQ(table.counters().completed, 1);
}

// ---------------------------------------------------------------------------
// TCP transport parity
// ---------------------------------------------------------------------------

TEST(FleetTcp, DigestMatchesUdsFleetAndShardedReferenceAtAnyWorkerCount) {
  const CampaignOptions options = SmallCampaign();
  const CampaignResult reference =
      RunShardedSoftCampaign(kDialect, options, kUnits);
  const uint64_t want = DigestCampaignResult(reference);

  FleetOptions uds;
  uds.socket_path = SocketPath("tcp_ref");
  uds.workers = 2;
  uds.units = kUnits;
  uds.heartbeat_every = 50;
  const Result<FleetOutcome> over_uds = RunFleetCampaign(kDialect, options, uds);
  ASSERT_TRUE(over_uds.ok()) << over_uds.status().ToString();
  EXPECT_EQ(DigestCampaignResult(over_uds->result), want);

  for (const int workers : {1, 2}) {
    FleetOptions tcp;
    tcp.tcp_listen = "127.0.0.1:0";  // kernel-assigned port
    tcp.workers = workers;
    tcp.units = kUnits;
    tcp.heartbeat_every = 50;
    const Result<FleetOutcome> outcome = RunFleetCampaign(kDialect, options, tcp);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(DigestCampaignResult(outcome->result), want)
        << "workers=" << workers;
    EXPECT_EQ(outcome->stats.units_completed, kUnits);
    // Port 0 must have resolved to the real kernel-assigned port.
    const std::string& bound = outcome->stats.bound_address;
    EXPECT_EQ(bound.rfind("127.0.0.1:", 0), 0u) << bound;
    EXPECT_NE(bound, "127.0.0.1:0");
  }
}

TEST(FleetHandshake, RefusesAForeignProtocolVersionWithAFramedError) {
  FleetOptions fleet;
  fleet.socket_path = SocketPath("ver");
  fleet.workers = 1;
  fleet.units = 2;
  fleet.heartbeat_every = 50;

  // A probe speaking protocol version 99 must get a framed ERR back and
  // nothing else (a worker receiving it exits 4; this raw client makes the
  // refusal itself observable). The probe races the campaign: it retries
  // the connect until the coordinator is serving.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    Endpoint endpoint;
    endpoint.socket_path = fleet.socket_path;
    int fd = -1;
    for (int attempt = 0; attempt < 400 && fd < 0; ++attempt) {
      const Result<int> connected = ConnectOnce(endpoint);
      if (connected.ok()) {
        fd = *connected;
      } else {
        SleepMs(5);
      }
    }
    if (fd < 0) {
      ::_exit(90);
    }
    uint32_t seq = 0;
    std::string held;
    wire::FramedWriter writer(fd, &seq, &held);
    if (!writer.WriteLine("HELLO 99 " + std::to_string(::getpid()) + " -").ok()) {
      ::_exit(91);
    }
    wire::FrameDecoder decoder;
    for (;;) {
      wire::Frame frame;
      const wire::FrameStatus status = decoder.Next(frame);
      if (status == wire::FrameStatus::kBad) {
        ::_exit(92);
      }
      if (status == wire::FrameStatus::kFrame) {
        ::_exit(frame.payload.rfind("ERR ", 0) == 0 ? 40 : 93);
      }
      char chunk[4096];
      const ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got <= 0) {
        ::_exit(94);
      }
      decoder.Append(chunk, static_cast<size_t>(got));
    }
  }

  CampaignOptions options = SmallCampaign();
  options.max_statements = 600;
  const Result<FleetOutcome> outcome = RunFleetCampaign(kDialect, options, fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // The refused probe must not disturb the campaign.
  EXPECT_EQ(outcome->stats.units_completed, 2);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 40) << "probe child exit code";
}

// Plays the coordinator for one forked RunFleetWorker: accepts it, answers
// its HELLO, answers its REQ with `grant`, then collects every line the
// worker sends until it hangs up, sends a UNIT (it is then killed) or stays
// silent for 10 s. Returns the worker's wait status.
int GrantToForkedWorker(const char* tag, const Grant& grant,
                        std::vector<std::string>& received) {
  Endpoint endpoint;
  endpoint.socket_path = SocketPath(tag);
  const Result<int> listener = ListenOn(endpoint, nullptr);
  if (!listener.ok()) {
    ADD_FAILURE() << listener.status().ToString();
    return -1;
  }
  const pid_t child = ::fork();
  if (child == 0) {
    ::close(*listener);
    FleetWorkerOptions worker;
    worker.socket_path = endpoint.socket_path;
    ::_exit(RunFleetWorker(worker));
  }
  pollfd accept_poll{*listener, POLLIN, 0};
  const int fd = ::poll(&accept_poll, 1, 10000) == 1 ? ::accept(*listener, nullptr, nullptr)
                                                      : -1;
  ::close(*listener);
  ::unlink(endpoint.socket_path.c_str());
  uint32_t seq = 0;
  std::string held;
  wire::FramedWriter writer(fd, &seq, &held);
  wire::FrameDecoder decoder;
  const auto next_line = [&](std::string& line) {
    for (;;) {
      wire::Frame frame;
      const wire::FrameStatus status = decoder.Next(frame);
      if (status == wire::FrameStatus::kFrame) {
        line = frame.payload;
        return true;
      }
      pollfd p{fd, POLLIN, 0};
      char chunk[4096];
      const ssize_t got =
          status == wire::FrameStatus::kBad || ::poll(&p, 1, 10000) != 1
              ? -1
              : ::read(fd, chunk, sizeof(chunk));
      if (got <= 0) {
        return false;
      }
      decoder.Append(chunk, static_cast<size_t>(got));
    }
  };
  std::string line;
  bool executed = false;
  if (fd >= 0 && next_line(line) && line.rfind("HELLO ", 0) == 0 &&
      writer.WriteLine("WELCOME " + std::to_string(int{wire::kFrameProtocolVersion}) +
                       " test-token 0")
          .ok() &&
      next_line(line) && line == "REQ" && writer.WriteLine(grant.Encode()).ok()) {
    while (next_line(line)) {
      received.push_back(line);
      if (line.rfind("UNIT ", 0) == 0) {
        executed = true;  // nothing left to observe
        break;
      }
    }
  }
  if (fd >= 0) {
    ::close(fd);  // a silent worker sees EOF, finds no listener, gives up
  }
  if (executed) {
    ::kill(child, SIGKILL);
  }
  int wstatus = 0;
  ::waitpid(child, &wstatus, 0);
  return wstatus;
}

TEST(FleetHandshake, WorkerRefusesAGrantItCannotReproduce) {
  Grant grant;
  grant.unit = 0;
  grant.units = 2;
  grant.options = SmallCampaign();
  grant.heartbeat_every = 50;

  // A dialect the worker cannot build: no case pool, so no unit either.
  grant.dialect = "no-such-dbms";
  std::vector<std::string> received;
  int wstatus = GrantToForkedWorker("unknown", grant, received);
  EXPECT_TRUE(received.empty()) << "no UNIT, not even the grant ack; got " << received.front();
  ASSERT_TRUE(WIFEXITED(wstatus)) << "the worker must exit on its own";
  EXPECT_EQ(WEXITSTATUS(wstatus), 4);

  // A known dialect whose pool digest is not the one the worker builds.
  grant.dialect = kDialect;
  grant.pool_digest = BuildCasePool(kDialect, grant.Plan().options)->digest ^ 1;
  received.clear();
  wstatus = GrantToForkedWorker("digest", grant, received);
  EXPECT_TRUE(received.empty()) << "no UNIT, not even the grant ack; got " << received.front();
  ASSERT_TRUE(WIFEXITED(wstatus)) << "the worker must exit on its own";
  EXPECT_EQ(WEXITSTATUS(wstatus), 4);
}

// ---------------------------------------------------------------------------
// Partition tolerance
// ---------------------------------------------------------------------------

TEST(FleetPartition, FullPartitionDegradesToReclaimThenResumeDeduplicates) {
  // One worker, so the campaign cannot finish without the partitioned
  // process coming back: the partition spans the heartbeat timeout (its
  // connection is condemned) AND the lease deadline (its unit is reclaimed),
  // and on waking it delivers the finished unit anyway — which must arrive
  // as a deduplicated stale result, be re-granted, and then commit from the
  // worker's cache, never hang and never double-merge.
  CampaignOptions options = SmallCampaign();
  options.max_statements = 600;
  const CampaignResult reference = RunShardedSoftCampaign(kDialect, options, 2);

  FleetOptions fleet;
  fleet.socket_path = SocketPath("part");
  fleet.workers = 1;
  fleet.units = 2;
  fleet.heartbeat_every = 50;
  fleet.heartbeat_timeout_ms = 500;
  fleet.lease_deadline_ms = 1000;
  fleet.max_worker_respawns = 0;  // the partitioned worker must come back
  fleet.test_partition_worker_at_unit = 0;
  fleet.test_partition_ms = 1500;

  const Result<FleetOutcome> outcome = RunFleetCampaign(kDialect, options, fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(DigestCampaignResult(outcome->result), DigestCampaignResult(reference));
  const FleetStats& stats = outcome->stats;
  EXPECT_GE(stats.conns_dropped, 1);        // heartbeat timeout condemned it
  EXPECT_GE(stats.leases_reclaimed, 1);     // lease deadline gave the unit away
  EXPECT_GE(stats.sessions_resumed, 1);     // the worker replayed its token
  EXPECT_GE(stats.dup_results_deduped, 1);  // the stale delivery was discarded
  EXPECT_GE(stats.leases_stolen, 1);        // the unit was re-granted
  EXPECT_EQ(stats.units_completed, 2);
  EXPECT_EQ(stats.worker_deaths, 0);        // partitioned, never killed
  EXPECT_FALSE(stats.degraded_to_local);
}

TEST(FleetPartition, EveryCounterReachesStatsJournalAndMetrics) {
  // The partition campaign above, journaled and with a --metrics-out file,
  // so the transport counters are non-zero too. Each fleet counter must
  // read the same in FleetStats, the replayed fleet_finish event and the
  // final snapshot's soft_fleet_<key>_total series.
  CampaignOptions options = SmallCampaign();
  options.max_statements = 600;
  const std::string journal_path =
      testing::TempDir() + "/soft_fnet_counters.ndjson";
  const std::string metrics_path = testing::TempDir() + "/soft_fnet_counters.prom";
  std::remove(journal_path.c_str());
  std::remove(metrics_path.c_str());

  FleetOptions fleet;
  fleet.socket_path = SocketPath("counters");
  fleet.workers = 1;
  fleet.units = 2;
  fleet.heartbeat_every = 50;
  fleet.heartbeat_timeout_ms = 500;
  fleet.lease_deadline_ms = 1000;
  fleet.max_worker_respawns = 0;
  fleet.test_partition_worker_at_unit = 0;
  fleet.test_partition_ms = 1500;
  fleet.journal_path = journal_path;
  fleet.metrics_out = metrics_path;

  const Result<FleetOutcome> outcome = RunFleetCampaign(kDialect, options, fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const FleetStats& stats = outcome->stats;
  EXPECT_GE(stats.conns_dropped, 1u);
  EXPECT_GE(stats.sessions_resumed, 1u);
  EXPECT_GE(stats.dup_results_deduped, 1u);

  const Result<telemetry::JournalReplay> replay =
      telemetry::ReplayJournalFile(journal_path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_TRUE(replay->fleet_finished);
  EXPECT_EQ(replay->fleet_units, stats.units);

  std::stringstream read;
  read << std::ifstream(metrics_path).rdbuf();
  const std::string exposition = read.str();
  for (const telemetry::FleetCounterField& field : telemetry::kFleetCounterFields) {
    SCOPED_TRACE(std::string(field.key));
    const uint64_t value = stats.*field.member;
    EXPECT_EQ(replay->fleet.*field.member, value);
    const std::string prefix = telemetry::FleetCounterFamily(field.key) + " ";
    const size_t at = exposition.find("\n" + prefix);
    ASSERT_NE(at, std::string::npos);
    const uint64_t exposed =
        std::strtoull(exposition.c_str() + at + 1 + prefix.size(), nullptr, 10);
    EXPECT_EQ(exposed, value);
  }
  std::remove(journal_path.c_str());
  std::remove(metrics_path.c_str());
}

// ---------------------------------------------------------------------------
// Status endpoint under a hostile reader
// ---------------------------------------------------------------------------

TEST(FleetStatusNet, StuckWatchReaderIsDroppedAndNeverStallsTheCampaign) {
  FleetOptions fleet;
  fleet.socket_path = SocketPath("stuck");
  fleet.workers = 1;
  fleet.units = 2;
  fleet.heartbeat_every = 50;
  fleet.status_buffer_cap = 4096;  // tiny: overflow on the first trace burst

  CampaignOptions options = SmallCampaign();
  options.trace_sample = 1;       // every statement — a large TRS stream
  options.max_statements = 4000;  // ...large enough to beat the kernel's
                                  // socket buffer plus the 4 KiB cap

  // The stuck reader: requests the full trace-slice stream, then never reads
  // a byte. The kernel socket buffer fills, the coordinator's bounded
  // per-client buffer overflows, and the client must be dropped — with the
  // campaign finishing at full speed either way.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    Endpoint endpoint;
    endpoint.socket_path = fleet.socket_path;
    int fd = -1;
    for (int attempt = 0; attempt < 400 && fd < 0; ++attempt) {
      const Result<int> connected = ConnectOnce(endpoint);
      if (connected.ok()) {
        fd = *connected;
      } else {
        SleepMs(5);
      }
    }
    if (fd < 0) {
      ::_exit(90);
    }
    uint32_t seq = 0;
    std::string held;
    wire::FramedWriter writer(fd, &seq, &held);
    if (!writer.WriteLine("STATUS watch trace").ok()) {
      ::_exit(91);
    }
    for (;;) {
      SleepMs(1000);  // never read — the parent SIGKILLs us after the run
    }
  }

  const Result<FleetOutcome> outcome = RunFleetCampaign(kDialect, options, fleet);
  ::kill(child, SIGKILL);
  int wstatus = 0;
  ::waitpid(child, &wstatus, 0);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->stats.units_completed, 2);
  // The full trace-span stream outruns the kernel socket buffer plus the
  // 4 KiB cap.
  EXPECT_GE(outcome->stats.status_overflow_drops, 1);
}

TEST(FleetStatusNet, WatchStreamsUnitCompletionsAndTraceSlicesLive) {
  FleetOptions fleet;
  fleet.socket_path = SocketPath("watch");
  fleet.workers = 1;
  fleet.units = kUnits;
  fleet.heartbeat_every = 50;

  CampaignOptions options = SmallCampaign();
  options.trace_sample = 1;

  // A live tail: connects mid-campaign, drains the snapshot + every commit
  // broadcast (fleet_unit_done and the unit's TRS span lines), and sees the
  // stream end cleanly at coordinator shutdown.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    FleetStatusRequest request;
    request.endpoint.socket_path = fleet.socket_path;
    request.trace_slices = true;
    int snapshot = 0, unit_done = 0, slices = 0, end_markers = 0;
    bool every_counter = true;
    Status streamed = IoError("never connected");
    for (int attempt = 0; attempt < 400; ++attempt) {
      streamed = StreamFleetStatus(request, [&](const std::string& line) {
        if (line.rfind("{\"event\":\"fleet_status\"", 0) == 0) {
          ++snapshot;
          for (const telemetry::FleetCounterField& field :
               telemetry::kFleetCounterFields) {
            every_counter = every_counter &&
                            line.find(std::string("\"").append(field.key).append(
                                "\":")) != std::string::npos;
          }
        }
        unit_done += line.rfind("{\"event\":\"fleet_unit_done\"", 0) == 0 ? 1 : 0;
        slices += line.rfind("TRS ", 0) == 0 ? 1 : 0;
        end_markers += line == "{\"event\":\"fleet_status_end\"}" ? 1 : 0;
        return true;
      });
      if (streamed.ok()) {
        break;
      }
      SleepMs(5);
    }
    if (!streamed.ok()) {
      ::_exit(90);
    }
    if (snapshot < 1) {
      ::_exit(91);
    }
    if (unit_done < 1) {
      ::_exit(92);
    }
    if (slices < 1) {
      ::_exit(93);
    }
    if (end_markers < 1) {
      ::_exit(94);
    }
    if (!every_counter) {
      ::_exit(95);  // the fleet_status header lacks a fleet counter
    }
    ::_exit(0);
  }

  const Result<FleetOutcome> outcome = RunFleetCampaign(kDialect, options, fleet);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "status-tail child exit code";
}

// ---------------------------------------------------------------------------
// net.* chaos oracle
// ---------------------------------------------------------------------------

TEST(FleetNetChaos, EveryNetFaultIsAbsorbedWithABitIdenticalDigest) {
  const ChaosReport report = RunNetChaosEnumeration(kDialect, 800);
  // One outcome per net.* inventory site: frame drop, frame corrupt, frame
  // duplicate, delayed delivery, connection reset mid-frame, accept storm.
  ASSERT_EQ(report.outcomes.size(), 6u);
  for (const ChaosSiteOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.ok)
        << outcome.failpoint << ": " << outcome.detail;
    EXPECT_EQ(outcome.site_class, "net") << outcome.failpoint;
  }
}

TEST(FleetNetChaos, ALostHeartbeatDoesNotDegradeTheRun) {
  // find_bugs virtuoso 4000 --fleet=serve --workers=2 --units=4: each
  // worker's fifth frame is a heartbeat, and the reset kills its connection.
  // The fleet absorbs that like any reset, so the journal stays intact.
  CampaignOptions options;
  options.max_statements = 4000;
  options.stop_when_all_bugs_found = true;
  const CampaignResult reference = RunShardedSoftCampaign(kDialect, options, kUnits);

  FleetOptions fleet;
  fleet.socket_path = SocketPath("hbreset");
  fleet.workers = 2;
  fleet.units = kUnits;
  ASSERT_TRUE(failpoint::ArmFromSpec("net.conn_reset=after:4:1").ok());
  const Result<FleetOutcome> outcome = RunFleetCampaign(kDialect, options, fleet);
  failpoint::DisarmAll();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(DigestCampaignResult(outcome->result), DigestCampaignResult(reference));
  EXPECT_FALSE(outcome->result.journal_degraded)
      << "a connection reset the fleet absorbed must not degrade the journal";
}

}  // namespace
}  // namespace fleet
}  // namespace soft
