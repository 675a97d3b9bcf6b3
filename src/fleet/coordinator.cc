#include "src/fleet/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/failpoint/failpoint.h"
#include "src/fleet/doctor.h"
#include "src/fleet/lease.h"
#include "src/fleet/worker_client.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/unit_spool.h"
#include "src/soft/wire.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/util/io.h"

namespace soft {
namespace fleet {
namespace {

constexpr int kJournalRing = 16;  // recent journal lines kept for STATUS

using telemetry::EscapeJson;

// One accepted connection: unclassified until its first frame, then a worker
// transport (bound to a Session) or a status client. Connections are
// disposable — a worker's durable state lives in its Session, which survives
// any number of condemned connections.
struct Conn {
  int id = -1;
  int fd = -1;
  enum class Kind { kUnknown, kWorker, kStatus } kind = Kind::kUnknown;
  std::string token;          // owning session (kWorker only)
  wire::FrameDecoder decoder;
  bool seen_frame = false;    // first frame of a connection sets the seq base
  uint32_t last_in = 0;
  std::string held;           // net.frame_delay parking buffer (outbound)
  uint64_t last_activity_ns = 0;
  uint64_t last_ping_ns = 0;
  // --- status clients: nonblocking writes out of a bounded buffer ---
  bool watch = false;
  bool trace = false;
  uint32_t status_seq = 0;
  std::string outbuf;
  size_t out_off = 0;
  bool close_after_flush = false;
  bool dead = false;
};

// One worker session: the durable identity a reconnecting worker resumes by
// replaying its token. Sequence counters span connections, which is what
// makes a replayed/duplicated frame from a condemned connection detectable.
struct Session {
  std::string token;
  int worker = -1;
  int64_t pid = 0;
  uint32_t seq_out = 0;      // coordinator→worker frame counter, all conns
  uint32_t last_in = 0;      // highest worker frame seq accepted, all conns
  int conn = -1;             // Conn::id of the live connection, -1 = partitioned
  int units_completed = 0;
  bool waiting = false;      // REQ seen while nothing was grantable
  int collecting_unit = -1;  // UNIT header seen, result block in flight
  wire::ResultBlock block;
  bool finished = false;     // FIN delivered — the session is complete
};

class Coordinator {
 public:
  Coordinator(const std::string& dialect, const CampaignOptions& options,
              const FleetOptions& fleet)
      : dialect_(dialect), options_(options), fleet_(fleet) {}

  Result<FleetOutcome> Run();

 private:
  // --- journal --------------------------------------------------------------
  void JournalEmit(const std::string& line) {
    ring_.push_back(line);
    while (ring_.size() > kJournalRing) {
      ring_.pop_front();
    }
    if (journal_.is_open()) {
      journal_ << line;
      journal_.flush();
    }
  }
  void JournalLease(const std::string& action, int unit, int worker, int cases,
                    uint64_t digest) {
    std::ostringstream line;
    telemetry::WriteLeaseEvent(line, {action, unit, worker, cases, digest});
    JournalEmit(line.str());
  }
  void JournalNet(const std::string& kind, const std::string& detail,
                  const std::string& session, int worker, int unit) {
    telemetry::JournalNetEvent event;
    event.kind = kind;
    event.detail = detail;
    event.session = session;
    event.worker = worker;
    event.unit = unit;
    std::ostringstream line;
    telemetry::WriteNetEvent(line, event);
    JournalEmit(line.str());
  }

  // --- lookups --------------------------------------------------------------
  Conn* FindConn(int id) {
    if (id < 0) {
      return nullptr;
    }
    for (Conn& conn : conns_) {
      if (conn.id == id) {
        return &conn;
      }
    }
    return nullptr;
  }
  Session* FindSession(const std::string& token) {
    const auto it = sessions_.find(token);
    return it == sessions_.end() ? nullptr : &it->second;
  }
  Session* SessionByWorker(int worker) {
    for (auto& [token, session] : sessions_) {
      if (session.worker == worker) {
        return &session;
      }
    }
    return nullptr;
  }
  int WorkerConnCount() {
    int n = 0;
    for (const Conn& conn : conns_) {
      n += (!conn.dead && conn.kind == Conn::Kind::kWorker) ? 1 : 0;
    }
    return n;
  }

  // --- framed writes --------------------------------------------------------
  Status SessionWrite(Session& session, const std::string& payload) {
    Conn* conn = FindConn(session.conn);
    if (conn == nullptr || conn->dead) {
      return IoError("session '" + session.token + "' is disconnected");
    }
    wire::FramedWriter writer(conn->fd, &session.seq_out, &conn->held);
    return writer.WriteLine(payload);
  }

  // --- connection / session teardown ---------------------------------------
  // Condemns a connection. The session (if any) survives: its leases keep
  // their deadlines and the worker is expected back with its token. Only the
  // lease deadline — never a connection loss — gives work away.
  void CloseConn(Conn& conn, const std::string& reason) {
    if (conn.dead) {
      return;
    }
    conn.dead = true;
    ::close(conn.fd);
    conn.fd = -1;
    if (conn.kind != Conn::Kind::kWorker) {
      return;
    }
    Session* session = FindSession(conn.token);
    if (session == nullptr || session->conn != conn.id) {
      return;
    }
    session->conn = -1;
    session->collecting_unit = -1;  // a half-received block died with the conn
    session->block = wire::ResultBlock();
    session->waiting = false;
    if (!session->finished) {
      ++stats_.conns_dropped;
      JournalNet("disconnect", reason, session->token, session->worker, -1);
    }
  }

  // Declares the worker dead for good: journals the death, reclaims every
  // lease it held, and forgets the session. Used for reaped local children
  // and hung-but-connected workers — never for a mere connection loss.
  void KillSession(Session& session, const std::string& reason) {
    if (Conn* conn = FindConn(session.conn); conn != nullptr && !conn->dead) {
      conn->dead = true;
      ::close(conn->fd);
      conn->fd = -1;
    }
    telemetry::JournalWorkerDeath event;
    event.worker = session.worker;
    event.pid = session.pid;
    event.units_completed = session.units_completed;
    event.reason = reason;
    std::ostringstream line;
    telemetry::WriteWorkerDeathEvent(line, event);
    JournalEmit(line.str());
    ++stats_.worker_deaths;
    for (const int unit : table_->ReclaimWorker(session.worker)) {
      JournalLease("reclaim", unit, session.worker, 0, 0);
    }
    sessions_.erase(session.token);  // `session` is dangling past this line
  }

  // --- workers --------------------------------------------------------------
  void SpawnWorker() {
    // fleet.worker_spawn (chaos): the spawned worker SIGKILLs itself at its
    // first unit's grant acknowledgement — the injected fault the
    // lease-reclaim + work-stealing ladder must absorb.
    const bool chaos_kill = SOFT_FAILPOINT_HIT("fleet.worker_spawn");
    FleetWorkerOptions w;
    if (!fleet_.tcp_listen.empty()) {
      w.tcp_connect = stats_.bound_address;
    } else {
      w.socket_path = fleet_.socket_path;
    }
    w.backoff_initial_ms = fleet_.backoff_initial_ms;
    w.backoff_max_ms = fleet_.backoff_max_ms;
    if (chaos_kill) {
      w.kill9_at_unit = 0;
    }
    if (stats_.workers_spawned == 0) {
      if (fleet_.test_kill_worker_at_unit >= 0) {
        w.kill9_at_unit = fleet_.test_kill_worker_at_unit;
      }
      if (fleet_.test_hang_worker_at_unit >= 0) {
        w.hang_at_unit = fleet_.test_hang_worker_at_unit;
      }
      if (fleet_.test_partition_worker_at_unit >= 0) {
        w.partition_at_unit = fleet_.test_partition_worker_at_unit;
        w.partition_ms = fleet_.test_partition_ms;
      }
    }
    ++stats_.workers_spawned;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(listen_fd_);
      for (const Conn& conn : conns_) {
        if (conn.fd >= 0) {
          ::close(conn.fd);
        }
      }
      ::_exit(RunFleetWorker(w, pool_));
    }
    if (pid > 0) {
      children_.insert(pid);
    }
  }

  void ReapChildren() {
    for (auto it = children_.begin(); it != children_.end();) {
      int wstatus = 0;
      const pid_t pid = *it;
      if (::waitpid(pid, &wstatus, WNOHANG) != pid) {
        ++it;
        continue;
      }
      it = children_.erase(it);
      // A reaped child is dead for certain — no point waiting out its lease.
      std::string token;
      for (const auto& [tok, session] : sessions_) {
        if (session.pid == static_cast<int64_t>(pid)) {
          token = tok;
          break;
        }
      }
      if (token.empty()) {
        continue;
      }
      Session& session = sessions_[token];
      if (session.finished) {
        sessions_.erase(token);  // clean exit after FIN
        continue;
      }
      const std::string reason =
          WIFSIGNALED(wstatus)
              ? "signal " + std::to_string(WTERMSIG(wstatus))
              : "exited " + std::to_string(WEXITSTATUS(wstatus));
      KillSession(session, reason);
    }
  }

  // --- lease/grant ----------------------------------------------------------
  Grant GrantFor(int unit) const {
    Grant grant;
    grant.unit = unit;
    grant.units = units_;
    grant.dialect = dialect_;
    grant.options = options_;
    grant.heartbeat_every = fleet_.heartbeat_every;
    grant.campaign_base_ns = campaign_base_ns_;
    grant.pool_digest = pool_->digest;
    return grant;
  }

  void TryGrant(Session& session) {
    Conn* conn = FindConn(session.conn);
    if (conn == nullptr || conn->dead || session.finished) {
      return;
    }
    const uint64_t now = telemetry::MonotonicNowNs();
    const int unit = table_->Grant(session.worker, now, lease_ns_);
    if (unit < 0) {
      session.waiting = !table_->AllDone();
      return;
    }
    session.waiting = false;
    const bool stolen = table_->Snapshot()[unit].reclaimed;
    JournalLease(stolen ? "steal" : "grant", unit, session.worker, 0, 0);
    // fleet.lease_grant (chaos): the grant send fails — the connection drops,
    // the session survives, and the reconnecting worker is re-delivered the
    // GRANT when it resumes.
    if (SOFT_FAILPOINT_HIT("fleet.lease_grant")) {
      CloseConn(*conn, "lease_grant fault injected");
      return;
    }
    if (!SessionWrite(session, GrantFor(unit).Encode()).ok()) {
      CloseConn(*conn, "grant write failed");
    }
  }

  void GrantWaiting() {
    for (auto& [token, session] : sessions_) {
      if (session.waiting && !session.finished) {
        TryGrant(session);
      }
    }
  }

  // A resumed session gets back every GRANT whose FIN the coordinator never
  // saw: the units still leased to this worker. The lease deadlines restart —
  // the worker just proved it is alive.
  void RedeliverLeases(Session& session) {
    const uint64_t now = telemetry::MonotonicNowNs();
    for (const LeaseView& view : table_->Snapshot()) {
      if (view.state != UnitState::kLeased || view.worker != session.worker) {
        continue;
      }
      table_->Heartbeat(view.unit, session.worker, view.cases, now, lease_ns_);
      ++stats_.grants_redelivered;
      JournalNet("redeliver", "grant", session.token, session.worker, view.unit);
      if (!SessionWrite(session, GrantFor(view.unit).Encode()).ok()) {
        if (Conn* conn = FindConn(session.conn)) {
          CloseConn(*conn, "grant redelivery write failed");
        }
        return;
      }
    }
  }

  // --- result intake --------------------------------------------------------
  void AcceptUnit(Session& session) {
    const int unit = session.collecting_unit;
    session.collecting_unit = -1;
    ShardResult outcome;
    outcome.result = std::move(session.block.result);
    outcome.coverage = std::move(session.block.coverage);
    session.block = wire::ResultBlock();
    if (!table_->Complete(unit, session.worker)) {
      // Double delivery: the unit was completed elsewhere (or this worker's
      // lease was stolen while it was partitioned). At-least-once delivery is
      // deduplicated here, which is what keeps the merge exactly-once.
      const uint64_t digest = DigestCampaignResult(outcome.result);
      const bool match =
          unit >= 0 && unit < units_ && results_[unit].has_value() &&
          DigestCampaignResult(results_[unit]->result) == digest;
      ++stats_.dup_results_deduped;
      JournalNet("dup_result", match ? "match" : "stale", session.token,
                 session.worker, unit);
      return;
    }
    ++session.units_completed;
    CommitUnit(unit, session.worker, std::move(outcome));
  }

  void CommitUnit(int unit, int worker, ShardResult outcome) {
    const uint64_t digest = DigestCampaignResult(outcome.result);
    const int cases = outcome.result.statements_executed;
    // Spool, then the `complete` record (src/soft/unit_spool.h). A failed
    // commit journals nothing and latches journal_degraded on the outcome.
    static_cast<void>(spool_->Commit(unit, worker, outcome));
    // Live status watchers see the completion (and, with trace, the unit's
    // TRS span lines) as it commits. Purely observational: enqueue into the
    // bounded nonblocking buffers, never wait on a reader.
    const std::string done_line =
        "{\"event\":\"fleet_unit_done\",\"unit\":" + std::to_string(unit) +
        ",\"worker\":" + std::to_string(worker) +
        ",\"cases\":" + std::to_string(cases) + ",\"digest\":\"" +
        std::to_string(digest) + "\"}";
    for (Conn& conn : conns_) {
      if (conn.dead || conn.kind != Conn::Kind::kStatus || !conn.watch) {
        continue;
      }
      StatusEnqueue(conn, done_line);
      if (conn.dead || !conn.trace) {
        continue;
      }
      for (const trace::TraceSpan& span : outcome.result.trace.spans) {
        StatusEnqueue(conn, "TRS " + wire::EncodeSpan(span));
        if (conn.dead) {
          break;
        }
      }
    }
    Merge(unit, std::move(outcome));
    // Only a worker-driven completion proves the fleet recovered; a
    // degrade-to-local completion (worker == -1) finishes the campaign but
    // leaves any stall unacknowledged — that distinction is exit code 4.
    if (worker >= 0) {
      stall_unacked_ = false;
    }
  }

  // Accepts a committed or re-admitted unit result for the final merge.
  void Merge(int unit, ShardResult outcome) {
    statements_merged_ += static_cast<uint64_t>(outcome.result.statements_executed);
    bugs_merged_ += outcome.result.unique_bugs.size();
    results_[unit] = std::move(outcome);
    ++stats_.units_completed;
  }

  // --- frame pump and per-payload dispatch ----------------------------------
  void PumpFrames(Conn& conn) {
    wire::Frame frame;
    while (!conn.dead) {
      const wire::FrameStatus status = conn.decoder.Next(frame);
      if (status == wire::FrameStatus::kNeedMore) {
        return;
      }
      if (status == wire::FrameStatus::kBad) {
        // Framing is lost — nothing later on this byte stream can be
        // trusted. The connection dies; the session does not.
        CloseConn(conn, "bad frame: " + conn.decoder.error());
        return;
      }
      if (conn.seen_frame) {
        if (frame.seq <= conn.last_in) {
          continue;  // duplicated frame — dropped silently
        }
        if (frame.seq != conn.last_in + 1) {
          CloseConn(conn, "sequence gap (frame lost in transit)");
          return;
        }
      }
      conn.seen_frame = true;
      conn.last_in = frame.seq;
      if (frame.payload == "PONG") {
        continue;  // liveness only — the read already refreshed activity
      }
      ProcessPayload(conn, frame);
    }
  }

  void ProcessPayload(Conn& conn, const wire::Frame& frame) {
    if (conn.kind == Conn::Kind::kStatus) {
      return;  // status clients are one-way after the request
    }
    if (conn.kind == Conn::Kind::kWorker) {
      Session* session = FindSession(conn.token);
      if (session == nullptr) {
        CloseConn(conn, "session vanished");
        return;
      }
      session->last_in = std::max(session->last_in, frame.seq);
      ProcessWorkerLine(conn, *session, frame.payload);
      return;
    }
    // Unclassified: the first payload decides what this connection is.
    std::istringstream in(frame.payload);
    std::string tag;
    in >> tag;
    if (tag == "HELLO") {
      HandleHello(conn, frame, in);
    } else if (tag == "STATUS") {
      HandleStatusRequest(conn, in);
    } else if (tag == "METRICS") {
      HandleMetricsRequest(conn);
    } else {
      CloseConn(conn, "unclassified first payload");
    }
  }

  void HandleHello(Conn& conn, const wire::Frame& frame, std::istringstream& in) {
    int proto = 0;
    int64_t pid = 0;
    std::string token;
    if (!(in >> proto >> pid >> token)) {
      CloseConn(conn, "malformed HELLO");
      return;
    }
    if (proto != wire::kFrameProtocolVersion) {
      // Refuse loudly: a one-frame ERR the worker can surface, then close.
      uint32_t seq = 0;
      wire::FramedWriter writer(conn.fd, &seq, &conn.held);
      static_cast<void>(writer.WriteLine(
          "ERR " + wire::HexEncode("fleet protocol version mismatch (worker v" +
                                   std::to_string(proto) + ", coordinator v" +
                                   std::to_string(int{wire::kFrameProtocolVersion}) +
                                   ")")));
      CloseConn(conn, "protocol version mismatch");
      return;
    }
    Session* resumed = token == "-" ? nullptr : FindSession(token);
    if (resumed != nullptr) {
      Session& session = *resumed;
      if (session.finished || frame.seq <= session.last_in) {
        // A finished session never resumes; a HELLO at or below the session
        // high-water mark is a replay from a condemned connection.
        CloseConn(conn, "stale HELLO replay");
        return;
      }
      if (Conn* old = FindConn(session.conn); old != nullptr && !old->dead) {
        CloseConn(*old, "superseded by session reconnect");
      }
      BindSession(conn, session);
      session.last_in = frame.seq;
      ++stats_.sessions_resumed;
      JournalNet("session", "resume", session.token, session.worker, -1);
      if (!SessionWrite(session, Welcome(session)).ok()) {
        CloseConn(conn, "welcome write failed");
        return;
      }
      RedeliverLeases(session);
      return;
    }
    Session fresh;
    fresh.worker = next_worker_++;
    fresh.pid = pid;
    fresh.token = "s" + std::to_string(fresh.worker) + "." +
                  std::to_string(pid) + "." +
                  std::to_string(next_session_nonce_++);
    fresh.last_in = frame.seq;
    Session& session =
        sessions_.emplace(fresh.token, std::move(fresh)).first->second;
    BindSession(conn, session);
    JournalNet("session", "open", session.token, session.worker, -1);
    if (!SessionWrite(session, Welcome(session)).ok()) {
      CloseConn(conn, "welcome write failed");
    }
  }

  void BindSession(Conn& conn, Session& session) {
    conn.kind = Conn::Kind::kWorker;
    conn.token = session.token;
    session.conn = conn.id;
    session.collecting_unit = -1;
    session.block = wire::ResultBlock();
    session.waiting = false;
  }

  std::string Welcome(const Session& session) {
    return "WELCOME " + std::to_string(int{wire::kFrameProtocolVersion}) + " " +
           session.token + " " + std::to_string(session.worker);
  }

  void ProcessWorkerLine(Conn& conn, Session& session, const std::string& line) {
    if (session.collecting_unit >= 0) {
      if (!wire::ConsumeResultLine(line, session.block)) {
        CloseConn(conn, "malformed result block");
        return;
      }
      if (session.block.complete) {
        AcceptUnit(session);
      }
      return;
    }
    std::istringstream in(line);
    std::string tag;
    in >> tag;
    if (tag == "REQ") {
      TryGrant(session);
      if (!conn.dead && table_->AllDone()) {
        FinishSession(session);
      }
    } else if (tag == "HB") {
      int unit = 0, cases = 0;
      in >> unit >> cases;
      // fleet.heartbeat_rx (chaos): the heartbeat is lost in transit — the
      // lease deadline is simply not refreshed this round.
      if (SOFT_FAILPOINT_HIT("fleet.heartbeat_rx")) {
        return;
      }
      const uint64_t now = telemetry::MonotonicNowNs();
      table_->Heartbeat(unit, session.worker, cases, now, lease_ns_);
    } else if (tag == "UNIT") {
      int unit = 0;
      in >> unit;
      // fleet.result_rx (chaos): the connection dies at the result header.
      // The session survives — on resume the GRANT is re-delivered and the
      // worker resends its cached result instead of re-executing.
      if (SOFT_FAILPOINT_HIT("fleet.result_rx")) {
        CloseConn(conn, "result_rx fault injected");
        return;
      }
      session.collecting_unit = unit;
      session.block = wire::ResultBlock();
    } else if (tag == "PING") {
      if (!SessionWrite(session, "PONG").ok()) {
        CloseConn(conn, "pong write failed");
      }
    } else {
      CloseConn(conn, "unknown protocol line");
    }
  }

  void FinishSession(Session& session) {
    static_cast<void>(SessionWrite(session, "FIN"));
    session.finished = true;
    if (Conn* conn = FindConn(session.conn); conn != nullptr && !conn->dead) {
      conn->dead = true;
      ::close(conn->fd);
      conn->fd = -1;
    }
    session.conn = -1;
  }

  // --- status endpoint ------------------------------------------------------
  void HandleStatusRequest(Conn& conn, std::istringstream& in) {
    std::string opt1, opt2;
    in >> opt1 >> opt2;
    conn.kind = Conn::Kind::kStatus;
    conn.watch = opt1 == "watch";
    conn.trace = conn.watch && opt2 == "trace";
    const int flags = ::fcntl(conn.fd, F_GETFL, 0);
    if (flags >= 0) {
      ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
    }
    for (const std::string& line : StatusLines()) {
      StatusEnqueue(conn, line);
      if (conn.dead) {
        return;
      }
    }
    if (!conn.watch) {
      StatusEnqueue(conn, "{\"event\":\"fleet_status_end\"}");
      if (!conn.dead) {
        conn.close_after_flush = true;
        FlushStatus(conn);
      }
    }
  }

  // One Prometheus text-exposition snapshot of everything this coordinator
  // can see: the live lease/worker gauges and doctor rates, the FleetStats
  // and lease-table counters, the merged campaign telemetry (stage
  // histograms + per-pattern counters) and failpoint site counters.
  // Read-only over coordinator state.
  telemetry::MetricsRegistry BuildMetrics() {
    telemetry::MetricsRegistry reg;
    const LeaseCounters& counters = table_->counters();
    reg.Gauge("soft_fleet_units", "Work units by lease state",
              {{"state", "pending"}}, static_cast<double>(table_->pending()));
    reg.Gauge("soft_fleet_units", "Work units by lease state",
              {{"state", "leased"}}, static_cast<double>(table_->leased()));
    reg.Gauge("soft_fleet_units", "Work units by lease state",
              {{"state", "done"}}, static_cast<double>(table_->done()));
    reg.Gauge("soft_fleet_workers_live", "Connected worker sessions", {},
              static_cast<double>(WorkerConnCount()));
    reg.Gauge("soft_fleet_health",
              "Campaign-health doctor state (0 ok, 1 warn, 2 stall)", {},
              doctor_.has_value()
                  ? static_cast<double>(static_cast<int>(doctor_->state()))
                  : 0.0);
    if (doctor_.has_value()) {
      const HealthRates& rates = doctor_->rates();
      reg.Gauge("soft_fleet_statements_per_second",
                "Merged statement rate over the doctor window", {},
                rates.statements_per_s);
      reg.Gauge("soft_fleet_units_per_second",
                "Unit completion rate over the doctor window", {},
                rates.units_per_s);
      reg.Gauge("soft_fleet_bugs_per_second",
                "Unique-bug discovery rate over the doctor window", {},
                rates.bugs_per_s);
      reg.Gauge("soft_fleet_reclaims_per_second",
                "Lease reclaim rate over the doctor window", {},
                rates.reclaims_per_s);
      reg.Gauge("soft_fleet_redeliveries_per_second",
                "GRANT redelivery rate over the doctor window", {},
                rates.redeliveries_per_s);
    }
    const struct {
      const char* name;
      const char* help;
      uint64_t value;
    } kCounters[] = {
        {"soft_fleet_workers_spawned_total", "Worker processes forked",
         stats_.workers_spawned},
        {"soft_fleet_worker_deaths_total", "Worker deaths observed",
         stats_.worker_deaths},
        {"soft_fleet_leases_granted_total", "Leases granted", counters.granted},
        {"soft_fleet_leases_reclaimed_total", "Expired leases reclaimed",
         counters.reclaimed},
        {"soft_fleet_leases_stolen_total",
         "Grants of previously-reclaimed units", counters.stolen},
        {"soft_fleet_heartbeats_total", "Accepted worker heartbeats",
         counters.heartbeats},
        {"soft_fleet_units_completed_total", "Accepted unit results",
         stats_.units_completed},
        {"soft_fleet_units_run_locally_total",
         "Units executed on the degrade-to-local path",
         stats_.units_run_locally},
        {"soft_fleet_units_resumed_total", "Units re-admitted from the spool",
         stats_.units_resumed},
        {"soft_fleet_units_spool_diverged_total",
         "Spool digest mismatches (unit re-run)", stats_.units_spool_diverged},
        {"soft_fleet_sessions_resumed_total",
         "Worker sessions resumed after a disconnect", stats_.sessions_resumed},
        {"soft_fleet_grants_redelivered_total",
         "GRANTs re-sent to resumed sessions", stats_.grants_redelivered},
        {"soft_fleet_dup_results_deduped_total",
         "Double-delivered unit results discarded", stats_.dup_results_deduped},
        {"soft_fleet_conns_dropped_total", "Connections condemned",
         stats_.conns_dropped},
        {"soft_fleet_status_overflow_drops_total",
         "Status readers dropped for a full buffer",
         stats_.status_overflow_drops},
        {"soft_fleet_health_transitions_total", "Doctor state changes",
         stats_.health_transitions},
        {"soft_fleet_health_stalls_total", "Doctor transitions into stall",
         stats_.health_stalls},
        {"soft_fleet_metrics_snapshots_total", "--metrics-out files written",
         stats_.metrics_snapshots},
    };
    for (const auto& spec : kCounters) {
      reg.Counter(spec.name, spec.help, {}, spec.value);
    }
    for (const auto& [state, transitions] : transitions_by_state_) {
      reg.Counter("soft_health_transitions_by_state_total",
                  "Doctor transitions by resulting state", {{"state", state}},
                  transitions);
    }
    const telemetry::MetricLabels dialect_labels = {{"dialect", dialect_}};
    reg.Counter("soft_statements_total",
                "Statements executed across merged units", dialect_labels,
                statements_merged_);
    uint64_t watchdog = 0;
    for (const std::optional<ShardResult>& outcome : results_) {
      if (outcome.has_value()) {
        watchdog += static_cast<uint64_t>(outcome->result.watchdog_timeouts);
      }
    }
    reg.Counter("soft_watchdog_timeouts_total",
                "Statement-watchdog deadline kills across merged units",
                dialect_labels, watchdog);
    telemetry::AddTelemetryMetrics(reg, MergedTelemetry());
    telemetry::AddFailpointMetrics(reg);
    return reg;
  }

  // METRICS verb: one rendered exposition snapshot over the status-client
  // machinery (nonblocking, bounded buffer, close after flush).
  void HandleMetricsRequest(Conn& conn) {
    conn.kind = Conn::Kind::kStatus;
    conn.watch = false;
    const int flags = ::fcntl(conn.fd, F_GETFL, 0);
    if (flags >= 0) {
      ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
    }
    const std::string text = BuildMetrics().RenderPrometheusText();
    size_t start = 0;
    while (start < text.size() && !conn.dead) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) {
        end = text.size();
      }
      StatusEnqueue(conn, text.substr(start, end - start));
      start = end + 1;
    }
    if (!conn.dead) {
      conn.close_after_flush = true;
      FlushStatus(conn);
    }
  }

  telemetry::CampaignTelemetry MergedTelemetry() const {
    telemetry::CampaignTelemetry merged;
    for (const std::optional<ShardResult>& outcome : results_) {
      if (outcome.has_value()) {
        merged.MergeFrom(outcome->result.telemetry);
      }
    }
    return merged;
  }

  // --- campaign-health doctor ------------------------------------------------
  void ObserveHealth(uint64_t now) {
    if (!doctor_.has_value()) {
      return;
    }
    HealthSample sample;
    sample.now_ns = now;
    sample.statements = statements_merged_;
    sample.units_completed = stats_.units_completed;
    sample.bugs = bugs_merged_;
    sample.reclaims = table_->counters().reclaimed;
    sample.redeliveries = stats_.grants_redelivered;
    sample.journal_degraded =
        (journal_.is_open() && !journal_.good()) || !spool_->failures().empty();
    sample.all_done = table_->AllDone();
    const HealthVerdict verdict = doctor_->Observe(sample);
    if (!verdict.changed) {
      return;
    }
    ++stats_.health_transitions;
    stats_.health = std::string(HealthStateName(verdict.state));
    ++transitions_by_state_[stats_.health];
    stats_.health_reason = verdict.reason;
    if (verdict.state == HealthState::kStall) {
      ++stats_.health_stalls;
      stall_unacked_ = true;
    }
    telemetry::JournalHealthEvent event;
    event.state = stats_.health;
    event.reason = verdict.reason;
    event.statements_per_s = verdict.rates.statements_per_s;
    event.units_per_s = verdict.rates.units_per_s;
    event.bugs_per_s = verdict.rates.bugs_per_s;
    event.reclaims_per_s = verdict.rates.reclaims_per_s;
    event.redeliveries_per_s = verdict.rates.redeliveries_per_s;
    event.wall_ms = static_cast<double>(now - campaign_base_ns_) / 1e6;
    std::ostringstream line;
    telemetry::WriteHealthEvent(line, event);
    JournalEmit(line.str());
    const std::string health_line =
        "{\"event\":\"fleet_health\",\"state\":\"" + stats_.health +
        "\",\"reason\":\"" + EscapeJson(verdict.reason) + "\"}";
    for (Conn& conn : conns_) {
      if (!conn.dead && conn.kind == Conn::Kind::kStatus && conn.watch) {
        StatusEnqueue(conn, health_line);
      }
    }
  }

  void MaybeWriteMetricsSnapshot(uint64_t now, bool force) {
    if (fleet_.metrics_out.empty()) {
      return;
    }
    if (!force && now < next_metrics_ns_) {
      return;
    }
    next_metrics_ns_ =
        now + static_cast<uint64_t>(std::max(fleet_.metrics_every_ms, 1)) *
                  1000000ull;
    const telemetry::MetricsRegistry reg = BuildMetrics();
    if (!io::WriteFileAtomic(fleet_.metrics_out, reg.RenderPrometheusText())
             .ok()) {
      return;
    }
    ++stats_.metrics_snapshots;
    telemetry::JournalMetricsSnapshot snap;
    snap.series = reg.series_count();
    snap.statements = statements_merged_;
    snap.units_done = stats_.units_completed;
    snap.health = doctor_.has_value()
                      ? std::string(HealthStateName(doctor_->state()))
                      : "ok";
    snap.wall_ms = static_cast<double>(now - campaign_base_ns_) / 1e6;
    std::ostringstream line;
    telemetry::WriteMetricsSnapshotEvent(line, snap);
    JournalEmit(line.str());
  }

  std::vector<std::string> StatusLines() {
    std::vector<std::string> lines;
    lines.push_back(
        "{\"event\":\"fleet_status\",\"dialect\":\"" + EscapeJson(dialect_) +
        "\",\"bound\":\"" + EscapeJson(stats_.bound_address) +
        "\",\"health\":\"" + EscapeJson(stats_.health) +
        "\",\"health_reason\":\"" + EscapeJson(stats_.health_reason) +
        "\",\"units\":" + std::to_string(units_) +
        ",\"pending\":" + std::to_string(table_->pending()) +
        ",\"leased\":" + std::to_string(table_->leased()) +
        ",\"done\":" + std::to_string(table_->done()) +
        ",\"workers_live\":" + std::to_string(WorkerConnCount()) +
        ",\"workers_spawned\":" + std::to_string(stats_.workers_spawned) +
        ",\"worker_deaths\":" + std::to_string(stats_.worker_deaths) +
        ",\"leases_granted\":" + std::to_string(table_->counters().granted) +
        ",\"leases_reclaimed\":" + std::to_string(table_->counters().reclaimed) +
        ",\"leases_stolen\":" + std::to_string(table_->counters().stolen) +
        ",\"heartbeats\":" + std::to_string(table_->counters().heartbeats) +
        ",\"units_completed\":" + std::to_string(stats_.units_completed) +
        ",\"units_run_locally\":" + std::to_string(stats_.units_run_locally) +
        ",\"units_resumed\":" + std::to_string(stats_.units_resumed) +
        ",\"sessions_resumed\":" + std::to_string(stats_.sessions_resumed) +
        ",\"conns_dropped\":" + std::to_string(stats_.conns_dropped) +
        ",\"dup_results_deduped\":" + std::to_string(stats_.dup_results_deduped) +
        "}");
    for (const auto& [token, session] : sessions_) {
      if (session.finished) {
        continue;
      }
      lines.push_back(
          "{\"event\":\"fleet_worker\",\"worker\":" + std::to_string(session.worker) +
          ",\"session\":\"" + EscapeJson(token) +
          "\",\"pid\":" + std::to_string(session.pid) +
          ",\"connected\":" + (FindConn(session.conn) != nullptr ? "true" : "false") +
          ",\"units_completed\":" + std::to_string(session.units_completed) +
          ",\"collecting\":" + std::to_string(session.collecting_unit) + "}");
    }
    for (const LeaseView& view : table_->Snapshot()) {
      const char* state = view.state == UnitState::kPending  ? "pending"
                          : view.state == UnitState::kLeased ? "leased"
                                                             : "done";
      lines.push_back(
          "{\"event\":\"fleet_unit\",\"unit\":" + std::to_string(view.unit) +
          ",\"state\":\"" + state +
          "\",\"worker\":" + std::to_string(view.worker) +
          ",\"cases\":" + std::to_string(view.cases) +
          ",\"reclaimed\":" + (view.reclaimed ? std::string("true") : "false") +
          "}");
    }
    // Per-pattern telemetry of the units merged so far (deterministic sums;
    // empty under -DSOFT_TELEMETRY=OFF).
    for (const auto& [pattern, counters] : MergedTelemetry().patterns) {
      lines.push_back(
          "{\"event\":\"fleet_pattern\",\"pattern\":\"" + EscapeJson(pattern) +
          "\",\"executed\":" + std::to_string(counters.executed) +
          ",\"crashes\":" + std::to_string(counters.crashes) +
          ",\"bugs_deduped\":" + std::to_string(counters.bugs_deduped) +
          ",\"logic_checks\":" + std::to_string(counters.logic_checks) +
          ",\"logic_bugs\":" + std::to_string(counters.logic_bugs) + "}");
    }
    for (const std::string& line : ring_) {
      std::string stripped = line;
      while (!stripped.empty() && stripped.back() == '\n') {
        stripped.pop_back();
      }
      lines.push_back("{\"event\":\"fleet_recent\",\"line\":\"" +
                      EscapeJson(stripped) + "\"}");
    }
    return lines;
  }

  void StatusEnqueue(Conn& conn, const std::string& line) {
    if (conn.dead) {
      return;
    }
    conn.outbuf += wire::EncodeFrame(++conn.status_seq, line);
    if (conn.outbuf.size() - conn.out_off > status_cap_) {
      // The reader stopped draining. Drop it — never the coordinator's pace.
      ++stats_.status_overflow_drops;
      CloseConn(conn, "status buffer overflow");
      return;
    }
    FlushStatus(conn);
  }

  void FlushStatus(Conn& conn) {
    while (!conn.dead && conn.out_off < conn.outbuf.size()) {
      const ssize_t n = ::write(conn.fd, conn.outbuf.data() + conn.out_off,
                                conn.outbuf.size() - conn.out_off);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;  // kernel buffer full — POLLOUT resumes the flush
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      CloseConn(conn, "status write failed");
      return;
    }
    if (conn.dead) {
      return;
    }
    conn.outbuf.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) {
      CloseConn(conn, "status complete");
    }
  }

  // --- degrade ladder -------------------------------------------------------
  void RunRemainingLocally() {
    stats_.degraded_to_local = true;
    JournalLease("local", -1, -1, 0, 0);
    for (const LeaseView& view : table_->Snapshot()) {
      if (view.state == UnitState::kDone) {
        continue;
      }
      const ShardPlan plan = GrantFor(view.unit).Plan();
      ShardResult outcome = ExecuteShardPlan(
          [this] { return std::make_unique<SoftFuzzer>(SoftOptions(), pool_); },
          [this] { return MakeDialect(dialect_); }, plan, campaign_base_ns_);
      table_->ForceComplete(view.unit, -1);
      ++stats_.units_run_locally;
      CommitUnit(view.unit, -1, std::move(outcome));
    }
  }

  const std::string dialect_;
  const CampaignOptions options_;
  const FleetOptions fleet_;
  // The campaign's case pool, built once before any worker forks: forked
  // workers inherit it, the degrade path runs it, GRANT carries its digest.
  std::shared_ptr<const CasePool> pool_;
  int units_ = 0;
  uint64_t lease_ns_ = 0;
  uint64_t heartbeat_ns_ = 0;
  size_t status_cap_ = 1 << 20;
  uint64_t campaign_base_ns_ = 0;
  std::ofstream journal_;
  std::optional<UnitSpool> spool_;  // every unit commits through it
  std::deque<std::string> ring_;
  std::optional<LeaseTable> table_;
  std::optional<HealthDoctor> doctor_;
  std::map<std::string, uint64_t> transitions_by_state_;  // doctor, by new state
  uint64_t statements_merged_ = 0;  // cumulative, updated at unit commit
  uint64_t bugs_merged_ = 0;
  bool stall_unacked_ = false;      // set on stall, cleared by worker commits
  uint64_t next_metrics_ns_ = 0;    // next --metrics-out snapshot due
  std::vector<std::optional<ShardResult>> results_;
  std::vector<Conn> conns_;
  std::map<std::string, Session> sessions_;
  std::set<pid_t> children_;
  int listen_fd_ = -1;
  int next_worker_ = 0;
  int next_conn_id_ = 0;
  uint64_t next_session_nonce_ = 0;
  FleetStats stats_;
};

Result<FleetOutcome> Coordinator::Run() {
  if (options_.crash_realism != CrashRealism::kSimulated) {
    return InvalidArgument(
        "fleet campaigns run simulated crash realization (workers are already "
        "process isolation); drop --crash-mode=real");
  }
  const Endpoint endpoint = ListenEndpoint(fleet_);
  if (endpoint.empty()) {
    return InvalidArgument(
        "fleet: a socket_path or tcp_listen endpoint is required");
  }
  if (fleet_.resume && fleet_.journal_path.empty()) {
    return InvalidArgument("fleet: resume needs a journal_path");
  }
  pool_ = BuildCasePool(dialect_, options_);
  if (pool_ == nullptr) {
    return InvalidArgument("unknown dialect '" + dialect_ + "'");
  }

  io::IgnoreSigpipe();

  units_ = fleet_.units > 0 ? fleet_.units : kDefaultUnits;
  lease_ns_ = static_cast<uint64_t>(std::max(fleet_.lease_deadline_ms, 1)) * 1000000ull;
  heartbeat_ns_ =
      static_cast<uint64_t>(std::max(fleet_.heartbeat_timeout_ms, 1)) * 1000000ull;
  status_cap_ = static_cast<size_t>(std::max(fleet_.status_buffer_cap, 4096));
  std::string spool_dir = fleet_.spool_dir;
  if (spool_dir.empty() && !fleet_.journal_path.empty()) {
    spool_dir = SpoolDirFor(fleet_.journal_path);
  }
  stats_.units = units_;
  table_.emplace(units_);
  results_.resize(units_);

  // A resume is the journal's own campaign or nothing: checked before the
  // journal is touched.
  std::optional<UnitResume> resume;
  if (fleet_.resume) {
    SOFT_ASSIGN_OR_RETURN(UnitResume loaded, LoadUnitResume(fleet_.journal_path));
    SOFT_RETURN_IF_ERROR(CheckResumeMatches(loaded, dialect_, options_, units_));
    SOFT_RETURN_IF_ERROR(OpenJournalForResume(fleet_.journal_path, journal_));
    resume = std::move(loaded);
  } else if (!fleet_.journal_path.empty()) {
    journal_.open(fleet_.journal_path, std::ios::trunc);
    if (!journal_) {
      return IoError("fleet: cannot open journal '" + fleet_.journal_path + "'");
    }
    std::ostringstream header;
    telemetry::WriteCampaignStart(header, options_, "SOFT", dialect_, units_);
    JournalEmit(header.str());
  }
  spool_.emplace(spool_dir, [this](const std::string& line) {
    JournalEmit(line);
    return !journal_.is_open() || journal_.good();
  });
  if (resume.has_value()) {
    // Re-admit the units the spool still vouches for; the rest stay pending
    // and run like any other unit.
    int diverged = 0;
    stats_.units_resumed = static_cast<uint64_t>(spool_->Admit(*resume, &diverged));
    stats_.units_spool_diverged = static_cast<uint64_t>(diverged);
    for (int unit = 0; unit < units_; ++unit) {
      if (std::optional<ShardResult> outcome = spool_->TakeAdmitted(unit)) {
        table_->ForceComplete(unit, -1);
        Merge(unit, std::move(*outcome));
      }
    }
  }

  campaign_base_ns_ = telemetry::MonotonicNowNs();

  {
    DoctorOptions doctor_options;
    doctor_options.window_ns =
        static_cast<uint64_t>(std::max(fleet_.doctor_window_ms, 1)) * 1000000ull;
    doctor_options.stall_lease_periods = fleet_.doctor_stall_leases;
    doctor_options.reclaim_spike =
        static_cast<uint64_t>(std::max(fleet_.doctor_reclaim_spike, 0));
    doctor_options.collapse_fraction = fleet_.doctor_collapse_fraction;
    doctor_.emplace(doctor_options, lease_ns_, campaign_base_ns_);
  }

  // --- listener: bound (and port-0 resolved) before any worker forks --------
  {
    Result<int> listener = ListenOn(endpoint, &stats_.bound_address);
    if (!listener.ok()) {
      return listener.status();
    }
    listen_fd_ = *listener;
  }

  for (int i = 0; i < fleet_.workers && !table_->AllDone(); ++i) {
    SpawnWorker();
  }

  int respawns_used = 0;
  int spawn_backoff_ms = fleet_.backoff_initial_ms;
  uint64_t next_spawn_ns = 0;
  uint64_t pool_empty_since = 0;

  while (!table_->AllDone()) {
    ReapChildren();
    const uint64_t now = telemetry::MonotonicNowNs();

    // Expired leases: reclaim. A lease holder that is a local child AND still
    // connected is hung, not partitioned — a partitioned worker would have
    // lost its connection at the (shorter) heartbeat timeout. SIGKILL it; it
    // will not recover. A disconnected holder merely loses the work: if it
    // resumes later, its stale result deduplicates.
    const std::vector<LeaseView> before = table_->Snapshot();
    for (const int unit : table_->ReclaimExpired(now)) {
      const int holder = before[unit].worker;
      JournalLease("reclaim", unit, holder, before[unit].cases, 0);
      Session* session = SessionByWorker(holder);
      if (session == nullptr) {
        continue;
      }
      Conn* conn = FindConn(session->conn);
      const bool connected = conn != nullptr && !conn->dead;
      const bool local_child =
          session->pid > 0 &&
          children_.count(static_cast<pid_t>(session->pid)) > 0;
      if (connected && local_child) {
        ::kill(static_cast<pid_t>(session->pid), SIGKILL);
        KillSession(*session, "lease expired");  // session dangles after this
      }
    }

    // Connection liveness, distinct from lease deadlines: ping idle worker
    // connections, and condemn any worker/unclassified connection silent past
    // the heartbeat timeout. The session survives the condemnation.
    for (Conn& conn : conns_) {
      if (conn.dead || conn.kind == Conn::Kind::kStatus) {
        continue;
      }
      if (now - conn.last_activity_ns >= heartbeat_ns_) {
        CloseConn(conn, "heartbeat timeout");
        continue;
      }
      if (conn.kind != Conn::Kind::kWorker ||
          now - conn.last_activity_ns < heartbeat_ns_ / 3 ||
          now - conn.last_ping_ns < heartbeat_ns_ / 3) {
        continue;
      }
      conn.last_ping_ns = now;
      Session* session = FindSession(conn.token);
      if (session != nullptr && !SessionWrite(*session, "PING").ok()) {
        CloseConn(conn, "ping write failed");
      }
    }

    // Doctor + metrics, before pool maintenance: a stall verdict must land
    // (and be journaled) before the degrade path can start completing units
    // locally in this same iteration. Strictly observational.
    ObserveHealth(now);
    MaybeWriteMetricsSnapshot(now, /*force=*/false);

    // Pool maintenance: respawn dead local workers with bounded exponential
    // backoff; once the respawn budget is spent (or workers == 0 and nothing
    // attached) and the pool stays empty past the lease deadline, degrade to
    // local execution — the campaign always completes.
    const bool pool_empty = children_.empty() && WorkerConnCount() == 0;
    const bool can_respawn =
        fleet_.workers > 0 && respawns_used < fleet_.max_worker_respawns;
    if (static_cast<int>(children_.size()) < fleet_.workers && can_respawn) {
      if (next_spawn_ns == 0) {
        next_spawn_ns = now + static_cast<uint64_t>(spawn_backoff_ms) * 1000000ull;
      } else if (now >= next_spawn_ns) {
        SpawnWorker();
        ++respawns_used;
        spawn_backoff_ms = std::min(spawn_backoff_ms * 2, fleet_.backoff_max_ms);
        next_spawn_ns = 0;
      }
    } else {
      next_spawn_ns = 0;
      if (static_cast<int>(children_.size()) >= fleet_.workers && fleet_.workers > 0) {
        spawn_backoff_ms = fleet_.backoff_initial_ms;
      }
    }
    if (pool_empty && !can_respawn) {
      if (pool_empty_since == 0) {
        pool_empty_since = now;
      } else if (now - pool_empty_since >= lease_ns_) {
        RunRemainingLocally();
        break;
      }
    } else {
      pool_empty_since = 0;
    }

    // Poll: listener + live connections, bounded by the nearest timer.
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    // Indices, not pointers: the accept branch below push_backs into conns_,
    // which may reallocate.
    std::vector<size_t> polled;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].dead) {
        continue;
      }
      short events = POLLIN;
      if (conns_[i].kind == Conn::Kind::kStatus &&
          conns_[i].out_off < conns_[i].outbuf.size()) {
        events |= POLLOUT;
      }
      fds.push_back({conns_[i].fd, events, 0});
      polled.push_back(i);
    }
    int timeout_ms = 100;
    const uint64_t deadline = table_->NextDeadlineNs();
    if (deadline > now) {
      timeout_ms = std::min<int>(timeout_ms,
                                 static_cast<int>((deadline - now) / 1000000ull) + 1);
    }
    if (next_spawn_ns > now) {
      timeout_ms = std::min<int>(
          timeout_ms, static_cast<int>((next_spawn_ns - now) / 1000000ull) + 1);
    }
    const int ready = ::poll(fds.data(), fds.size(), std::max(timeout_ms, 1));
    if (ready < 0 && errno != EINTR) {
      break;
    }

    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        // fleet.accept (chaos): the freshly accepted connection dies before
        // its first byte — the worker reconnects with backoff.
        if (SOFT_FAILPOINT_HIT("fleet.accept")) {
          ::close(fd);
        } else {
          TuneAccepted(fd);
          Conn conn;
          conn.id = next_conn_id_++;
          conn.fd = fd;
          conn.last_activity_ns = telemetry::MonotonicNowNs();
          conn.last_ping_ns = conn.last_activity_ns;
          // net.accept_storm (chaos): the connection arrives spraying bytes
          // that are not frames — the decoder rejects them structurally and
          // the connection is condemned before any payload is interpreted.
          if (SOFT_FAILPOINT_HIT("net.accept_storm")) {
            static const char kJunk[] = "\x00\xffnot-a-frame-not-even-close";
            conn.decoder.Append(kJunk, sizeof(kJunk) - 1);
          }
          conns_.push_back(std::move(conn));
        }
      }
    }
    for (size_t i = 0; i < polled.size(); ++i) {
      const short revents = fds[i + 1].revents;
      if (revents == 0) {
        continue;
      }
      Conn& conn = conns_[polled[i]];
      if (conn.dead) {
        continue;
      }
      if (conn.kind == Conn::Kind::kStatus) {
        if (revents & POLLOUT) {
          FlushStatus(conn);
        }
        if (!conn.dead && (revents & (POLLIN | POLLHUP | POLLERR))) {
          char chunk[4096];
          const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
          if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                         errno != EINTR)) {
            CloseConn(conn, "status reader closed");
          }
          // Inbound payload from a status client is ignored — one-way.
        }
        continue;
      }
      if (!(revents & (POLLIN | POLLHUP | POLLERR))) {
        continue;
      }
      char chunk[65536];
      const int64_t n = io::ReadRetrying(conn.fd, chunk, sizeof(chunk));
      if (n <= 0) {
        CloseConn(conn, "eof");
        continue;
      }
      conn.last_activity_ns = telemetry::MonotonicNowNs();
      conn.decoder.Append(chunk, static_cast<size_t>(n));
      PumpFrames(conn);
    }

    GrantWaiting();
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const Conn& conn) { return conn.dead; }),
                 conns_.end());
  }

  // --- shutdown --------------------------------------------------------------
  for (auto& [token, session] : sessions_) {
    if (!session.finished && FindConn(session.conn) != nullptr) {
      FinishSession(session);
    }
  }
  for (Conn& conn : conns_) {
    if (conn.dead) {
      continue;
    }
    if (conn.kind == Conn::Kind::kStatus) {
      StatusEnqueue(conn, "{\"event\":\"fleet_status_end\"}");
      if (!conn.dead) {
        conn.close_after_flush = true;
        // Bounded drain — a stuck reader must not stall shutdown either.
        for (int i = 0; i < 20 && !conn.dead; ++i) {
          FlushStatus(conn);
          if (conn.dead || conn.out_off >= conn.outbuf.size()) {
            break;
          }
          pollfd p{conn.fd, POLLOUT, 0};
          ::poll(&p, 1, 10);
        }
      }
    }
    if (!conn.dead) {
      conn.dead = true;
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  ::close(listen_fd_);
  if (fleet_.tcp_listen.empty() && !fleet_.socket_path.empty()) {
    ::unlink(fleet_.socket_path.c_str());
  }
  ReapChildren();
  for (const pid_t pid : children_) {
    ::kill(pid, SIGKILL);
  }
  for (const pid_t pid : children_) {
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
  }
  children_.clear();

  const LeaseCounters& counters = table_->counters();
  stats_.leases_granted = counters.granted;
  stats_.leases_reclaimed = counters.reclaimed;
  stats_.leases_stolen = counters.stolen;
  stats_.heartbeats = counters.heartbeats;

  // Final doctor observation (all units done → the terminal state is never
  // stall; the stall history survives in health_stalls / stall_unacked) and
  // final metrics snapshot, so --metrics-out always ends with the complete
  // campaign — that file is what offline scrapes and the ctest linter read.
  const uint64_t end_ns = telemetry::MonotonicNowNs();
  ObserveHealth(end_ns);
  MaybeWriteMetricsSnapshot(end_ns, /*force=*/true);
  stats_.health_stall_unacked = stall_unacked_;
  stats_.spool_failures = spool_->failures();

  std::vector<ShardResult> outcomes;
  outcomes.reserve(units_);
  for (std::optional<ShardResult>& outcome : results_) {
    if (!outcome.has_value()) {
      return Internal("fleet: campaign finished with an unexecuted unit");
    }
    outcomes.push_back(std::move(*outcome));
  }
  FleetOutcome fleet_outcome;
  fleet_outcome.result = MergeShardResults(std::move(outcomes));
  fleet_outcome.stats = stats_;

  if (journal_.is_open()) {
    telemetry::JournalFleetFinish fin;
    fin.units = stats_.units;
    fin.workers_spawned = stats_.workers_spawned;
    fin.worker_deaths = stats_.worker_deaths;
    fin.leases_granted = stats_.leases_granted;
    fin.leases_reclaimed = stats_.leases_reclaimed;
    fin.leases_stolen = stats_.leases_stolen;
    fin.heartbeats = stats_.heartbeats;
    fin.units_completed = stats_.units_completed;
    fin.units_run_locally = stats_.units_run_locally;
    fin.units_resumed = stats_.units_resumed;
    fin.units_spool_diverged = stats_.units_spool_diverged;
    fin.degraded_to_local = stats_.degraded_to_local;
    std::ostringstream tail;
    telemetry::WriteFleetFinishEvent(tail, fin);
    telemetry::WriteCampaignTail(
        tail, fleet_outcome.result,
        telemetry::MonotonicNowNs() - campaign_base_ns_);
    JournalEmit(tail.str());
  }
  return fleet_outcome;
}

}  // namespace

Result<FleetOutcome> RunFleetCampaign(const std::string& dialect,
                                      const CampaignOptions& options,
                                      const FleetOptions& fleet) {
  Coordinator coordinator(dialect, options, fleet);
  return coordinator.Run();
}

Status StreamFleetStatus(const FleetStatusRequest& request,
                         const std::function<bool(const std::string&)>& on_line) {
  io::IgnoreSigpipe();
  SOFT_ASSIGN_OR_RETURN(const int fd, ConnectOnce(request.endpoint));
  uint32_t seq = 0;
  std::string held;
  wire::FramedWriter writer(fd, &seq, &held);
  std::string req = "STATUS";
  if (request.metrics) {
    req = "METRICS";
  } else {
    if (request.watch || request.trace_slices) {
      req += " watch";
    }
    if (request.trace_slices) {
      req += " trace";
    }
  }
  if (Status sent = writer.WriteLine(req); !sent.ok()) {
    ::close(fd);
    return sent;
  }
  wire::FrameDecoder decoder;
  bool seen = false;
  uint32_t last_in = 0;
  char chunk[65536];
  for (;;) {
    wire::Frame frame;
    bool drained = false;
    while (!drained) {
      const wire::FrameStatus status = decoder.Next(frame);
      if (status == wire::FrameStatus::kBad) {
        ::close(fd);
        return IoError("fleet status stream corrupt: " + decoder.error());
      }
      if (status == wire::FrameStatus::kNeedMore) {
        drained = true;
        continue;
      }
      if (seen) {
        if (frame.seq <= last_in) {
          continue;
        }
        if (frame.seq != last_in + 1) {
          ::close(fd);
          return IoError("fleet status stream lost a frame");
        }
      }
      seen = true;
      last_in = frame.seq;
      if (!on_line(frame.payload)) {
        ::close(fd);
        return OkStatus();
      }
    }
    const int64_t n = io::ReadRetrying(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      break;
    }
    decoder.Append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return OkStatus();
}

Result<std::string> QueryFleetStatus(const std::string& socket_path) {
  FleetStatusRequest request;
  request.endpoint.socket_path = socket_path;
  std::string payload;
  SOFT_RETURN_IF_ERROR(StreamFleetStatus(
      request, [&payload](const std::string& line) {
        payload += line;
        payload += '\n';
        return true;
      }));
  return payload;
}

namespace {

ChaosReport RunSocketChaosEnumeration(const std::string& dialect, int budget,
                                      const std::string& prefix,
                                      const std::string& tag,
                                      int heartbeat_timeout_ms) {
  ChaosReport report;
  report.compiled_in = failpoint::kCompiledIn;
  report.dialect = dialect;
  report.budget = budget > 0 ? budget : 400;
  if (!report.compiled_in) {
    return report;
  }
  CampaignOptions options;
  options.seed = 20260807;
  options.max_statements = report.budget;
  const int units = 4;
  failpoint::DisarmAll();
  const CampaignResult reference = RunShardedSoftCampaign(dialect, options, units);
  const uint64_t reference_digest = DigestCampaignResult(reference);

  int site_index = 0;
  for (const failpoint::SiteInfo& site : failpoint::kInventory) {
    if (std::string_view(site.name).rfind(prefix, 0) != 0) {
      continue;
    }
    ChaosSiteOutcome outcome;
    outcome.failpoint = std::string(site.name);
    outcome.site_class = std::string(failpoint::SiteClassName(site.site_class));
    outcome.spec = outcome.failpoint + "=after:0:1";
    outcome.ran = true;

    FleetOptions fleet;
    fleet.socket_path = "/tmp/soft_" + tag + "_" +
                        std::to_string(static_cast<long>(::getpid())) + "_" +
                        std::to_string(site_index++) + ".sock";
    fleet.workers = 2;
    fleet.units = units;
    fleet.heartbeat_every = 50;
    fleet.lease_deadline_ms = 2000;
    fleet.heartbeat_timeout_ms = heartbeat_timeout_ms;

    failpoint::DisarmAll();
    if (Status armed = failpoint::ArmFromSpec(outcome.spec); !armed.ok()) {
      outcome.detail = "arm failed: " + armed.ToString();
      report.outcomes.push_back(outcome);
      continue;
    }
    const Result<FleetOutcome> injected = RunFleetCampaign(dialect, options, fleet);
    failpoint::DisarmAll();
    if (!injected.ok()) {
      outcome.detail = "fleet campaign failed: " + injected.status().ToString();
      report.outcomes.push_back(outcome);
      continue;
    }
    if (DigestCampaignResult(injected->result) != reference_digest) {
      outcome.detail = "merged digest diverged from the uninjected sharded reference";
      report.outcomes.push_back(outcome);
      continue;
    }
    if (injected->result.journal_degraded) {
      outcome.detail = "the absorbed fault degraded the campaign journal";
      report.outcomes.push_back(outcome);
      continue;
    }
    if (outcome.failpoint == "fleet.worker_spawn" &&
        injected->stats.worker_deaths == 0) {
      outcome.detail = "chaos-killed worker never died (injection lost?)";
      report.outcomes.push_back(outcome);
      continue;
    }
    outcome.ok = true;
    outcome.detail =
        "fault absorbed; digest bit-identical (" +
        std::to_string(injected->stats.worker_deaths) + " worker death(s), " +
        std::to_string(injected->stats.leases_reclaimed) + " lease(s) reclaimed, " +
        std::to_string(injected->stats.conns_dropped) + " conn(s) dropped, " +
        std::to_string(injected->stats.sessions_resumed) + " session(s) resumed, " +
        std::to_string(injected->stats.dup_results_deduped) + " dup result(s) deduped)";
    report.outcomes.push_back(outcome);
  }
  failpoint::DisarmAll();
  return report;
}

}  // namespace

ChaosReport RunFleetChaosEnumeration(const std::string& dialect, int budget) {
  return RunSocketChaosEnumeration(dialect, budget, "fleet.", "flc",
                                   /*heartbeat_timeout_ms=*/5000);
}

ChaosReport RunNetChaosEnumeration(const std::string& dialect, int budget) {
  return RunSocketChaosEnumeration(dialect, budget, "net.", "nlc",
                                   /*heartbeat_timeout_ms=*/1000);
}

}  // namespace fleet
}  // namespace soft
