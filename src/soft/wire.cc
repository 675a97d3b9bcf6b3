#include "src/soft/wire.h"

#include <sys/socket.h>

#include <array>
#include <utility>
#include <vector>

#include "src/failpoint/failpoint.h"
#include "src/telemetry/telemetry.h"
#include "src/util/io.h"

namespace soft {
namespace wire {

// --- token encoding --------------------------------------------------------

std::string HexEncode(const std::string& s) {
  if (s.empty()) {
    return "-";
  }
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() * 2);
  for (const unsigned char c : s) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

std::string HexDecode(const std::string& s) {
  if (s == "-") {
    return "";
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return 0;
  };
  std::string out;
  out.reserve(s.size() / 2);
  for (size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(static_cast<char>((nibble(s[i]) << 4) | nibble(s[i + 1])));
  }
  return out;
}

// --- sub-record serialization ----------------------------------------------

std::string EncodeCrash(const CrashInfo& info) {
  std::ostringstream out;
  out << info.bug_id << ' ' << HexEncode(info.dbms) << ' ' << HexEncode(info.function)
      << ' ' << static_cast<int>(info.crash) << ' ' << static_cast<int>(info.stage)
      << ' ' << HexEncode(info.pattern) << ' ' << HexEncode(info.description);
  return out.str();
}

bool DecodeCrash(std::istringstream& in, CrashInfo& info) {
  int crash = 0, stage = 0;
  std::string dbms, function, pattern, description;
  if (!(in >> info.bug_id >> dbms >> function >> crash >> stage >> pattern >>
        description)) {
    return false;
  }
  info.dbms = HexDecode(dbms);
  info.function = HexDecode(function);
  info.crash = static_cast<CrashType>(crash);
  info.stage = static_cast<Stage>(stage);
  info.pattern = HexDecode(pattern);
  info.description = HexDecode(description);
  return true;
}

std::string EncodeFlightEntry(const trace::FlightEntry& e) {
  std::ostringstream out;
  out << e.statement_index << ' ' << HexEncode(e.pattern) << ' ' << HexEncode(e.sql)
      << ' ' << HexEncode(e.stage_reached) << ' ' << HexEncode(e.outcome);
  return out.str();
}

bool DecodeFlightEntry(std::istringstream& in, trace::FlightEntry& e) {
  std::string pattern, sql, stage, outcome;
  if (!(in >> e.statement_index >> pattern >> sql >> stage >> outcome)) {
    return false;
  }
  e.pattern = HexDecode(pattern);
  e.sql = HexDecode(sql);
  e.stage_reached = HexDecode(stage);
  e.outcome = HexDecode(outcome);
  return true;
}

std::string EncodeSpan(const trace::TraceSpan& s) {
  std::ostringstream out;
  out << s.id << ' ' << s.parent_id << ' ' << static_cast<int>(s.kind) << ' '
      << s.shard << ' ' << s.start_ns << ' ' << s.dur_ns << ' ' << s.args.size();
  for (const auto& [key, value] : s.args) {
    out << ' ' << HexEncode(key) << ' ' << HexEncode(value);
  }
  return out.str();
}

bool DecodeSpan(std::istringstream& in, trace::TraceSpan& s) {
  int kind = 0;
  size_t arg_count = 0;
  if (!(in >> s.id >> s.parent_id >> kind >> s.shard >> s.start_ns >> s.dur_ns >>
        arg_count)) {
    return false;
  }
  s.kind = static_cast<trace::SpanKind>(kind);
  for (size_t i = 0; i < arg_count; ++i) {
    std::string key, value;
    if (!(in >> key >> value)) {
      return false;
    }
    s.args.emplace_back(HexDecode(key), HexDecode(value));
  }
  return true;
}

std::string EncodeLogicBug(const FoundLogicBug& bug) {
  std::ostringstream out;
  out << bug.info.bug_id << ' ' << HexEncode(bug.info.dbms) << ' '
      << HexEncode(bug.info.function) << ' ' << static_cast<int>(bug.info.effect)
      << ' ' << static_cast<int>(bug.info.scope) << ' ' << HexEncode(bug.info.pattern)
      << ' ' << HexEncode(bug.info.description) << ' ' << HexEncode(bug.oracle) << ' '
      << HexEncode(bug.poc_sql) << ' ' << HexEncode(bug.witness) << ' '
      << HexEncode(bug.detail) << ' ' << bug.case_index << ' '
      << bug.statements_until_found << ' ' << bug.shard;
  return out.str();
}

bool DecodeLogicBug(std::istringstream& in, FoundLogicBug& bug) {
  int effect = 0, scope = 0;
  std::string dbms, function, pattern, description, oracle, poc, witness, detail;
  if (!(in >> bug.info.bug_id >> dbms >> function >> effect >> scope >> pattern >>
        description >> oracle >> poc >> witness >> detail >> bug.case_index >>
        bug.statements_until_found >> bug.shard)) {
    return false;
  }
  bug.info.dbms = HexDecode(dbms);
  bug.info.function = HexDecode(function);
  bug.info.effect = static_cast<LogicEffect>(effect);
  bug.info.scope = static_cast<LogicScope>(scope);
  bug.info.pattern = HexDecode(pattern);
  bug.info.description = HexDecode(description);
  bug.oracle = HexDecode(oracle);
  bug.poc_sql = HexDecode(poc);
  bug.witness = HexDecode(witness);
  bug.detail = HexDecode(detail);
  return true;
}

std::string EncodeFlightRecord(const trace::CrashFlightRecord& flight) {
  std::ostringstream out;
  out << flight.shard << ' ' << flight.worker_run << ' ' << (flight.announced ? 1 : 0)
      << ' ' << flight.bug_id << ' ' << flight.entries.size();
  for (const trace::FlightEntry& entry : flight.entries) {
    out << ' ' << EncodeFlightEntry(entry);
  }
  return out.str();
}

bool DecodeFlightRecord(std::istringstream& in, trace::CrashFlightRecord& flight) {
  int announced = 0;
  size_t entry_count = 0;
  if (!(in >> flight.shard >> flight.worker_run >> announced >> flight.bug_id >>
        entry_count)) {
    return false;
  }
  flight.announced = announced != 0;
  for (size_t i = 0; i < entry_count; ++i) {
    trace::FlightEntry entry;
    if (!DecodeFlightEntry(in, entry)) {
      return false;
    }
    flight.entries.push_back(std::move(entry));
  }
  return true;
}

// --- result block ----------------------------------------------------------

bool WriteResultBlock(const LineSink& sink, const CampaignResult& result,
                      const CoverageTracker& coverage) {
  {
    std::ostringstream out;
    out << "RES " << HexEncode(result.tool) << ' ' << HexEncode(result.dialect) << ' '
        << result.statements_executed << ' ' << result.sql_errors << ' '
        << result.crashes_observed << ' ' << result.false_positives << ' '
        << result.watchdog_timeouts << ' ' << result.logic_checks << ' '
        << result.logic_divergences << ' ' << result.logic_false_positives << ' '
        << result.functions_triggered << ' ' << result.branches_covered << ' '
        << result.shards << ' ' << (result.journal_degraded ? 1 : 0);
    if (!sink(out.str())) {
      return false;
    }
  }
  for (const int n : result.shard_statements) {
    if (!sink("SST " + std::to_string(n))) {
      return false;
    }
  }
  for (const FoundBug& bug : result.unique_bugs) {
    std::ostringstream out;
    out << "BUG " << EncodeCrash(bug.crash) << ' ' << HexEncode(bug.found_by) << ' '
        << HexEncode(bug.poc_sql) << ' ' << bug.statements_until_found << ' '
        << bug.shard << ' ' << bug.found_wall_ns << ' ' << (bug.wall_recorded ? 1 : 0);
    if (!sink(out.str())) {
      return false;
    }
  }
  for (const FoundLogicBug& bug : result.logic_bugs) {
    if (!sink("LBG " + EncodeLogicBug(bug))) {
      return false;
    }
  }
  for (const std::string& key : coverage.BranchKeys()) {
    if (!sink("CVB " + HexEncode(key))) {
      return false;
    }
  }
  for (size_t i = 0; i < telemetry::kStageCount; ++i) {
    const telemetry::LatencyHistogram& h = result.telemetry.stage_latency[i];
    std::ostringstream out;
    out << "TLS " << i << ' ' << h.samples << ' ' << h.total_ns << ' ' << h.max_ns;
    for (const uint64_t b : h.buckets) {
      out << ' ' << b;
    }
    if (!sink(out.str())) {
      return false;
    }
  }
  for (const auto& [pattern, c] : result.telemetry.patterns) {
    std::ostringstream out;
    out << "TLP " << HexEncode(pattern) << ' ' << c.generated << ' ' << c.executed
        << ' ' << c.crashes << ' ' << c.bugs_deduped << ' ' << c.sql_errors << ' '
        << c.false_positives << ' ' << c.timeouts;
    if (!sink(out.str())) {
      return false;
    }
  }
  for (const trace::TraceSpan& span : result.trace.spans) {
    if (!sink("TRS " + EncodeSpan(span))) {
      return false;
    }
  }
  for (const trace::CrashFlightRecord& flight : result.crash_flights) {
    if (!sink("FLR " + EncodeFlightRecord(flight))) {
      return false;
    }
  }
  return sink("END");
}

bool ConsumeResultLine(const std::string& line, ResultBlock& block) {
  if (line.empty()) {
    return false;
  }
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  if (tag == "RES") {
    std::string tool, dialect;
    int journal_degraded = 0;
    in >> tool >> dialect >> block.result.statements_executed >>
        block.result.sql_errors >> block.result.crashes_observed >>
        block.result.false_positives >> block.result.watchdog_timeouts >>
        block.result.logic_checks >> block.result.logic_divergences >>
        block.result.logic_false_positives >> block.result.functions_triggered >>
        block.result.branches_covered >> block.result.shards >> journal_degraded;
    block.result.journal_degraded = journal_degraded != 0;
    block.result.tool = HexDecode(tool);
    block.result.dialect = HexDecode(dialect);
  } else if (tag == "SST") {
    int n = 0;
    if (in >> n) {
      block.result.shard_statements.push_back(n);
    }
  } else if (tag == "BUG") {
    FoundBug bug;
    std::string found_by, poc;
    int wall_recorded = 0;
    if (DecodeCrash(in, bug.crash) &&
        (in >> found_by >> poc >> bug.statements_until_found >> bug.shard >>
         bug.found_wall_ns >> wall_recorded)) {
      bug.found_by = HexDecode(found_by);
      bug.poc_sql = HexDecode(poc);
      bug.wall_recorded = wall_recorded != 0;
      block.result.unique_bugs.push_back(std::move(bug));
    }
  } else if (tag == "LBG") {
    FoundLogicBug bug;
    if (DecodeLogicBug(in, bug)) {
      block.result.logic_bugs.push_back(std::move(bug));
    }
  } else if (tag == "CVB") {
    std::string key;
    if (in >> key) {
      block.coverage.RestoreBranchKey(HexDecode(key));
    }
  } else if (tag == "TLS") {
    size_t stage = 0;
    telemetry::LatencyHistogram h;
    in >> stage >> h.samples >> h.total_ns >> h.max_ns;
    for (uint64_t& b : h.buckets) {
      in >> b;
    }
    if (in && stage < telemetry::kStageCount) {
      block.result.telemetry.stage_latency[stage] = h;
    }
  } else if (tag == "TLP") {
    std::string pattern;
    telemetry::PatternCounters c;
    if (in >> pattern >> c.generated >> c.executed >> c.crashes >> c.bugs_deduped >>
        c.sql_errors >> c.false_positives >> c.timeouts) {
      block.result.telemetry.patterns[HexDecode(pattern)] = c;
    }
  } else if (tag == "TRS") {
    trace::TraceSpan span;
    if (DecodeSpan(in, span)) {
      block.result.trace.spans.push_back(std::move(span));
    }
  } else if (tag == "FLR") {
    trace::CrashFlightRecord flight;
    if (DecodeFlightRecord(in, flight)) {
      block.result.crash_flights.push_back(std::move(flight));
    }
  } else if (tag == "END") {
    block.complete = true;
  } else {
    return false;
  }
  return true;
}

// --- framing ---------------------------------------------------------------

bool LineBuffer::Next(std::string& line) {
  const size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) {
    return false;
  }
  line.assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  return true;
}

// --- binary frames ----------------------------------------------------------

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

void PutLe32(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t GetLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(uint32_t seed, const void* data, size_t n) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    c = kTable[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string EncodeFrame(uint32_t seq, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.push_back('S');
  out.push_back('F');
  out.push_back(static_cast<char>(kFrameProtocolVersion));
  out.push_back(0);  // flags, reserved
  PutLe32(out, seq);
  PutLe32(out, static_cast<uint32_t>(payload.size()));
  const uint32_t crc = Crc32(Crc32(0, out.data(), 12), payload.data(), payload.size());
  PutLe32(out, crc);
  out += payload;
  return out;
}

FrameStatus FrameDecoder::Next(Frame& frame) {
  if (condemned_) {
    return FrameStatus::kBad;
  }
  if (buffer_.size() < kFrameHeaderSize) {
    return FrameStatus::kNeedMore;
  }
  const unsigned char* h = reinterpret_cast<const unsigned char*>(buffer_.data());
  if (h[0] != 'S' || h[1] != 'F') {
    condemned_ = true;
    error_ = "bad frame magic";
    return FrameStatus::kBad;
  }
  if (h[2] != kFrameProtocolVersion) {
    condemned_ = true;
    error_ = "frame protocol version mismatch (peer v" + std::to_string(h[2]) +
             ", ours v" + std::to_string(kFrameProtocolVersion) + ")";
    return FrameStatus::kBad;
  }
  if (h[3] != 0) {
    condemned_ = true;
    error_ = "unknown frame flags";
    return FrameStatus::kBad;
  }
  const uint32_t len = GetLe32(h + 8);
  if (len > kMaxFramePayload) {
    condemned_ = true;
    error_ = "oversized frame (" + std::to_string(len) + " bytes)";
    return FrameStatus::kBad;
  }
  if (buffer_.size() < kFrameHeaderSize + len) {
    return FrameStatus::kNeedMore;
  }
  const uint32_t claimed = GetLe32(h + 12);
  const uint32_t computed =
      Crc32(Crc32(0, buffer_.data(), 12), buffer_.data() + kFrameHeaderSize, len);
  if (claimed != computed) {
    condemned_ = true;
    error_ = "frame checksum mismatch";
    return FrameStatus::kBad;
  }
  frame.seq = GetLe32(h + 4);
  frame.payload.assign(buffer_, kFrameHeaderSize, len);
  buffer_.erase(0, kFrameHeaderSize + len);
  return FrameStatus::kFrame;
}

Status FramedWriter::WriteLine(const std::string& payload) {
  const uint32_t seq = ++*seq_;
  std::string bytes = EncodeFrame(seq, payload);
  // net.frame_drop: the frame vanishes in transit. Its sequence number is
  // burned, so the receiver sees a gap at the next frame and condemns the
  // connection fast instead of waiting out the lease deadline.
  if (SOFT_FAILPOINT_HIT("net.frame_drop")) {
    return OkStatus();
  }
  // net.frame_corrupt: a bit flips after the checksum was computed — the
  // receiver's CRC validation must reject the frame and condemn the stream.
  if (SOFT_FAILPOINT_HIT("net.frame_corrupt")) {
    bytes[bytes.size() - 1] ^= 0x01;
  }
  std::string out;
  out.swap(*held_);  // delayed bytes from a previous net.frame_delay ride along
  out += bytes;
  // net.frame_dup: the network delivers the frame twice — the receiver's
  // sequence check drops the second copy silently.
  if (SOFT_FAILPOINT_HIT("net.frame_dup")) {
    out += bytes;
  }
  // net.frame_delay: the tail half of the write is parked until the next
  // send — the receiver reassembles the torn frame from both chunks.
  if (SOFT_FAILPOINT_HIT("net.frame_delay")) {
    const size_t keep = out.size() / 2;
    held_->assign(out, keep, out.size() - keep);
    out.resize(keep);
    if (out.empty()) {
      return OkStatus();
    }
  }
  io::RetryingWriter writer(fd_);
  // net.conn_reset: the connection dies mid-frame — half the bytes land,
  // then the socket is shut down, surfacing as a torn frame at the receiver
  // and a write error here.
  if (SOFT_FAILPOINT_HIT("net.conn_reset")) {
    static_cast<void>(writer.WriteAll(std::string_view(out).substr(0, out.size() / 2)));
    ::shutdown(fd_, SHUT_RDWR);
    return IoError("connection reset (net.conn_reset injected)");
  }
  return writer.WriteAll(out);
}

}  // namespace wire
}  // namespace soft
