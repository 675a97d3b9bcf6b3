// Shared line-oriented wire codec for campaign results and progress records.
//
// The fleet protocol (src/fleet/) and the unit spool (src/soft/unit_spool.h)
// speak this format: '\n'-terminated records of space-separated tokens,
// strings hex-encoded with "-" for empty, so a record is torn if and only if
// its newline is missing — the same framing invariant the NDJSON journal
// relies on (docs/ROBUSTNESS.md).
//
// Record tags of a serialized result block, in emission order:
//
//   RES  tool dialect statements sql_errors crashes fps timeouts
//        logic_checks logic_divergences logic_fps functions branches
//        shards journal_degraded
//   SST  per-shard statement count (one line per shard of a merged result)
//   BUG  crash identity + witness (found_by, poc, statement index, shard,
//        wall anchor)
//   LBG  wrong-result bug: LogicBugInfo + oracle attribution + PoC/witness
//   CVB  one covered branch key
//   TLS  one stage-latency histogram (index, samples, totals, buckets)
//   TLP  one per-pattern telemetry counter row: the pattern, then every
//        telemetry::kPatternCounterFields counter in table order
//   TRS  one trace span (id, parent, kind, shard, times, args)
//   FLR  one crash flight record (headers + inlined ring entries)
//   END  terminates the block
//
// Progress records outside result blocks (transport-specific dispatch):
// the fleet protocol's HELLO/REQ/GRANT/HB/UNIT/FIN lines reuse the token and
// sub-record encoders below. The unit spool stores result blocks.
//
// Framing comes in two strengths. Spool files (same host, written
// atomically) keep the bare '\n' framing via LineBuffer. The fleet
// transport — which may cross a real network over TCP — wraps every record
// line in a binary
// frame (EncodeFrame / FrameDecoder / FramedWriter below): a 16-byte header
// carrying magic, protocol version, a per-session monotonic sequence
// number, the payload length, and a CRC32 over header+payload. The decoder
// rejects any corruption structurally (bad magic, foreign version,
// oversized length, checksum mismatch) before a single payload byte is
// interpreted, and the sequence numbers let the session layer drop
// duplicated frames and detect losses (docs/ROBUSTNESS.md, "Multi-host
// fleet transport").
#ifndef SRC_SOFT_WIRE_H_
#define SRC_SOFT_WIRE_H_

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

#include "src/coverage/coverage.h"
#include "src/soft/campaign.h"
#include "src/util/status.h"

namespace soft {
namespace wire {

// --- token encoding --------------------------------------------------------

// Lowercase hex; "-" encodes the empty string so tokens never vanish.
std::string HexEncode(const std::string& s);
std::string HexDecode(const std::string& s);

// --- sub-record serialization ---------------------------------------------

std::string EncodeSpan(const trace::TraceSpan& s);
bool DecodeSpan(std::istringstream& in, trace::TraceSpan& s);

std::string EncodeLogicBug(const FoundLogicBug& bug);
bool DecodeLogicBug(std::istringstream& in, FoundLogicBug& bug);

std::string EncodeFlightRecord(const trace::CrashFlightRecord& flight);
bool DecodeFlightRecord(std::istringstream& in, trace::CrashFlightRecord& flight);

// --- result block ----------------------------------------------------------

// Receives one unframed record line per call; returns false when the
// transport is gone (the caller stops emitting — a finished result block is
// then torn, never half-parsed, because END was not delivered).
using LineSink = std::function<bool(const std::string&)>;

// Serializes a completed CampaignResult + coverage snapshot as the record
// block above. Returns false as soon as the sink does.
bool WriteResultBlock(const LineSink& sink, const CampaignResult& result,
                      const CoverageTracker& coverage);

// Reassembly state for one result block.
struct ResultBlock {
  CampaignResult result;
  CoverageTracker coverage;
  bool complete = false;  // END seen
};

// Feeds one record line into `block`. Returns true when the tag was a
// result-block tag (consumed), false for anything else — the caller owns
// transport-specific records (fleet control lines) and torn tails — and
// for a TLS or TLP row that does not parse (e.g. a v2 TLP row).
bool ConsumeResultLine(const std::string& line, ResultBlock& block);

// --- framing ---------------------------------------------------------------

// Reassembles '\n'-framed records from arbitrary read chunks. A partial
// last line stays buffered until its newline arrives (or forever, if the
// producer died mid-record — exactly the torn-tail case the caller drops).
class LineBuffer {
 public:
  void Append(const char* data, size_t n) { buffer_.append(data, n); }
  // Pops the next complete line (without its '\n') into `line`.
  bool Next(std::string& line);
  bool HasPartial() const { return !buffer_.empty(); }

 private:
  std::string buffer_;
};

// --- binary frames (the fleet's hostile-network transport) ------------------
//
// Frame layout, all multi-byte fields little-endian:
//
//   offset 0  2B  magic "SF"
//          2  1B  protocol version (kFrameProtocolVersion)
//          3  1B  flags (must be 0 — reserved)
//          4  4B  sequence number (per session per direction, monotonic)
//          8  4B  payload length
//         12  4B  CRC32 (IEEE) over bytes [0, 12) + the payload, so a single
//                 flipped bit anywhere in the frame fails the checksum
//         16  ..  payload: exactly one protocol record line, without '\n'
//
// Sequence policy (enforced by the session layer, not the decoder): each
// direction of a worker session counts 1, 2, 3, ... across reconnects. The
// first frame of a fresh connection may jump forward (frames lost with the
// previous connection burn their numbers) but never backward; within a
// connection a frame must be exactly previous+1 — smaller is a duplicate
// (dropped silently), larger is a loss (the connection is condemned and the
// session resumes over a new one).

// v2: GRANT carries the case pool digest (src/fleet/worker_client.h); a v1
// worker would ignore it and execute whatever pool it builds.
// v3: TLP rows carry all nine per-pattern counters (v2 rows carried seven,
// dropping logic_checks and logic_bugs).
inline constexpr uint8_t kFrameProtocolVersion = 3;
inline constexpr size_t kFrameHeaderSize = 16;
// Payload bound: a unit result line tops out in the tens of KB; anything
// claiming more is corruption, not data, and is rejected before allocation.
inline constexpr uint32_t kMaxFramePayload = 16u * 1024 * 1024;

// Serializes one frame. The caller owns the sequence counter.
std::string EncodeFrame(uint32_t seq, const std::string& payload);

struct Frame {
  uint32_t seq = 0;
  std::string payload;
};

enum class FrameStatus {
  kNeedMore,  // no complete frame buffered yet
  kFrame,     // `frame` was filled
  kBad,       // structural corruption — the stream is condemned (error())
};

// Reassembles frames from arbitrary read chunks. Structural validation
// only; sequence acceptance is the caller's (it needs session state). After
// kBad the decoder stays condemned: framing is lost, so no later bytes can
// be trusted — the connection must be dropped.
class FrameDecoder {
 public:
  void Append(const char* data, size_t n) { buffer_.append(data, n); }
  FrameStatus Next(Frame& frame);
  bool HasPartial() const { return !buffer_.empty(); }
  const std::string& error() const { return error_; }

 private:
  std::string buffer_;
  std::string error_;
  bool condemned_ = false;
};

// Writes frames to a socket fd, stamping each from a caller-owned sequence
// counter (so the count survives reconnects — the writer is per-connection,
// the counter per-session). `held` is the delayed-delivery buffer the
// net.frame_delay failpoint parks bytes in; it must outlive the writer and
// share its lifetime with the connection.
//
// The five sender-side net.* failpoint sites live here (frame drop /
// corrupt / duplicate / delay / connection reset) — each models a distinct
// network fault the receiving side's CRC + sequence validation and the
// fleet's session-resume ladder must absorb (docs/ROBUSTNESS.md).
class FramedWriter {
 public:
  FramedWriter(int fd, uint32_t* seq, std::string* held)
      : fd_(fd), seq_(seq), held_(held) {}

  // Frames `payload` (one record line, no '\n') and writes it out.
  Status WriteLine(const std::string& payload);

  int fd() const { return fd_; }

 private:
  int fd_;
  uint32_t* seq_;
  std::string* held_;
};

}  // namespace wire
}  // namespace soft

#endif  // SRC_SOFT_WIRE_H_
