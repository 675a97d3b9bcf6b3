// Crash-atomic artifact I/O for the harness.
//
// Two failure families killed campaign artifacts before this layer existed
// (see docs/ROBUSTNESS.md, "Failpoints and chaos campaigns"):
//
//  * transient fd-level failures — EINTR, EAGAIN, short writes;
//    RetryingWriter absorbs them with bounded exponential backoff and turns
//    exhaustion into kIoError;
//  * torn artifact files — a journal or PoC file that dies mid-write looks
//    complete to the caller; WriteFileAtomic writes tmp + fsync + rename so
//    the destination path either holds the previous contents or the full
//    new contents, never a prefix.
//
// Both layers are instrumented with failpoints (io.eintr / io.short_write /
// io.open / io.write / io.fsync / io.rename) so chaos campaigns can prove
// the retry path is invisible and the error path is clean and atomic.
#ifndef SRC_UTIL_IO_H_
#define SRC_UTIL_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace soft {
namespace io {

// Bounded exponential backoff for transient fd-level failures. Attempts
// reset whenever a write makes progress, so the bound is on *consecutive*
// fruitless attempts, not on total syscalls for a large buffer.
struct RetryPolicy {
  int max_attempts = 8;
  uint64_t backoff_initial_us = 100;
  uint64_t backoff_max_us = 50000;
};

// Writes whole buffers to a file descriptor, retrying EINTR / EAGAIN /
// zero-progress writes under the policy.
class RetryingWriter {
 public:
  explicit RetryingWriter(int fd, RetryPolicy policy = RetryPolicy())
      : fd_(fd), policy_(policy) {}

  // Writes all of `data`, or returns kIoError after the policy is exhausted.
  Status WriteAll(std::string_view data);

  // WriteAll(line + '\n') — the NDJSON / wire-protocol framing invariant:
  // the terminating newline is the last byte of a record, so a record
  // missing it is by definition torn (see ReplayJournal's torn-tail rule).
  Status WriteLine(std::string_view line);

  int fd() const { return fd_; }

 private:
  int fd_;
  RetryPolicy policy_;
};

// read(2) that retries EINTR (the worker.pipe_read failpoint injects one; a
// real EINTR from a SIGCHLD must not be misread as end-of-stream). Returns the
// read count, 0 at end-of-stream, -1 with errno set on a real error.
int64_t ReadRetrying(int fd, char* buf, uint64_t count);

// Ignores SIGPIPE for the calling process (idempotent, call_once-guarded).
// Every process that writes pipe/socket frames to a peer that can die —
// the fleet coordinator and its workers — must call this before its first
// frame: with SIGPIPE at SIG_DFL, a peer vanishing mid-frame kills the
// writer outright; with it ignored, the write fails with EPIPE, which
// RetryingWriter surfaces as a clean kIoError the fleet's reclaim paths
// already handle.
void IgnoreSigpipe();

// Atomically replaces `path` with `contents`: writes `path`.tmp.<pid>,
// fsyncs, closes, renames over `path`. On any failure the tmp file is
// unlinked and `path` is untouched; the Status names the path and stage.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

}  // namespace io
}  // namespace soft

#endif  // SRC_UTIL_IO_H_
