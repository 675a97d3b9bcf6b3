// Crash-atomic I/O layer (src/util/io.h): RetryingWriter absorbs transient
// fd faults, WriteFileAtomic leaves the destination either untouched or
// fully replaced. The transient/persistent faults are injected through the
// io.* failpoints, so the failure paths here are the same ones the chaos
// enumerator drives (src/soft/chaos.h).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/failpoint/failpoint.h"
#include "src/util/io.h"

namespace soft {
namespace {

std::string ReadAllFromFd(int fd) {
  std::string received;
  char chunk[4096];
  for (;;) {
    const int64_t n = io::ReadRetrying(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      break;
    }
    received.append(chunk, static_cast<size_t>(n));
  }
  return received;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string MakePayload() {
  std::string payload;
  for (int i = 0; i < 200; ++i) {
    payload += "record-" + std::to_string(i) + "\n";
  }
  return payload;
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(IoTest, RetryingWriterDeliversWholeBuffers) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = MakePayload();
  io::RetryingWriter writer(fds[1]);
  ASSERT_TRUE(writer.WriteAll(payload).ok());
  ASSERT_TRUE(writer.WriteLine("tail").ok());
  ::close(fds[1]);
  EXPECT_EQ(ReadAllFromFd(fds[0]), payload + "tail\n");
  ::close(fds[0]);
}

TEST_F(IoTest, RetryingWriterAbsorbsInjectedEintr) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = MakePayload();
  ASSERT_TRUE(failpoint::ArmFromSpec("io.eintr=after:0:5").ok());
  io::RetryingWriter writer(fds[1]);
  const Status written = writer.WriteAll(payload);
  const failpoint::SiteStats stats = failpoint::Stats("io.eintr");
  failpoint::DisarmAll();
  ASSERT_TRUE(written.ok()) << written.message();
  EXPECT_EQ(stats.fires, 5u);
  ::close(fds[1]);
  EXPECT_EQ(ReadAllFromFd(fds[0]), payload);
  ::close(fds[0]);
}

TEST_F(IoTest, RetryingWriterAbsorbsInjectedShortWrites) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Every write is clamped to one byte: progress resets the attempt budget,
  // so the payload still lands whole (just in many syscalls).
  ASSERT_TRUE(failpoint::ArmFromSpec("io.short_write=error").ok());
  const std::string payload = "short-write-payload\n";
  io::RetryingWriter writer(fds[1]);
  const Status written = writer.WriteAll(payload);
  failpoint::DisarmAll();
  ASSERT_TRUE(written.ok()) << written.message();
  ::close(fds[1]);
  EXPECT_EQ(ReadAllFromFd(fds[0]), payload);
  ::close(fds[0]);
}

TEST_F(IoTest, RetryingWriterGivesUpAfterPolicyExhaustion) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Persistent EINTR with no progress: bounded backoff, then kIoError.
  ASSERT_TRUE(failpoint::ArmFromSpec("io.eintr=error").ok());
  io::RetryPolicy fast;
  fast.max_attempts = 3;
  fast.backoff_initial_us = 1;
  fast.backoff_max_us = 2;
  io::RetryingWriter writer(fds[1], fast);
  const Status written = writer.WriteAll("payload");
  failpoint::DisarmAll();
  EXPECT_EQ(written.code(), StatusCode::kIoError);
  ::close(fds[1]);
  ::close(fds[0]);
}

TEST_F(IoTest, ReadRetryingRetriesEintrAndReportsEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "abc", 3), 3);
  ::close(fds[1]);
  ASSERT_TRUE(failpoint::ArmFromSpec("worker.pipe_read=after:0:2").ok());
  char buf[8];
  EXPECT_EQ(io::ReadRetrying(fds[0], buf, sizeof(buf)), 3);
  EXPECT_EQ(io::ReadRetrying(fds[0], buf, sizeof(buf)), 0);  // EOF
  failpoint::DisarmAll();
  ::close(fds[0]);
}

TEST_F(IoTest, WriteFileAtomicReplacesContents) {
  const std::string path = "io_test_" + std::to_string(::getpid()) + ".txt";
  ASSERT_TRUE(io::WriteFileAtomic(path, "first\n").ok());
  EXPECT_EQ(ReadFileOrEmpty(path), "first\n");
  ASSERT_TRUE(io::WriteFileAtomic(path, "second\n").ok());
  EXPECT_EQ(ReadFileOrEmpty(path), "second\n");
  std::remove(path.c_str());
}

TEST_F(IoTest, WriteFileAtomicFailuresLeaveDestinationUntouched) {
  const std::string path = "io_atomic_" + std::to_string(::getpid()) + ".txt";
  const std::string tmp_path = path + ".tmp." + std::to_string(::getpid());
  ASSERT_TRUE(io::WriteFileAtomic(path, "previous contents\n").ok());

  for (const char* site : {"io.open", "io.write", "io.fsync", "io.rename"}) {
    SCOPED_TRACE(site);
    ASSERT_TRUE(failpoint::ArmFromSpec(std::string(site) + "=error").ok());
    const Status failed = io::WriteFileAtomic(path, "new contents\n");
    failpoint::DisarmAll();
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_NE(failed.message().find(path), std::string::npos)
        << failed.message();
    EXPECT_EQ(ReadFileOrEmpty(path), "previous contents\n");
    EXPECT_NE(::access(tmp_path.c_str(), F_OK), 0)
        << "tmp file left behind after " << site;
  }

  // Disarmed retry writes exactly what the failed attempts were writing.
  ASSERT_TRUE(io::WriteFileAtomic(path, "new contents\n").ok());
  EXPECT_EQ(ReadFileOrEmpty(path), "new contents\n");
  std::remove(path.c_str());
}

TEST_F(IoTest, RetryingWriterReportsPeerDeathAsCleanEpipe) {
  // With SIGPIPE ignored, writing into a pipe whose reader is gone must
  // surface as a kIoError naming the closed peer — not process death, and
  // not an infinite retry (EPIPE is persistent, unlike EINTR/EAGAIN).
  io::IgnoreSigpipe();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  io::RetryingWriter writer(fds[1]);
  // A payload larger than the pipe buffer would block forever if EPIPE were
  // treated as transient; one write() past the closed reader fails instantly.
  const Status status = writer.WriteAll(MakePayload());
  ::close(fds[1]);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("peer closed"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace soft
