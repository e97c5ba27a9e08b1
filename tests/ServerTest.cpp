//===- tests/ServerTest.cpp - racd listener tests -------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// RacdServer over a real Unix-domain socket, in-process:
//
//  * a long-running listener does not keep the threads of closed
//    connections: serving hundreds of sequential connections grows the
//    process's address space by far less than one stack per connection;
//  * a request whose budget trips degrades only itself: a concurrent
//    sibling request converges, with a reply byte-identical to the same
//    request sent alone.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "workloads/MegaKernel.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <unistd.h>

using namespace ra;
using namespace ra::service;

namespace {

/// A RacdServer listening on a fresh socket in a private temporary
/// directory, its accept loop on a background thread. The destructor
/// stops the listener and joins every connection thread.
class ListeningServer {
public:
  explicit ListeningServer(const ServiceConfig &SC) : Svc(SC), Server(Svc) {
    std::string Template = ::testing::TempDir() + "racdXXXXXX";
    if (!::mkdtemp(Template.data()))
      return;
    Dir = Template;
    Path = Dir + "/s";
    Listening = Server.listenUnix(Path).ok();
    if (Listening)
      Loop = std::thread([this] { (void)Server.acceptLoop(); });
  }

  ~ListeningServer() {
    if (Loop.joinable()) {
      Server.requestStop();
      Loop.join();
    }
    if (!Dir.empty())
      ::rmdir(Dir.c_str());
  }

  bool listening() const { return Listening; }
  const std::string &path() const { return Path; }

private:
  AllocationService Svc;
  RacdServer Server;
  std::string Dir, Path;
  bool Listening = false;
  std::thread Loop;
};

/// This process's virtual address space, in kB (VmSize in
/// /proc/self/status), or 0 when it cannot be read.
uint64_t vmSizeKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmSize:", 0) == 0)
      return std::strtoull(Line.c_str() + 7, nullptr, 10);
  return 0;
}

/// Reads frames from \p Fd until one complete frame arrives.
Status readReply(int Fd, MsgType &T, std::string &Payload) {
  FrameReader Reader;
  char Chunk[64 << 10];
  for (;;) {
    Status Err;
    FrameReader::Result R = Reader.pop(T, Payload, Err);
    if (R == FrameReader::Result::Frame)
      return Status();
    if (R == FrameReader::Result::Malformed)
      return Err;
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N <= 0)
      return Status::error(StatusCode::IoError, "no reply");
    Reader.feed(Chunk, size_t(N));
  }
}

/// Sends one AllocRequest on a fresh connection and returns the raw
/// AllocReply payload.
std::string allocAlone(const std::string &Path, const AllocRequestMsg &Req) {
  int Fd = -1;
  EXPECT_TRUE(connectUnix(Path, Fd).ok());
  if (Fd < 0)
    return std::string();
  MsgType T;
  std::string Payload;
  Status S = transact(Fd, MsgType::AllocRequest, Req.encode(), T, Payload);
  ::close(Fd);
  EXPECT_TRUE(S.ok()) << S.toString();
  EXPECT_EQ(T, MsgType::AllocReply);
  return Payload;
}

TEST(RacdServerTest, ClosedConnectionsReleaseTheirThreads) {
  // One stack per connection is 8 MiB by default: 300 connections whose
  // threads are never joined grow VmSize by about 2.4 GiB. Joined
  // threads hand their stacks back (or to the C library's stack cache),
  // so growth stays far below that. Connections run one at a time.
  ServiceConfig SC;
  SC.Workers = 1;
  ListeningServer L(SC);
  ASSERT_TRUE(L.listening());

  auto statsRoundTrip = [&] {
    int Fd = -1;
    ASSERT_TRUE(connectUnix(L.path(), Fd).ok());
    MsgType T;
    std::string Payload;
    Status S = transact(Fd, MsgType::StatsRequest, "", T, Payload);
    ::close(Fd);
    ASSERT_TRUE(S.ok()) << S.toString();
    ASSERT_EQ(T, MsgType::StatsReply);
  };

  statsRoundTrip(); // warm up: the first thread maps its stack
  const uint64_t Before = vmSizeKb();
  ASSERT_GT(Before, 0u) << "cannot read VmSize from /proc/self/status";
  for (int I = 0; I < 300; ++I) {
    statsRoundTrip();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  const uint64_t After = vmSizeKb();
  EXPECT_LT(After, Before + (256u << 10))
      << "VmSize grew from " << Before << " kB to " << After
      << " kB over 300 closed connections";
}

TEST(RacdServerTest, HugeRequestDegradesOnlyItself) {
  // The huge request: the smallest bench mega-kernel (~10k live ranges)
  // under a 1 MB memory budget, which its class graphs alone exceed.
  AllocRequestMsg Huge;
  {
    Module M;
    megaKernelFamily()[0].Build(M);
    Huge.Source = printModule(M);
  }
  Huge.Config.MemBudgetMb = 1;

  // The sibling: a Figure-5 routine under the default config.
  AllocRequestMsg Sibling;
  {
    Module M;
    buildSVD(M);
    Sibling.Source = printModule(M);
  }
  Sibling.Config.Print = true;

  ServiceConfig SC;
  SC.CacheEnabled = false; // the sibling is sent twice; both must miss
  SC.Workers = 2;
  ListeningServer L(SC);
  ASSERT_TRUE(L.listening());

  const std::string Alone = allocAlone(L.path(), Sibling);

  // The huge request goes out first, so it is normally still allocating
  // on its connection thread while the sibling is served on a second.
  int HugeFd = -1;
  ASSERT_TRUE(connectUnix(L.path(), HugeFd).ok());
  std::string Wire;
  appendFrame(Wire, MsgType::AllocRequest, Huge.encode());
  ASSERT_TRUE(writeAll(HugeFd, Wire).ok());
  const std::string Concurrent = allocAlone(L.path(), Sibling);
  MsgType T;
  std::string HugePayload;
  Status S = readReply(HugeFd, T, HugePayload);
  ::close(HugeFd);
  ASSERT_TRUE(S.ok()) << S.toString();
  ASSERT_EQ(T, MsgType::AllocReply);

  AllocReplyMsg HugeReply;
  ASSERT_TRUE(HugeReply.decode(HugePayload).ok());
  ASSERT_EQ(HugeReply.Functions.size(), 1u);
  const FunctionReplyMsg &HF = HugeReply.Functions[0];
  EXPECT_EQ(HF.Success, 1) << HF.Diag;
  EXPECT_EQ(AllocOutcome(HF.Outcome), AllocOutcome::Degraded) << HF.Diag;
  const std::string Deadline = statusCodeName(StatusCode::DeadlineExceeded);
  const std::string Memory = statusCodeName(StatusCode::MemoryBudgetExceeded);
  EXPECT_TRUE(HF.Diag.rfind(Deadline, 0) == 0 ||
              HF.Diag.rfind(Memory, 0) == 0)
      << HF.Diag;

  AllocReplyMsg SiblingReply;
  ASSERT_TRUE(SiblingReply.decode(Concurrent).ok());
  ASSERT_EQ(SiblingReply.Functions.size(), 1u);
  EXPECT_EQ(AllocOutcome(SiblingReply.Functions[0].Outcome),
            AllocOutcome::Converged)
      << SiblingReply.Functions[0].Diag;
  EXPECT_EQ(Concurrent, Alone)
      << "a concurrent degraded request changed its sibling's reply";
}

} // namespace
