//===- service/Server.h - racd transport + dispatch ------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The racd daemon shell around one AllocationService: frame dispatch
/// (handleFrame), a blocking byte-stream loop usable over any fd pair
/// (serveStream — stdin/stdout or a connected socket), and a Unix-
/// domain listener running one thread per connection so concurrent
/// clients shard functions across the service's shared ThreadPool.
///
/// Shutdown is cooperative: a Shutdown frame is acknowledged with
/// ShutdownAck, then the listener is woken and every connection thread
/// joined before listenUnix's socket file is unlinked — a stopped racd
/// never leaks its socket path.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SERVICE_SERVER_H
#define RA_SERVICE_SERVER_H

#include "service/AllocationService.h"
#include "service/Protocol.h"
#include "support/Status.h"

#include <atomic>
#include <string>

namespace ra {
namespace service {

class RacdServer {
public:
  explicit RacdServer(AllocationService &Svc) : Svc(Svc) {}
  ~RacdServer();

  /// Dispatches one decoded frame, appending any reply frames to
  /// \p Out. Returns false when the connection should end (Shutdown
  /// acknowledged, or a request type the server cannot answer).
  bool handleFrame(MsgType T, const std::string &Payload, std::string &Out);

  /// Serves framed requests from \p InFd until EOF, a Shutdown frame,
  /// or a protocol error (which is itself answered with an Error frame
  /// when the stream is still writable). \p InFd and \p OutFd may be
  /// the same fd (socket) or a pipe pair (stdio mode).
  Status serveStream(int InFd, int OutFd);

  /// Binds and listens on a Unix-domain socket at \p Path (unlinking a
  /// stale file first). Call acceptLoop() next.
  Status listenUnix(const std::string &Path);

  /// Accepts connections until a Shutdown frame or requestStop(),
  /// running each connection on its own thread. Threads of closed
  /// connections are joined as later connections arrive; the rest are
  /// joined, and the socket file removed, before returning.
  Status acceptLoop();

  /// Wakes acceptLoop() and marks the server stopping. Safe from any
  /// thread (it is how a Shutdown frame on a connection thread stops
  /// the listener).
  void requestStop();

  bool stopRequested() const {
    return Stop.load(std::memory_order_acquire);
  }

  /// Requests served so far (frames of type AllocRequest).
  uint64_t allocRequests() const {
    return AllocFrames.load(std::memory_order_relaxed);
  }

private:
  void removeSocketFile();

  AllocationService &Svc;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> AllocFrames{0};
  /// Set by listenUnix and closed only by the destructor, so
  /// requestStop can shut it down from any thread while acceptLoop runs
  /// or after it returns.
  int ListenFd = -1;
  std::string SockPath;
};

/// Client-side helper: connects to a racd Unix-domain socket. On
/// success \p Fd holds a connected stream socket the caller owns.
Status connectUnix(const std::string &Path, int &Fd);

/// Writes all of \p Bytes to \p Fd, retrying short writes and EINTR.
Status writeAll(int Fd, const std::string &Bytes);

/// Blocking client call: writes one framed request and reads frames
/// until one complete reply arrives. Used by racc and the benches.
Status transact(int Fd, MsgType T, const std::string &Payload,
                MsgType &ReplyT, std::string &ReplyPayload);

} // namespace service
} // namespace ra

#endif // RA_SERVICE_SERVER_H
