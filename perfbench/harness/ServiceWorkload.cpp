//===- perfbench/harness/ServiceWorkload.cpp - racd under load ------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The service workload: racd on a Unix socket, driven by closed-loop
// client connections (one thread each) from this process. It is the
// only workload whose ops pass through ir parse/verify/print, opt on
// the request path, the allocation cache, the service pool, the wire
// protocol and the linear-scan backend.
//
// Requests come from a pool of RandomProgram modules (1-3 functions)
// made from the seed, under a tight register file. Each client walks
// its own share of the pool; about half of its requests repeat one of
// its recent modules (a cache hit), the rest take its next module
// (a miss and an insert: the cache is smaller than the pool, so a
// module comes round again only after it was evicted). Each module has
// a fixed allocator — mostly briggs, a fixed share linear-scan and a
// smaller share chaitin — so its repeats can hit.
//
// Every reply must equal, byte for byte apart from the cache-hit flags,
// the reply a cold, cache-off service gives to the same request during
// set-up. Those reference allocations are themselves run on the
// simulator against the virtual-register run.
//
//===----------------------------------------------------------------------===//

#include "AllocOp.h"
#include "Common.h"

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "service/Server.h"
#include "sim/Simulator.h"
#include "support/Rng.h"
#include "workloads/RandomProgram.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

using namespace ra;
using namespace ra::service;
using namespace pb;

namespace {

// Traffic shape. The cache holds fewer functions than the pool, and
// more than the clients' recent windows together, so repeats hit and
// new requests miss.
constexpr unsigned MaxClients = 4;
constexpr unsigned PoolModules = 192;
constexpr unsigned RecentWindow = 6;
constexpr double RepeatShare = 0.5;
constexpr unsigned CacheEntries = 96;
constexpr unsigned RacdWorkers = 2;
constexpr unsigned WarmUpRequests = 8; ///< Per client, during set-up.
constexpr unsigned IntRegs = 6, FltRegs = 4;

/// One distinct request of the pool.
struct PoolEntry {
  std::string Source;
  std::string Allocator;
  std::string Payload;    ///< Encoded AllocRequest.
  std::string RefPayload; ///< Cold, cache-off reply, hit flags cleared.
  std::unique_ptr<Module> Allocated; ///< Reference allocation (printing).
};

/// Builds the module pool. Its content does not depend on the run's
/// seed, so the pool's deterministic totals (spills, cycles, ...) are
/// the same in every run; the seed shapes the traffic over it. Each
/// module's functions share the generator's two arrays, so extra
/// functions are printed and appended to the first one's module text.
std::vector<PoolEntry> makePool() {
  Rng R(0x9001D5EEDull);
  std::vector<PoolEntry> Pool(PoolModules);
  for (unsigned K = 0; K < PoolModules; ++K) {
    PoolEntry &E = Pool[K];
    unsigned NumFuncs = 1 + unsigned(R.nextBelow(3));
    std::string Text;
    for (unsigned I = 0; I < NumFuncs; ++I) {
      RandomProgramConfig C;
      C.MaxDepth = 2 + unsigned(R.nextBelow(2));
      C.StatementsPerBlock = 6 + unsigned(R.nextBelow(7));
      C.Regions = 3 + unsigned(R.nextBelow(6));
      C.IntVars = 6 + unsigned(R.nextBelow(5));
      C.FloatVars = 6 + unsigned(R.nextBelow(5));
      C.LoopTrip = 3 + int64_t(R.nextBelow(3));
      Module M;
      Function &F = buildRandomProgram(M, R.next() >> 1, C);
      if (I == 0) {
        Text = printModule(M);
        Text.resize(Text.size() - 2); // drop the closing "}\n"
      } else {
        Text += printFunction(M, F);
      }
    }
    E.Source = Text + "}\n";
    // Mostly briggs; a fixed 20% linear scan and 10% chaitin.
    E.Allocator = K % 10 < 7 ? "briggs" : K % 10 < 9 ? "linear-scan"
                                                     : "chaitin";
    AllocRequestMsg Msg;
    Msg.Config.Allocator = E.Allocator;
    Msg.Config.IntK = IntRegs;
    Msg.Config.FltK = FltRegs;
    Msg.Config.Optimize = true;
    Msg.Config.Audit = true;
    Msg.Config.UseCache = true;
    Msg.Config.Print = true;
    Msg.Source = E.Source;
    E.Payload = Msg.encode();
  }
  return Pool;
}

/// Decodes \p Payload and re-encodes it with every cache-hit flag
/// cleared; empty when it does not decode.
std::string withoutHitFlags(const std::string &Payload,
                            AllocReplyMsg *Decoded = nullptr) {
  AllocReplyMsg Msg;
  if (!Msg.decode(Payload).ok())
    return std::string();
  for (FunctionReplyMsg &F : Msg.Functions)
    F.CacheHit = 0;
  if (Decoded)
    *Decoded = Msg;
  return Msg.encode();
}

/// Reference replies from a cold, cache-off in-process service, and an
/// independent check of each: the same request allocated here must print
/// the same code, and that code must run like the virtual-register code.
bool makeReferences(std::vector<PoolEntry> &Pool, Deterministic &D,
                    double &SimMs, std::string &Err) {
  ServiceConfig SC;
  SC.CacheEnabled = false;
  SC.Workers = 1;
  AllocationService Svc(SC);
  RacdServer Server(Svc);
  for (PoolEntry &E : Pool) {
    std::string Out;
    Server.handleFrame(MsgType::AllocRequest, E.Payload, Out);
    FrameReader Reader;
    Reader.feed(Out.data(), Out.size());
    MsgType T;
    std::string Reply;
    Status S;
    AllocReplyMsg Msg;
    if (Reader.pop(T, Reply, S) != FrameReader::Result::Frame ||
        T != MsgType::AllocReply ||
        (E.RefPayload = withoutHitFlags(Reply, &Msg)).empty() || !Msg.Ok) {
      Err = "reference request failed: " + Msg.Diag;
      return false;
    }

    AllocRequestMsg Req;
    AllocatorConfig C;
    if (!Req.decode(E.Payload).ok() || !Req.Config.apply(C).ok()) {
      Err = "cannot decode a pool request";
      return false;
    }
    E.Allocated = std::make_unique<Module>();
    std::string ParseErr;
    if (!parseModule(E.Source, *E.Allocated, ParseErr)) {
      Err = "pool module does not parse: " + ParseErr;
      return false;
    }
    Module &M = *E.Allocated;
    for (unsigned I = 0; I < M.numFunctions(); ++I) {
      Function &F = M.function(I);
      optimizeFunction(F);
      Function Virtual = F;
      AllocationResult A = allocateRegisters(F, C);
      if (A.Outcome != AllocOutcome::Converged) {
        Err = F.name() + ": reference allocation did not converge";
        return false;
      }
      if (I >= Msg.Functions.size() ||
          Msg.Functions[I].Printed != printFunction(M, F)) {
        Err = F.name() + ": service reply differs from a direct allocation";
        return false;
      }
      int64_t T0 = nowNs();
      Simulator Sim(M);
      MemoryImage RefMem(M), Mem(M);
      ExecutionResult Ref = Sim.runVirtual(Virtual, RefMem);
      ExecutionResult Run = Sim.runAllocated(F, A, Mem);
      SimMs += double(nowNs() - T0) / 1e6;
      if (!Ref.Ok || !Run.Ok || Ref.IntReturn != Run.IntReturn ||
          Ref.HasIntReturn != Run.HasIntReturn || !(RefMem == Mem)) {
        Err = F.name() + ": allocated code differs from the virtual run";
        return false;
      }
      D.Spills += A.Stats.firstPassSpills();
      D.SpillCost += A.Stats.firstPassSpillCost();
      D.Cycles += Run.Cycles;
      D.CodeInstrs += F.numInstructions();
    }
  }
  return true;
}

/// The racd child process. The destructor kills and reaps a daemon that
/// is still running, so no exit path leaves one behind.
class Racd {
public:
  Racd() = default;
  Racd(const Racd &) = delete;
  Racd &operator=(const Racd &) = delete;
  ~Racd() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      reap();
    }
  }

  bool start(const std::string &Socket, std::string &Err) {
    SocketPath = Socket;
    ::unlink(Socket.c_str());
    std::fflush(stdout);
    std::fflush(stderr);
    Pid = ::fork();
    if (Pid == 0) {
      ::dup2(2, 1); // keep the benchmark's stdout for its result line
      std::string Entries = std::to_string(CacheEntries);
      std::string Workers = std::to_string(RacdWorkers);
      ::execl(PB_RACD_PATH, "racd", "--socket", Socket.c_str(), "--workers",
              Workers.c_str(), "--cache-entries", Entries.c_str(),
              (char *)nullptr);
      std::fprintf(stderr, "perfbench: cannot exec %s: %s\n", PB_RACD_PATH,
                   std::strerror(errno));
      ::_exit(127);
    }
    if (Pid < 0) {
      Err = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    // Wait for the listener.
    for (int I = 0; I < 5000; ++I) {
      int Fd = -1;
      if (connectUnix(Socket, Fd).ok()) {
        ::close(Fd);
        return true;
      }
      int Status;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "racd exited during start-up";
        return false;
      }
      ::usleep(1000);
    }
    Err = "racd did not start listening";
    return false;
  }

  Status stats(StatsReplyMsg &Out) {
    int Fd = -1;
    if (Status S = connectUnix(SocketPath, Fd); !S.ok())
      return S;
    MsgType T;
    std::string Reply;
    Status S = transact(Fd, MsgType::StatsRequest, "", T, Reply);
    ::close(Fd);
    if (S.ok() && T != MsgType::StatsReply)
      S = Status::error(StatusCode::IoError, "unexpected stats reply");
    return S.ok() ? Out.decode(Reply) : S;
  }

  /// racd's own peak resident set so far, in MiB.
  double peakRss() const { return Pid > 0 ? peakRssMb(Pid) : 0; }

  /// Shuts the daemon down and reaps it.
  void stop() {
    int Fd = -1;
    if (connectUnix(SocketPath, Fd).ok()) {
      MsgType T;
      std::string Reply;
      transact(Fd, MsgType::Shutdown, "", T, Reply);
      ::close(Fd);
    }
    // Give it a moment to join its connections, then insist.
    for (int I = 0; I < 400 && Pid > 0; ++I) {
      if (reap(WNOHANG))
        break;
      ::usleep(5000);
    }
    if (Pid > 0) {
      note("racd did not stop; killing it");
      ::kill(Pid, SIGKILL);
      reap();
    }
  }

private:
  bool reap(int Flags = 0) {
    int Status = 0;
    pid_t R;
    while ((R = ::waitpid(Pid, &Status, Flags)) < 0 && errno == EINTR) {
    }
    if (R != Pid)
      return false;
    Pid = -1;
    return true;
  }

  pid_t Pid = -1;
  std::string SocketPath;
};

/// One client's request stream: its share of the pool, walked in order,
/// with repeats of its recent modules mixed in.
class Stream {
public:
  Stream(uint64_t Seed, std::vector<size_t> Share)
      : R(Seed), Share(std::move(Share)) {}

  size_t next() {
    if (!Recent.empty() && R.nextBool(RepeatShare))
      return Recent[R.nextBelow(Recent.size())];
    size_t M = Share[NextNew++ % Share.size()];
    Recent.push_back(M);
    if (Recent.size() > RecentWindow)
      Recent.pop_front();
    return M;
  }

private:
  Rng R;
  std::vector<size_t> Share;
  size_t NextNew = 0;
  std::deque<size_t> Recent;
};

struct Client {
  int Fd = -1;
  std::unique_ptr<Stream> S;
  PhaseTally Tally;
  /// End time, success and live ranges of each request, for windows.
  struct Done {
    int64_t EndNs;
    bool Ok;
    uint64_t Ranges;
  };
  std::vector<Done> Finished;
  std::vector<std::string> Failures;

  Client() = default;
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

/// Replays the server-side work of one request in this process, one
/// span per layer: parse, verify, and for each function optimize and
/// allocate when racd missed, then print.
void replayRequest(const PoolEntry &E, const AllocReplyMsg &Reply,
                   Tracer &T, uint64_t Op, const Span *Parent) {
  Span Run(T, "service.run", Op, Parent);
  Module M;
  std::string Err;
  Span ParseS(T, "ir.parse", Op, &Run);
  bool Parsed = parseModule(E.Source, M, Err);
  ParseS.close();
  if (!Parsed)
    return;
  uint64_t Instrs = 0;
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    Instrs += M.function(I).numInstructions();
  T.count("ir.parse_instrs", double(Instrs));
  {
    Span S(T, "ir.verify", Op, &Run);
    verifyModule(M);
  }
  AllocRequestMsg Req;
  Req.decode(E.Payload);
  AllocatorConfig C;
  Req.Config.apply(C);
  for (unsigned I = 0; I < M.numFunctions(); ++I) {
    Function &F = M.function(I);
    bool Hit = I < Reply.Functions.size() && Reply.Functions[I].CacheHit;
    if (Hit) {
      // A hit prints the cached allocation; print the reference one.
      Span S(T, "ir.print", Op, &Run);
      printFunction(*E.Allocated, E.Allocated->function(I));
      continue;
    }
    {
      int64_t Before = F.numInstructions();
      Span S(T, "opt.optimize", Op, &Run);
      optimizeFunction(F);
      S.close();
      T.count("opt.instrs_removed",
              double(Before - int64_t(F.numInstructions())));
    }
    bool AuditOk, ReplayOk;
    allocateOp(F, C, T, Op, &Run, AuditOk, ReplayOk);
    Span S(T, "ir.print", Op, &Run);
    printFunction(M, F);
  }
}

/// One request round trip on \p Cl, checked against the reference.
void runRequest(Client &Cl, std::vector<PoolEntry> &Pool, Tracer &T,
                uint64_t Op) {
  size_t K = Cl.S->next();
  const PoolEntry &E = Pool[K];
  PhaseTally &Tl = Cl.Tally;
  Span OpS(T, "op", Op, nullptr);
  Span Rtt(T, "service.rtt", Op, &OpS);
  int64_t Start = nowNs();
  MsgType Type;
  std::string Reply;
  Status S = transact(Cl.Fd, MsgType::AllocRequest, E.Payload, Type, Reply);
  int64_t End = nowNs();
  double Ms = double(End - Start) / 1e6;
  Rtt.close();
  ++Tl.Attempted;
  Tl.OpMs.push_back(Ms);

  AllocReplyMsg Msg;
  std::string Why;
  if (!S.ok())
    Why = "transport: " + S.toString();
  else if (Type != MsgType::AllocReply)
    Why = std::string("reply of type ") + msgTypeName(Type);
  else if (withoutHitFlags(Reply, &Msg) != E.RefPayload)
    Why = "reply differs from the cold cache-off reference";
  if (!Why.empty()) {
    ++Tl.Failed;
    Tl.Wrong += S.ok();
    Cl.Failures.push_back("module " + std::to_string(K) + " (" +
                          E.Allocator + "): " + Why);
    Cl.Finished.push_back({End, false, 0});
    return;
  }
  // Equal to a reference that converged everywhere (checked in set-up).
  ++Tl.Succeeded;
  ++Tl.Converged;
  uint64_t Ranges = 0;
  for (const FunctionReplyMsg &F : Msg.Functions)
    Ranges += F.LiveRanges;
  Tl.Ranges += Ranges;
  Cl.Finished.push_back({End, true, Ranges});
  if (T.enabled()) {
    // Restore the flags withoutHitFlags cleared: the replay needs them.
    AllocReplyMsg Raw;
    Raw.decode(Reply);
    replayRequest(E, Raw, T, Op, &OpS);
  }
}

/// Runs every client closed-loop until \p Seconds have passed (or for
/// \p Requests requests each when nonzero).
PhaseTally runClients(std::vector<std::unique_ptr<Client>> &Clients,
                      std::vector<PoolEntry> &Pool, Tracer &T,
                      std::atomic<uint64_t> &NextOp, double Seconds,
                      unsigned Requests, WorkloadResult &Res) {
  for (auto &Cl : Clients) {
    Cl->Tally = PhaseTally();
    Cl->Finished.clear();
  }
  int64_t Start = nowNs();
  int64_t Deadline = Start + int64_t(Seconds * 1e9);
  std::vector<std::thread> Threads;
  for (auto &Cl : Clients)
    Threads.emplace_back([&, C = Cl.get()] {
      for (unsigned N = 0; Requests ? N < Requests : nowNs() < Deadline; ++N)
        runRequest(*C, Pool, T, NextOp.fetch_add(1));
    });
  for (std::thread &Th : Threads)
    Th.join();
  PhaseTally All;
  int64_t End = nowNs();
  // One-second windows; a last window shorter than half that is dropped.
  const int64_t WindowNs = 1000000000;
  All.Windows.resize(size_t((End - Start + WindowNs / 2) / WindowNs));
  for (size_t I = 0; I < All.Windows.size(); ++I)
    All.Windows[I].Seconds =
        double(std::min(WindowNs, End - Start - int64_t(I) * WindowNs)) / 1e9;
  for (auto &Cl : Clients)
    for (const Client::Done &D : Cl->Finished) {
      size_t W = size_t((D.EndNs - Start) / WindowNs);
      if (W < All.Windows.size() && D.Ok) {
        ++All.Windows[W].Succeeded;
        All.Windows[W].Ranges += D.Ranges;
      }
    }
  for (auto &Cl : Clients) {
    All.merge(Cl->Tally);
    for (const std::string &F : Cl->Failures)
      if (std::find(Res.Notes.begin(), Res.Notes.end(), F) ==
          Res.Notes.end()) {
        note("%s", F.c_str());
        Res.Notes.push_back(F);
      }
    Cl->Failures.clear();
  }
  return All;
}

/// Connects \p N clients, each with its own share of the pool.
bool connectClients(std::vector<std::unique_ptr<Client>> &Clients, unsigned N,
                    const std::string &Socket, uint64_t Seed,
                    std::string &Err) {
  Rng R(Seed * 0x94D049BB133111EBull + 5);
  std::vector<size_t> Order(PoolModules);
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  Clients.clear();
  for (unsigned C = 0; C < N; ++C) {
    auto Cl = std::make_unique<Client>();
    if (Status S = connectUnix(Socket, Cl->Fd); !S.ok()) {
      Err = S.toString();
      return false;
    }
    std::vector<size_t> Share;
    for (size_t I = C; I < Order.size(); I += N)
      Share.push_back(Order[I]);
    Cl->S = std::make_unique<Stream>(R.next(), std::move(Share));
    Clients.push_back(std::move(Cl));
  }
  return true;
}

} // namespace

WorkloadResult pb::runService(const RunOptions &O) {
  WorkloadResult Res;
  const unsigned NumClients = std::max(
      1u, std::min<unsigned>(MaxClients,
                             unsigned(sysconf(_SC_NPROCESSORS_ONLN))));
  const std::string Socket =
      O.OutDir + "/racd-" + std::to_string(::getpid()) + ".sock";

  // Set up several times (pool, racd start, warm-up) and report the
  // median. The reference replies are check work, made once from the
  // first pool (every pool is the same) and kept out of the set-up time.
  const unsigned Reps = 5;
  std::vector<double> SetupS;
  std::vector<PoolEntry> Pool;
  Deterministic D;
  double SimMs = 0, BuildMs = 0;
  std::unique_ptr<Racd> Daemon;
  std::vector<std::unique_ptr<Client>> Clients;
  std::atomic<uint64_t> NextOp{1};
  Tracer Off(false);
  PhaseTally Warm;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    if (Daemon) {
      Clients.clear();
      Daemon->stop();
    }
    int64_t T0 = nowNs();
    std::vector<PoolEntry> Fresh = makePool();
    int64_t T1 = nowNs();
    BuildMs += double(T1 - T0) / 1e6 / Reps;
    std::string Err;
    if (Rep == 0) {
      Pool = std::move(Fresh);
      if (!makeReferences(Pool, D, SimMs, Err)) {
        note("%s", Err.c_str());
        return Res; // nothing attempted: no result
      }
    }
    int64_t T2 = nowNs();
    Daemon = std::make_unique<Racd>();
    if (!Daemon->start(Socket, Err) ||
        !connectClients(Clients, NumClients, Socket, O.Seed, Err)) {
      note("%s", Err.c_str());
      return Res;
    }
    PhaseTally W =
        runClients(Clients, Pool, Off, NextOp, 0, WarmUpRequests, Res);
    SetupS.push_back(double(T1 - T0 + nowNs() - T2) / 1e9);
    Warm.Attempted += W.Attempted;
    Warm.Failed += W.Failed;
    Warm.Wrong += W.Wrong;
  }

  // A traced run alternates one-second slices of untraced and traced
  // traffic; their ops/s ratio is the tracing overhead.
  Tracer T(O.Trace);
  PhaseTally U, Tr;
  if (!O.Trace) {
    U = runClients(Clients, Pool, Off, NextOp, O.Seconds, 0, Res);
  } else {
    int64_t Start = nowNs();
    for (unsigned Slice = 0;
         double(nowNs() - Start) / 1e9 < O.Seconds || Slice < 2; ++Slice) {
      bool Traced = Slice % 2 == 1;
      (Traced ? Tr : U)
          .merge(runClients(Clients, Pool, Traced ? T : Off, NextOp, 1.0, 0,
                            Res));
    }
  }

  StatsReplyMsg Stats;
  Status StatsS = Daemon->stats(Stats);
  double PeakRssMb = Daemon->peakRss();
  Clients.clear();
  Daemon->stop();
  if (!StatsS.ok()) {
    note("racd stats: %s", StatsS.toString().c_str());
    return Res;
  }

  Res.Attempted = U.Attempted + Tr.Attempted;
  Res.Failed = U.Failed + Tr.Failed;
  Res.Correct = Warm.Wrong + U.Wrong + Tr.Wrong == 0 && Warm.Failed == 0;
  if (!O.Trace) {
    addEndToEnd(Res, U, median(SetupS), 0.99, PeakRssMb, D);
    return Res;
  }

  const CacheStats &CS = Stats.Stats;
  uint64_t Requests = std::max<uint64_t>(Stats.Requests, 1);
  std::vector<Metric> Extra = {
      {"workloads.build_ms", BuildMs, "ms"},
      {"service.cache_hit_ratio",
       CS.Hits + CS.Misses ? double(CS.Hits) / double(CS.Hits + CS.Misses)
                           : 0,
       "ratio"},
      {"service.cache_evictions", double(CS.Evictions) / double(Requests),
       "count"},
      {"service.cache_peak_bytes", double(CS.PeakBytes), "bytes"},
      // The simulator checks the reference allocations during set-up,
      // once per pool module.
      {"sim.run_ms", SimMs / PoolModules, "ms"},
  };
  addPerLayer(Res, T, Tr.Attempted, U, Tr, Extra);
  std::string Path = O.OutDir + "/trace-" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + ".json";
  if (!T.writeJson(Path)) {
    note("cannot write %s", Path.c_str());
    Res.Correct = false;
  }
  return Res;
}
