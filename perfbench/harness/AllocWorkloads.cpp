//===- perfbench/harness/AllocWorkloads.cpp - fig5 and mega ---------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The two workloads that call allocateRegisters directly, one function
// at a time on one thread:
//
//   fig5  the paper's 28 Figure-5 routines, optimized during set-up.
//         Small functions: Simplify and fixed per-call cost weigh most.
//   mega  every member of megaKernelFamily(), 10k-50k live ranges. The
//         O(N^2) matrices and the O(blocks x vregs) front end dominate.
//
// Both run whole passes over their inputs, in an order shuffled by the
// seed, until the run's time is spent. The ops run in worker processes
// that this binary starts afresh (exec): one per pass for fig5, one per
// op for mega, as rac invocations would be. No allocator state carries
// from one pass to the next, and a run averages over many process
// layouts instead of drawing one. One process per mega op also isolates
// it: an op that aborts (the 50k ramp does at the time of writing) is
// one failed op, not a lost run. Workers build their inputs themselves, as
// rac would; that build (and optimization) is the set-up time.
//
// Every op is audited (the op configuration turns the audit on) and its
// allocated code is run on the simulator; a digest of its return value
// and memory must equal the digest of the virtual-register run, which
// the parent makes once per input.
//
//===----------------------------------------------------------------------===//

#include "AllocOp.h"
#include "Common.h"

#include "opt/Optimizer.h"
#include "sim/Simulator.h"
#include "support/Rng.h"
#include "workloads/MegaKernel.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ra;
using namespace pb;

namespace {

/// One function to allocate.
struct Input {
  std::string Name;
  std::unique_ptr<Module> M;
  Function *F = nullptr; ///< Never allocated itself; ops allocate copies.
  std::function<void(const Module &, MemoryImage &)> Init;
};

size_t numInputs(bool Mega) {
  return Mega ? megaKernelFamily().size() : allWorkloads().size();
}

std::string inputName(bool Mega, size_t I) {
  if (Mega)
    return megaKernelFamily()[I].Name;
  const Workload &W = allWorkloads()[I];
  return W.Program + "." + W.Routine;
}

/// mega.ramp.50k aborts when this benchmark is defined. Its latency and
/// its code-quality totals are left out of the latency percentiles and
/// the deterministic metrics, so that fixing it reads as ok_share (and
/// ops_per_s, ranges_per_s) moving, not as a new slowest op or totals
/// that grew by a whole kernel. It is still attempted in every pass.
bool inTotals(bool Mega, size_t I) {
  return inputName(Mega, I) != "mega.ramp.50k";
}

struct Built {
  std::vector<Input> Inputs; ///< Indexed like the workload's input list.
  double BuildMs = 0, OptimizeMs = 0;
  int64_t InstrsRemoved = 0;
};

/// Builds the inputs listed in \p Which and, for fig5, optimizes them:
/// the paper's compiler optimized before allocating, while the mega
/// kernels are allocated as generated, as megakernel_scaling does.
Built buildInputs(bool Mega, const std::vector<size_t> &Which) {
  Built B;
  B.Inputs.resize(numInputs(Mega));
  int64_t T0 = nowNs();
  for (size_t I : Which) {
    Input &In = B.Inputs[I];
    In.Name = inputName(Mega, I);
    In.M = std::make_unique<Module>();
    if (Mega) {
      In.F = &megaKernelFamily()[I].Build(*In.M);
    } else {
      In.F = &allWorkloads()[I].Build(*In.M);
      In.Init = allWorkloads()[I].Init;
    }
  }
  int64_t T1 = nowNs();
  B.BuildMs = double(T1 - T0) / 1e6;
  if (!Mega) {
    for (size_t I : Which) {
      Function &F = *B.Inputs[I].F;
      int64_t Before = F.numInstructions();
      optimizeFunction(F);
      B.InstrsRemoved += Before - int64_t(F.numInstructions());
    }
    B.OptimizeMs = double(nowNs() - T1) / 1e6;
  }
  return B;
}

/// FNV-1a over a run's observable outputs: return values and every
/// array. A NaN hashes as one canonical NaN, which is the equality
/// MemoryImage::operator== uses.
uint64_t outputDigest(const Module &M, const ExecutionResult &Run,
                      const MemoryImage &Mem) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  auto MixDouble = [&Mix](double D) {
    uint64_t Bits;
    if (std::isnan(D))
      D = std::nan("");
    std::memcpy(&Bits, &D, sizeof Bits);
    Mix(Bits);
  };
  Mix(Run.HasIntReturn);
  Mix(Run.HasIntReturn ? uint64_t(Run.IntReturn) : 0);
  Mix(Run.HasFloatReturn);
  MixDouble(Run.HasFloatReturn ? Run.FloatReturn : 0.0);
  for (uint32_t A = 0; A < M.numArrays(); ++A) {
    if (M.array(A).Elem == RegClass::Int)
      for (int64_t V : Mem.intArray(A))
        Mix(uint64_t(V));
    else
      for (double V : Mem.floatArray(A))
        MixDouble(V);
  }
  return H;
}

/// What one op produced. The deterministic fields must repeat exactly
/// for every op of the same input.
struct OpResult {
  bool Usable = false; ///< Converged or Degraded, and every check passed.
  bool Converged = false;
  bool Degraded = false;
  bool Wrong = false; ///< An output check failed.
  bool ReplayMismatch = false;
  double Ms = 0; ///< The op's timed part.
  uint64_t Ranges = 0, Spills = 0, Cycles = 0, Instrs = 0, Passes = 0;
  uint64_t Digest = 0;
  double Cost = 0;
  std::string Why; ///< Failure reason.

  bool sameOutput(const OpResult &O) const {
    return Spills == O.Spills && Cost == O.Cost && Cycles == O.Cycles &&
           Instrs == O.Instrs && Passes == O.Passes && Ranges == O.Ranges &&
           Digest == O.Digest;
  }
};

/// Allocates a copy of \p In and runs the result on the simulator.
/// Untimed work (copying the input, simulating) stays outside Ms.
OpResult runOp(const Input &In, Tracer &T, uint64_t Op) {
  OpResult R;
  Span OpSpan(T, "op", Op, nullptr);
  Function F = *In.F;
  AllocatorConfig C = opConfig();
  bool AuditOk = true, ReplayOk = true;
  int64_t Start = nowNs();
  AllocationResult A = allocateOp(F, C, T, Op, &OpSpan, AuditOk, ReplayOk);
  R.Ms = double(nowNs() - Start) / 1e6;
  R.ReplayMismatch = !ReplayOk;
  R.Converged = A.Outcome == AllocOutcome::Converged;
  R.Degraded = A.Outcome == AllocOutcome::Degraded;
  R.Passes = A.Stats.numPasses();
  R.Ranges = A.Stats.initialLiveRanges();
  R.Spills = A.Stats.firstPassSpills();
  R.Cost = A.Stats.firstPassSpillCost();
  R.Instrs = F.numInstructions();
  if (!A.Success) {
    R.Why = "allocation failed: " + A.Diag.toString();
    return R;
  }
  if (!AuditOk) {
    R.Wrong = true;
    R.Why = "audit rejected an accepted allocation";
    return R;
  }

  Span SimSpan(T, "sim.run", Op, &OpSpan);
  Simulator Sim(*In.M);
  MemoryImage Mem(*In.M);
  if (In.Init)
    In.Init(*In.M, Mem);
  ExecutionResult Run = Sim.runAllocated(F, A, Mem);
  SimSpan.close();
  T.count("sim.instrs", double(Run.Instructions));
  if (!Run.Ok) {
    R.Wrong = true;
    R.Why = "allocated code trapped: " + Run.Error;
    return R;
  }
  R.Cycles = Run.Cycles;
  R.Digest = outputDigest(*In.M, Run, Mem);
  R.Usable = true; // until the parent compares the digest
  return R;
}

/// The digest of \p In's virtual-register run: the reference every
/// op's allocated code must reproduce.
bool referenceDigest(const Input &In, uint64_t &Digest, std::string &Err) {
  Simulator Sim(*In.M);
  MemoryImage Mem(*In.M);
  if (In.Init)
    In.Init(*In.M, Mem);
  ExecutionResult Ref = Sim.runVirtual(*In.F, Mem);
  if (!Ref.Ok) {
    Err = In.Name + ": reference run trapped: " + Ref.Error;
    return false;
  }
  Digest = outputDigest(*In.M, Ref, Mem);
  return true;
}

//===----------------------------------------------------------------===//
// Worker side: lines on stdout.
//
//   U <build_ms> <optimize_ms> <instrs_removed>   set-up done
//   R <input> <fields...>                          one op's result
//   W <text>                                       its failure reason
//   S ... / C ...                                  spans, counters
//   M <peak_rss_mb>                                at exit
//===----------------------------------------------------------------===//

void writeAllFd(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off < S.size()) {
    ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
    if (N <= 0)
      return;
    Off += size_t(N);
  }
}

std::string encodeResult(size_t Idx, const OpResult &R) {
  char Buf[512];
  std::snprintf(Buf, sizeof Buf,
                "R %zu %d %d %d %d %d %.17g %llu %llu %llu %llu %llu %llu "
                "%.17g\n",
                Idx, R.Usable, R.Converged, R.Degraded, R.Wrong,
                R.ReplayMismatch, R.Ms, (unsigned long long)R.Ranges,
                (unsigned long long)R.Spills, (unsigned long long)R.Cycles,
                (unsigned long long)R.Instrs, (unsigned long long)R.Passes,
                (unsigned long long)R.Digest, R.Cost);
  std::string Out = Buf;
  if (!R.Why.empty())
    Out += "W " + R.Why + "\n";
  return Out;
}

bool decodeResult(const std::string &Line, size_t &Idx, OpResult &R) {
  std::istringstream In(Line.substr(2));
  int U, C, D, W, M;
  unsigned long long Ra, Sp, Cy, Ins, Pa, Dg;
  if (!(In >> Idx >> U >> C >> D >> W >> M >> R.Ms >> Ra >> Sp >> Cy >>
        Ins >> Pa >> Dg >> R.Cost))
    return false;
  R.Usable = U;
  R.Converged = C;
  R.Degraded = D;
  R.Wrong = W;
  R.ReplayMismatch = M;
  R.Ranges = Ra;
  R.Spills = Sp;
  R.Cycles = Cy;
  R.Instrs = Ins;
  R.Passes = Pa;
  R.Digest = Dg;
  return true;
}

//===----------------------------------------------------------------===//
// Parent side.
//===----------------------------------------------------------------===//

/// What one worker process reported.
struct WorkerOut {
  bool SetUp = false;
  double BuildMs = 0, OptimizeMs = 0;
  int64_t InstrsRemoved = 0;
  std::vector<std::pair<size_t, OpResult>> Ops;
  /// Set when the worker did not exit cleanly: the reason, and the time
  /// from its last report to its end (the failed op's time).
  std::string Crash;
  double CrashMs = 0;
  double PeakRssMb = 0;
};

/// Starts a worker on \p Items and collects its report, importing its
/// spans into \p T.
WorkerOut runWorker(const RunOptions &O, const std::vector<size_t> &Items,
                    uint64_t OpBase, Tracer &T) {
  WorkerOut W;
  std::string List;
  for (size_t I : Items)
    List += (List.empty() ? "" : ",") + std::to_string(I);
  std::string Base = std::to_string(OpBase);
  int Data[2], Err[2];
  if (::pipe(Data) != 0 || ::pipe(Err) != 0) {
    W.Crash = std::string("pipe: ") + std::strerror(errno);
    return W;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::dup2(Data[1], 1);
    ::dup2(Err[1], 2);
    ::close(Data[0]);
    ::close(Err[0]);
    ::close(Data[1]);
    ::close(Err[1]);
    ::execl("/proc/self/exe", "perfbench_harness", "--worker",
            O.Workload.c_str(), "--items", List.c_str(), "--op-base",
            Base.c_str(), "--trace", T.enabled() ? "1" : "0", (char *)nullptr);
    std::fprintf(stderr, "cannot exec the harness: %s\n",
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(Data[1]);
  ::close(Err[1]);
  if (Pid < 0) {
    ::close(Data[0]);
    ::close(Err[0]);
    W.Crash = std::string("fork: ") + std::strerror(errno);
    return W;
  }

  std::string Lines, ErrText;
  StreamImport Stream;
  int64_t LastReport = nowNs();
  struct pollfd Fds[2] = {{Data[0], POLLIN, 0}, {Err[0], POLLIN, 0}};
  int Open = 2;
  char Buf[1 << 16];
  while (Open > 0) {
    // Sample the worker's peak RSS as it runs: a worker that aborts
    // cannot report its own.
    W.PeakRssMb = std::max(W.PeakRssMb, peakRssMb(Pid));
    int N = ::poll(Fds, 2, 20);
    if (N < 0 && errno != EINTR)
      break;
    for (int I = 0; I < 2 && N > 0; ++I) {
      if (Fds[I].fd < 0 || !(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      ssize_t Got = ::read(Fds[I].fd, Buf, sizeof Buf);
      if (Got <= 0) {
        ::close(Fds[I].fd);
        Fds[I].fd = -1;
        --Open;
        continue;
      }
      (I == 0 ? Lines : ErrText).append(Buf, size_t(Got));
    }
    size_t Pos;
    while ((Pos = Lines.find('\n')) != std::string::npos) {
      std::string Line = Lines.substr(0, Pos);
      Lines.erase(0, Pos + 1);
      if (Line.rfind("R ", 0) == 0) {
        size_t Idx;
        OpResult R;
        if (decodeResult(Line, Idx, R))
          W.Ops.push_back({Idx, R});
        LastReport = nowNs();
      } else if (Line.rfind("W ", 0) == 0 && !W.Ops.empty()) {
        W.Ops.back().second.Why = Line.substr(2);
      } else if (Line.rfind("U ", 0) == 0) {
        std::istringstream In(Line.substr(2));
        long long Removed = 0;
        In >> W.BuildMs >> W.OptimizeMs >> Removed;
        W.InstrsRemoved = Removed;
        W.SetUp = true;
        LastReport = nowNs();
      } else if (Line.rfind("M ", 0) == 0) {
        W.PeakRssMb = std::max(W.PeakRssMb, std::atof(Line.c_str() + 2));
      } else {
        T.importLine(Line, Stream);
      }
    }
  }
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0 && W.SetUp &&
      W.Ops.size() == Items.size())
    return W;

  W.CrashMs = double(nowNs() - LastReport) / 1e6;
  T.closeDangling(Stream, nowNs());
  while (!ErrText.empty() && ErrText.back() == '\n')
    ErrText.pop_back();
  std::string LastErr = ErrText.substr(ErrText.rfind('\n') + 1);
  if (WIFSIGNALED(Status))
    W.Crash = std::string("killed by signal ") +
              std::to_string(WTERMSIG(Status)) + " (" +
              strsignal(WTERMSIG(Status)) + ")";
  else
    W.Crash = "exited with status " + std::to_string(WEXITSTATUS(Status));
  if (!LastErr.empty())
    W.Crash += ": " + LastErr;
  return W;
}

struct PhaseOut {
  PhaseTally Tally;
  uint64_t ReplayMismatches = 0;
  std::vector<double> PassSetupMs, PassBuildMs, PassOptimizeMs;
  int64_t InstrsRemoved = 0; ///< Per pass (the same every pass).
  double PeakRssMb = 0;
};

/// Runs passes of worker processes and checks what they report.
class AllocRunner {
public:
  AllocRunner(const RunOptions &O, bool Mega, std::vector<uint64_t> RefDigest,
              WorkloadResult &Res)
      : O(O), Mega(Mega), RefDigest(std::move(RefDigest)),
        Base(numInputs(Mega)), Order(O.Seed * 0x9E3779B97F4A7C15ull + Mega),
        Res(Res) {}

  /// Runs whole passes over the inputs until \p Seconds have elapsed.
  /// With \p Traced, passes alternate between untraced (into \p U) and
  /// traced (into \p Tr), so both halves see the same host conditions.
  void runPasses(double Seconds, Tracer *Traced, PhaseOut &U, PhaseOut &Tr) {
    Tracer Off(false);
    std::vector<size_t> Idx(numInputs(Mega));
    for (size_t I = 0; I < Idx.size(); ++I)
      Idx[I] = I;
    int64_t Start = nowNs();
    for (unsigned Pass = 0;
         double(nowNs() - Start) / 1e9 < Seconds || Pass < (Traced ? 2 : 1);
         ++Pass) {
      const bool Trace = Traced && Pass % 2 == 1;
      PhaseOut &P = Trace ? Tr : U;
      Tracer &T = Trace ? *Traced : Off;
      for (size_t I = Idx.size(); I > 1; --I)
        std::swap(Idx[I - 1], Idx[Order.nextBelow(I)]);
      double BuildMs = 0, OptMs = 0;
      const PhaseTally Before = P.Tally;
      auto Run = [&](const std::vector<size_t> &Items) {
        WorkerOut W = runWorker(O, Items, NextOp, T);
        NextOp += Items.size();
        BuildMs += W.BuildMs;
        OptMs += W.OptimizeMs;
        P.InstrsRemoved = W.InstrsRemoved;
        P.PeakRssMb = std::max(P.PeakRssMb, W.PeakRssMb);
        for (auto &[I, R] : W.Ops)
          record(P, I, std::move(R));
        if (!W.Crash.empty()) {
          // The first item without a result is the one that died.
          OpResult R;
          R.Ms = W.CrashMs;
          R.Why = W.Crash;
          record(P, Items[std::min(W.Ops.size(), Items.size() - 1)], R);
        }
      };
      if (Mega)
        for (size_t I : Idx)
          Run({I});
      else
        Run(Idx);
      P.Tally.Windows.push_back(
          {P.Tally.TimedSeconds - Before.TimedSeconds,
           P.Tally.Succeeded - Before.Succeeded,
           P.Tally.Ranges - Before.Ranges});
      P.PassSetupMs.push_back(BuildMs + OptMs);
      P.PassBuildMs.push_back(BuildMs);
      P.PassOptimizeMs.push_back(OptMs);
    }
  }

  /// Totals over the inputs of their (repeating) deterministic results.
  Deterministic deterministic() const {
    Deterministic D;
    for (size_t I = 0; I < Base.size(); ++I)
      if (const std::optional<OpResult> &B = Base[I]; B && inTotals(Mega, I)) {
        D.Spills += B->Spills;
        D.SpillCost += B->Cost;
        D.Cycles += B->Cycles;
        D.CodeInstrs += B->Instrs;
      }
    return D;
  }

private:
  void record(PhaseOut &P, size_t I, OpResult R) {
    PhaseTally &Tl = P.Tally;
    ++Tl.Attempted;
    Tl.TimedSeconds += R.Ms / 1e3;
    if (inTotals(Mega, I))
      Tl.OpMs.push_back(R.Ms);
    P.ReplayMismatches += R.ReplayMismatch;
    if (R.Usable && R.Digest != RefDigest[I]) {
      R.Usable = false;
      R.Wrong = true;
      R.Why = "allocated code's return value or memory differs from the "
              "virtual-register run";
    }
    if (R.Usable) {
      // Every op of an input, traced or not, must repeat the first.
      if (!Base[I]) {
        Base[I] = R;
      } else if (!R.sameOutput(*Base[I])) {
        R.Usable = false;
        R.Wrong = true;
        R.Why = "output differs from this input's earlier ops "
                "(nondeterministic allocation)";
      }
    }
    if (!R.Usable) {
      ++Tl.Failed;
      Tl.Wrong += R.Wrong;
      std::string Msg = inputName(Mega, I) + " failed: " + R.Why;
      // Name each distinct failure once; repeats only count.
      if (std::find(Res.Notes.begin(), Res.Notes.end(), Msg) ==
          Res.Notes.end()) {
        note("%s", Msg.c_str());
        Res.Notes.push_back(Msg);
      }
      return;
    }
    ++Tl.Succeeded;
    Tl.Converged += R.Converged;
    Tl.Degraded += R.Degraded;
    Tl.Ranges += R.Ranges;
  }

  const RunOptions &O;
  bool Mega;
  std::vector<uint64_t> RefDigest;
  std::vector<std::optional<OpResult>> Base; ///< First result per input.
  Rng Order;
  uint64_t NextOp = 1;
  WorkloadResult &Res;
};

WorkloadResult runAllocWorkload(const RunOptions &O, bool Mega) {
  WorkloadResult Res;
  std::vector<size_t> All(numInputs(Mega));
  for (size_t I = 0; I < All.size(); ++I)
    All[I] = I;
  std::vector<uint64_t> RefDigest(All.size());
  {
    Built B = buildInputs(Mega, All);
    for (size_t I : All) {
      std::string Err;
      if (!referenceDigest(B.Inputs[I], RefDigest[I], Err)) {
        note("%s", Err.c_str());
        return Res; // nothing attempted: no result
      }
    }
  }

  AllocRunner Runner(O, Mega, std::move(RefDigest), Res);
  // A traced run alternates untraced and traced passes; their ops/s
  // ratio is the tracing overhead.
  Tracer T(O.Trace);
  PhaseOut U, Tr;
  Runner.runPasses(O.Seconds, O.Trace ? &T : nullptr, U, Tr);

  Res.Attempted = U.Tally.Attempted + Tr.Tally.Attempted;
  Res.Failed = U.Tally.Failed + Tr.Tally.Failed;
  Res.Correct = U.Tally.Wrong + Tr.Tally.Wrong == 0;

  if (!O.Trace) {
    // Mega runs a handful of ops per run: too few for any percentile
    // with ten samples beyond it, so its tail is the slowest op.
    addEndToEnd(Res, U.Tally, median(U.PassSetupMs) / 1e3,
                Mega ? 1.0 : 0.99, U.PeakRssMb, Runner.deterministic());
    return Res;
  }

  if (Tr.ReplayMismatches)
    note("%llu traced ops: the replayed first pass spilled different "
         "ranges than allocateRegisters",
         (unsigned long long)Tr.ReplayMismatches);
  std::vector<Metric> Extra = {
      {"workloads.build_ms", median(Tr.PassBuildMs), "ms"},
      {"opt.optimize_ms", median(Tr.PassOptimizeMs), "ms"},
      {"opt.instrs_removed", double(Tr.InstrsRemoved), "count"},
      {"trace.replay_mismatches", double(Tr.ReplayMismatches), "count"},
  };
  addPerLayer(Res, T, Tr.Tally.Attempted, U.Tally, Tr.Tally, Extra);
  std::string Path = O.OutDir + "/trace-" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + ".json";
  if (!T.writeJson(Path)) {
    note("cannot write %s", Path.c_str());
    Res.Correct = false;
  }
  return Res;
}

} // namespace

WorkloadResult pb::runFig5(const RunOptions &O) {
  return runAllocWorkload(O, /*Mega=*/false);
}

WorkloadResult pb::runMega(const RunOptions &O) {
  return runAllocWorkload(O, /*Mega=*/true);
}

int pb::runAllocWorker(const RunOptions &O, const std::vector<size_t> &Items,
                       uint64_t OpBase) {
  const bool Mega = O.Workload == "mega";
  for (size_t I : Items)
    if (I >= numInputs(Mega))
      return 2;
  // Set up three times and report the median build and optimize times,
  // so one page-fault storm does not decide a pass's set-up time.
  std::vector<double> BuildMs, OptimizeMs;
  Built B;
  for (int Rep = 0; Rep < 3; ++Rep) {
    B = buildInputs(Mega, Items);
    BuildMs.push_back(B.BuildMs);
    OptimizeMs.push_back(B.OptimizeMs);
  }
  char Buf[128];
  std::snprintf(Buf, sizeof Buf, "U %.17g %.17g %lld\n", median(BuildMs),
                median(OptimizeMs), (long long)B.InstrsRemoved);
  writeAllFd(1, Buf);
  Tracer T(O.Trace);
  T.streamTo(1);
  uint64_t Op = OpBase;
  for (size_t I : Items)
    writeAllFd(1, encodeResult(I, runOp(B.Inputs[I], T, Op++)));
  std::snprintf(Buf, sizeof Buf, "M %.6f\n", peakRssMb());
  writeAllFd(1, Buf);
  return 0;
}
