//===- regalloc/Allocator.cpp - Build-Simplify-Color driver ---------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper's Figure 4 cycle, wrapped in a self-checking pipeline:
// structurally invalid input is rejected with a diagnostic instead of
// tripping asserts, and (with Audit on) every finished allocation is
// re-proved by the independent AllocationAudit. When the primary
// allocation fails its audit or never converges, the driver degrades to
// a guaranteed-terminating spill-everything allocation — every live
// range lives in memory, so the residual graph only holds
// single-instruction temporaries and colors in one more pass.
//
// Both backends run through the one pass loop (runPasses). Each supplies
// only the middle of a pass: ColoringStep builds class interference
// graphs and runs Simplify + Select on them; ScanStep builds live
// intervals and walks them.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Allocator.h"

#include "analysis/InstrNumbering.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/Renumber.h"
#include "linearscan/LinearScan.h"
#include "regalloc/AllocationAudit.h"
#include "regalloc/BuildGraph.h"
#include "regalloc/Coalesce.h"
#include "regalloc/SpillCost.h"
#include "support/Budget.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>

using namespace ra;

bool ra::auditEnabledByEnv() {
  static const bool Enabled = [] {
    const char *V = std::getenv("RA_AUDIT");
    return V && *V && std::string_view(V) != "0";
  }();
  return Enabled;
}

const char *ra::allocOutcomeName(AllocOutcome O) {
  switch (O) {
  case AllocOutcome::Converged: return "converged";
  case AllocOutcome::Degraded:  return "degraded";
  case AllocOutcome::Failed:    return "failed";
  }
  return "unknown";
}

const char *ra::backendName(Backend B) {
  switch (B) {
  case Backend::GraphColoring: return "graph-coloring";
  case Backend::LinearScan:    return "linear-scan";
  }
  return "unknown";
}

const char *ra::allocatorName(Backend B, Heuristic H) {
  return B == Backend::LinearScan ? "linear-scan" : heuristicName(H);
}

bool ra::parseAllocatorName(const std::string &Name, Backend &B,
                            Heuristic &H) {
  if (Name == "chaitin") {
    B = Backend::GraphColoring;
    H = Heuristic::Chaitin;
  } else if (Name == "briggs") {
    B = Backend::GraphColoring;
    H = Heuristic::Briggs;
  } else if (Name == "matula-beck") {
    B = Backend::GraphColoring;
    H = Heuristic::MatulaBeck;
  } else if (Name == "linear-scan") {
    B = Backend::LinearScan;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Cheap structural validity: the conditions CFG/liveness construction
/// would otherwise assert on. Anything caught here is a recoverable
/// InvalidInput, not a crash.
Status validateForAllocation(const Function &F) {
  if (F.numBlocks() == 0)
    return Status::error(StatusCode::InvalidInput, "function has no blocks");
  for (const BasicBlock &B : F.blocks()) {
    if (B.Insts.empty())
      return Status::error(StatusCode::InvalidInput,
                           "block " + B.Name + " is empty");
    for (unsigned Idx = 0, E = B.Insts.size(); Idx != E; ++Idx) {
      const Instruction &I = B.Insts[Idx];
      if (I.isTerminator() != (Idx + 1 == E))
        return Status::error(StatusCode::InvalidInput,
                             Idx + 1 == E
                                 ? "block " + B.Name +
                                       " does not end in a terminator"
                                 : "terminator in the middle of block " +
                                       B.Name);
      for (const Operand &O : I.Ops) {
        if (O.isReg() && O.Reg >= F.numVRegs())
          return Status::error(StatusCode::InvalidInput,
                               "register id out of range in " + B.Name);
        if (O.isBlock() && O.Block >= F.numBlocks())
          return Status::error(StatusCode::InvalidInput,
                               "branch to out-of-range block in " + B.Name);
      }
      if (I.hasDef() && (I.Ops.empty() || !I.Ops[0].isReg()))
        return Status::error(StatusCode::InvalidInput,
                             "malformed definition in " + B.Name);
    }
  }
  return Status();
}

/// What the shared front end measured this pass, for the metrics rows.
/// Area and DepthOf are filled only when metrics are collected.
struct PassFeatures {
  unsigned Pass = 0;
  std::vector<double> Costs;
  std::vector<double> Area;
  std::vector<unsigned> DepthOf;
};

/// Loop-weighted area (sum over instructions where the range is live of
/// 10^depth — Chaitin's "area" feature) and deepest-occurrence loop
/// depth, per vreg: the backend-independent columns of the metrics
/// table.
void computeAreaAndDepth(const Function &F, const LoopInfo &Loops,
                         const Liveness &LV, PassFeatures &X) {
  X.Area.assign(F.numVRegs(), 0);
  X.DepthOf.assign(F.numVRegs(), 0);
  for (const BasicBlock &B : F.blocks()) {
    unsigned Depth = Loops.depth(B.Id);
    double W = loopDepthWeight(Depth);
    BitVector Live = LV.liveOut(B.Id);
    for (auto It = B.Insts.rbegin(), E = B.Insts.rend(); It != E; ++It) {
      const Instruction &I = *It;
      if (I.hasDef()) {
        X.DepthOf[I.defReg()] = std::max(X.DepthOf[I.defReg()], Depth);
        Live.reset(I.defReg());
      }
      I.forEachUse([&](VRegId R) {
        X.DepthOf[R] = std::max(X.DepthOf[R], Depth);
        Live.set(R);
      });
      Live.forEachSetBit([&](unsigned R) { X.Area[R] += W; });
    }
  }
}

/// One metrics row for vreg \p R with interference degree \p Degree.
RangeMetrics metricsRow(const Function &F, VRegId R, RegClass Class,
                        unsigned Degree, double Cost, const PassFeatures &X,
                        RangeMetrics::Decision D, int32_t Color) {
  RangeMetrics RM;
  RM.Name = F.vreg(R).Name;
  RM.Pass = X.Pass;
  RM.Class = Class;
  RM.Degree = Degree;
  RM.Area = X.Area[R];
  RM.Cost = Cost;
  RM.CostPerDegree = Cost == InterferenceGraph::InfiniteCost
                         ? Cost
                         : (Degree ? Cost / Degree : Cost);
  RM.LoopDepth = X.DepthOf[R];
  RM.D = D;
  RM.Color = Color;
  return RM;
}

/// The graph-coloring middle of a pass: one interference graph per
/// register class, then Simplify + Select on each, Int before Float.
class ColoringStep {
public:
  static constexpr const char *Category = "regalloc";
  static constexpr const char *Unconverged = "no coloring after ";

  ColoringStep(const AllocatorConfig &C, Budget *Gov) : C(C), Gov(Gov) {}

  /// Builds the class graphs and charges what they hold for the rest of
  /// the pass. A refused charge latches the token, so runPasses'
  /// post-build check exits over budget.
  void build(const Function &F, const Liveness &LV, PassRecord &Rec) {
    Graphs = buildInterferenceGraphs(F, LV, Gov);
    uint64_t Bytes = 0;
    for (const ClassGraph &CG : Graphs) {
      Rec.LiveRanges += CG.Graph.numNodes();
      Rec.Interferences += CG.Graph.numEdges();
      Bytes += CG.Graph.memoryBytes();
    }
    if (C.FaultInject.GraphMemorySpike)
      Bytes += uint64_t(1) << 30; // pretend the graphs are ~1 GB bigger
    Charge.emplace(Gov, Bytes);
  }

  void decide(const Function &F, const PassFeatures &X) {
    for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
      ClassGraph &CG = Graphs[Cls];
      setNodeCosts(F, X.Costs, CG);
      Colorings[Cls] =
          colorGraph(CG.Graph, C.Machine.numRegs(CG.Class), C.H, Gov);
    }
  }

  /// Records the decisions in \p Rec (and Spilled rows in \p Result);
  /// returns the ranges to spill, in decision order.
  std::vector<SpillRequest> spills(const Function &F, const PassFeatures &X,
                                   PassRecord &Rec,
                                   AllocationResult &Result) const {
    std::vector<SpillRequest> ToSpill;
    for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
      Rec.SimplifySeconds += Colorings[Cls].SimplifySeconds;
      Rec.SelectSeconds += Colorings[Cls].SelectSeconds;
      for (uint32_t Node : Colorings[Cls].Spilled) {
        VRegId R = Graphs[Cls].NodeToVReg[Node];
        ToSpill.push_back({R, /*FromSlot=*/0});
        Rec.SpilledCost += X.Costs[R];
        if (C.CollectMetrics)
          Result.Metrics.push_back(metricsRow(
              F, R, Graphs[Cls].Class, Graphs[Cls].Graph.degree(Node),
              X.Costs[R], X, RangeMetrics::Decision::Spilled, /*Color=*/-1));
      }
    }
    return ToSpill;
  }

  /// Publishes the converged pass's colors (and Colored rows).
  void assign(const Function &F, const PassFeatures &X,
              AllocationResult &Result) const {
    Result.ColorOf.assign(F.numVRegs(), -1);
    for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls)
      for (uint32_t Node = 0; Node < Graphs[Cls].Graph.numNodes(); ++Node) {
        VRegId R = Graphs[Cls].NodeToVReg[Node];
        Result.ColorOf[R] = Colorings[Cls].ColorOf[Node];
        if (C.CollectMetrics)
          Result.Metrics.push_back(metricsRow(
              F, R, Graphs[Cls].Class, Graphs[Cls].Graph.degree(Node),
              X.Costs[R], X, RangeMetrics::Decision::Colored,
              Result.ColorOf[R]));
      }
  }

  /// Copies a color across the first interference edge whose endpoints
  /// are both colored (or, when the graphs have no such edge, pushes one
  /// assignment outside the register file). The audit must catch either.
  void injectMiscoloring(AllocationResult &Result) const {
    for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
      const ClassGraph &CG = Graphs[Cls];
      for (uint32_t N = 0; N < CG.Graph.numNodes(); ++N) {
        if (Colorings[Cls].ColorOf[N] < 0)
          continue;
        for (uint32_t M : CG.Graph.neighbors(N)) {
          if (Colorings[Cls].ColorOf[M] < 0)
            continue;
          Result.ColorOf[CG.NodeToVReg[N]] = Colorings[Cls].ColorOf[M];
          return;
        }
      }
    }
    for (const ClassGraph &CG : Graphs)
      if (CG.Graph.numNodes() != 0) {
        Result.ColorOf[CG.NodeToVReg[0]] =
            int32_t(C.Machine.numRegs(CG.Class));
        return;
      }
  }

private:
  const AllocatorConfig &C;
  Budget *Gov;
  std::array<ClassGraph, NumRegClasses> Graphs;
  std::optional<ScopedCharge> Charge;
  std::array<ColoringResult, NumRegClasses> Colorings;
};

/// The linear-scan middle of a pass: live intervals over an instruction
/// slot numbering, then one start-ordered walk over both classes. It
/// charges the budget nothing. Because spill temporaries carry an
/// infinite cost estimate, the walk never evicts them, so the cycle
/// converges like the coloring one.
class ScanStep {
public:
  static constexpr const char *Category = "linearscan";
  static constexpr const char *Unconverged =
      "no linear-scan allocation after ";

  ScanStep(const AllocatorConfig &C, Budget *Gov) : C(C), Gov(Gov) {}

  void build(const Function &F, const Liveness &LV, PassRecord &) {
    LI = LiveIntervals::compute(F, LV, InstrNumbering::compute(F));
  }

  void decide(const Function &, const PassFeatures &X) {
    LI.setCosts(X.Costs);
    ScanOptions SO;
    SO.SplitIntervals = C.SplitIntervals;
    SO.Governor = Gov;
    Scan = scanIntervals(LI, C.Machine, SO);
  }

  /// Records the walk in \p Rec (and Spilled rows in \p Result); returns
  /// the spill set. A range whose head already won registers spills
  /// only its losing tail. The walk time lands in the select column:
  /// linear scan has no simplify analogue.
  std::vector<SpillRequest> spills(const Function &F, const PassFeatures &X,
                                   PassRecord &Rec,
                                   AllocationResult &Result) const {
    Rec.LiveRanges = Scan.LiveRanges;
    Rec.SelectSeconds = Scan.WalkSeconds;
    Rec.SpilledCost = Scan.SpilledCost;
    Rec.SplitLiveRanges = Scan.SplitRanges;
    Rec.SplitDecisions = Scan.Splits;
    std::vector<SpillRequest> ToSpill;
    for (size_t I = 0; I < Scan.Spilled.size(); ++I) {
      ToSpill.push_back({Scan.Spilled[I], Scan.SpillFromSlot[I]});
      if (C.CollectMetrics)
        Result.Metrics.push_back(row(F, LI.interval(Scan.Spilled[I]), X,
                                     RangeMetrics::Decision::Spilled,
                                     /*Color=*/-1));
    }
    return ToSpill;
  }

  /// Publishes the converged walk's registers and pieces (and Colored or
  /// Split rows).
  void assign(const Function &F, const PassFeatures &X,
              AllocationResult &Result) {
    Result.ColorOf = std::move(Scan.ColorOf);
    Result.Pieces = std::move(Scan.Pieces);
    if (!C.CollectMetrics)
      return;
    std::vector<bool> IsSplit(F.numVRegs(), false);
    for (const PieceAssignment &P : Result.Pieces)
      IsSplit[P.Reg] = true;
    for (const LiveInterval &I : LI.intervals())
      if (!I.empty())
        Result.Metrics.push_back(
            row(F, I, X,
                IsSplit[I.Reg] ? RangeMetrics::Decision::Split
                               : RangeMetrics::Decision::Colored,
                Result.ColorOf[I.Reg]));
  }

  /// Copies a register across the first pair of overlapping same-class
  /// colored intervals (or, when no interval overlaps another, pushes
  /// one assignment outside the register file). The audit must catch
  /// either.
  void injectMiscoloring(AllocationResult &Result) const {
    const std::vector<LiveInterval> &All = LI.intervals();
    for (uint32_t A = 0; A < All.size(); ++A) {
      if (All[A].empty() || Result.ColorOf[All[A].Reg] < 0)
        continue;
      for (uint32_t B = A + 1; B < All.size(); ++B) {
        if (All[B].Class != All[A].Class || All[B].empty() ||
            Result.ColorOf[All[B].Reg] < 0)
          continue;
        if (All[A].overlaps(All[B])) {
          Result.ColorOf[All[A].Reg] = Result.ColorOf[All[B].Reg];
          return;
        }
      }
    }
    for (const LiveInterval &I : All)
      if (!I.empty() && Result.ColorOf[I.Reg] >= 0) {
        Result.ColorOf[I.Reg] = int32_t(C.Machine.numRegs(I.Class));
        return;
      }
  }

private:
  /// Linear scan builds no interference graph: Degree is 0, so
  /// CostPerDegree follows the degree-0 convention (== Cost).
  static RangeMetrics row(const Function &F, const LiveInterval &I,
                          const PassFeatures &X, RangeMetrics::Decision D,
                          int32_t Color) {
    return metricsRow(F, I.Reg, I.Class, /*Degree=*/0, I.Cost, X, D, Color);
  }

  const AllocatorConfig &C;
  Budget *Gov;
  LiveIntervals LI;
  ScanResult Scan;
};

/// Renders a tripped budget as this run's Failed result. The partial
/// allocation state (colors, pieces) is wiped — the IR itself is valid
/// (loops only back out at whole-unit boundaries), so the ladder can
/// rerun a cheaper engine on the same function.
AllocationResult overBudget(AllocationResult Result, Budget &Gov,
                            unsigned Pass) {
  Result.Success = false;
  Result.Outcome = AllocOutcome::Failed;
  Status S = Gov.status();
  S.addContext("pass " + std::to_string(Pass));
  Result.Diag = std::move(S);
  Result.ColorOf.clear();
  Result.Pieces.clear();
  return Result;
}

/// The Figure 4 loop: renumber -> [build -> coalesce -> costs -> decide
/// -> spill]* until no pass spills, where \p Step supplies the backend's
/// middle: its build step (class graphs or live intervals) and its
/// decide step (Simplify + Select, or the interval walk). Sets Success
/// and a NonConvergence diagnostic, but performs no auditing or
/// fallback — allocateRegisters layers those on top.
///
/// With a governed \p Gov: each coalescing round and the coloring step
/// charge their interference graphs once built,
/// every long loop polls the token, and phase boundaries force a
/// deadline check, so a trip surfaces as a Failed over-budget result
/// within one phase of the expiry.
template <typename Step>
AllocationResult runPasses(Function &F, const AllocatorConfig &C,
                           const CFG &G, const LoopInfo &Loops,
                           Budget *Gov) {
  AllocationResult Result;
  Result.Machine = C.Machine;

  for (unsigned Pass = 0; Pass < C.MaxPasses; ++Pass) {
    PassRecord Rec;
    RA_TRACE_SPAN("Pass", Step::Category,
                  [&] { return "pass=" + std::to_string(Pass); });
    // FaultInjectOptions::SlowPhaseMicros — stall so a tiny test
    // deadline trips deterministically regardless of machine speed.
    if (C.FaultInject.SlowPhaseMicros)
      std::this_thread::sleep_for(
          std::chrono::microseconds(C.FaultInject.SlowPhaseMicros));
    if (Gov && Gov->expired())
      return overBudget(std::move(Result), *Gov, Pass);

    //===----------------------------------------------------------===//
    // Build: renumber, coalesce, the step's graphs or intervals, costs.
    //===----------------------------------------------------------===//
    Timer BuildTimer;
    RA_TRACE_SPAN_NAMED(BuildSpan, "Build", Step::Category);
    BuildTimer.start();
    {
      RA_TRACE_SPAN("Renumber", Step::Category);
      renumberLiveRanges(F, G);
    }
    if (C.Coalesce) {
      CoalesceStats CS = coalesceAll(F, G, C.Coalescing, C.Machine, Gov);
      Result.Stats.CopiesCoalesced += CS.CopiesRemoved;
      if (C.CollectMetrics)
        for (const CoalescedCopy &CC : CS.Merges)
          Result.Metrics.push_back({.Name = CC.Merged,
                                    .Pass = Pass,
                                    .Class = CC.Class,
                                    .D = RangeMetrics::Decision::Coalesced,
                                    .CoalescedInto = CC.Into});
      if (CS.CopiesRemoved != 0) {
        RA_TRACE_SPAN("Renumber", Step::Category);
        renumberLiveRanges(F, G); // compact ids merged away
      }
    }
    RA_TRACE_SPAN_NAMED(LiveSpan, "Liveness", Step::Category);
    Liveness LV = Liveness::compute(F, G);
    LiveSpan.close();
    Step S(C, Gov);
    S.build(F, LV, Rec);
    PassFeatures X;
    X.Pass = Pass;
    X.Costs = computeSpillCosts(F, Loops, C.Costs);
    if (C.CollectMetrics)
      computeAreaAndDepth(F, Loops, LV, X);
    BuildTimer.stop();
    Rec.BuildSeconds = BuildTimer.seconds();
    BuildSpan.close();
    if (Gov && Gov->expired()) {
      Result.Stats.Passes.push_back(std::move(Rec));
      return overBudget(std::move(Result), *Gov, Pass);
    }

    //===----------------------------------------------------------===//
    // Decide: color or walk, then read off the spill set.
    //===----------------------------------------------------------===//
    S.decide(F, X);
    if (Gov && Gov->expired()) {
      // The step was abandoned mid-phase; its decisions are partial and
      // must not feed spill decisions.
      Result.Stats.Passes.push_back(std::move(Rec));
      return overBudget(std::move(Result), *Gov, Pass);
    }
    std::vector<SpillRequest> ToSpill = S.spills(F, X, Rec, Result);
    Rec.SpilledLiveRanges = ToSpill.size();
    for (const SpillRequest &SR : ToSpill)
      Rec.SpilledNames.push_back(F.vreg(SR.Reg).Name);

    if (ToSpill.empty()) {
      S.assign(F, X, Result);
      if (C.FaultInject.Miscolor)
        S.injectMiscoloring(Result);
      Result.Stats.Passes.push_back(std::move(Rec));
      Result.Success = true;
      Result.Outcome = AllocOutcome::Converged;
      return Result;
    }

    //===----------------------------------------------------------===//
    // Spill: insert the stores and loads, then go around again.
    //===----------------------------------------------------------===//
    Timer SpillTimer;
    SpillTimer.start();
    SpillCodeStats SC = insertSpillCode(F, ToSpill, C.Rematerialize);
    SpillTimer.stop();
    Rec.SpillSeconds = SpillTimer.seconds();
    Result.Stats.SpillCode.Loads += SC.Loads;
    Result.Stats.SpillCode.Stores += SC.Stores;
    Result.Stats.SpillCode.Remats += SC.Remats;
    Result.Stats.Passes.push_back(std::move(Rec));
  }

  // Never observed in practice (the paper reports at most three passes);
  // allocateRegisters degrades to spill-everything from here.
  Result.Success = false;
  Result.Outcome = AllocOutcome::Failed;
  Result.Diag = Status::error(StatusCode::NonConvergence,
                              Step::Unconverged +
                                  std::to_string(C.MaxPasses) + " passes");
  return Result;
}

/// The bottom rung of the degradation ladder: spill every live range to
/// memory, then color the residue. After spilling, every remaining live
/// range is a single-instruction temporary, so at most a handful are
/// ever simultaneously live and the loop converges immediately for any
/// realistic file size.
AllocationResult spillEverything(Function &F, const AllocatorConfig &C,
                                 const CFG &G, const LoopInfo &Loops) {
  RA_TRACE_SPAN("SpillEverything", "regalloc");
  renumberLiveRanges(F, G);
  std::vector<VRegId> All(F.numVRegs());
  for (VRegId R = 0; R < F.numVRegs(); ++R)
    All[R] = R;
  insertSpillCode(F, All, /*Rematerialize=*/false);

  AllocatorConfig FallbackC = C;
  FallbackC.Coalesce = false; // no copies worth merging among temporaries
  FallbackC.FaultInject = {}; // the fallback must stay unbroken
  FallbackC.MaxPasses = 8;
  // The bottom rung always colors, whatever backend just failed: the
  // residual graph is tiny and the coloring cycle is the most
  // battle-tested path through the allocator. It runs ungoverned: it is
  // the guaranteed-progress escape hatch, and its residual graph is tiny
  // by construction.
  return runPasses<ColoringStep>(F, FallbackC, G, Loops, /*Gov=*/nullptr);
}

} // namespace

AllocationResult ra::allocateRegisters(Function &F,
                                       const AllocatorConfig &C) {
  if (!C.FaultInject.ThrowInFunction.empty() &&
      F.name() == C.FaultInject.ThrowInFunction)
    throw std::runtime_error("fault injection: worker throw in @" +
                             F.name());

  RA_TRACE_CONTEXT([&] { return "@" + F.name(); });
  RA_TRACE_SPAN("AllocateFunction", "regalloc", [&] {
    // Keep the historical heuristic=... spelling for graph coloring —
    // trace goldens pin it — and name the backend otherwise.
    return C.B == Backend::GraphColoring
               ? std::string("heuristic=") + heuristicName(C.H)
               : std::string("allocator=") + allocatorName(C.B, C.H);
  });

  AllocationResult Result;
  Result.Machine = C.Machine;
  if (Status S = validateForAllocation(F); !S.ok()) {
    Result.Diag = std::move(S.addContext("@" + F.name()));
    return Result; // Failed: cannot even build a CFG safely.
  }

  // The CFG shape never changes below: coalescing deletes only copies,
  // spilling inserts only non-terminators, renumbering touches only
  // operands. Compute flow structure once.
  CFG G = CFG::compute(F);
  Dominators Doms = Dominators::compute(F, G);
  LoopInfo Loops = LoopInfo::compute(F, G, Doms);

  // Per-function resource-governance token. Each function gets its own
  // (nothing is shared across the functions of a module), so one
  // pathological sibling can never drain another function's budget.
  Budget Token;
  if (C.governed())
    Token.arm(C.DeadlineSeconds, C.MemoryBudgetBytes);
  Budget *Gov = C.governed() ? &Token : nullptr;

  // Stamps the cumulative budget telemetry onto whichever result wins
  // the ladder. Zero when ungoverned — the fields (and trace counters)
  // only exist for governed runs, keeping defaults byte-identical.
  auto Finish = [&](AllocationResult R) {
    if (Gov) {
      R.BudgetCheckpoints = Token.checkpoints();
      R.BudgetPeakBytes = Token.peakBytes();
      RA_TRACE_COUNTER("budget.checkpoints", double(R.BudgetCheckpoints));
      RA_TRACE_COUNTER("budget.peak_bytes", double(R.BudgetPeakBytes));
    }
    return R;
  };

  if (C.FaultInject.NonConvergence) {
    Result.Success = false;
    Result.Outcome = AllocOutcome::Failed;
    Result.Diag = Status::error(StatusCode::NonConvergence,
                                "fault injection: forced non-convergence");
  } else if (C.B == Backend::LinearScan) {
    Result = runPasses<ScanStep>(F, C, G, Loops, Gov);
  } else {
    Result = runPasses<ColoringStep>(F, C, G, Loops, Gov);
  }

  // Rung 1 of the budget ladder: graph coloring ran over its deadline
  // or was refused its graphs' memory — retry under linear scan, which
  // builds no interference graph and is the measured-cheaper engine,
  // before surrendering registers entirely. The retry keeps the same
  // token (memory charges carry over) with a fresh deadline window, and
  // is audited unconditionally: degraded code must never be wrong code.
  auto BudgetTripped = [](const Status &S) {
    return S.code() == StatusCode::DeadlineExceeded ||
           S.code() == StatusCode::MemoryBudgetExceeded;
  };
  if (!Result.Success && BudgetTripped(Result.Diag) &&
      C.B == Backend::GraphColoring) {
    RA_TRACE_COUNTER("budget.retry.linear_scan", 1);
    Status Why = Result.Diag;
    Token.rearm();
    AllocationResult Retry = runPasses<ScanStep>(F, C, G, Loops, Gov);
    if (Retry.Success) {
      Status RetryAudit = auditAllocationStatus(F, Retry);
      if (RetryAudit.ok()) {
        Retry.Outcome = AllocOutcome::Degraded;
        Retry.Diag = std::move(
            Why.addContext("degraded to linear-scan retry for @" + F.name()));
        return Finish(std::move(Retry));
      }
      Retry.Success = false;
      Retry.Outcome = AllocOutcome::Failed;
      Retry.Diag = std::move(RetryAudit);
    }
    Result = std::move(Retry); // fall through to spill-everything
  }

  if (Result.Success) {
    if (!C.Audit)
      return Finish(std::move(Result));
    Status AuditS = auditAllocationStatus(F, Result);
    if (AuditS.ok())
      return Finish(std::move(Result));
    Result.Success = false;
    Result.Outcome = AllocOutcome::Failed;
    Result.Diag = std::move(AuditS);
  }

  // Degradation ladder: primary allocation is unusable — spill every
  // live range and re-color. The fallback is always audited, whatever
  // C.Audit says: degraded code must never be wrong code.
  Status Why = Result.Diag;
  if (Gov && BudgetTripped(Why))
    RA_TRACE_COUNTER("budget.fallback.spill_everything", 1);
  AllocationResult Fallback = spillEverything(F, C, G, Loops);
  if (Fallback.Success) {
    Status FallbackAudit = auditAllocationStatus(F, Fallback);
    if (!FallbackAudit.ok()) {
      Fallback.Success = false;
      Fallback.Outcome = AllocOutcome::Failed;
      Fallback.Diag = std::move(FallbackAudit);
    }
  }
  if (Fallback.Success) {
    Fallback.Outcome = AllocOutcome::Degraded;
    Fallback.Diag =
        std::move(Why.addContext("degraded to spill-everything for @" +
                                 F.name()));
    return Finish(std::move(Fallback));
  }

  Result.Success = false;
  Result.Outcome = AllocOutcome::Failed;
  Result.Diag = std::move(Fallback.Diag.addContext(
      "spill-everything fallback also failed for @" + F.name() +
      " (primary failure: " + Why.toString() + ")"));
  return Finish(std::move(Result));
}
