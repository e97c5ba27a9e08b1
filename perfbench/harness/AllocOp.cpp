//===- perfbench/harness/AllocOp.cpp - One traced allocation --------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "AllocOp.h"

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/Renumber.h"
#include "regalloc/AllocationAudit.h"
#include "regalloc/BuildGraph.h"
#include "regalloc/Coalesce.h"
#include "regalloc/SpillCost.h"

#include <algorithm>

using namespace ra;

AllocatorConfig pb::opConfig() {
  AllocatorConfig C;
  C.B = Backend::GraphColoring;
  C.H = Heuristic::Briggs;
  C.Machine = MachineInfo::rtpc();
  C.Costs = CostModel::rtpc();
  C.Coalesce = true;
  C.Coalescing = CoalescePolicy::Aggressive;
  C.Audit = true;
  return C;
}

namespace {

/// Replays the first Build-Simplify-Color pass of the coloring backend
/// on a copy of \p Input, one span per public call, in the order
/// regalloc/Allocator.cpp makes them. Returns the spilled ranges' names
/// in the allocator's decision order (int class first).
std::vector<std::string> replayFirstPass(const Function &Input,
                                         const AllocatorConfig &C,
                                         pb::Tracer &T, uint64_t Op,
                                         const pb::Span *Parent) {
  using pb::Span;
  Span Pass(T, "regalloc.first_pass", Op, Parent);
  Function F = Input;

  Span Flow(T, "analysis.flow", Op, &Pass);
  CFG G = CFG::compute(F);
  Dominators Doms = Dominators::compute(F, G);
  LoopInfo Loops = LoopInfo::compute(F, G, Doms);
  Flow.close();

  {
    Span S(T, "analysis.renumber", Op, &Pass);
    RenumberStats RS = renumberLiveRanges(F, G);
    S.close();
    T.count("analysis.webs", RS.VRegsAfter);
  }
  uint64_t MatrixBytes = 0;
  if (C.Coalesce) {
    // Every coalescing round builds an interference matrix over all
    // vregs of both classes.
    MatrixBytes = InterferenceGraph::estimateBytes(F.numVRegs());
    Span S(T, "regalloc.coalesce", Op, &Pass);
    CoalesceStats CS = coalesceAll(F, G, C.Coalescing, C.Machine);
    S.close();
    T.count("regalloc.coalesce_rounds", CS.Rounds);
    T.count("regalloc.copies_removed", CS.CopiesRemoved);
    if (CS.CopiesRemoved != 0) {
      Span R(T, "analysis.renumber", Op, &Pass);
      renumberLiveRanges(F, G);
    }
  }

  Span LiveS(T, "analysis.liveness", Op, &Pass);
  Liveness LV = Liveness::compute(F, G);
  LiveS.close();

  Span BuildS(T, "regalloc.build_graph", Op, &Pass);
  auto Graphs = buildInterferenceGraphs(F, LV);
  BuildS.close();
  uint64_t GraphBytes = 0;
  for (const ClassGraph &CG : Graphs) {
    T.count("regalloc.graph_nodes", CG.Graph.numNodes());
    T.count("regalloc.graph_edges", CG.Graph.numEdges());
    GraphBytes += InterferenceGraph::estimateBytes(CG.Graph.numNodes());
  }
  // The coalescing matrix and the two class matrices are never alive
  // at once; report the larger footprint.
  T.count("regalloc.matrix_bytes", double(std::max(MatrixBytes, GraphBytes)));

  Span CostS(T, "regalloc.spill_cost", Op, &Pass);
  std::vector<double> Costs = computeSpillCosts(F, Loops, C.Costs);
  for (ClassGraph &CG : Graphs)
    setNodeCosts(F, Costs, CG);
  CostS.close();

  Span ColorS(T, "regalloc.color", Op, &Pass);
  std::array<ColoringResult, NumRegClasses> Cols;
  for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls)
    Cols[Cls] = colorGraph(Graphs[Cls].Graph,
                           C.Machine.numRegs(Graphs[Cls].Class), C.H);
  ColorS.close();

  std::vector<VRegId> ToSpill;
  std::vector<std::string> Names;
  for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls)
    for (uint32_t Node : Cols[Cls].Spilled) {
      VRegId R = Graphs[Cls].NodeToVReg[Node];
      ToSpill.push_back(R);
      Names.push_back(F.vreg(R).Name);
    }
  if (!ToSpill.empty()) {
    Span S(T, "regalloc.spill_insert", Op, &Pass);
    SpillCodeStats SC = insertSpillCode(F, ToSpill, C.Rematerialize);
    S.close();
    T.count("regalloc.spill_instrs", SC.Loads + SC.Stores);
  }
  return Names;
}

} // namespace

AllocationResult pb::allocateOp(Function &F, const AllocatorConfig &C,
                                Tracer &T, uint64_t Op, const Span *Parent,
                                bool &AuditOk, bool &ReplayMatches) {
  AuditOk = true;
  ReplayMatches = true;
  if (!T.enabled())
    return allocateRegisters(F, C);

  const bool Scan = C.B == Backend::LinearScan;
  std::vector<std::string> Replayed;
  if (!Scan)
    Replayed = replayFirstPass(F, C, T, Op, Parent);

  Span S(T, Scan ? "linearscan.allocate" : "regalloc.allocate", Op, Parent);
  AllocationResult A = allocateRegisters(F, C);
  S.close();
  T.count(Scan ? "linearscan.passes" : "regalloc.passes",
          A.Stats.numPasses());
  T.count(Scan ? "linearscan.calls" : "regalloc.calls", 1);
  if (!Scan && !A.Stats.Passes.empty())
    ReplayMatches = A.Stats.Passes.front().SpilledNames == Replayed;

  if (A.Success) {
    Span AuditS(T, "regalloc.audit", Op, Parent);
    AuditOk = auditAllocationStatus(F, A).ok();
  }
  return A;
}
