//===- regalloc/BuildGraph.cpp - Interference graph construction ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "regalloc/BuildGraph.h"

#include "support/Budget.h"
#include "support/Trace.h"

#include <cstddef>

using namespace ra;

namespace {

// Liveness bits and node membership, specialised on the subset's type:
// std::nullptr_t for the class graphs, whose bits are vreg ids, so that
// build compiles without the subset's lookups.
uint32_t bitOf(std::nullptr_t, VRegId V) { return V; }
uint32_t bitOf(const VRegSubset *Only, VRegId V) { return Only->bitOf(V); }
VRegId vregOf(std::nullptr_t, uint32_t Bit) { return Bit; }
VRegId vregOf(const VRegSubset *Only, uint32_t Bit) {
  return Only->vregOf(Bit);
}
unsigned numBits(const Function &F, std::nullptr_t) { return F.numVRegs(); }
unsigned numBits(const Function &, const VRegSubset *Only) {
  return Only->size();
}

/// Walks every block backward from live-out, invoking
/// \p AddInterference(Def, Live) for each def against each live range
/// live just after it (excluding a Copy's source). Both arguments are
/// bits of \p LV; registers outside \p Only are skipped. Polls \p Gov
/// once per block and stops the walk when the budget trips.
template <typename SubsetT, typename CallableT>
void forEachInterference(const Function &F, const Liveness &LV, SubsetT Only,
                         CallableT AddInterference, Budget *Gov) {
  constexpr uint32_t None = VRegSubset::NotTracked;
  BitVector LiveNow;
  for (const BasicBlock &B : F.blocks()) {
    if (Gov && !Gov->checkpoint())
      return;
    LiveNow = LV.liveOut(B.Id);
    for (auto It = B.Insts.rbegin(), E = B.Insts.rend(); It != E; ++It) {
      const Instruction &I = *It;
      if (I.hasDef() && bitOf(Only, I.defReg()) != None) {
        uint32_t D = bitOf(Only, I.defReg());
        // For a copy "d = s", d and s may share a register: exclude s.
        uint32_t CopySrc = I.isCopy() ? bitOf(Only, I.Ops[1].Reg) : None;
        LiveNow.forEachSetBit([&](unsigned L) {
          if (L != D && L != CopySrc)
            AddInterference(D, L);
        });
        LiveNow.reset(D);
      }
      I.forEachUse([&](VRegId U) {
        if (bitOf(Only, U) != None)
          LiveNow.set(bitOf(Only, U));
      });
    }
  }
}

template <typename SubsetT>
std::array<ClassGraph, NumRegClasses>
buildGraphs(const Function &F, const Liveness &LV, SubsetT Only,
            Budget *Gov) {
  std::array<ClassGraph, NumRegClasses> Out;

  // Dense node numbering per class, in member order (ascending vreg
  // order for the class graphs, so node ids follow live-range creation
  // order: deterministic tie-breaking).
  for (unsigned C = 0; C < NumRegClasses; ++C) {
    Out[C].Class = static_cast<RegClass>(C);
    Out[C].VRegToNode.assign(F.numVRegs(), ~0u);
  }
  for (uint32_t Bit = 0, NB = numBits(F, Only); Bit < NB; ++Bit) {
    VRegId R = vregOf(Only, Bit);
    ClassGraph &CG = Out[static_cast<unsigned>(F.regClass(R))];
    CG.VRegToNode[R] = CG.NodeToVReg.size();
    CG.NodeToVReg.push_back(R);
  }
  for (unsigned C = 0; C < NumRegClasses; ++C) {
    ClassGraph &CG = Out[C];
    CG.Graph.reset(CG.NodeToVReg.size());
    for (unsigned N = 0; N < CG.NodeToVReg.size(); ++N) {
      const VRegInfo &Info = F.vreg(CG.NodeToVReg[N]);
      CG.Graph.node(N).ExternalId = CG.NodeToVReg[N];
      CG.Graph.node(N).Name = Info.Name;
      CG.Graph.node(N).NoSpill = Info.IsSpillTemp;
    }
  }

  forEachInterference(
      F, LV, Only,
      [&](uint32_t DBit, uint32_t LBit) {
        VRegId D = vregOf(Only, DBit), L = vregOf(Only, LBit);
        if (F.regClass(D) != F.regClass(L))
          return; // disjoint files never compete for a register
        ClassGraph &CG = Out[static_cast<unsigned>(F.regClass(D))];
        CG.Graph.addEdge(CG.VRegToNode[D], CG.VRegToNode[L]);
      },
      Gov);
  // Pack adjacency into CSR here, once, so the graphs are ready to be
  // colored concurrently (the lazy build in neighbors() must not race).
  for (ClassGraph &CG : Out)
    CG.Graph.finalize();
  return Out;
}

/// The class graphs over every vreg, traced as the BuildGraph span (the
/// coalescer's subset builds belong to its CoalesceRound). Kept out of
/// line: inlined beside the subset build, the walk's word counter was
/// spilled to the stack, and BuildGraph ran ~1.4x slower on
/// mega.ramp.50k.
[[gnu::noinline]] std::array<ClassGraph, NumRegClasses>
buildClassGraphs(const Function &F, const Liveness &LV, Budget *Gov) {
  RA_TRACE_SPAN("BuildGraph", "regalloc");
  return buildGraphs(F, LV, nullptr, Gov);
}

} // namespace

std::array<ClassGraph, NumRegClasses>
ra::buildInterferenceGraphs(const Function &F, const Liveness &LV,
                            Budget *Gov, const VRegSubset *Only) {
  if (Only)
    return buildGraphs(F, LV, Only, Gov);
  return buildClassGraphs(F, LV, Gov);
}

void ra::setNodeCosts(const Function &F, const std::vector<double> &Costs,
                      ClassGraph &CG) {
  assert(Costs.size() == F.numVRegs() && "cost table size mismatch");
  (void)F;
  for (unsigned N = 0; N < CG.Graph.numNodes(); ++N)
    CG.Graph.node(N).SpillCost = Costs[CG.NodeToVReg[N]];
}
