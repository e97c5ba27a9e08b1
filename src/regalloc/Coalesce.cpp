//===- regalloc/Coalesce.cpp - Aggressive copy coalescing -----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coalesce.h"

#include "analysis/Liveness.h"
#include "regalloc/BuildGraph.h"
#include "support/Budget.h"
#include "support/Trace.h"
#include "support/UnionFind.h"

#include <algorithm>

using namespace ra;

unsigned ra::coalesceOnePass(Function &F, const CFG &G,
                             CoalescePolicy Policy,
                             const std::optional<MachineInfo> &Machine,
                             CoalesceStats *Stats, Budget *Gov) {
  RA_TRACE_SPAN("CoalesceRound", "regalloc");
  auto IsCandidate = [&F](const Instruction &I) {
    return I.isCopy() && I.Ops[0].Reg != I.Ops[1].Reg &&
           F.regClass(I.Ops[0].Reg) == F.regClass(I.Ops[1].Reg);
  };
  // Aggressive merging asks only whether a copy's two operands
  // interfere, so liveness and the graphs cover just those operands. The
  // conservative test also needs every neighbor's degree: all vregs.
  bool Conservative = Policy == CoalescePolicy::Conservative;
  VRegSubset Only(F.numVRegs());
  bool AnyCandidate = false;
  for (const BasicBlock &B : F.blocks())
    for (const Instruction &I : B.Insts)
      if (IsCandidate(I)) {
        AnyCandidate = true;
        if (!Conservative) {
          Only.add(I.Ops[0].Reg);
          Only.add(I.Ops[1].Reg);
        }
      }
  if (!AnyCandidate)
    return 0;
  if (Conservative)
    for (VRegId R = 0; R < F.numVRegs(); ++R)
      Only.add(R);

  assert((!Conservative || Machine) &&
         "conservative coalescing needs register counts");
  // The build is not polled: a partial graph would merge interfering
  // copies. Its bytes are charged once built, as the class graphs' are;
  // a refused charge latches Gov, which also ends the fixpoint at
  // coalesceAll's next checkpoint.
  Liveness LV = Liveness::compute(F, G, &Only);
  std::array<ClassGraph, NumRegClasses> Graphs =
      buildInterferenceGraphs(F, LV, /*Gov=*/nullptr, &Only);
  uint64_t Bytes = 0;
  for (const ClassGraph &CG : Graphs)
    Bytes += CG.Graph.memoryBytes();
  ScopedCharge Charge(Gov, Bytes);
  if (!Charge.granted())
    return 0;
  if (Stats)
    Stats->GraphNodes = std::max(Stats->GraphNodes, Only.size());

  // Briggs' test: the merged node is safe if it has fewer than k
  // neighbors whose own degree is >= k (low-degree neighbors can always
  // be simplified away first). Stamp[N] == Query marks N as already
  // counted, so a neighbor of both operands counts once.
  std::vector<uint32_t> Stamp(Conservative ? Only.size() : 0, 0);
  uint32_t Query = 0;
  auto ConservativelySafe = [&](const ClassGraph &CG, uint32_t D,
                                uint32_t S) {
    unsigned K = Machine->numRegs(CG.Class);
    ++Query;
    Stamp[D] = Stamp[S] = Query;
    unsigned Significant = 0;
    for (uint32_t End : {D, S})
      for (uint32_t N : CG.Graph.neighbors(End))
        if (Stamp[N] != Query) {
          Stamp[N] = Query;
          // Merging may drop this neighbor's degree by one (it loses a
          // double edge); use the pre-merge degree as the safe upper
          // bound.
          Significant += CG.Graph.degree(N) >= K;
        }
    return Significant < K;
  };

  UnionFind UF(F.numVRegs());
  // Interference info goes stale for registers already merged this pass;
  // copies touching them wait for the next round's rebuilt graphs.
  std::vector<bool> Touched(F.numVRegs(), false);
  unsigned Merged = 0;

  for (BasicBlock &B : F.blocks()) {
    for (Instruction &I : B.Insts) {
      if (!IsCandidate(I))
        continue;
      VRegId D = I.Ops[0].Reg, S = I.Ops[1].Reg;
      if (Touched[D] || Touched[S])
        continue;
      const ClassGraph &CG = Graphs[static_cast<unsigned>(F.regClass(D))];
      uint32_t ND = CG.VRegToNode[D], NS = CG.VRegToNode[S];
      if (CG.Graph.interferes(ND, NS))
        continue;
      if (Conservative && !ConservativelySafe(CG, ND, NS))
        continue;
      unsigned Root = UF.unite(D, S);
      if (Stats) {
        VRegId Gone = Root == D ? S : D;
        Stats->Merges.push_back(
            {F.vreg(Gone).Name, F.vreg(Root).Name, F.regClass(D)});
      }
      // A merge with a spill temporary stays protected from re-spilling.
      F.vreg(Root).IsSpillTemp =
          F.vreg(D).IsSpillTemp || F.vreg(S).IsSpillTemp;
      Touched[D] = Touched[S] = true;
      ++Merged;
    }
  }
  if (Merged == 0)
    return 0;

  // Rewrite all operands through the union-find, then drop copies that
  // became self-copies.
  for (BasicBlock &B : F.blocks()) {
    for (Instruction &I : B.Insts) {
      if (I.hasDef())
        I.setDefReg(UF.find(I.defReg()));
      I.forEachUseOperand(
          [&UF](Operand &O) { O = Operand::reg(UF.find(O.Reg)); });
    }
    std::erase_if(B.Insts, [](const Instruction &I) {
      return I.isCopy() && I.Ops[0].Reg == I.Ops[1].Reg;
    });
  }
  return Merged;
}

CoalesceStats ra::coalesceAll(Function &F, const CFG &G,
                              CoalescePolicy Policy,
                              const std::optional<MachineInfo> &Machine,
                              Budget *Gov) {
  RA_TRACE_SPAN("Coalesce", "regalloc");
  CoalesceStats Stats;
  while (true) {
    if (Gov && !Gov->checkpoint())
      break; // over budget: stop merging; the IR is valid as-is
    unsigned Merged = coalesceOnePass(F, G, Policy, Machine, &Stats, Gov);
    ++Stats.Rounds;
    if (Merged == 0)
      break;
    Stats.CopiesRemoved += Merged;
  }
  RA_TRACE_COUNTER("coalesce.copies_removed", Stats.CopiesRemoved);
  RA_TRACE_COUNTER("coalesce.rounds", Stats.Rounds);
  return Stats;
}
