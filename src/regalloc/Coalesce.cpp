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
  // interfere, so liveness and the matrix cover just those operands. The
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
  // A matrix past MaxNodes cannot be indexed, so it is neither charged
  // nor built. A refused charge latches Gov, which also ends the
  // fixpoint at coalesceAll's next checkpoint.
  bool Fits = Only.size() <= TriangularBitMatrix::MaxNodes;
  ScopedCharge Charge(Fits ? Gov : nullptr,
                      TriangularBitMatrix::bytesFor(Only.size()));
  if (!Fits || !Charge.granted()) {
    if (Stats)
      ++Stats->MatricesRefused;
    return 0;
  }
  if (Stats)
    Stats->MatrixNodes = std::max(Stats->MatrixNodes, Only.size());

  assert((!Conservative || Machine) &&
         "conservative coalescing needs register counts");
  Liveness LV = Liveness::compute(F, G, &Only);
  std::vector<uint32_t> Degree;
  TriangularBitMatrix Matrix = buildInterferenceMatrix(
      F, LV, &Only, Conservative ? &Degree : nullptr);

  // Briggs' test: the merged node is safe if it has fewer than k
  // neighbors whose own degree is >= k (low-degree neighbors can always
  // be simplified away first).
  auto ConservativelySafe = [&](uint32_t D, uint32_t S) {
    unsigned K = Machine->numRegs(F.regClass(Only.vregOf(D)));
    unsigned Significant = 0;
    for (uint32_t N = 0; N < Only.size(); ++N) {
      if (N == D || N == S)
        continue;
      if (!Matrix.test(N, D) && !Matrix.test(N, S))
        continue;
      // Merging may drop this neighbor's degree by one (it loses a
      // double edge); use the pre-merge degree as the safe upper bound.
      if (Degree[N] >= K)
        ++Significant;
    }
    return Significant < K;
  };

  UnionFind UF(F.numVRegs());
  // Interference info goes stale for registers already merged this pass;
  // copies touching them wait for the next round's rebuilt matrix.
  std::vector<bool> Touched(F.numVRegs(), false);
  unsigned Merged = 0;

  for (BasicBlock &B : F.blocks()) {
    for (Instruction &I : B.Insts) {
      if (!IsCandidate(I))
        continue;
      VRegId D = I.Ops[0].Reg, S = I.Ops[1].Reg;
      if (Touched[D] || Touched[S])
        continue;
      uint32_t BD = Only.bitOf(D), BS = Only.bitOf(S);
      if (Matrix.test(BD, BS))
        continue;
      if (Conservative && !ConservativelySafe(BD, BS))
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
