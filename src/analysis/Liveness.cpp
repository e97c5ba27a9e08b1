//===- analysis/Liveness.cpp - Backward live-variable analysis ------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

using namespace ra;

Liveness Liveness::compute(const Function &F, const CFG &G,
                           const VRegSubset *Only) {
  Liveness L;
  unsigned NB = F.numBlocks(), NR = Only ? Only->size() : F.numVRegs();
  L.LiveIn.assign(NB, BitVector(NR));
  L.LiveOut.assign(NB, BitVector(NR));
  L.UEVar.assign(NB, BitVector(NR));
  L.VarKill.assign(NB, BitVector(NR));

  // Local sets: UEVar collects uses not preceded by a local kill.
  for (const BasicBlock &B : F.blocks()) {
    BitVector &UE = L.UEVar[B.Id], &Kill = L.VarKill[B.Id];
    for (const Instruction &I : B.Insts) {
      I.forEachUse([&](VRegId R) {
        uint32_t X = trackedBit(Only, R);
        if (X != VRegSubset::NotTracked && !Kill.test(X))
          UE.set(X);
      });
      if (I.hasDef() &&
          trackedBit(Only, I.defReg()) != VRegSubset::NotTracked)
        Kill.set(trackedBit(Only, I.defReg()));
    }
  }

  // Backward fixpoint. Reverse RPO first for fast convergence on
  // reducible graphs; unreachable blocks (never in the RPO) are
  // appended so the equations hold on the whole graph.
  std::vector<uint32_t> Order(G.rpo().rbegin(), G.rpo().rend());
  for (uint32_t B = 0; B < NB; ++B)
    if (!G.isReachable(B))
      Order.push_back(B);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B : Order) {
      BitVector Out(NR);
      for (uint32_t S : G.succs(B))
        Out.unionWith(L.LiveIn[S]);
      BitVector In = Out;
      In.subtract(L.VarKill[B]);
      In.unionWith(L.UEVar[B]);
      if (!(Out == L.LiveOut[B]) || !(In == L.LiveIn[B])) {
        L.LiveOut[B] = std::move(Out);
        L.LiveIn[B] = std::move(In);
        Changed = true;
      }
    }
  }
  return L;
}
