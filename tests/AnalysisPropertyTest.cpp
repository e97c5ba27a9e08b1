//===- tests/AnalysisPropertyTest.cpp - analyses vs brute force -----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Randomized cross-checks of the dataflow machinery against independent
// brute-force implementations: dominance by reachability-after-removal,
// liveness by per-instruction backward propagation, and live-range
// renumbering against the dense reaching-definitions formulation. The
// generated CFGs are arbitrary digraphs (including irreducible shapes
// and unreachable blocks), which the structured workloads never produce.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/Renumber.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "support/Rng.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <map>

using namespace ra;

namespace {

/// Builds a random CFG with \p NumBlocks blocks whose bodies use a
/// small pool of integer registers (liveness does not require
/// definite assignment, so defs and uses are placed freely). With
/// \p Copies, some of the bodies' instructions are copies.
struct RandomCfg {
  Module M;
  Function *F;
  std::vector<VRegId> Pool;

  RandomCfg(uint64_t Seed, unsigned NumBlocks, unsigned PoolSize = 6,
            bool Copies = false) {
    Rng R(Seed);
    F = &M.newFunction("rand");
    IRBuilder B(M, *F);
    for (unsigned I = 0; I < NumBlocks; ++I)
      B.newBlock("b" + std::to_string(I));
    for (unsigned I = 0; I < PoolSize; ++I)
      Pool.push_back(F->newVReg(RegClass::Int, "p" + std::to_string(I)));

    for (unsigned I = 0; I < NumBlocks; ++I) {
      B.setInsertPoint(I);
      // A few random def/use instructions.
      unsigned N = 1 + unsigned(R.nextBelow(4));
      for (unsigned S = 0; S < N; ++S) {
        VRegId D = Pool[R.nextBelow(Pool.size())];
        VRegId U1 = Pool[R.nextBelow(Pool.size())];
        VRegId U2 = Pool[R.nextBelow(Pool.size())];
        switch (R.nextBelow(Copies ? 4 : 3)) {
        case 0:
          B.movI(int64_t(R.nextBelow(100)), D);
          break;
        case 1:
          B.add(U1, U2, D);
          break;
        case 2:
          B.addI(U1, 1, D);
          break;
        case 3:
          B.copy(U1, D);
          break;
        }
      }
      // Random terminator.
      switch (R.nextBelow(4)) {
      case 0:
        B.ret(Pool[R.nextBelow(Pool.size())]);
        break;
      case 1:
        B.jmp(uint32_t(R.nextBelow(NumBlocks)));
        break;
      default:
        B.br(CmpKind::LT, Pool[R.nextBelow(Pool.size())],
             Pool[R.nextBelow(Pool.size())],
             uint32_t(R.nextBelow(NumBlocks)),
             uint32_t(R.nextBelow(NumBlocks)));
        break;
      }
    }
  }
};

/// Reachability from \p From, optionally treating \p Removed as absent.
std::vector<bool> reachable(const Function &F, uint32_t From,
                            int32_t Removed) {
  std::vector<bool> Seen(F.numBlocks(), false);
  if (int32_t(From) == Removed)
    return Seen;
  std::vector<uint32_t> Work{From};
  Seen[From] = true;
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    for (uint32_t S : F.block(B).successors())
      if (int32_t(S) != Removed && !Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  }
  return Seen;
}

class AnalysisSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalysisSeeds, DominatorsMatchRemovalReachability) {
  RandomCfg T(GetParam(), 12);
  CFG G = CFG::compute(*T.F);
  Dominators D = Dominators::compute(*T.F, G);

  std::vector<bool> FromEntry = reachable(*T.F, T.F->entry(), -1);
  for (uint32_t A = 0; A < T.F->numBlocks(); ++A) {
    if (!FromEntry[A])
      continue;
    // Ground truth: A dominates B iff removing A cuts B off from entry.
    std::vector<bool> Without = reachable(*T.F, T.F->entry(), int32_t(A));
    for (uint32_t B = 0; B < T.F->numBlocks(); ++B) {
      if (!FromEntry[B])
        continue;
      bool Truth = (A == B) || !Without[B];
      EXPECT_EQ(D.dominates(A, B), Truth)
          << "seed " << GetParam() << ": dom(" << A << ", " << B << ")";
    }
  }
}

TEST_P(AnalysisSeeds, LivenessMatchesInstructionLevelFixpoint) {
  RandomCfg T(GetParam(), 10);
  const Function &F = *T.F;
  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);

  // Brute force: one live set per instruction position, iterated to a
  // fixpoint with no block-level summaries.
  unsigned NR = F.numVRegs();
  std::vector<std::vector<BitVector>> LiveBefore(F.numBlocks());
  for (uint32_t B = 0; B < F.numBlocks(); ++B)
    LiveBefore[B].assign(F.block(B).Insts.size() + 1, BitVector(NR));

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B = 0; B < F.numBlocks(); ++B) {
      const auto &Insts = F.block(B).Insts;
      // After the last instruction: union of successors' entry sets.
      BitVector Out(NR);
      for (uint32_t S : F.block(B).successors())
        Out.unionWith(LiveBefore[S][0]);
      if (!(Out == LiveBefore[B][Insts.size()])) {
        LiveBefore[B][Insts.size()] = Out;
        Changed = true;
      }
      for (unsigned I = Insts.size(); I-- > 0;) {
        BitVector Cur = LiveBefore[B][I + 1];
        if (Insts[I].hasDef())
          Cur.reset(Insts[I].defReg());
        Insts[I].forEachUse([&](VRegId R) { Cur.set(R); });
        if (!(Cur == LiveBefore[B][I])) {
          LiveBefore[B][I] = Cur;
          Changed = true;
        }
      }
    }
  }

  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    EXPECT_TRUE(LV.liveIn(B) == LiveBefore[B][0])
        << "seed " << GetParam() << " live-in of block " << B;
    EXPECT_TRUE(LV.liveOut(B) ==
                LiveBefore[B][F.block(B).Insts.size()])
        << "seed " << GetParam() << " live-out of block " << B;
  }
}

TEST_P(AnalysisSeeds, LoopDepthsAreConsistentWithBackEdges) {
  RandomCfg T(GetParam(), 12);
  CFG G = CFG::compute(*T.F);
  Dominators D = Dominators::compute(*T.F, G);
  LoopInfo LI = LoopInfo::compute(*T.F, G, D);

  // Every loop header must be the target of a back edge from inside
  // its own body, and depth(header) >= 1.
  for (const Loop &L : LI.loops()) {
    EXPECT_GE(LI.depth(L.Header), 1u);
    bool HasLatch = false;
    for (uint32_t B : L.Blocks)
      for (uint32_t S : T.F->block(B).successors())
        if (S == L.Header)
          HasLatch = true;
    EXPECT_TRUE(HasLatch) << "header " << L.Header;
    // The header dominates every block of its natural loop.
    for (uint32_t B : L.Blocks)
      if (G.isReachable(B))
        EXPECT_TRUE(D.dominates(L.Header, B));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisSeeds,
                         ::testing::Range(uint64_t(100), uint64_t(120)));

//===--------------------------------------------------------------------===//
// Renumbering against reaching definitions.
//===--------------------------------------------------------------------===//

/// The dense formulation of renumbering, kept as an oracle: Gen/Kill/In/
/// Out bit vectors over def ids solved over the RPO (so defs in
/// unreachable blocks reach nothing outside them), then every def
/// reaching a common use joins one web. New ids and names are handed out
/// in the same walk order as renumberLiveRanges; a use no def reaches
/// gets one shared register per original vreg.
void renumberByReachingDefs(Function &F, const CFG &G) {
  unsigned NB = F.numBlocks(), NR = F.numVRegs();
  std::vector<VRegId> DefVReg;
  for (const BasicBlock &B : F.blocks())
    for (const Instruction &I : B.Insts)
      if (I.hasDef())
        DefVReg.push_back(I.defReg());
  unsigned ND = DefVReg.size();

  std::vector<BitVector> Gen(NB, BitVector(ND)), Kill(NB, BitVector(ND));
  uint32_t D = 0;
  for (const BasicBlock &B : F.blocks())
    for (const Instruction &I : B.Insts) {
      if (!I.hasDef())
        continue;
      for (uint32_t Other = 0; Other < ND; ++Other)
        if (DefVReg[Other] == I.defReg()) {
          Kill[B.Id].set(Other);
          Gen[B.Id].reset(Other);
        }
      Gen[B.Id].set(D);
      Kill[B.Id].reset(D++);
    }
  std::vector<BitVector> In(NB, BitVector(ND)), Out(NB, BitVector(ND));
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (uint32_t B : G.rpo()) {
      for (uint32_t P : G.preds(B))
        Changed |= In[B].unionWith(Out[P]);
      BitVector NewOut = In[B];
      NewOut.subtract(Kill[B]);
      NewOut.unionWith(Gen[B]);
      Changed |= Out[B].unionWith(NewOut);
    }
  }

  UnionFind Webs(ND);
  std::vector<VRegInfo> NewTable;
  std::map<uint32_t, VRegId> WebToNew;
  std::map<VRegId, VRegId> UndefWeb;
  std::vector<unsigned> SplitCount(NR, 0);
  auto NewReg = [&](uint32_t Def, VRegId OldV) {
    auto [It, Fresh] = WebToNew.try_emplace(Webs.find(Def), NewTable.size());
    if (Fresh) {
      NewTable.push_back(F.vreg(OldV));
      if (unsigned Seq = SplitCount[OldV]++)
        NewTable.back().Name += "." + std::to_string(Seq);
    }
    return It->second;
  };
  auto UndefReg = [&](VRegId OldV) {
    auto [It, Fresh] = UndefWeb.try_emplace(OldV, NewTable.size());
    if (Fresh)
      NewTable.push_back(F.vreg(OldV));
    return It->second;
  };

  // Walk 0 unites the defs reaching each use; walk 1 rewrites.
  for (int Walk = 0; Walk < 2; ++Walk) {
    uint32_t Next = 0;
    for (BasicBlock &B : F.blocks()) {
      std::vector<std::vector<uint32_t>> Reaching(NR);
      In[B.Id].forEachSetBit(
          [&](unsigned X) { Reaching[DefVReg[X]].push_back(X); });
      for (Instruction &I : B.Insts) {
        I.forEachUseOperand([&](Operand &O) {
          const std::vector<uint32_t> &Ds = Reaching[O.Reg];
          if (Walk == 0) {
            for (uint32_t X : Ds)
              Webs.unite(Ds[0], X);
            return;
          }
          O = Operand::reg(Ds.empty() ? UndefReg(O.Reg)
                                      : NewReg(Ds[0], O.Reg));
        });
        if (I.hasDef()) {
          uint32_t X = Next++;
          VRegId V = I.defReg();
          if (Walk == 1)
            I.setDefReg(NewReg(X, V));
          Reaching[V] = {X};
        }
      }
    }
  }
  F.setVRegTable(std::move(NewTable));
}

/// Renumbers \p F both ways and checks that the printed functions and
/// the register names agree.
void expectRenumberMatchesReachingDefs(const Module &M, const Function &F,
                                       const std::string &Label) {
  Function Sparse = F, Dense = F;
  CFG G = CFG::compute(F);
  renumberLiveRanges(Sparse, G);
  renumberByReachingDefs(Dense, G);
  ASSERT_EQ(printFunction(M, Sparse), printFunction(M, Dense)) << Label;
  ASSERT_EQ(Sparse.numVRegs(), Dense.numVRegs()) << Label;
  for (VRegId R = 0; R < Sparse.numVRegs(); ++R)
    ASSERT_EQ(Sparse.vreg(R).Name, Dense.vreg(R).Name) << Label;
}

TEST(RenumberProperty, MatchesReachingDefinitionsOnRandomDigraphs) {
  for (uint64_t Seed = 0; Seed < 5000; ++Seed) {
    RandomCfg T(Seed, 1 + Seed % 12, 2 + Seed % 5, /*Copies=*/true);
    expectRenumberMatchesReachingDefs(T.M, *T.F,
                                      "seed " + std::to_string(Seed));
  }
}

TEST(RenumberProperty, UseUndefinedOnOnePathAndDefinedAroundALoop) {
  // v is undefined on entry -> head -> exit, and reaches both head and
  // exit from the latch's def around the loop. w's two defs reach the
  // two arms of a split that no def of w reaches, so they must stay two
  // webs rather than be joined through the split.
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry"), Head = B.newBlock("head"),
           Latch = B.newBlock("latch"), Exit = B.newBlock("exit"),
           Fork = B.newBlock("fork"), Split = B.newBlock("split"),
           DefA = B.newBlock("defa"), DefB = B.newBlock("defb"),
           ArmA = B.newBlock("arma"), ArmB = B.newBlock("armb");
  VRegId C = F.newVReg(RegClass::Int, "c");
  VRegId V = F.newVReg(RegClass::Int, "v");
  VRegId W = F.newVReg(RegClass::Int, "w");
  VRegId X = F.newVReg(RegClass::Int, "x");
  B.setInsertPoint(Entry);
  B.movI(1, C);
  B.br(CmpKind::LT, C, C, Head, Fork);
  B.setInsertPoint(Head);
  B.addI(V, 1, X);
  B.br(CmpKind::LT, X, C, Latch, Exit);
  B.setInsertPoint(Latch);
  B.copy(X, V);
  B.jmp(Head);
  B.setInsertPoint(Exit);
  B.ret(V);
  B.setInsertPoint(Fork);
  B.br(CmpKind::LT, C, C, Split, DefA);
  B.setInsertPoint(Split); // w live in, no def of w reaches it
  B.br(CmpKind::LT, C, C, ArmA, ArmB);
  B.setInsertPoint(DefA);
  B.movI(2, W);
  B.br(CmpKind::LT, C, C, ArmA, DefB);
  B.setInsertPoint(DefB);
  B.movI(3, W);
  B.jmp(ArmB);
  B.setInsertPoint(ArmA);
  B.ret(W);
  B.setInsertPoint(ArmB);
  B.ret(W);
  expectRenumberMatchesReachingDefs(M, F, "loop case");

  CFG G = CFG::compute(F);
  renumberLiveRanges(F, G);
  const auto &HeadInsts = F.block(Head).Insts, &LatchInsts =
      F.block(Latch).Insts;
  // The latch's def, the head's use and the exit's use share one web.
  EXPECT_EQ(HeadInsts[0].Ops[1].Reg, LatchInsts[0].defReg());
  EXPECT_EQ(F.block(Exit).Insts[0].Ops[0].Reg, LatchInsts[0].defReg());
  // arma sees w from defa only, armb from defb only: two webs.
  EXPECT_NE(F.block(ArmA).Insts[0].Ops[0].Reg,
            F.block(ArmB).Insts[0].Ops[0].Reg);
}

TEST(RenumberProperty, DefsInAnUnreachablePredecessorReachNothing) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry"), Dead = B.newBlock("dead"),
           Join = B.newBlock("join");
  VRegId V = F.newVReg(RegClass::Int, "v");
  VRegId U = F.newVReg(RegClass::Int, "u");
  B.setInsertPoint(Entry);
  B.movI(1, V);
  B.jmp(Join);
  B.setInsertPoint(Dead);
  B.movI(2, V);
  B.movI(3, U);
  B.jmp(Join);
  B.setInsertPoint(Join);
  B.add(V, U, V);
  B.ret(V);
  expectRenumberMatchesReachingDefs(M, F, "unreachable case");

  CFG G = CFG::compute(F);
  // Join nodes: u live into entry, v and u live into join; none for
  // the dead block, which defines both before any use.
  EXPECT_EQ(renumberLiveRanges(F, G).EntryNodes, 3u);
  const Instruction &Add = F.block(Join).Insts[0];
  // The join's v is entry's def alone; u is reached by no def.
  EXPECT_EQ(Add.Ops[1].Reg, F.block(Entry).Insts[0].defReg());
  EXPECT_NE(Add.Ops[1].Reg, F.block(Dead).Insts[0].defReg());
  EXPECT_NE(Add.Ops[2].Reg, F.block(Dead).Insts[1].defReg());
}

} // namespace
