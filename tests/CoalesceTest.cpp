//===- tests/CoalesceTest.cpp - coalescing correctness contracts ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Focused contracts for the Chaitin-style coalescer beyond the smoke
// cases in RegallocTest.cpp: copy subsumption must preserve program
// semantics exactly, a merge must preserve every interference the two
// ranges had (mapped onto the surviving root), copies whose operands
// interfere must never be merged, the Briggs conservative test must
// refuse merges that would create a significant-degree node, the
// graphs over just the copies' operands must answer exactly as the
// all-vreg class graphs, conservative coalescing works past the size a
// bit matrix could index, and graphs that cannot be afforded merge
// nothing.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "analysis/Renumber.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "regalloc/BuildGraph.h"
#include "regalloc/Coalesce.h"
#include "sim/Simulator.h"
#include "support/Budget.h"
#include "workloads/MegaKernel.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

using namespace ra;

namespace {

using ClassGraphs = std::array<ClassGraph, NumRegClasses>;

/// True iff vregs \p X and \p Y interfere in \p Graphs.
bool interferes(const Function &F, const ClassGraphs &Graphs, VRegId X,
                VRegId Y) {
  if (F.regClass(X) != F.regClass(Y))
    return false;
  const ClassGraph &CG = Graphs[unsigned(F.regClass(X))];
  return CG.Graph.interferes(CG.VRegToNode[X], CG.VRegToNode[Y]);
}

unsigned countCopies(const Function &F) {
  unsigned N = 0;
  for (const BasicBlock &B : F.blocks())
    for (const Instruction &I : B.Insts)
      N += I.isCopy();
  return N;
}

//===--------------------------------------------------------------------===//
// Copy subsumption correctness.
//===--------------------------------------------------------------------===//

TEST(CoalesceTest, SubsumptionPreservesSemanticsAndRemovesEveryCopy) {
  // A copy chain feeding arithmetic whose result is returned: after
  // coalescing no copy remains and the returned value is unchanged.
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId A = B.movI(21);
  VRegId C1 = B.copy(A);  // a dies here
  VRegId C2 = B.copy(C1); // chain: converges across rounds
  VRegId R = B.add(C2, C2);
  B.ret(R);

  Simulator Sim(M);
  MemoryImage GoldenMem(M);
  ExecutionResult Golden = Sim.runVirtual(F, GoldenMem);
  ASSERT_TRUE(Golden.Ok) << Golden.Error;
  ASSERT_TRUE(Golden.HasIntReturn);
  ASSERT_EQ(Golden.IntReturn, 42);

  CFG G = CFG::compute(F);
  CoalesceStats S = coalesceAll(F, G);
  EXPECT_EQ(S.CopiesRemoved, 2u);
  EXPECT_EQ(countCopies(F), 0u);
  ASSERT_TRUE(verifyFunction(M, F).empty());

  MemoryImage Mem(M);
  ExecutionResult After = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(After.IntReturn, Golden.IntReturn);
  EXPECT_TRUE(Mem == GoldenMem);
}

TEST(CoalesceTest, RecordsMergeProvenance) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId A = F.newVReg(RegClass::Int, "a");
  B.movI(9, A);
  VRegId C = F.newVReg(RegClass::Int, "b");
  B.copy(A, C);
  B.ret(C);

  CFG G = CFG::compute(F);
  CoalesceStats S = coalesceAll(F, G);
  ASSERT_EQ(S.CopiesRemoved, 1u);
  ASSERT_EQ(S.Merges.size(), 1u);
  const CoalescedCopy &CC = S.Merges[0];
  EXPECT_EQ(CC.Class, RegClass::Int);
  // One of the two names survived as the root; the other was merged
  // into it.
  EXPECT_TRUE((CC.Merged == "a" && CC.Into == "b") ||
              (CC.Merged == "b" && CC.Into == "a"))
      << CC.Merged << " into " << CC.Into;
  EXPECT_NE(CC.Merged, CC.Into);
}

//===--------------------------------------------------------------------===//
// Interference-preserving merges.
//===--------------------------------------------------------------------===//

TEST(CoalesceTest, MergePreservesEveryInterferenceOfBothRanges) {
  // A diamond with copies on both arms: whatever interfered with either
  // side of a merged copy must interfere with the surviving root.
  Module M;
  uint32_t Arr = M.newArray("arr", 8, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Left = B.newBlock("left");
  uint32_t Right = B.newBlock("right");
  uint32_t Join = B.newBlock("join");

  B.setInsertPoint(Entry);
  VRegId Zero = F.newVReg(RegClass::Int, "zero");
  B.movI(0, Zero);
  VRegId N = F.newVReg(RegClass::Int, "n");
  B.movI(5, N);
  VRegId Keep = F.newVReg(RegClass::Int, "keep");
  B.movI(7, Keep);
  B.br(CmpKind::LT, Zero, N, Left, Right);

  B.setInsertPoint(Left);
  VRegId T = F.newVReg(RegClass::Int, "t");
  B.add(N, Keep, T);
  VRegId U = F.newVReg(RegClass::Int, "u");
  B.copy(T, U); // t dies: coalescable, but t interfered with keep/zero
  B.store(Arr, Zero, U);
  B.jmp(Join);

  B.setInsertPoint(Right);
  B.store(Arr, Zero, Keep);
  B.jmp(Join);

  B.setInsertPoint(Join);
  B.store(Arr, Zero, Keep);
  B.ret();

  // Interference before, keyed by name so the check survives the merge.
  CFG G = CFG::compute(F);
  Liveness Before = Liveness::compute(F, G);
  ClassGraphs GBefore = buildInterferenceGraphs(F, Before);
  unsigned NumBefore = F.numVRegs();
  std::map<std::string, VRegId> IdOf;
  for (VRegId R = 0; R < F.numVRegs(); ++R)
    IdOf[F.vreg(R).Name] = R;

  CoalesceStats S = coalesceAll(F, G);
  ASSERT_GE(S.CopiesRemoved, 1u);
  ASSERT_TRUE(verifyFunction(M, F).empty());

  // Map every merged-away name onto its surviving root (merges can
  // chain across rounds, so resolve transitively).
  std::map<std::string, std::string> RootOf;
  for (const CoalescedCopy &CC : S.Merges)
    RootOf[CC.Merged] = CC.Into;
  auto Root = [&](std::string Name) {
    while (RootOf.count(Name))
      Name = RootOf[Name];
    return Name;
  };

  Liveness After = Liveness::compute(F, G);
  ClassGraphs GAfter = buildInterferenceGraphs(F, After);
  for (VRegId X = 0; X < NumBefore; ++X)
    for (VRegId Y = X + 1; Y < NumBefore; ++Y) {
      if (!interferes(F, GBefore, X, Y))
        continue;
      VRegId RX = IdOf.at(Root(F.vreg(X).Name));
      VRegId RY = IdOf.at(Root(F.vreg(Y).Name));
      ASSERT_NE(RX, RY) << "interfering ranges " << F.vreg(X).Name
                        << " and " << F.vreg(Y).Name << " were merged";
      EXPECT_TRUE(interferes(F, GAfter, RX, RY))
          << "interference " << F.vreg(X).Name << " -- " << F.vreg(Y).Name
          << " lost by coalescing";
    }
}

//===--------------------------------------------------------------------===//
// No coalescing across interference.
//===--------------------------------------------------------------------===//

TEST(CoalesceTest, RefusesCopyWhoseOperandsInterfere) {
  // d = copy s, then both s and d are live (s used after the copy and d
  // modified): merging would conflate two simultaneously-live values.
  Module M;
  uint32_t Arr = M.newArray("arr", 4, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Zero = B.movI(0);
  VRegId S = F.newVReg(RegClass::Int, "s");
  B.movI(3, S);
  VRegId D = F.newVReg(RegClass::Int, "d");
  B.copy(S, D);
  B.addI(D, 1, D);       // d diverges from s
  B.store(Arr, Zero, S); // s still live: s -- d interference
  B.store(Arr, Zero, D);
  B.ret();

  Simulator Sim(M);
  MemoryImage GoldenMem(M);
  ExecutionResult Golden = Sim.runVirtual(F, GoldenMem);
  ASSERT_TRUE(Golden.Ok) << Golden.Error;

  CFG G = CFG::compute(F);
  CoalesceStats St = coalesceAll(F, G);
  EXPECT_EQ(St.CopiesRemoved, 0u);
  EXPECT_TRUE(St.Merges.empty());
  EXPECT_EQ(countCopies(F), 1u) << "interfering copy must survive";

  MemoryImage Mem(M);
  ExecutionResult After = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_TRUE(Mem == GoldenMem);
}

TEST(CoalesceTest, ConservativeRefusesSignificantDegreeMerge) {
  // s and d do not interfere, but their union would have two neighbors
  // of degree >= k (k = 2): Briggs' conservative test must refuse what
  // Chaitin's aggressive rule merges.
  auto BuildCase = [](Module &M) -> Function & {
    Function &F = M.newFunction("f");
    IRBuilder B(M, F);
    B.setInsertPoint(B.newBlock("entry"));
    VRegId N1 = F.newVReg(RegClass::Int, "n1");
    B.movI(1, N1);
    VRegId N2 = F.newVReg(RegClass::Int, "n2");
    B.movI(2, N2);
    VRegId S = F.newVReg(RegClass::Int, "s");
    B.movI(3, S);
    VRegId D = F.newVReg(RegClass::Int, "d");
    B.copy(S, D); // s's last use: no s -- d edge
    VRegId X = B.add(N1, D);
    VRegId Y = B.add(N2, X);
    B.ret(Y);
    return F;
  };

  Module MA;
  Function &FA = BuildCase(MA);
  CFG GA = CFG::compute(FA);
  CoalesceStats Aggressive = coalesceAll(FA, GA);
  EXPECT_EQ(Aggressive.CopiesRemoved, 1u)
      << "aggressive baseline: non-interfering copy merges";

  Module MC;
  Function &FC = BuildCase(MC);
  CFG GC = CFG::compute(FC);
  CoalesceStats Conservative = coalesceAll(
      FC, GC, CoalescePolicy::Conservative, MachineInfo(2, 2));
  EXPECT_EQ(Conservative.CopiesRemoved, 0u)
      << "merge would create a node with k significant neighbors";
  EXPECT_EQ(countCopies(FC), 1u);
}

TEST(CoalesceTest, ConservativeCountsASharedNeighborOnce) {
  // n interferes with both s and d, and is their only neighbor, of
  // degree 2 = k. The merged node has one significant neighbor, not
  // two, so Briggs' test must allow the merge.
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId N = F.newVReg(RegClass::Int, "n");
  B.movI(1, N);
  VRegId S = F.newVReg(RegClass::Int, "s");
  B.movI(3, S);
  VRegId D = F.newVReg(RegClass::Int, "d");
  B.copy(S, D); // s's last use: no s -- d edge
  B.ret(B.add(N, D));

  CFG G = CFG::compute(F);
  CoalesceStats St =
      coalesceAll(F, G, CoalescePolicy::Conservative, MachineInfo(2, 2));
  EXPECT_EQ(St.CopiesRemoved, 1u);
  EXPECT_EQ(countCopies(F), 0u);
}

//===--------------------------------------------------------------------===//
// The graphs over candidate copy operands.
//===--------------------------------------------------------------------===//

/// Checks, round by round until coalescing settles, that liveness and
/// the graphs over \p F's candidate copy operands answer every pair of
/// them exactly as the all-vreg class graphs do, with each member's
/// degree counting just its interfering members, and that the graphs
/// over every vreg (the Conservative policy's subset) repeat the class
/// graphs row for row, so Briggs' test reads the same degrees.
void expectSubsetGraphsMatchFull(Function &F, const std::string &Label) {
  CFG G = CFG::compute(F);
  renumberLiveRanges(F, G);
  do {
    Liveness Full = Liveness::compute(F, G);
    ClassGraphs GFull = buildInterferenceGraphs(F, Full);

    VRegSubset All(F.numVRegs());
    for (VRegId R = 0; R < F.numVRegs(); ++R)
      All.add(R);
    Liveness AllLV = Liveness::compute(F, G, &All);
    ClassGraphs GAll = buildInterferenceGraphs(F, AllLV, nullptr, &All);
    for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
      const InterferenceGraph &A = GAll[Cls].Graph, &B = GFull[Cls].Graph;
      ASSERT_EQ(GAll[Cls].NodeToVReg, GFull[Cls].NodeToVReg) << Label;
      for (uint32_t N = 0; N < A.numNodes(); ++N)
        ASSERT_TRUE(std::ranges::equal(A.neighbors(N), B.neighbors(N)))
            << Label << ": row of " << F.vreg(GAll[Cls].NodeToVReg[N]).Name;
    }

    VRegSubset Only(F.numVRegs());
    for (const BasicBlock &B : F.blocks())
      for (const Instruction &I : B.Insts)
        if (I.isCopy() && I.Ops[0].Reg != I.Ops[1].Reg &&
            F.regClass(I.Ops[0].Reg) == F.regClass(I.Ops[1].Reg)) {
          Only.add(I.Ops[0].Reg);
          Only.add(I.Ops[1].Reg);
        }
    Liveness Sub = Liveness::compute(F, G, &Only);
    ClassGraphs GSub = buildInterferenceGraphs(F, Sub, nullptr, &Only);
    ASSERT_EQ(GSub[0].Graph.numNodes() + GSub[1].Graph.numNodes(),
              Only.size())
        << Label;
    for (uint32_t X = 0; X < Only.size(); ++X) {
      VRegId RX = Only.vregOf(X);
      unsigned Members = 0;
      for (uint32_t Y = 0; Y < Only.size(); ++Y) {
        VRegId RY = Only.vregOf(Y);
        bool Want = interferes(F, GFull, RX, RY);
        ASSERT_EQ(interferes(F, GSub, RX, RY), Want)
            << Label << ": " << F.vreg(RX).Name << " -- " << F.vreg(RY).Name;
        Members += Want;
      }
      const ClassGraph &CG = GSub[unsigned(F.regClass(RX))];
      ASSERT_EQ(CG.Graph.degree(CG.VRegToNode[RX]), Members)
          << Label << ": degree of " << F.vreg(RX).Name;
    }
  } while (coalesceOnePass(F, G) != 0);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(CoalesceTest, SubsetMatrixMatchesFullOnCorpus) {
  for (int Seed = 0; Seed < 8; ++Seed) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "seed%04d.ral", Seed);
    Module M;
    std::string Error;
    ASSERT_TRUE(parseModule(
        readFile(std::string(RA_TESTS_DIR) + "/corpus/" + Name), M, Error))
        << Name << ": " << Error;
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      expectSubsetGraphsMatchFull(M.function(I), Name);
  }
}

TEST(CoalesceTest, SubsetMatrixMatchesFullOnFigure5Routines) {
  for (const Workload &W : allWorkloads()) {
    Module M;
    expectSubsetGraphsMatchFull(W.Build(M), W.Routine);
  }
}

TEST(CoalesceTest, SubsetMatrixMatchesFullOnRandomPrograms) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    Module M;
    expectSubsetGraphsMatchFull(buildRandomProgram(M, Seed),
                                  "random seed " + std::to_string(Seed));
  }
}

TEST(CoalesceTest, CopyFreeRoundBuildsNoMatrix) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId A = B.movI(1);
  VRegId C = B.copy(A, A); // a self-copy is no candidate
  B.ret(B.add(A, C));

  CFG G = CFG::compute(F);
  for (CoalescePolicy P :
       {CoalescePolicy::Aggressive, CoalescePolicy::Conservative}) {
    CoalesceStats S;
    EXPECT_EQ(coalesceOnePass(F, G, P, MachineInfo(2, 2), &S), 0u);
    EXPECT_EQ(S.GraphNodes, 0u);
  }
}

TEST(CoalesceTest, MatrixCoversOnlyCopyOperandsOnMegaKernels) {
  // The ramp and the wide loop carry no copies, so no round builds a
  // matrix; the random kernel's matrix stays within its copies'
  // operands instead of spanning every live range.
  for (const MegaKernel &MK : megaKernelTestFamily()) {
    Module M;
    Function &F = MK.Build(M);
    CFG G = CFG::compute(F);
    renumberLiveRanges(F, G);
    unsigned Copies = countCopies(F);
    CoalesceStats S = coalesceAll(F, G);
    if (MK.Kind == "random") {
      EXPECT_GT(S.GraphNodes, 0u) << MK.Name;
      EXPECT_LE(S.GraphNodes, 2 * Copies) << MK.Name;
      EXPECT_LT(S.GraphNodes, F.numVRegs()) << MK.Name;
    } else {
      EXPECT_EQ(S.GraphNodes, 0u) << MK.Name;
    }
  }
}

/// "a = 1; b = a; ret a + b": one coalescable copy.
Function &buildOneCopy(Module &M) {
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId A = B.movI(1);
  VRegId C = B.copy(A);
  B.ret(B.add(A, C));
  return F;
}

TEST(CoalesceTest, ConservativeMergesAtAnyFunctionSize) {
  // Conservative coalescing spans every vreg. A triangular bit matrix
  // over more than 92,682 nodes cannot be indexed in 32 bits; the
  // graphs have no such limit.
  Module M;
  Function &F = buildOneCopy(M);
  while (F.numVRegs() <= 92683)
    F.newVReg(RegClass::Int);
  unsigned VRegs = F.numVRegs();
  CFG G = CFG::compute(F);
  CoalesceStats S =
      coalesceAll(F, G, CoalescePolicy::Conservative, MachineInfo(2, 2));
  EXPECT_EQ(S.CopiesRemoved, 1u);
  EXPECT_EQ(S.GraphNodes, VRegs);
  EXPECT_EQ(countCopies(F), 0u);
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(CoalesceTest, GovernedRoundChargesItsMatrixFirst) {
  {
    // Granted: the graphs' real bytes are charged while the round holds
    // them, and released when it ends.
    Module M;
    Function &F = buildOneCopy(M);
    CFG G = CFG::compute(F);
    VRegSubset Only(F.numVRegs());
    for (const BasicBlock &B : F.blocks())
      for (const Instruction &I : B.Insts)
        if (I.isCopy()) {
          Only.add(I.Ops[0].Reg);
          Only.add(I.Ops[1].Reg);
        }
    Liveness LV = Liveness::compute(F, G, &Only);
    uint64_t Bytes = 0;
    for (const ClassGraph &CG :
         buildInterferenceGraphs(F, LV, nullptr, &Only))
      Bytes += CG.Graph.memoryBytes();
    ASSERT_GT(Bytes, 0u);

    Budget Gov;
    Gov.arm(0, 1 << 20);
    CoalesceStats S = coalesceAll(F, G, CoalescePolicy::Aggressive, {}, &Gov);
    EXPECT_EQ(S.CopiesRemoved, 1u);
    EXPECT_EQ(S.GraphNodes, 2u);
    EXPECT_EQ(Gov.peakBytes(), Bytes);
    EXPECT_EQ(Gov.currentBytes(), 0u);
  }
  {
    // Refused: nothing merges and the token latches.
    Module M;
    Function &F = buildOneCopy(M);
    CFG G = CFG::compute(F);
    Budget Gov;
    Gov.arm(0, 1);
    CoalesceStats S = coalesceAll(F, G, CoalescePolicy::Aggressive, {}, &Gov);
    EXPECT_EQ(S.CopiesRemoved, 0u);
    EXPECT_EQ(S.GraphNodes, 0u);
    EXPECT_EQ(countCopies(F), 1u);
    EXPECT_EQ(Gov.currentBytes(), 0u);
    EXPECT_TRUE(Gov.exhausted());
    EXPECT_EQ(Gov.status().code(), StatusCode::MemoryBudgetExceeded);
  }
}

} // namespace
