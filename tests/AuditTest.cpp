//===- tests/AuditTest.cpp - post-allocation audit & degradation ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The self-checking allocator's contract: the independent audit accepts
// every honest allocation, rejects hand-corrupted and fault-injected
// ones, and the degradation ladder (primary -> spill-everything ->
// diagnostic) turns those rejections into Degraded-but-correct results
// instead of wrong code or a dead process.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "regalloc/AllocationAudit.h"
#include "regalloc/Allocator.h"
#include "service/AllocationService.h"
#include "sim/Simulator.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ra;

namespace {

//===--------------------------------------------------------------------===//
// The audit accepts honest allocations.
//===--------------------------------------------------------------------===//

TEST(AuditTest, AcceptsHonestAllocationsAcrossHeuristicsAndSizes) {
  for (uint64_t Seed : {1u, 7u, 23u}) {
    for (Heuristic H :
         {Heuristic::Chaitin, Heuristic::Briggs, Heuristic::MatulaBeck}) {
      for (unsigned K : {16u, 6u, 4u}) {
        Module M;
        Function &F = buildRandomProgram(M, Seed);
        AllocatorConfig C;
        C.H = H;
        C.Machine = MachineInfo(K, K);
        C.MaxPasses = 64;
        AllocationResult A = allocateRegisters(F, C);
        ASSERT_TRUE(A.Success);
        EXPECT_EQ(A.Outcome, AllocOutcome::Converged);
        EXPECT_TRUE(auditAllocation(F, A).empty())
            << "seed " << Seed << " " << heuristicName(H) << " k=" << K
            << ": " << auditAllocation(F, A).front();
        EXPECT_TRUE(auditAllocationStatus(F, A).ok());
      }
    }
  }
}

TEST(AuditTest, AcceptsSpillHeavyAllocation) {
  Module M;
  Function &F = buildDGEFA(M); // spills at tight sizes
  AllocatorConfig C;
  C.Machine = MachineInfo(4, 3);
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success);
  ASSERT_GT(A.Stats.totalSpills(), 0u) << "no spills; weak test";
  EXPECT_TRUE(auditAllocation(F, A).empty());
}

//===--------------------------------------------------------------------===//
// The audit rejects corrupted allocations.
//===--------------------------------------------------------------------===//

/// A small allocated function plus its result, ready to be corrupted.
struct Allocated {
  Module M;
  Function *F = nullptr;
  AllocationResult A;
};

Allocated allocateSmall(unsigned IntK = 4, unsigned FltK = 3) {
  Allocated Out;
  Out.F = &buildRandomProgram(Out.M, 42);
  AllocatorConfig C;
  C.Machine = MachineInfo(IntK, FltK);
  Out.A = allocateRegisters(*Out.F, C);
  EXPECT_TRUE(Out.A.Success);
  EXPECT_TRUE(auditAllocation(*Out.F, Out.A).empty());
  return Out;
}

TEST(AuditTest, CatchesOutOfFileRegister) {
  Allocated X = allocateSmall();
  // Push one assignment past the end of its register file.
  X.A.ColorOf[0] = int32_t(X.A.Machine.numRegs(X.F->regClass(0)));
  auto Errors = auditAllocation(*X.F, X.A);
  ASSERT_FALSE(Errors.empty());
  Status S = auditAllocationStatus(*X.F, X.A);
  EXPECT_EQ(S.code(), StatusCode::AuditFailure);
}

TEST(AuditTest, CatchesMissingAssignment) {
  Allocated X = allocateSmall();
  X.A.ColorOf[0] = -1;
  EXPECT_FALSE(auditAllocation(*X.F, X.A).empty());
}

TEST(AuditTest, CatchesInjectedMiscoloringWhenAllocatorDoesNot) {
  // With the in-allocator audit off, the injected miscoloring sails
  // through as Converged — the external audit must still catch it.
  Module M;
  Function &F = buildRandomProgram(M, 11);
  AllocatorConfig C;
  C.Machine = MachineInfo(4, 3);
  C.Audit = false;
  C.FaultInject.Miscolor = true;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success);
  ASSERT_EQ(A.Outcome, AllocOutcome::Converged);
  EXPECT_FALSE(auditAllocation(F, A).empty());
}

TEST(AuditTest, CatchesCorruptedSpillSlot) {
  Allocated X = allocateSmall(4, 2); // tight: guarantees spill code
  ASSERT_GT(X.F->numSpillSlots(), 0u) << "no spill code; weak test";
  // Point the first spill load at a slot that does not exist.
  bool Corrupted = false;
  for (BasicBlock &B : X.F->blocks()) {
    for (Instruction &I : B.Insts)
      if (I.Op == Opcode::SpillLd) {
        I.Ops[1] = Operand::intImm(int64_t(X.F->numSpillSlots()) + 7);
        Corrupted = true;
        break;
      }
    if (Corrupted)
      break;
  }
  ASSERT_TRUE(Corrupted);
  EXPECT_FALSE(auditAllocation(*X.F, X.A).empty());
}

//===--------------------------------------------------------------------===//
// Degradation ladder.
//===--------------------------------------------------------------------===//

TEST(AuditTest, MiscolorFaultDegradesToCorrectFallback) {
  Module M;
  Function &F = buildRandomProgram(M, 5);
  Simulator Sim(M);
  MemoryImage GoldenMem(M);
  ExecutionResult Golden = Sim.runVirtual(F, GoldenMem);
  ASSERT_TRUE(Golden.Ok);

  AllocatorConfig C;
  C.Machine = MachineInfo(4, 3);
  C.Audit = true;
  C.FaultInject.Miscolor = true;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_EQ(A.Diag.code(), StatusCode::AuditFailure);
  EXPECT_TRUE(auditAllocation(F, A).empty())
      << "fallback allocation must itself audit clean";

  // Degraded still means correct: the spill-everything code computes
  // the same results as the virtual golden run.
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runAllocated(F, A, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntReturn, Golden.IntReturn);
  EXPECT_EQ(R.FloatReturn, Golden.FloatReturn);
  EXPECT_TRUE(Mem == GoldenMem);
}

TEST(AuditTest, NonConvergenceFaultDegrades) {
  Module M;
  Function &F = buildRandomProgram(M, 9);
  AllocatorConfig C;
  C.Machine = MachineInfo(4, 3);
  C.FaultInject.NonConvergence = true;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_EQ(A.Diag.code(), StatusCode::NonConvergence);
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(AuditTest, FallbackWorksAtMinimumFileSizes) {
  // The acceptance grid's smallest machine: 4 int, 2 flt. The
  // spill-everything fallback must still terminate and audit clean.
  Module M;
  Function &F = buildRandomProgram(M, 3);
  AllocatorConfig C;
  C.Machine = MachineInfo(4, 2);
  C.FaultInject.NonConvergence = true;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_TRUE(auditAllocation(F, A).empty());
}

TEST(AuditTest, MalformedFunctionFailsWithDiagnosticNotAbort) {
  Module M;
  Function &Empty = M.newFunction("hollow"); // no blocks at all
  AllocatorConfig C;
  AllocationResult A = allocateRegisters(Empty, C);
  EXPECT_FALSE(A.Success);
  EXPECT_EQ(A.Outcome, AllocOutcome::Failed);
  EXPECT_EQ(A.Diag.code(), StatusCode::InvalidInput);
  EXPECT_NE(A.Diag.toString().find("hollow"), std::string::npos)
      << A.Diag.toString();
}

TEST(AuditTest, DegradedFunctionsReportedThroughModuleAllocation) {
  Module M;
  buildDAXPY(M);
  buildDDOT(M);
  AllocatorConfig C;
  C.Machine = MachineInfo(6, 4);
  C.FaultInject.NonConvergence = true; // every function degrades
  service::ServiceConfig SC;
  SC.CacheEnabled = false;
  SC.Workers = 1;
  service::AllocationService Svc(SC);
  service::ModuleAllocationResult R;
  std::vector<uint8_t> Hits;
  Svc.allocateParsed(M, C, /*Optimize=*/false, /*UseCache=*/false, R, Hits);
  ASSERT_EQ(R.Functions.size(), M.numFunctions());
  EXPECT_TRUE(R.allSucceeded());
  EXPECT_EQ(R.numDegraded(), M.numFunctions());
  for (const AllocationResult &A : R.Functions)
    EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
}

} // namespace
