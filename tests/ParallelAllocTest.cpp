//===- tests/ParallelAllocTest.cpp - pool, heap picker, CSR, module -------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The parallel-allocation contract: a module allocated through
// AllocationService::allocateParsed at any pool width is bit-identical
// to serial allocation, and the O(log n) heap-based spill candidate
// selection picks the exact node sequence the old O(n) linear rescan
// picked.
//
//===----------------------------------------------------------------------===//

#include "analysis/Renumber.h"
#include "ir/IRPrinter.h"
#include "regalloc/Allocator.h"
#include "regalloc/BuildGraph.h"
#include "regalloc/Coloring.h"
#include "regalloc/DegreeBuckets.h"
#include "regalloc/SpillHeap.h"
#include "service/AllocationService.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "workloads/MegaKernel.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <string>

using namespace ra;
using service::ModuleAllocationResult;

namespace {

//===--------------------------------------------------------------------===//
// ThreadPool.
//===--------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryTaskAndReturnsResults) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 100; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Futures[I].get(), I * I);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 64; ++I)
      Pool.submit([&Ran] { ++Ran; });
  } // destructor must run all 64 before joining
  EXPECT_EQ(Ran.load(), 64);
}

TEST(ThreadPoolTest, ResolveJobs) {
  EXPECT_EQ(ThreadPool::resolveJobs(3), 3u);
  EXPECT_GE(ThreadPool::resolveJobs(0), 1u); // hardware, at least one
}

TEST(ThreadPoolTest, TaskExceptionReachesFutureNotWorker) {
  ThreadPool Pool(2);
  auto Boom = Pool.submit([]() -> int {
    throw std::runtime_error("task exploded");
  });
  // The exception must surface from get() on the collecting thread...
  EXPECT_THROW(
      {
        try {
          Boom.get();
        } catch (const std::runtime_error &E) {
          EXPECT_STREQ(E.what(), "task exploded");
          throw;
        }
      },
      std::runtime_error);
  // ...and the worker that ran it must still be alive for later tasks.
  std::vector<std::future<int>> After;
  for (int I = 0; I < 16; ++I)
    After.push_back(Pool.submit([I] { return I + 1; }));
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(After[I].get(), I + 1);
}

//===--------------------------------------------------------------------===//
// CSR adjacency layout.
//===--------------------------------------------------------------------===//

TEST(InterferenceGraphCSRTest, NeighborsFollowInsertionOrder) {
  InterferenceGraph G(5);
  G.addEdge(0, 3);
  G.addEdge(0, 1);
  G.addEdge(2, 0);
  G.addEdge(4, 2);
  G.finalize();
  ASSERT_EQ(G.degree(0), 3u);
  std::vector<uint32_t> N0(G.neighbors(0).begin(), G.neighbors(0).end());
  // Exactly the order the old per-node vectors produced.
  EXPECT_EQ(N0, (std::vector<uint32_t>{3, 1, 2}));
  std::vector<uint32_t> N2(G.neighbors(2).begin(), G.neighbors(2).end());
  EXPECT_EQ(N2, (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(G.numEdges(), 4u);
}

TEST(InterferenceGraphCSRTest, AddEdgeAfterFinalizeRebuilds) {
  InterferenceGraph G(4);
  G.addEdge(0, 1);
  G.finalize();
  EXPECT_EQ(G.neighbors(0).size(), 1u);
  G.addEdge(0, 2);
  G.addEdge(1, 0); // duplicate of a packed edge, other orientation
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_EQ(G.degree(0), 2u);
  EXPECT_EQ(G.degree(1), 1u);
  std::vector<uint32_t> N0(G.neighbors(0).begin(), G.neighbors(0).end());
  EXPECT_EQ(N0, (std::vector<uint32_t>{1, 2}));
}

using Rows = std::vector<std::vector<uint32_t>>;
using EdgeStream = std::vector<std::pair<uint32_t, uint32_t>>;

/// Per-node rows as the old matrix-guarded addEdge built them: an edge
/// is kept only the first time it is seen, in either orientation. That
/// insertion path, replayed over a set of pairs, is the oracle for the
/// packed rows.
Rows matrixDedupRows(unsigned NumNodes, const EdgeStream &Edges) {
  std::set<std::pair<uint32_t, uint32_t>> Seen;
  Rows Out(NumNodes);
  for (auto [A, B] : Edges)
    if (A != B && Seen.insert({std::min(A, B), std::max(A, B)}).second) {
      Out[A].push_back(B);
      Out[B].push_back(A);
    }
  return Out;
}

void expectRows(const InterferenceGraph &G, const Rows &Want,
                const std::string &Subject) {
  ASSERT_EQ(G.numNodes(), Want.size()) << Subject;
  size_t Endpoints = 0;
  for (uint32_t N = 0; N < G.numNodes(); ++N) {
    std::vector<uint32_t> Got(G.neighbors(N).begin(), G.neighbors(N).end());
    ASSERT_EQ(Got, Want[N]) << Subject << ", node " << N;
    EXPECT_EQ(G.degree(N), Want[N].size()) << Subject;
    Endpoints += Want[N].size();
  }
  EXPECT_EQ(G.numEdges(), Endpoints / 2) << Subject;
}

TEST(InterferenceGraphCSRTest, RandomMultigraphsMatchMatrixDedup) {
  Rng R(20261017);
  for (unsigned Trial = 0; Trial < 200; ++Trial) {
    unsigned N = 1 + unsigned(R.nextBelow(60));
    EdgeStream Edges;
    for (uint64_t E = 0, EC = R.nextBelow(6 * N); E < EC; ++E) {
      uint32_t A = uint32_t(R.nextBelow(N));
      // One edge in four is a self edge; small N makes repeats common.
      uint32_t B = R.nextBelow(4) == 0 ? A : uint32_t(R.nextBelow(N));
      Edges.push_back({A, B});
      if (R.nextBelow(3) == 0)
        Edges.push_back({B, A}); // an immediate reversed duplicate
    }
    // Pack partway, so the rest lands on a compacted edge list.
    size_t Split = Edges.empty() ? 0 : R.nextBelow(Edges.size());
    InterferenceGraph G(N);
    for (size_t E = 0; E < Edges.size(); ++E) {
      if (E == Split)
        G.finalize();
      G.addEdge(Edges[E].first, Edges[E].second);
    }
    expectRows(G, matrixDedupRows(N, Edges),
               "trial " + std::to_string(Trial));
  }
}

/// Every interference of \p F per class, in class node ids, duplicates
/// included, in the order a backward walk from each block's live-out
/// meets it: a def against each range live after it, except a copy's
/// source. This is the stream buildInterferenceGraphs feeds addEdge.
std::array<EdgeStream, NumRegClasses>
classEdgeStreams(const Function &F, const Liveness &LV,
                 const std::array<ClassGraph, NumRegClasses> &Graphs) {
  std::array<EdgeStream, NumRegClasses> Out;
  for (const BasicBlock &B : F.blocks()) {
    BitVector Live = LV.liveOut(B.Id);
    for (auto It = B.Insts.rbegin(); It != B.Insts.rend(); ++It) {
      if (It->hasDef()) {
        VRegId D = It->defReg();
        unsigned Cls = unsigned(F.regClass(D));
        Live.forEachSetBit([&](unsigned L) {
          if (L != D && !(It->isCopy() && L == It->Ops[1].Reg) &&
              unsigned(F.regClass(L)) == Cls)
            Out[Cls].push_back(
                {Graphs[Cls].VRegToNode[D], Graphs[Cls].VRegToNode[L]});
        });
        Live.reset(D);
      }
      It->forEachUse([&](VRegId U) { Live.set(U); });
    }
  }
  return Out;
}

TEST(InterferenceGraphCSRTest, ClassGraphsMatchMatrixDedup) {
  std::vector<std::pair<std::string, std::function<Function &(Module &)>>>
      Subjects;
  for (const Workload &W : allWorkloads())
    Subjects.push_back({W.Routine, W.Build});
  for (const MegaKernel &MK : megaKernelTestFamily())
    Subjects.push_back({MK.Name, MK.Build});
  ASSERT_EQ(Subjects.size(), 31u);
  for (auto &[Name, Build] : Subjects) {
    Module M;
    Function &F = Build(M);
    CFG G = CFG::compute(F);
    renumberLiveRanges(F, G);
    Liveness LV = Liveness::compute(F, G);
    auto Graphs = buildInterferenceGraphs(F, LV);
    auto Streams = classEdgeStreams(F, LV, Graphs);
    for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls)
      expectRows(Graphs[Cls].Graph,
                 matrixDedupRows(Graphs[Cls].Graph.numNodes(), Streams[Cls]),
                 Name + " class " + std::to_string(Cls));
  }
}

//===--------------------------------------------------------------------===//
// Heap-based spill candidate selection vs the linear rescan.
//===--------------------------------------------------------------------===//

InterferenceGraph makeRandomGraph(unsigned NumNodes, double AvgDegree,
                                  uint64_t Seed, double NoSpillP = 0.0) {
  InterferenceGraph G(NumNodes);
  Rng R(Seed);
  uint64_t Edges = uint64_t(NumNodes * AvgDegree / 2);
  for (uint64_t E = 0; E < Edges; ++E)
    G.addEdge(R.nextBelow(NumNodes), R.nextBelow(NumNodes));
  for (unsigned N = 0; N < NumNodes; ++N) {
    // Coarse costs make ratio ties common, exercising the id tie-break.
    G.node(N).SpillCost = double(1 + R.nextBelow(8));
    G.node(N).NoSpill = R.nextBool(NoSpillP);
  }
  G.finalize();
  return G;
}

/// The original O(n) rescan, kept verbatim as the reference oracle.
uint32_t pickSpillCandidateLinear(const InterferenceGraph &G,
                                  const DegreeBuckets &Buckets) {
  uint32_t Best = DegreeBuckets::None;
  double BestRatio = 0;
  bool BestNoSpill = true;
  for (uint32_t N = 0, E = G.numNodes(); N != E; ++N) {
    if (Buckets.isRemoved(N))
      continue;
    const IGNode &Node = G.node(N);
    uint32_t Deg = Buckets.degree(N);
    double Ratio = Node.NoSpill ? InterferenceGraph::InfiniteCost
                                : Node.SpillCost / double(Deg);
    bool Better;
    if (Best == DegreeBuckets::None)
      Better = true;
    else if (Node.NoSpill != BestNoSpill)
      Better = !Node.NoSpill;
    else
      Better = Ratio < BestRatio;
    if (Better) {
      Best = N;
      BestRatio = Ratio;
      BestNoSpill = Node.NoSpill;
    }
  }
  return Best;
}

/// Runs the simplify loop with both pickers in lockstep and returns the
/// stuck-step node sequence chosen by the heap (asserting each choice
/// equals the linear oracle's).
std::vector<uint32_t> runLockstep(const InterferenceGraph &G, unsigned K) {
  DegreeBuckets Buckets;
  {
    std::vector<uint32_t> Degrees(G.numNodes());
    for (uint32_t I = 0; I < G.numNodes(); ++I)
      Degrees[I] = G.degree(I);
    Buckets.init(Degrees);
  }
  SpillCandidateHeap Heap;
  std::vector<uint32_t> Picks;

  uint32_t Hint = 0;
  while (Buckets.numLive() != 0) {
    uint32_t D = Buckets.lowestNonEmpty(Hint);
    uint32_t Chosen;
    if (D < K) {
      Chosen = Buckets.head(D);
    } else {
      uint32_t FromHeap = Heap.pick(G, Buckets);
      uint32_t FromScan = pickSpillCandidateLinear(G, Buckets);
      EXPECT_EQ(FromHeap, FromScan)
          << "divergence after " << Picks.size() << " stuck steps";
      Chosen = FromHeap;
      Picks.push_back(Chosen);
    }
    Buckets.remove(Chosen);
    for (uint32_t M : G.neighbors(Chosen))
      if (!Buckets.isRemoved(M))
        Buckets.decrementDegree(M);
    Hint = D == 0 ? 0 : D - 1;
  }
  return Picks;
}

TEST(SpillHeapTest, MatchesLinearScanOnRandomGraphs) {
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    InterferenceGraph G =
        makeRandomGraph(400, 10.0 + double(Seed), 90 + Seed);
    std::vector<uint32_t> Picks = runLockstep(G, 4);
    EXPECT_FALSE(Picks.empty()) << "seed " << Seed
                                << ": graph never got stuck; weak test";
  }
  // Dense: one long stuck region where every pick decrements dozens of
  // neighbors, so most popped entries carry a stale degree.
  InterferenceGraph Dense = makeRandomGraph(800, 64.0, 4242);
  ASSERT_GE(2.0 * Dense.numEdges() / Dense.numNodes(), 60.0);
  EXPECT_GT(runLockstep(Dense, 8).size(), 400u) << "dense graph barely stuck";
  // Real first-pass class graphs with loop-weighted spill costs, at the
  // K the coloring benches use.
  for (const MegaKernel &MK : megaKernelTestFamily()) {
    Module M;
    Function &F = MK.Build(M);
    size_t Picks = 0;
    for (const ClassGraph &CG : buildColoringGraphs(F))
      Picks += runLockstep(CG.Graph, 8).size();
    EXPECT_GT(Picks, 0u) << MK.Name << " never got stuck; weak test";
  }
}

TEST(SpillHeapTest, MatchesLinearScanWithNoSpillNodes) {
  for (uint64_t Seed : {11u, 12u, 13u, 14u}) {
    // Enough NoSpill nodes that the stuck region must rank them last.
    InterferenceGraph G =
        makeRandomGraph(300, 12.0, 700 + Seed, /*NoSpillP=*/0.3);
    runLockstep(G, 3);
  }
}

TEST(SpillHeapTest, ColorGraphUnchangedByHeapPicker) {
  // End-to-end: Chaitin and Briggs over the same stuck-heavy graph
  // still satisfy the paper's subset guarantee, and colorings validate.
  InterferenceGraph G = makeRandomGraph(600, 14.0, 42);
  ColoringResult Chaitin = colorGraph(G, 6, Heuristic::Chaitin);
  ColoringResult Briggs = colorGraph(G, 6, Heuristic::Briggs);
  EXPECT_TRUE(isValidColoring(G, 6, Chaitin));
  EXPECT_TRUE(isValidColoring(G, 6, Briggs));
  EXPECT_LE(Briggs.Spilled.size(), Chaitin.Spilled.size());
  std::set<uint32_t> ChaitinSet(Chaitin.Spilled.begin(),
                                Chaitin.Spilled.end());
  for (uint32_t N : Briggs.Spilled)
    EXPECT_TRUE(ChaitinSet.count(N)) << "node " << N;
}

//===--------------------------------------------------------------------===//
// Module allocation: pooled output is bit-identical to serial.
//===--------------------------------------------------------------------===//

/// Allocates every function of \p M, unoptimized, through a cache-off
/// service whose pool has \p Workers threads.
ModuleAllocationResult allocateOnPool(Module &M, const AllocatorConfig &C,
                                      unsigned Workers) {
  service::ServiceConfig SC;
  SC.CacheEnabled = false;
  SC.Workers = Workers;
  service::AllocationService Svc(SC);
  ModuleAllocationResult R;
  std::vector<uint8_t> Hits;
  Svc.allocateParsed(M, C, /*Optimize=*/false, /*UseCache=*/false, R, Hits);
  return R;
}

/// Builds the determinism workload: a module of random functions plus
/// real routines, deterministic for a fixed \p Salt.
void buildWorkloadModule(Module &M, uint64_t Salt) {
  for (uint64_t I = 0; I < 6; ++I)
    buildRandomProgram(M, Salt + I);
  buildDAXPY(M);
  buildDDOT(M);
  buildQuicksort(M, 1000);
}

struct ModuleSnapshot {
  std::vector<std::string> Printed;
  std::vector<std::vector<int32_t>> Colors;
  std::vector<std::vector<std::string>> SpilledNames;
  bool Success = true;

  bool operator==(const ModuleSnapshot &O) const {
    return Printed == O.Printed && Colors == O.Colors &&
           SpilledNames == O.SpilledNames && Success == O.Success;
  }
};

ModuleSnapshot allocateSnapshot(uint64_t Salt, const AllocatorConfig &C,
                                unsigned Workers) {
  Module M;
  buildWorkloadModule(M, Salt);
  ModuleAllocationResult R = allocateOnPool(M, C, Workers);
  ModuleSnapshot S;
  S.Success = R.allSucceeded();
  for (unsigned I = 0; I < M.numFunctions(); ++I) {
    S.Printed.push_back(printFunction(M, M.function(I)));
    S.Colors.push_back(R.Functions[I].ColorOf);
    std::vector<std::string> Names;
    for (const PassRecord &P : R.Functions[I].Stats.Passes)
      Names.insert(Names.end(), P.SpilledNames.begin(),
                   P.SpilledNames.end());
    S.SpilledNames.push_back(std::move(Names));
  }
  return S;
}

TEST(AllocateModuleTest, ParallelIsBitIdenticalToSerial) {
  AllocatorConfig C;
  C.Machine = MachineInfo(8, 6); // tight enough to force spills
  ModuleSnapshot Serial = allocateSnapshot(5000, C, 1);
  ASSERT_TRUE(Serial.Success);
  bool SawSpill = false;
  for (const auto &Names : Serial.SpilledNames)
    SawSpill |= !Names.empty();
  EXPECT_TRUE(SawSpill) << "workload spilled nothing; weak test";

  for (unsigned Workers : {2u, 4u, 7u}) {
    ModuleSnapshot Parallel = allocateSnapshot(5000, C, Workers);
    EXPECT_TRUE(Serial == Parallel) << "workers=" << Workers;
  }
}

TEST(AllocateModuleTest, MatchesPerFunctionAllocateRegisters) {
  AllocatorConfig C;
  C.Machine = MachineInfo(7, 5);
  ModuleSnapshot Pooled = allocateSnapshot(9000, C, 3);

  Module M;
  buildWorkloadModule(M, 9000);
  for (unsigned I = 0; I < M.numFunctions(); ++I) {
    AllocationResult A = allocateRegisters(M.function(I), C);
    EXPECT_EQ(A.Success, true) << "function " << I;
    EXPECT_EQ(Pooled.Colors[I], A.ColorOf) << "function " << I;
    EXPECT_EQ(Pooled.Printed[I], printFunction(M, M.function(I)))
        << "function " << I;
  }
}

TEST(AllocateModuleTest, WorkerExceptionFailsOnlyThatFunction) {
  // A function whose allocation throws must come back as one Failed
  // result with a worker-error diagnostic; every other function of the
  // module still allocates, under both the serial and the pooled path.
  for (unsigned Workers : {1u, 4u}) {
    Module M;
    buildWorkloadModule(M, 5000);
    ASSERT_GE(M.numFunctions(), 2u);
    const std::string Victim = M.function(1).name();

    AllocatorConfig C;
    C.FaultInject.ThrowInFunction = Victim;
    ModuleAllocationResult R = allocateOnPool(M, C, Workers);
    ASSERT_EQ(R.Functions.size(), M.numFunctions());
    EXPECT_FALSE(R.allSucceeded());

    for (unsigned I = 0; I < M.numFunctions(); ++I) {
      const AllocationResult &A = R.Functions[I];
      if (M.function(I).name() == Victim) {
        EXPECT_FALSE(A.Success) << "workers=" << Workers;
        EXPECT_EQ(A.Outcome, AllocOutcome::Failed);
        EXPECT_EQ(A.Diag.code(), StatusCode::WorkerError);
        EXPECT_NE(A.Diag.toString().find(Victim), std::string::npos)
            << A.Diag.toString();
      } else {
        EXPECT_TRUE(A.Success)
            << "workers=" << Workers << " @" << M.function(I).name()
            << ": " << A.Diag.toString();
      }
    }
  }
}

TEST(AllocateModuleTest, WorkerExceptionDoesNotPoisonSiblingBudgets) {
  // The hardest combination: pool workers, per-function budgets, and
  // one function that throws mid-allocation. The thrown function must
  // come back Failed/WorkerError; every sibling must still produce a
  // usable (Converged or Degraded) allocation with its *own* budget
  // telemetry — a worker's death must not leak pool threads or latch a
  // sibling's budget token. Running the whole thing twice on one
  // service proves its pool survives.
  service::ServiceConfig SC;
  SC.CacheEnabled = false;
  SC.Workers = 4;
  service::AllocationService Svc(SC);
  for (int Round = 0; Round < 2; ++Round) {
    Module M;
    buildWorkloadModule(M, 7000);
    ASSERT_GE(M.numFunctions(), 3u);
    const std::string Victim = M.function(2).name();

    AllocatorConfig C;
    C.DeadlineSeconds = 30;                 // generous: must not trip
    C.MemoryBudgetBytes = 1ull << 30;
    C.FaultInject.ThrowInFunction = Victim;
    ModuleAllocationResult R;
    std::vector<uint8_t> Hits;
    Svc.allocateParsed(M, C, /*Optimize=*/false, /*UseCache=*/false, R,
                       Hits);
    ASSERT_EQ(R.Functions.size(), M.numFunctions());

    for (unsigned I = 0; I < M.numFunctions(); ++I) {
      const AllocationResult &A = R.Functions[I];
      if (M.function(I).name() == Victim) {
        EXPECT_FALSE(A.Success) << "round " << Round;
        EXPECT_EQ(A.Outcome, AllocOutcome::Failed);
        EXPECT_EQ(A.Diag.code(), StatusCode::WorkerError);
      } else {
        EXPECT_TRUE(A.Success)
            << "round " << Round << " @" << M.function(I).name() << ": "
            << A.Diag.toString();
        EXPECT_EQ(A.Outcome, AllocOutcome::Converged)
            << "round " << Round << " @" << M.function(I).name()
            << ": a sibling's budget latched: " << A.Diag.toString();
        // Each sibling carries its own token's telemetry: the
        // governed pipeline polled it at least once.
        EXPECT_GT(A.BudgetCheckpoints, 0u)
            << "round " << Round << " @" << M.function(I).name();
      }
    }
  }
}

} // namespace
