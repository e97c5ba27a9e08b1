//===- bench/megakernel_scaling.cpp - Select cost on giant graphs ---------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Select-phase timing on the mega-kernel family (tens of thousands of
// live ranges in one interference graph) plus a raw random-CSR stress
// graph: best-of-N sequential Select seconds per subject, then an
// audited end-to-end allocation of the 10k ramp for scale. Numbers land
// in the "megakernel_scaling" section of BENCH_allocator.json.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "regalloc/Allocator.h"
#include "regalloc/Coloring.h"
#include "support/ParseNumber.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "workloads/MegaKernel.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace ra;

namespace {

/// Raw CSR stress graph: no IR behind it, just a random high-degree
/// interference structure at a scale the generated kernels don't reach.
InterferenceGraph makeRandomGraph(unsigned NumNodes, double AvgDegree,
                                  uint64_t Seed) {
  InterferenceGraph G(NumNodes);
  Rng R(Seed);
  uint64_t Edges = uint64_t(NumNodes * AvgDegree / 2);
  for (uint64_t E = 0; E < Edges; ++E)
    G.addEdge(R.nextBelow(NumNodes), R.nextBelow(NumNodes));
  for (unsigned N = 0; N < NumNodes; ++N)
    G.node(N).SpillCost = double(1 + R.nextBelow(8));
  G.finalize();
  return G;
}

void die(const std::string &Subject, const std::string &What) {
  std::fprintf(stderr, "megakernel_scaling: %s: %s\n", Subject.c_str(),
               What.c_str());
  std::exit(1);
}

/// Times sequential Select over a finalized graph, best of \p Repeats
/// to damp scheduler noise.
void runSubject(const std::string &Name, const InterferenceGraph &G,
                unsigned K, unsigned Repeats, BenchJson &J) {
  ColoringResult Seq;
  double SeqBest = 0;
  for (unsigned R = 0; R < Repeats; ++R) {
    ColoringResult C = colorGraph(G, K, Heuristic::Briggs);
    if (R == 0 || C.SelectSeconds < SeqBest)
      SeqBest = C.SelectSeconds;
    Seq = std::move(C);
  }
  std::printf("%-16s %7u nodes, K=%u: sequential select %8.3f ms, "
              "%zu spilled\n",
              Name.c_str(), G.numNodes(), K, SeqBest * 1e3,
              Seq.Spilled.size());
  J.set(Name + ".nodes", G.numNodes());
  J.set(Name + ".k", K);
  J.set(Name + ".spilled", uint64_t(Seq.Spilled.size()));
  J.set(Name + ".seq_select_seconds", SeqBest);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath = BenchJson::consumeFlag(Argc, Argv);
  unsigned Repeats = 3;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--repeats") != 0 || I + 1 == Argc) {
      std::fprintf(stderr,
                   "usage: megakernel_scaling [--repeats N] "
                   "[--bench-json FILE]\n");
      return 2;
    }
    if (Status Err = parseUnsigned(Argv[++I], Repeats, 1); !Err.ok())
      die(Argv[I - 1], Err.toString());
  }

  BenchJson J("megakernel_scaling");
  J.set("repeats", Repeats);

  std::printf("Sequential Select on the mega-kernel family "
              "(best of %u runs)\n\n",
              Repeats);

  // Generated kernels: build the IR, replicate the build phase, then
  // time Select on the biggest class graph.
  for (const MegaKernel &MK : megaKernelFamily()) {
    Module M;
    Function &F = MK.Build(M);
    auto Graphs = buildColoringGraphs(F);
    ClassGraph *Big = nullptr;
    for (ClassGraph &CG : Graphs)
      if (!Big || CG.Graph.numNodes() > Big->Graph.numNodes())
        Big = &CG;
    if (!Big || Big->Graph.numNodes() == 0)
      die(MK.Name, "empty interference graph");
    runSubject(MK.Name, Big->Graph, 8, Repeats, J);
  }

  // Raw CSR stress: high average degree, no structure to exploit.
  {
    InterferenceGraph G = makeRandomGraph(30000, 24.0, 20260808);
    runSubject("csr.rand.30k", G, 16, Repeats, J);
  }

  // End-to-end: the full allocator on the 10k ramp, audited.
  {
    Module M;
    Function &F = megaKernelFamily()[0].Build(M);
    AllocatorConfig C;
    C.Audit = true;
    Timer T;
    T.start();
    AllocationResult A = allocateRegisters(F, C);
    T.stop();
    if (!A.Success || A.Outcome != AllocOutcome::Converged)
      die("end-to-end", "audited allocation of mega.ramp.10k failed: " +
                            A.Diag.toString());
    std::printf("\nend-to-end: mega.ramp.10k audited allocation in "
                "%.3f s (%u passes)\n",
                T.seconds(), A.Stats.numPasses());
    J.set("end_to_end.seconds", T.seconds());
    J.set("end_to_end.passes", A.Stats.numPasses());
    J.set("end_to_end.outcome", std::string(allocOutcomeName(A.Outcome)));
  }

  if (!JsonPath.empty() && !J.writeMerged(JsonPath))
    std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
  return 0;
}
