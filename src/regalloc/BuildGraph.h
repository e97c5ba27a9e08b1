//===- regalloc/BuildGraph.h - Interference graph construction -*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds interference graphs from liveness. Each block is walked
/// backward from its live-out set; a definition interferes with every
/// live range live at that point — except, for a Copy, the copy source
/// (Chaitin's rule, which is what makes coalescing possible).
///
/// Integer and floating-point registers live in disjoint files on the
/// target, so one graph is built per register class, each with a dense
/// node numbering and a mapping back to vreg ids. The same builder
/// serves coloring (every vreg) and coalescing (the operands of its
/// candidate copies), so interference is held one way: adjacency.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_BUILDGRAPH_H
#define RA_REGALLOC_BUILDGRAPH_H

#include "analysis/Liveness.h"
#include "regalloc/InterferenceGraph.h"

#include <array>

namespace ra {

class Budget;

/// The interference graph of one register class plus the node<->vreg
/// correspondence.
struct ClassGraph {
  RegClass Class = RegClass::Int;
  InterferenceGraph Graph;
  std::vector<VRegId> NodeToVReg;   ///< dense node id -> vreg id
  std::vector<uint32_t> VRegToNode; ///< vreg id -> node id or ~0u
};

/// Builds per-class interference graphs for \p F over every vreg, or,
/// when \p LV was solved over \p Only, over that subset's members in
/// member order. Spill costs on the nodes are left zero; callers fill
/// them via \c setNodeCosts. Only the every-vreg build is traced as a
/// BuildGraph span.
///
/// \p Gov, when non-null, is polled once per block during the
/// interference walk; a tripped budget stops the build early (the
/// graphs are then partial — callers must check the token and discard
/// them before using them).
std::array<ClassGraph, NumRegClasses>
buildInterferenceGraphs(const Function &F, const Liveness &LV,
                        Budget *Gov = nullptr,
                        const VRegSubset *Only = nullptr);

/// Copies \p Costs (per vreg) onto the graph nodes and marks spill
/// temporaries NoSpill.
void setNodeCosts(const Function &F, const std::vector<double> &Costs,
                  ClassGraph &CG);

} // namespace ra

#endif // RA_REGALLOC_BUILDGRAPH_H
