//===- regalloc/Coalesce.h - Aggressive copy coalescing --------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaitin-style aggressive coalescing: a copy "d = s" whose operands do
/// not interfere is eliminated by merging the two live ranges. The
/// paper's build phase runs "repeatedly building the graph and
/// coalescing registers" until no copy can be merged; \c coalesceAll
/// drives that loop. Each round tests interference on the same CSR
/// class graphs that coloring uses (BuildGraph.h), built over just the
/// candidate copies' operands, so conservative coalescing works at any
/// function size.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_COALESCE_H
#define RA_REGALLOC_COALESCE_H

#include "analysis/CFG.h"
#include "target/MachineInfo.h"

#include <optional>

namespace ra {

class Budget;

/// How eagerly copies are merged.
enum class CoalescePolicy : uint8_t {
  /// Chaitin's rule: merge every non-interfering copy. Can create
  /// uncolorable nodes (merging raises degree).
  Aggressive,
  /// The later Briggs-lineage refinement: merge only when the combined
  /// node has fewer than k neighbors of significant degree (>= k), so
  /// coalescing can never turn a colorable graph uncolorable.
  Conservative,
};

/// One live range merged away by coalescing (metrics-table feed).
struct CoalescedCopy {
  std::string Merged; ///< Name of the range that disappeared.
  std::string Into;   ///< Name of the surviving (root) range.
  RegClass Class = RegClass::Int;
};

/// Result of the coalescing fixpoint.
struct CoalesceStats {
  unsigned CopiesRemoved = 0; ///< Copies eliminated by merging.
  unsigned Rounds = 0;        ///< Build+merge rounds until fixpoint.
  /// Nodes in the largest interference graphs any round built: the
  /// operands of that round's candidate copies (every vreg under the
  /// Conservative policy); 0 when no round had a candidate or its
  /// graphs' charge was refused.
  unsigned GraphNodes = 0;
  /// Every merge in decision order — feeds the per-range metrics
  /// table's Coalesced rows.
  std::vector<CoalescedCopy> Merges;
};

/// Runs one build+merge round: builds the interference graphs over the
/// candidate copies' operands (same class, distinct registers), merges
/// every coalescable copy whose operands were not already touched by a
/// merge this round, rewrites operands, and deletes the dead copies. A
/// function with no candidate returns before solving liveness. Returns
/// the number of copies removed; when \p Stats is non-null, appends one
/// CoalescedCopy per merge to its Merges and raises its GraphNodes. For
/// the Conservative policy, \p Machine supplies the per-class k. \p Gov
/// is charged for the graphs once they are built; a refused charge
/// merges nothing.
unsigned coalesceOnePass(Function &F, const CFG &G,
                         CoalescePolicy Policy = CoalescePolicy::Aggressive,
                         const std::optional<MachineInfo> &Machine = {},
                         CoalesceStats *Stats = nullptr,
                         Budget *Gov = nullptr);

/// Repeats \c coalesceOnePass until no copy can be merged. \p Gov, when
/// non-null, is polled once per round; a tripped budget stops early —
/// safe at any round boundary, since coalescing is an optimization and
/// the IR is valid between rounds.
CoalesceStats coalesceAll(Function &F, const CFG &G,
                          CoalescePolicy Policy = CoalescePolicy::Aggressive,
                          const std::optional<MachineInfo> &Machine = {},
                          Budget *Gov = nullptr);

} // namespace ra

#endif // RA_REGALLOC_COALESCE_H
