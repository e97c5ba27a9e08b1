//===- analysis/Renumber.h - Live-range renumbering ------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaitin's "renumber" phase: splits every virtual register into its
/// def-use webs (maximal sets of definitions and uses that must share a
/// register) and rewrites the function over a fresh, dense register id
/// space in which one vreg == one live range. The paper's build phase
/// begins with "finding and renumbering distinct live ranges"; this pass
/// is that step. Webs are built from liveness with a union-find over the
/// definitions plus one join node per (block, live-in register) — the
/// phi placement of pruned SSA, found without dominance frontiers — so
/// the cost follows live-in sets rather than blocks x definitions.
///
//===----------------------------------------------------------------------===//

#ifndef RA_ANALYSIS_RENUMBER_H
#define RA_ANALYSIS_RENUMBER_H

#include "analysis/CFG.h"

namespace ra {

/// Statistics reported by the renumbering pass.
struct RenumberStats {
  unsigned VRegsBefore = 0; ///< Register count before splitting.
  unsigned VRegsAfter = 0;  ///< Live-range count after splitting.
  unsigned EntryNodes = 0;  ///< Join nodes: (block, live-in vreg) pairs.
};

/// Splits \p F's virtual registers into def-use webs, rewriting every
/// operand. After this pass each virtual register is one live range.
/// Registers that are never defined (would be verifier errors) keep one
/// web so the function stays well-formed.
RenumberStats renumberLiveRanges(Function &F, const CFG &G);

} // namespace ra

#endif // RA_ANALYSIS_RENUMBER_H
