//===- regalloc/SpillHeap.h - Lazy spill-candidate heap --------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// O(log n) selection of Chaitin's spill candidate — the live node
/// minimizing SpillCost / current degree (Section 2.3) — replacing the
/// O(n) rescan of every live node on every stuck step.
///
/// The heap is *lazy* and re-keyed on pop: the first stuck step
/// heapifies every live node once, and nothing outside \c pick ever
/// touches it again. A popped entry whose node was removed is dropped;
/// one whose stored degree is stale is pushed back at the node's
/// current degree. Degrees only fall during simplify, so a stored
/// cost/degree ratio is never above the node's true one: the first
/// entry popped at its node's current degree beats every other live
/// node. The heap holds at most one entry per node.
///
/// Ordering is identical to the linear scan it replaces: spillable
/// nodes beat NoSpill nodes, then lowest cost/degree ratio, then lowest
/// node id (the paper's footnote 4 tie-break) — so Chaitin and Briggs
/// still make exactly the same choices.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_SPILLHEAP_H
#define RA_REGALLOC_SPILLHEAP_H

#include "regalloc/DegreeBuckets.h"
#include "regalloc/InterferenceGraph.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace ra {

/// Min-heap of (spillability, cost/degree, node id) over live nodes,
/// with lazy invalidation against a DegreeBuckets worklist.
class SpillCandidateHeap {
public:
  /// Pops the best spill candidate among \p Buckets' live nodes, every
  /// one of which must have a nonzero degree. The first call heapifies
  /// them all — the common no-spill allocation never does. The caller
  /// must remove the returned node from \p Buckets (its entry has been
  /// consumed).
  uint32_t pick(const InterferenceGraph &G, const DegreeBuckets &Buckets) {
    if (!Built)
      build(G, Buckets);
    assert(Entries.size() <= G.numNodes() && "one entry per node at most");
    while (!Entries.empty()) {
      std::pop_heap(Entries.begin(), Entries.end(), HeapLess);
      Entry Top = Entries.back();
      Entries.pop_back();
      if (Buckets.isRemoved(Top.Node))
        continue;
      uint32_t Degree = Buckets.degree(Top.Node);
      if (Degree == Top.Degree)
        return Top.Node;
      // Stale: re-key at the current degree and keep popping.
      Entries.push_back(makeEntry(G.node(Top.Node), Top.Node, Degree));
      std::push_heap(Entries.begin(), Entries.end(), HeapLess);
    }
    assert(false && "no live node to spill");
    return DegreeBuckets::None;
  }

private:
  struct Entry {
    double Ratio;    ///< SpillCost / Degree (NoSpill: infinite).
    uint32_t Node;
    uint32_t Degree; ///< Degree when keyed; stale when it disagrees.
    bool NoSpill;
  };

  /// Heapifies every live node at its current degree. O(live nodes).
  void build(const InterferenceGraph &G, const DegreeBuckets &Buckets) {
    assert(!Built && "heap already built");
    Entries.reserve(Buckets.numLive());
    for (uint32_t N = 0, E = G.numNodes(); N != E; ++N)
      if (!Buckets.isRemoved(N))
        Entries.push_back(makeEntry(G.node(N), N, Buckets.degree(N)));
    std::make_heap(Entries.begin(), Entries.end(), HeapLess);
    Built = true;
  }

  static Entry makeEntry(const IGNode &Node, uint32_t N, uint32_t Degree) {
    assert(Degree > 0 && "stuck with an isolated node");
    double Ratio = Node.NoSpill ? InterferenceGraph::InfiniteCost
                                : Node.SpillCost / double(Degree);
    return {Ratio, N, Degree, Node.NoSpill};
  }

  /// Strict-weak "A is a better candidate than B". Matches the linear
  /// scan: spillable first, then ratio, then lowest id.
  static bool better(const Entry &A, const Entry &B) {
    if (A.NoSpill != B.NoSpill)
      return !A.NoSpill;
    if (A.Ratio != B.Ratio)
      return A.Ratio < B.Ratio;
    return A.Node < B.Node;
  }

  /// std::*_heap comparator: a max-heap under this predicate is a
  /// min-heap under \c better.
  static bool HeapLess(const Entry &A, const Entry &B) {
    return better(B, A);
  }

  std::vector<Entry> Entries;
  bool Built = false;
};

} // namespace ra

#endif // RA_REGALLOC_SPILLHEAP_H
