//===- regalloc/InterferenceGraph.h - Interference graph -------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interference graph: nodes are live ranges, edges connect live
/// ranges that are simultaneously live. Chaitin [CACC 81] also keeps a
/// triangular bit matrix for membership tests. Here the only membership
/// queries are coalescing's, one per candidate copy, and a scan of the
/// shorter row answers them, so the graph is adjacency alone: O(N + E)
/// bytes instead of N^2/8, at any node count.
///
/// Adjacency is stored in CSR (compressed sparse row) form: \c addEdge
/// appends to a flat edge list, duplicates included, and a
/// count/prefix-sum/fill pass packs every node's neighbors into one
/// contiguous array, then drops each row's repeats. A row lists its
/// neighbors in the order their first edge was added, so removal order
/// and colorings do not depend on how often the build met an edge.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_INTERFERENCEGRAPH_H
#define RA_REGALLOC_INTERFERENCEGRAPH_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace ra {

/// Per-node allocator metadata.
struct IGNode {
  double SpillCost = 0;    ///< Chaitin's precomputed spill cost estimate.
  bool NoSpill = false;    ///< Spill temporaries: never choose to spill.
  uint32_t ExternalId = 0; ///< Client handle (vreg id for the allocator).
  std::string Name;        ///< Debug label.
};

/// Undirected interference graph over dense node ids [0, numNodes()).
class InterferenceGraph {
public:
  InterferenceGraph() = default;

  explicit InterferenceGraph(unsigned NumNodes) { reset(NumNodes); }

  /// Discards everything and allocates \p NumNodes isolated nodes.
  void reset(unsigned NumNodes) {
    Nodes.assign(NumNodes, IGNode());
    EdgeA.clear();
    EdgeB.clear();
    CSRValid = false;
  }

  unsigned numNodes() const { return Nodes.size(); }
  unsigned numEdges() const {
    finalize();
    return EdgeA.size();
  }

  IGNode &node(unsigned N) {
    assert(N < Nodes.size() && "node out of range");
    return Nodes[N];
  }
  const IGNode &node(unsigned N) const {
    assert(N < Nodes.size() && "node out of range");
    return Nodes[N];
  }

  /// Adds the undirected edge {A, B}; a self edge is ignored and a
  /// duplicate is dropped by the next pack. Invalidates the CSR layout;
  /// it is rebuilt on the next query.
  void addEdge(unsigned A, unsigned B) {
    assert(A < Nodes.size() && B < Nodes.size() && "node out of range");
    if (A == B)
      return;
    EdgeA.push_back(A);
    EdgeB.push_back(B);
    CSRValid = false;
  }

  /// O(min degree) scan of the shorter of the two rows.
  bool interferes(unsigned A, unsigned B) const {
    if (degree(A) > degree(B))
      std::swap(A, B);
    std::span<const uint32_t> Row = neighbors(A);
    return std::find(Row.begin(), Row.end(), B) != Row.end();
  }

  /// Neighbors of \p N in first-insertion order, as a view into the CSR
  /// array. Building the CSR arrays is done lazily on first use (and by
  /// \c finalize); concurrent readers must finalize first.
  std::span<const uint32_t> neighbors(unsigned N) const {
    assert(N < Nodes.size() && "node out of range");
    finalize();
    return {Flat.data() + Offsets[N], Offsets[N + 1] - Offsets[N]};
  }

  /// Degree in the full (unsimplified) graph.
  unsigned degree(unsigned N) const { return neighbors(N).size(); }

  /// Packs the adjacency into CSR form (count / prefix-sum / fill /
  /// dedup). Idempotent; call before sharing the graph across threads
  /// so the lazy build in \c neighbors can never race.
  void finalize() const {
    if (!CSRValid)
      buildCSR();
  }

  /// Effectively-infinite spill cost for must-keep nodes.
  static constexpr double InfiniteCost = std::numeric_limits<double>::max();

  /// Bytes of the per-node arrays: metadata, row offsets and the pack's
  /// scratch. Edges add to this once the build has found them.
  static uint64_t estimateBytes(uint64_t NumNodes) {
    return NumNodes * (sizeof(IGNode) + 3 * sizeof(uint32_t));
  }

  /// Bytes the graph holds, edge list and CSR rows included.
  uint64_t memoryBytes() const {
    return estimateBytes(numNodes()) +
           (uint64_t(EdgeA.capacity()) + EdgeB.capacity() + Flat.capacity()) *
               sizeof(uint32_t);
  }

private:
  void buildCSR() const {
    unsigned N = Nodes.size();
    // Count every endpoint, duplicates included; prefix-sum to offsets.
    Offsets.assign(N + 1, 0);
    for (size_t E = 0, EC = EdgeA.size(); E != EC; ++E) {
      ++Offsets[EdgeA[E] + 1];
      ++Offsets[EdgeB[E] + 1];
    }
    for (unsigned I = 0; I < N; ++I)
      Offsets[I + 1] += Offsets[I];
    // Fill each row in edge insertion order.
    Flat.resize(Offsets[N]);
    std::vector<uint32_t> Cursor(Offsets.begin(), Offsets.end() - 1);
    for (size_t E = 0, EC = EdgeA.size(); E != EC; ++E) {
      Flat[Cursor[EdgeA[E]]++] = EdgeB[E];
      Flat[Cursor[EdgeB[E]]++] = EdgeA[E];
    }
    // Keep each row's first occurrences, sliding rows down over the
    // dropped repeats. Seen[M] == I marks M as kept in row I.
    std::vector<uint32_t> Seen(N, ~0u);
    uint32_t Kept = 0;
    for (uint32_t I = 0, Begin = 0; I < N; ++I) {
      uint32_t End = Offsets[I + 1];
      Offsets[I] = Kept;
      for (uint32_t P = Begin; P != End; ++P)
        if (Seen[Flat[P]] != I) {
          Seen[Flat[P]] = I;
          Flat[Kept++] = Flat[P];
        }
      Begin = End;
    }
    Offsets[N] = Kept;
    Flat.resize(Kept);
    // Compact the edge list to its distinct edges, in order, so a later
    // addEdge repacks the same rows: edge {A, B} is a first occurrence
    // iff B is the next unvisited entry of A's row (and A of B's).
    std::vector<uint32_t> &Next = Cursor;
    Next.assign(Offsets.begin(), Offsets.end() - 1);
    size_t Unique = 0;
    for (size_t E = 0, EC = EdgeA.size(); E != EC; ++E) {
      uint32_t A = EdgeA[E], B = EdgeB[E];
      if (Next[A] == Offsets[A + 1] || Flat[Next[A]] != B)
        continue;
      assert(Flat[Next[B]] == A && "rows out of step with the edge list");
      ++Next[A];
      ++Next[B];
      EdgeA[Unique] = A;
      EdgeB[Unique] = B;
      ++Unique;
    }
    EdgeA.resize(Unique);
    EdgeB.resize(Unique);
    CSRValid = true;
  }

  std::vector<IGNode> Nodes;
  /// Edge list in insertion order; the pack drops repeats.
  mutable std::vector<uint32_t> EdgeA, EdgeB;

  // CSR arrays, derived from the edge list on demand.
  mutable std::vector<uint32_t> Offsets; ///< Row starts, size numNodes()+1.
  mutable std::vector<uint32_t> Flat;    ///< Concatenated neighbor lists.
  mutable bool CSRValid = false;
};

} // namespace ra

#endif // RA_REGALLOC_INTERFERENCEGRAPH_H
