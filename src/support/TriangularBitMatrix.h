//===- support/TriangularBitMatrix.h - Symmetric bit matrix ----*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lower-triangular bit matrix for symmetric relations over node ids.
/// Chaitin's allocator keeps the interference relation in exactly this
/// shape for O(1) membership tests, alongside adjacency vectors for
/// iteration [CACC 81]. Here only the coalescer queries membership.
/// Sizes are computed in 64 bits; BitVector's 32-bit count caps a
/// matrix at MaxNodes nodes, which callers check before building one.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SUPPORT_TRIANGULARBITMATRIX_H
#define RA_SUPPORT_TRIANGULARBITMATRIX_H

#include "support/BitVector.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace ra {

/// Symmetric boolean relation over {0, ..., N-1} stored as the strictly
/// lower triangle of an N x N bit matrix. The diagonal is not stored:
/// a node never relates to itself.
class TriangularBitMatrix {
public:
  TriangularBitMatrix() = default;

  explicit TriangularBitMatrix(unsigned NumNodes) { reset(NumNodes); }

  /// Bits in the lower triangle over \p NumNodes nodes.
  static constexpr uint64_t numBits(uint64_t NumNodes) {
    return NumNodes < 2 ? 0 : NumNodes * (NumNodes - 1) / 2;
  }

  /// Bytes a matrix over \p NumNodes nodes allocates.
  static constexpr uint64_t bytesFor(uint64_t NumNodes) {
    return (numBits(NumNodes) + 63) / 64 * 8;
  }

  /// Largest node count whose bits BitVector can index.
  static constexpr uint64_t MaxNodes = 92682;

  /// Discards all pairs and resizes to \p NumNodes nodes.
  void reset(unsigned NumNodes) {
    assert(NumNodes <= MaxNodes && "matrix past BitVector's 32-bit size");
    N = NumNodes;
    Bits = BitVector(unsigned(numBits(N)));
  }

  unsigned numNodes() const { return N; }

  /// Marks the unordered pair {A, B}. A must differ from B.
  void set(unsigned A, unsigned B) { Bits.set(index(A, B)); }

  /// Clears the unordered pair {A, B}.
  void clear(unsigned A, unsigned B) { Bits.reset(index(A, B)); }

  /// True iff the unordered pair {A, B} is marked. A == B returns false.
  bool test(unsigned A, unsigned B) const {
    if (A == B)
      return false;
    return Bits.test(index(A, B));
  }

  /// Marks {A, B}; returns true iff the pair was previously clear.
  bool testAndSet(unsigned A, unsigned B) {
    return Bits.testAndSet(index(A, B));
  }

private:
  /// Maps an unordered pair to its bit position in the lower triangle.
  unsigned index(unsigned A, unsigned B) const {
    assert(A != B && "no self edges in a triangular matrix");
    assert(A < N && B < N && "node id out of range");
    uint64_t Hi = std::max(A, B), Lo = std::min(A, B);
    return unsigned(numBits(Hi) + Lo);
  }

  unsigned N = 0;
  BitVector Bits;
};

} // namespace ra

#endif // RA_SUPPORT_TRIANGULARBITMATRIX_H
