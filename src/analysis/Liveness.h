//===- analysis/Liveness.h - Backward live-variable analysis ---*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward live-variable dataflow over virtual registers. The
/// interference-graph builder walks each block backward from LiveOut,
/// so only the block-boundary sets are stored here.
///
//===----------------------------------------------------------------------===//

#ifndef RA_ANALYSIS_LIVENESS_H
#define RA_ANALYSIS_LIVENESS_H

#include "analysis/CFG.h"
#include "support/BitVector.h"

namespace ra {

/// A dense renumbering of some of a function's vregs. Liveness computed
/// over a subset tracks only its members, with bit bitOf(V) standing for
/// V; the coalescer uses this to solve only for copy operands.
class VRegSubset {
public:
  static constexpr uint32_t NotTracked = ~0u;

  explicit VRegSubset(unsigned NumVRegs) : Bit(NumVRegs, NotTracked) {}

  /// Adds \p V as the next bit unless it is already a member.
  void add(VRegId V) {
    if (Bit[V] == NotTracked) {
      Bit[V] = Members.size();
      Members.push_back(V);
    }
  }

  /// V's bit, or NotTracked.
  uint32_t bitOf(VRegId V) const { return Bit[V]; }
  /// The member at bit \p B.
  VRegId vregOf(uint32_t B) const { return Members[B]; }
  unsigned size() const { return Members.size(); }

private:
  std::vector<uint32_t> Bit;
  std::vector<VRegId> Members;
};

/// \p V's bit in liveness solved over \p Only (V itself when null).
inline uint32_t trackedBit(const VRegSubset *Only, VRegId V) {
  return Only ? Only->bitOf(V) : V;
}

/// Live-in/live-out sets per basic block, over vreg ids (or over the bits
/// of a VRegSubset).
class Liveness {
public:
  /// Solves liveness for \p F using \p G. With \p Only, tracks just its
  /// members; each set then has Only->size() bits.
  static Liveness compute(const Function &F, const CFG &G,
                          const VRegSubset *Only = nullptr);

  const BitVector &liveIn(uint32_t B) const { return LiveIn[B]; }
  const BitVector &liveOut(uint32_t B) const { return LiveOut[B]; }

  /// Upward-exposed uses of block \p B (used before any local def).
  const BitVector &upwardExposed(uint32_t B) const { return UEVar[B]; }

  /// Registers defined anywhere in block \p B.
  const BitVector &defs(uint32_t B) const { return VarKill[B]; }

private:
  std::vector<BitVector> LiveIn, LiveOut, UEVar, VarKill;
};

} // namespace ra

#endif // RA_ANALYSIS_LIVENESS_H
