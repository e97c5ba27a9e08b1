//===- perfbench/harness/AllocOp.h - One traced allocation -----*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ALLOCOP_H
#define PERFBENCH_ALLOCOP_H

#include "Tracer.h"

#include "regalloc/Allocator.h"

namespace pb {

/// The op configuration of every allocation the benchmark makes: rac's
/// defaults, spelled out so no environment variable can change them —
/// Briggs coloring, aggressive coalescing, audit on, 16 int + 8 float
/// registers and RT/PC costs.
ra::AllocatorConfig opConfig();

/// Allocates \p F in place under \p C and returns allocateRegisters'
/// result.
///
/// With \p T enabled the call is broken into layers: for the coloring
/// backend the first Build-Simplify-Color pass is first replayed on a
/// copy of \p F, one span per public call (renumber, coalesce,
/// liveness, graph build, spill costs, coloring, spill insertion); then
/// the real allocateRegisters runs under "regalloc.allocate" (or
/// "linearscan.allocate"), and its result is audited again under
/// "regalloc.audit". \p AuditOk reports that audit (true when untraced).
/// \p ReplayMatches reports whether the replayed first pass spilled the
/// same ranges as the real one — when it does not, the layer numbers no
/// longer describe the allocator.
ra::AllocationResult allocateOp(ra::Function &F, const ra::AllocatorConfig &C,
                                Tracer &T, uint64_t Op, const Span *Parent,
                                bool &AuditOk, bool &ReplayMatches);

} // namespace pb

#endif // PERFBENCH_ALLOCOP_H
