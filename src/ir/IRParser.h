//===- ir/IRParser.h - Textual IR input ------------------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the textual IR syntax produced by IRPrinter. Used by tests and
/// examples to write small programs directly, and to round-trip modules.
///
//===----------------------------------------------------------------------===//

#ifndef RA_IR_IRPARSER_H
#define RA_IR_IRPARSER_H

#include "ir/Module.h"

#include <cstdint>
#include <string>

namespace ra {

/// Most array elements one module may declare, all arrays together:
/// 2^27, which the simulator holds in 1 GiB at 8 bytes an element.
constexpr uint64_t MaxArrayElements = uint64_t(1) << 27;

/// Parses \p Text into \p M (which should be empty). On failure returns
/// false and stores a "line N: message" diagnostic in \p Error. An array
/// size past 32 bits, or arrays totalling more than MaxArrayElements, is
/// such a failure.
bool parseModule(const std::string &Text, Module &M, std::string &Error);

} // namespace ra

#endif // RA_IR_IRPARSER_H
