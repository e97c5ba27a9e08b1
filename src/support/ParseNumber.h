//===- support/ParseNumber.h - Checked numeric text parsing ----*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict parsing of user-supplied numbers: command-line flag values and
/// the values of racd's "k=v" wire config. Unlike atoi/strtoul, bad text
/// is a Status, never a silent 0, a negative wrapped to a huge unsigned,
/// or a value that overflows a later shift. Empty text, signs, non-digit
/// characters, trailing garbage and values outside the caller's range
/// are all refused with a message that names the accepted range.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SUPPORT_PARSENUMBER_H
#define RA_SUPPORT_PARSENUMBER_H

#include "support/Status.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace ra {

/// Largest megabyte count whose byte value (N << 20) fits in 64 bits —
/// the ceiling for every "-mb" flag and wire value.
constexpr uint64_t MaxMegabytes = UINT64_MAX >> 20;

/// Parses \p Text as a plain decimal integer in [\p Min, \p Max] into
/// \p Out. \p Out is left untouched on failure.
template <typename T>
Status parseUnsigned(const std::string &Text, T &Out, uint64_t Min = 0,
                     uint64_t Max = std::numeric_limits<T>::max()) {
  auto Refuse = [&] {
    return Status::error(StatusCode::InvalidInput,
                         "expected an integer in [" + std::to_string(Min) +
                             ", " + std::to_string(Max) + "], got '" +
                             Text + "'");
  };
  if (Text.empty())
    return Refuse();
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return Refuse();
    unsigned D = unsigned(C - '0');
    if (D > Max || V > (Max - D) / 10)
      return Refuse(); // V * 10 + D would exceed Max
    V = V * 10 + D;
  }
  if (V < Min)
    return Refuse();
  Out = T(V);
  return Status();
}

/// Parses \p Text as a finite, non-negative decimal number into \p Out.
/// \p Out is left untouched on failure.
inline Status parseNonNegative(const std::string &Text, double &Out) {
  const char *Begin = Text.c_str();
  char *End = nullptr;
  // strtod skips leading blanks and accepts a sign, "inf" and "nan";
  // requiring a leading digit or point refuses all of them.
  bool Lead = !Text.empty() && ((Text[0] >= '0' && Text[0] <= '9') ||
                                Text[0] == '.');
  double V = Lead ? std::strtod(Begin, &End) : 0;
  if (!Lead || End != Begin + Text.size() || !std::isfinite(V))
    return Status::error(StatusCode::InvalidInput,
                         "expected a finite non-negative number, got '" +
                             Text + "'");
  Out = V;
  return Status();
}

} // namespace ra

#endif // RA_SUPPORT_PARSENUMBER_H
