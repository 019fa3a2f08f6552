//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict command-line value parsing shared by the benchmark binaries and
/// the swift-difftest tool. Unlike atoi/atof these reject trailing junk,
/// negative values, overflow, and empty strings instead of silently
/// producing 0 (or, via a sign-extension round-trip, 4294967295 workers).
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SUPPORT_CLIPARSE_H
#define SWIFT_SUPPORT_CLIPARSE_H

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

namespace swift {
namespace cli {

/// Parses a non-negative decimal integer. The whole string must be digits;
/// rejects empty input, signs, junk, and values above \p Max.
inline bool parseU64(std::string_view Text, uint64_t &Out,
                     uint64_t Max = UINT64_MAX) {
  if (Text.empty())
    return false;
  // V * 10 + Digit <= Max exactly when V < Max / 10, or V == Max / 10 and
  // Digit <= Max % 10.
  const uint64_t MaxDiv10 = Max / 10, MaxMod10 = Max % 10;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (V > MaxDiv10 || (V == MaxDiv10 && Digit > MaxMod10))
      return false; // overflow past Max
    V = V * 10 + Digit;
  }
  Out = V;
  return true;
}

/// Parses an unsigned int in [\p Min, \p Max].
inline bool parseUnsigned(std::string_view Text, unsigned &Out,
                          unsigned Min = 0, unsigned Max = UINT32_MAX) {
  uint64_t V;
  if (!parseU64(Text, V, Max) || V < Min)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

/// Parses a non-negative, finite double. The whole string must be
/// consumed; rejects empty input, "abc", "1.5x", nan, inf, and negatives.
inline bool parseNonNegDouble(std::string_view Text, double &Out) {
  if (Text.empty())
    return false;
  std::string Buf(Text);
  char *End = nullptr;
  double V = std::strtod(Buf.c_str(), &End);
  if (End != Buf.c_str() + Buf.size())
    return false;
  if (!std::isfinite(V) || V < 0.0)
    return false;
  Out = V;
  return true;
}

/// If \p Arg begins with "NAME=" (e.g. "--budget="), returns true and
/// points \p Value at the remainder.
inline bool matchValueFlag(std::string_view Arg, std::string_view Name,
                           std::string_view &Value) {
  if (Arg.size() < Name.size() || Arg.substr(0, Name.size()) != Name)
    return false;
  Value = Arg.substr(Name.size());
  return true;
}

} // namespace cli
} // namespace swift

#endif // SWIFT_SUPPORT_CLIPARSE_H
